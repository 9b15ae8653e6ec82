"""``strongpack survey``: a CSV of packing numbers against both cut sizes
on seeded random hosts."""

from ..errors import PreconditionError, SizeLimitError
from . import EXIT_OK, _limits, _write_out

SURVEY_COLUMNS = ["instance", "n", "m", "k", "lambda_S", "c2", "c1", "status"]


def add_arguments(p) -> None:
    p.add_argument("--family", default="symmetric", choices=["symmetric", "semi-comp"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--limit-n", type=int, dest="limit_n")
    p.add_argument("--limit-m", type=int, dest="limit_m")
    p.add_argument("--out")


def run(args) -> int:
    import csv
    import io
    import random

    from .. import exact as ex
    from .. import generators as gen

    if args.trials < 0:
        raise PreconditionError("--trials must be nonnegative")
    rng = random.Random(args.seed)
    limits = _limits(args)
    symmetric = args.family == "symmetric"
    buf = io.StringIO()
    buf.write("# strongpack survey v1: lambda_S <= c2 and, on symmetric hosts, c2 <= 2*c1\n")
    writer = csv.writer(buf)
    writer.writerow(SURVEY_COLUMNS)
    for i in range(args.trials):
        if symmetric:
            n = rng.randint(4, 8)
            d = gen.random_strong_symmetric(n, rng.randint(0, 2), rng)
        else:
            from .. import composition as cp

            spec = gen.random_semicomplete_composition(rng.randint(2, 3), 3, rng)
            d = cp.compose(spec)
        k = rng.randint(2, max(2, min(4, d.n)))
        terminals = sorted(rng.sample(range(d.n), k))
        try:
            limits.check(d)
        except SizeLimitError:
            writer.writerow([i, d.n, d.m, k, "", "", "", "skipped"])
            continue
        lam = ex.exact_lambda(d, terminals, limits)[0]
        c2 = ex.min_strong_cut(d, terminals).size
        c1 = ex.steiner_cut_undirected(d, terminals) if symmetric else ""
        writer.writerow([i, d.n, d.m, k, lam, c2, c1, "ok"])
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK
