"""``strongpack survey``: a CSV of packing numbers against both cut sizes
on seeded random hosts.  A row is ``skipped`` when its packing number needs
a search on a host above the limits."""

from .. import exact as ex
from ..errors import PreconditionError, SizeLimitError
from . import EXIT_OK, _write_out

SURVEY_COLUMNS = ["instance", "n", "m", "k", "lambda_S", "c2", "c1", "status"]

OPTIONS = {"--family": {"default": "symmetric", "choices": ["symmetric", "semi-comp"]},
           "--seed": {"type": int, "default": 0}, "--trials": {"type": int, "default": 10},
           "--limit-n": {"type": int, "default": ex.DEFAULT_LIMITS.max_vertices},
           "--limit-m": {"type": int, "default": ex.DEFAULT_LIMITS.max_arcs}, "--out": {}}


def run(args) -> int:
    import csv
    import io
    import random

    from .. import generators as gen

    if args.trials < 0:
        raise PreconditionError("--trials must be nonnegative")
    rng = random.Random(args.seed)
    limits = ex.SolverLimits(args.limit_n, args.limit_m)
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

            spec = gen.random_composition(rng.randint(2, 3), 3, rng, symmetric=False)
            d = cp.compose(spec)
        k = rng.randint(2, max(2, min(4, d.n)))
        terminals = sorted(rng.sample(range(d.n), k))
        try:
            lam = ex.exact_lambda(d, terminals, limits)[0]
        except SizeLimitError:
            writer.writerow([i, d.n, d.m, k, "", "", "", "skipped"])
            continue
        c2 = ex.min_strong_cut(d, terminals).size
        c1 = ex.steiner_cut_undirected(d, terminals) if symmetric else ""
        writer.writerow([i, d.n, d.m, k, lam, c2, c1, "ok"])
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK
