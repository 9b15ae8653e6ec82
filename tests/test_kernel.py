"""The search kernel's own contract: its size cap and its recorded name."""

import pytest

import strongpack as sp
from strongpack import _kernel
from strongpack.errors import SizeLimitError


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_refuses_65_vertices_with_size_limit_error(search):
    assert _kernel.MAX_VERTICES == 64
    with pytest.raises(SizeLimitError, match="65 vertices"):
        search(65, [(0, 1), (1, 0)], 0b11, 2)


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_accepts_64_vertices(search):
    arcs = [(0, 1), (1, 0)]
    assert search(64, arcs, 0b11, 1) == [[0, 1]]
    assert search(64, arcs, 0b11, 2) is None


def test_backend_is_pure():
    assert sp.kernel_backend() == "pure"
