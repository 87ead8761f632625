from fractions import Fraction

import pytest

from tests.oracles.hull import in_convex_hull

F = Fraction


def test_vertex_is_in_hull():
    assert in_convex_hull((1, 0), [(1, 0), (0, 1)])


def test_midpoint_is_in_hull():
    assert in_convex_hull((F(1, 2), F(1, 2)), [(1, 0), (0, 1)])


def test_point_off_segment_is_outside():
    assert not in_convex_hull((1, 1), [(1, 0), (0, 1)])


def test_point_beyond_endpoint_is_outside():
    assert not in_convex_hull((2, -1), [(1, 0), (0, 1)])


def test_single_vertex_hull():
    assert in_convex_hull((3, 4), [(3, 4)])
    assert not in_convex_hull((3, 5), [(3, 4)])


def test_interior_of_triangle():
    triangle = [(0, 0), (3, 0), (0, 3)]
    assert in_convex_hull((1, 1), triangle)
    assert in_convex_hull((F(3, 2), F(3, 2)), triangle)  # boundary
    assert not in_convex_hull((2, 2), triangle)


def test_exactness_at_razor_thin_margin():
    # 1/3 is on the segment, 1/3 + 1e-30-ish rational is not.
    seg = [(0, 0), (1, 1)]
    assert in_convex_hull((F(1, 3), F(1, 3)), seg)
    eps = F(1, 10**30)
    assert not in_convex_hull((F(1, 3) + eps, F(1, 3)), seg)


def test_degenerate_duplicate_vertices():
    assert in_convex_hull((1, 2), [(1, 2), (1, 2), (1, 2)])


def test_empty_vertex_set():
    assert not in_convex_hull((0, 0), [])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        in_convex_hull((1, 2), [(1, 2, 3)])


def test_rejects_floats():
    with pytest.raises(TypeError):
        in_convex_hull((0.5, 0.5), [(1, 0), (0, 1)])


def test_higher_dimensional_box():
    cube = [
        (x, y, z)
        for x in (0, 1)
        for y in (0, 1)
        for z in (0, 1)
    ]
    assert in_convex_hull((F(1, 2), F(1, 3), F(1, 7)), cube)
    assert not in_convex_hull((F(1, 2), F(1, 3), F(8, 7)), cube)
