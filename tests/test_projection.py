"""Variable elimination and affine projections of polyhedra."""

from __future__ import annotations

from oracles import poly_equal, poly_subset

from hellykit.geometry import Halfspace, Polyhedron
from hellykit.projection import affine_project, eliminate_variable, project_polyhedron
from hellykit.rationals import ZERO, rat, vec


def box(lo, hi):
    return Polyhedron.box(vec(lo), vec(hi))


def test_eliminate_variable_shadow_of_a_triangle():
    # x >= 0, y >= 0, x + y <= 2; eliminating y leaves 0 <= x <= 2
    leq = [
        (vec((-1, 0)), rat(0)),
        (vec((0, -1)), rat(0)),
        (vec((1, 1)), rat(2)),
    ]
    out_leq, out_eq = eliminate_variable(2, leq, [], 1)
    p = Polyhedron(1, tuple(Halfspace(c, r) for c, r in out_leq), ())
    assert p.contains(vec((0,))) and p.contains(vec((2,)))
    assert not p.contains(vec((rat(21, 10),)))
    assert not out_eq


def test_eliminate_variable_is_exact_on_int_rows():
    # x + 2y <= 3 with 2x + y = 1: x = (1 - y) / 2 leaves (3/2) y <= 5/2
    out_leq, out_eq = eliminate_variable(2, [((1, 2), 3)], [((2, 1), 1)], 0)
    assert (out_leq, out_eq) == ([((rat(3, 2),), rat(5, 2))], [])
    ((coeffs, rhs),) = out_leq
    assert all(type(v) is type(ZERO) for v in (*coeffs, rhs))


def test_project_box_along_diagonal_is_a_slab():
    b = box((0, 0), (2, 2))
    shadow = project_polyhedron(b, vec((1, 1)))
    # the shadow lives one dimension down and spans the diagonal width
    assert shadow.dim == 1
    assert not shadow.is_empty()


def test_projection_preserves_intersection_witnesses():
    a = box((0, 0), (2, 2))
    b = box((1, 1), (3, 3))
    pa, pb = affine_project([a, b], vec((0, 1)))
    assert not pa.intersected(pb).is_empty()


def test_projection_can_create_overlap():
    # vertically separated boxes overlap after projecting out y
    a = box((0, 0), (2, 1))
    b = box((1, 5), (3, 6))
    assert a.intersected(b).is_empty()
    pa, pb = affine_project([a, b], vec((0, 1)))
    assert not pa.intersected(pb).is_empty()


def test_poly_subset_and_equal():
    inner = box((1, 1), (2, 2))
    outer = box((0, 0), (3, 3))
    assert poly_subset(inner, outer)
    assert not poly_subset(outer, inner)
    assert poly_equal(inner, box((1, 1), (2, 2)))
    assert not poly_equal(inner, outer)


def test_projected_polyhedron_drops_redundant_rows():
    # a fat stack of parallel rows must not survive into the shadow
    rows = tuple(Halfspace(vec((1, 1)), rat(k)) for k in range(2, 12))
    rows += (Halfspace(vec((-1, 0)), rat(0)), Halfspace(vec((0, -1)), rat(0)))
    shadow = project_polyhedron(Polyhedron(2, rows, ()), vec((0, 1)))
    assert len(shadow.inequalities) <= 2
    assert shadow.contains(vec((0,))) and shadow.contains(vec((2,)))
    assert not shadow.contains(vec((3,)))
