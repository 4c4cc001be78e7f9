"""Halfspace intersections, certificates, flats, and vertex enumeration."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from conftest import PROPERTY, SMALL, count_calls, points, polyhedra
from oracles import chart_polytope_from_vertices, chart_vertices, line_parameter_interval

from hellykit import constructions, instances
from hellykit.colorful import ColoredFamily
from hellykit.constructions import (
    _centroid,
    _max_margin,
    _simplex_facets,
    _simplex_vertices,
    generate_planar,
    generate_simplex_family,
    max_simplex_facets_crossed,
)
from hellykit.errors import DimensionError, InputError
from hellykit.geometry import (
    AffineFlat,
    Halfspace,
    Hyperplane,
    Polyhedron,
    _flat_rows,
    first_meeting,
    flat_crosses,
    hyperplane_crosses,
    joint_lp,
    line_meets_relint,
    line_through,
    polyhedra_intersect,
    polyhedra_meet,
    polytope_from_vertices,
    verify_farkas_entries,
    vertices_of,
)
from hellykit.instances import (
    random_ch_family,
    random_ch_pair,
    random_fractional_instance,
    random_polygon_family,
    random_two_colored,
)
from hellykit.lp import (
    Feasible,
    LinearProgram,
    decide_feasibility,
    lp_solve,
    verify_farkas,
    verify_point,
)
from hellykit.projection import project_polyhedron
from hellykit.rationals import (
    ZERO,
    dot,
    normalize_row,
    nullspace,
    rank,
    rat,
    vadd,
    vec,
    vscale,
    vsub,
)
from hellykit.serialize import family_from_doc, family_to_doc


def box(lo, hi):
    return Polyhedron.box(vec(lo), vec(hi))


def test_halfspace_and_hyperplane_membership():
    h = Halfspace(vec((1, 2)), rat(4))
    assert h.contains(vec((0, 2)))
    assert not h.contains(vec((1, 2)))
    p = Hyperplane(vec((1, 0)), rat(3))
    assert p.contains(vec((3, 9)))
    assert not p.contains(vec((2, 9)))


def test_hyperplane_is_sign_canonical():
    assert Hyperplane(vec((-2, 0)), rat(-6)) == Hyperplane(vec((1, 0)), rat(3))


def test_zero_normal_rejected():
    with pytest.raises(InputError):
        Halfspace(vec((0, 0)), rat(1))
    with pytest.raises(InputError):
        Hyperplane(vec((0, 0)), rat(0))


def test_box_membership_and_emptiness():
    b = box((0, 0), (2, 3))
    assert b.contains(vec((1, 3)))
    assert not b.contains(vec((1, 4)))
    assert not b.is_empty()
    assert b.intersected(box((5, 5), (6, 6))).is_empty()


def test_row_width_mismatch_is_a_dimension_error():
    with pytest.raises(DimensionError):
        Polyhedron(2, (Halfspace(vec((1,)), rat(0)),), ())


def test_intersection_certificate_point():
    cert = polyhedra_intersect([box((0, 0), (4, 4)), box((2, 2), (6, 6))])
    assert cert.feasible
    for s in (box((0, 0), (4, 4)), box((2, 2), (6, 6))):
        assert s.contains(cert.point.coords)


def test_intersection_certificate_farkas():
    sets = [box((0, 0), (1, 1)), box((3, 0), (4, 1))]
    cert = polyhedra_intersect(sets)
    assert not cert.feasible
    assert cert.farkas
    assert verify_farkas_entries(sets, cert.farkas)


def test_tampered_farkas_fails_verification():
    sets = [box((0, 0), (1, 1)), box((3, 0), (4, 1))]
    cert = polyhedra_intersect(sets)
    entries = list(cert.farkas)
    first = entries[0]
    entries[0] = type(first)(
        first.set_index, first.kind, first.row_index, first.multiplier + 1
    )
    assert not verify_farkas_entries(sets, entries)


def test_flat_crosses_segment_geometry():
    b = box((0, 0), (2, 2))
    hit = AffineFlat.line(vec((1, -5)), vec((0, 1)))
    miss = AffineFlat.line(vec((5, -5)), vec((0, 1)))
    assert flat_crosses(hit, b)
    assert not flat_crosses(miss, b)


def test_line_parameter_interval_is_exact():
    b = box((0, 0), (2, 2))
    line = AffineFlat.line(vec((-1, 1)), vec((1, 0)))
    lo, hi = line_parameter_interval(line, b)
    assert (lo, hi) == (rat(1), rat(3))


def test_hyperplane_crosses_boundary_touch_counts():
    b = box((0, 0), (2, 2))
    assert hyperplane_crosses(Hyperplane(vec((1, 0)), rat(2)), b)
    assert not hyperplane_crosses(Hyperplane(vec((1, 0)), rat(3)), b)


def test_line_through_two_points():
    line = line_through(vec((1, 1)), vec((3, 5)))
    assert line.k == 1
    assert flat_crosses(line, box((2, 2), (4, 4)))


def test_line_through_equal_points_rejected():
    with pytest.raises(InputError):
        line_through(vec((1, 1)), vec((1, 1)))


def test_polytope_from_vertices_round_trip():
    verts = (vec((0, 0)), vec((4, 0)), vec((0, 4)))
    poly = polytope_from_vertices(2, verts)
    assert sorted(vertices_of(poly)) == sorted(verts)
    assert poly.contains(vec((1, 1)))
    assert not poly.contains(vec((3, 3)))


def test_polytope_from_vertices_segment():
    seg = polytope_from_vertices(2, (vec((0, 0)), vec((2, 2))))
    assert seg.contains(vec((1, 1)))
    assert not seg.contains(vec((1, 0)))
    assert sorted(vertices_of(seg)) == [(rat(0), rat(0)), (rat(2), rat(2))]


def assert_hull_matches_the_chart(dim, verts):
    """The integer hull ingestion equals the rational chart reference row for
    row, the vertex hint included (`Polyhedron.__eq__` ignores the hint)."""
    got = polytope_from_vertices(dim, verts)
    want = chart_polytope_from_vertices(dim, verts)
    assert (got.inequalities, got.equalities) == (want.inequalities, want.equalities)
    assert got.vertices_hint == want.vertices_hint
    assert all(type(x) is Fraction for v in got.vertices_hint for x in v)


@st.composite
def vertex_lists(draw):
    """(d, points) for d = 1..4: 1..d+2 drawn points, then repeats of drawn
    points and points on the line through two of them, in shuffled order."""
    d = draw(st.integers(1, 4))
    pts = draw(st.lists(points(d), min_size=1, max_size=d + 2))
    for _ in range(draw(st.integers(0, 2))):
        p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        if draw(st.booleans()):
            pts.append(p)
        else:
            t = draw(SMALL)
            pts.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
    return d, draw(st.permutations(pts))


@PROPERTY
@given(vertex_lists())
def test_polytope_from_vertices_matches_the_chart_reference(case):
    assert_hull_matches_the_chart(*case)


def test_polytope_from_vertices_matches_the_chart_on_degenerate_lists():
    for dim, verts in [
        (1, [(3,), (3,)]),
        (1, [("1/2",), (-2,), (0,)]),
        (2, [(1, 1), (2, 2), (3, 3), (2, 2)]),
        (2, [(0, 0), (4, 0), (0, 4), (1, 1), (2, 2)]),
        (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), ("1/2", "1/2", 0)]),
        (4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        (4, [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)]),
    ]:
        assert_hull_matches_the_chart(dim, [vec(v) for v in verts])


def test_polytope_from_vertices_matches_the_chart_on_the_benchmark_families(monkeypatch):
    """Every hull ingested by the builds of the sweep and cover families on
    the sub-seeds of benchmark seed 7: planar and simplex constructions, the
    facet-crossing simplices and the fractional instances."""
    modules = (constructions, instances)
    calls = [count_calls(monkeypatch, m, "polytope_from_vertices") for m in modules]
    for s in (7000, 7001, 7002):
        generate_planar(3, s)
        generate_planar(2, s)
        generate_planar(3, s + 500)
        generate_simplex_family(2, 1, s)
        generate_simplex_family(3, 1, s)
        random_fractional_instance(s)
    max_simplex_facets_crossed(3)
    max_simplex_facets_crossed(4)
    recorded = [args for found in calls for args in found]
    assert {len(verts[0]) for _, verts in recorded} == {2, 3, 4}
    for dim, verts in recorded:
        assert_hull_matches_the_chart(dim, verts)


def test_vertices_of_a_box_without_hint():
    b = box((0, 0), (1, 2))
    assert len(vertices_of(b)) == 4


def assert_vertices_match_the_chart(poly):
    """Integer vertex enumeration equals the rational chart path: the same
    vertices, in the same order, as Fractions; vertex hints are ignored."""
    poly = dataclasses.replace(poly, vertices_hint=None)
    got = vertices_of(poly)
    assert got == chart_vertices(poly)
    assert all(type(x) is Fraction for v in got for x in v)
    return got


def test_vertices_of_dependent_equality_rows():
    # x = 0, y = 0, x + y = 0 fix the z-axis; z in [0, 1] cuts a segment
    rows = (Hyperplane((1, 0, 0), 0), Hyperplane((0, 1, 0), 0), Hyperplane((1, 1, 0), 0))
    seg = Polyhedron(3, (Halfspace((0, 0, 1), 1), Halfspace((0, 0, -1), 0)), rows)
    assert assert_vertices_match_the_chart(seg) == [vec((0, 0, 1)), vec((0, 0, 0))]


def test_vertices_of_inconsistent_equality_rows():
    ineqs = box((-5, -5, -5), (5, 5, 5)).inequalities
    rows = (Hyperplane((1, 0, 0), 0), Hyperplane((0, 1, 0), 0), Hyperplane((1, 1, 0), 1))
    assert assert_vertices_match_the_chart(Polyhedron(3, ineqs, rows)) == []
    parallel = (Hyperplane((1, 1), 0), Hyperplane((1, 1), 1))
    assert assert_vertices_match_the_chart(Polyhedron(2, (), parallel)) == []


@pytest.mark.parametrize(
    "poly, expected",
    [
        (Polyhedron(2, (Halfspace((1, 0), 0),)), []),
        (Polyhedron(2, (Halfspace((-1, 0), 0), Halfspace((0, -1), 0))), [vec((0, 0))]),
        (Polyhedron.whole_space(3), []),
        (Polyhedron(2, (), (Hyperplane((1, 2), 3),)), []),
        (box((1, 1), (0, 0)), []),
        (box((0, 0, 0), (1, 1, 1)).with_rows(eqs=(Hyperplane((1, 1, 1), 4),)), []),
        (polytope_from_vertices(3, [vec(("1/3", "2/7", 5))]), [vec(("1/3", "2/7", 5))]),
        (
            Polyhedron(2, (Halfspace((1, 0), 0),), (Hyperplane((1, 0), 1), Hyperplane((0, 1), 1))),
            [],
        ),
        (
            box(("1/2", 0), (1, "1/3")),
            [vec((1, "1/3")), vec((1, 0)), vec(("1/2", "1/3")), vec(("1/2", 0))],
        ),
    ],
    ids=[
        "halfplane",
        "quadrant",
        "whole-space",
        "line",
        "empty-box",
        "empty-slice",
        "one-point",
        "point-cut-off",
        "box",
    ],
)
def test_vertices_of_unbounded_empty_and_one_point_sets(poly, expected):
    assert assert_vertices_match_the_chart(poly) == expected


def test_translated_box_contains_shifted_point():
    b = box((0, 0), (1, 1)).translated(vec((5, 5)))
    assert b.contains(vec((rat(11, 2), rat(11, 2))))
    assert not b.contains(vec((0, 0)))


def test_translation_width_must_match():
    with pytest.raises(DimensionError):
        polytope_from_vertices(2, [(0, 0), (1, 0), (0, 1)]).translated((5,))


# ---------------------------------------------------------------------------
# stored rows are Python ints: the LP tableau and the line kernel read them
# as they are, so a rational slipping back in would cost both their speed


def _stored_rows(obj):
    if isinstance(obj, (Halfspace, Hyperplane)):
        yield obj
    elif isinstance(obj, Polyhedron):
        yield from obj.inequalities + obj.equalities
    elif isinstance(obj, ColoredFamily):
        yield from _stored_rows(obj.all_sets())
    else:
        for item in obj:
            yield from _stored_rows(item)


def _mixed_family():
    return ColoredFamily(
        2,
        (
            (box(("1/2", 0), (3, "7/3")), polytope_from_vertices(2, [(0, 0), ("1/3", 1)])),
            (Polyhedron(2, (Halfspace((rat(2, 3), "-0.5"), 4),)),),
        ),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: [Halfspace((2, -4), 6), Hyperplane((-3, 9), 12)],
        lambda: [
            Halfspace((rat(2, 3), rat(-4, 3)), rat(2)),
            Hyperplane((rat(-1, 2), rat(1, 4)), rat(5, 6)),
        ],
        lambda: [Halfspace(("1/2", "-0.25"), "3/7"), Hyperplane(("-2", "3/5"), "1.5")],
        lambda: box(("-1/2", 0), (3, "2/3")),
        lambda: polytope_from_vertices(3, [(0, 0, 0), ("1/2", 1, 0), (0, "1/3", 2)]),
        lambda: box((0, 0), (1, 1)).translated(("1/3", "-2/7")),
        lambda: [
            project_polyhedron(polytope_from_vertices(3, verts), direction)
            for verts, direction in (
                ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 2, "1/3")),
                ([(0, 0, 0), (1, 2, 3)], (0, 0, 1)),
            )
        ],
        lambda: family_from_doc(family_to_doc(_mixed_family()))[0],
        lambda: random_polygon_family(3),
        lambda: random_two_colored(3, 2),
        lambda: random_ch_pair(3),
        lambda: random_ch_family(3, 2),
        lambda: random_fractional_instance(3)[:2],
        lambda: generate_planar(2, 7).family,
        lambda: generate_simplex_family(2, 1, 0).family,
    ],
    ids=[
        "int-rows",
        "rational-rows",
        "string-rows",
        "box",
        "polytope-from-vertices",
        "translated",
        "project-polyhedron",
        "serialize-round-trip",
        "random-polygon-family",
        "random-two-colored",
        "random-ch-pair",
        "random-ch-family",
        "random-fractional-instance",
        "generate-planar",
        "generate-simplex-family",
    ],
)
def test_stored_rows_are_python_ints(build):
    rows = list(_stored_rows(build()))
    assert rows
    for h in rows:
        assert all(type(x) is int for x in h.normal) and type(h.offset) is int


# ---------------------------------------------------------------------------
# integer line-crossing kernel against its two rational oracles

HUGE = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**12))
COORD = st.one_of(SMALL, HUGE)
EPS = st.sampled_from([Fraction(0), Fraction(1, 10**9), Fraction(-1, 10**9), Fraction(1, 7)])


def _orthogonal(n, w):
    if len(n) == 2:
        return (-n[1], n[0])
    return (n[1] * w[2] - n[2] * w[1], n[2] * w[0] - n[0] * w[2], n[0] * w[1] - n[1] * w[0])


@st.composite
def lines_against(draw, poly):
    """Free lines, lines through a vertex (tangency), and lines parallel to a
    facet, on it or just off it; rational directions, some huge denominators."""
    d = poly.dim
    base = draw(points(d, COORD))
    direction = draw(points(d, COORD).filter(any))
    kind = draw(st.sampled_from(["free", "vertex", "parallel"]))
    verts = vertices_of(poly)
    if kind == "vertex" and verts:
        base = draw(st.sampled_from(verts))
    elif kind == "parallel" and poly.inequalities:
        h = draw(st.sampled_from(poly.inequalities))
        w = draw(points(d).filter(lambda w: any(_orthogonal(h.normal, w))))
        direction = tuple(draw(SMALL.filter(bool)) * v for v in _orthogonal(h.normal, w))
        on_facet = [v for v in verts if dot(h.normal, v) == h.offset]
        if on_facet:
            base = draw(st.sampled_from(on_facet))
        else:
            t = (h.offset - dot(h.normal, base)) / dot(h.normal, h.normal)
            base = tuple(x + t * n for x, n in zip(base, h.normal))
        eps = draw(EPS)
        base = tuple(x + eps * n for x, n in zip(base, h.normal))
    return AffineFlat.line(base, direction)


def _assert_crossing_agrees(line, poly):
    got = flat_crosses(line, poly)
    assert got == (line_parameter_interval(line, poly) is not None)
    leq, eq = _flat_rows(line, poly)
    assert got == isinstance(lp_solve(LinearProgram(1, leq=tuple(leq), eq=tuple(eq))), Feasible)
    return got


@PROPERTY
@given(st.data())
def test_line_crossing_matches_interval_and_lp(data):
    poly = data.draw(polyhedra(data.draw(st.sampled_from([2, 3]))))
    _assert_crossing_agrees(data.draw(lines_against(poly)), poly)


@st.composite
def flats_against(draw, poly):
    """k-flats with 2 <= k < d: free, through a vertex (tangency), or
    parallel to a facet, on it or just off it; some huge coordinates."""
    d = poly.dim
    k = draw(st.integers(2, d - 1))
    base = draw(points(d, COORD))
    directions = draw(st.lists(points(d, COORD), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["free", "vertex", "parallel"]))
    verts = vertices_of(poly)
    if kind == "vertex" and verts:
        base = draw(st.sampled_from(verts))
    elif kind == "parallel" and poly.inequalities:
        h = draw(st.sampled_from(poly.inequalities))
        along = nullspace([h.normal], d)
        directions = [
            tuple(sum(c * v[i] for c, v in zip(coeffs, along)) for i in range(d))
            for coeffs in draw(st.lists(points(d - 1), min_size=k, max_size=k))
        ]
        on_facet = [v for v in verts if dot(h.normal, v) == h.offset]
        if on_facet:
            base = draw(st.sampled_from(on_facet))
        else:
            t = (h.offset - dot(h.normal, base)) / dot(h.normal, h.normal)
            base = tuple(x + t * n for x, n in zip(base, h.normal))
        eps = draw(EPS)
        base = tuple(x + eps * n for x, n in zip(base, h.normal))
    assume(rank(directions) == k)
    return AffineFlat(d, base, tuple(directions))


@PROPERTY
@given(st.data())
def test_flat_crossing_matches_the_intersection_with_the_flat_rows(data):
    # the oracle writes the flat as d - k equality rows in ambient space and
    # asks polyhedra_intersect; flat_crosses solves in the flat's parameters
    poly = data.draw(polyhedra(data.draw(st.sampled_from([3, 4]))))
    flat = data.draw(flats_against(poly))
    normals = nullspace(flat.directions, flat.dim)
    rows = tuple(Hyperplane(n, dot(n, flat.base)) for n in normals)
    on_flat = Polyhedron(flat.dim, (), rows)
    assert flat_crosses(flat, poly) == polyhedra_intersect([poly, on_flat]).feasible


# ---------------------------------------------------------------------------
# the transposed Farkas decision against the primal tableau


@PROPERTY
@given(st.data())
def test_transposed_decision_matches_the_primal_tableau(data):
    # joint systems of 1-4 drawn sets: equality rows, empty, unbounded and
    # one-point sets all occur among them
    d = data.draw(st.sampled_from([2, 3]))
    sets = data.draw(st.lists(polyhedra(d), min_size=1, max_size=4))
    lp = joint_lp(sets)[0]
    out = decide_feasibility(lp)
    assert isinstance(out, Feasible) == isinstance(lp_solve(lp), Feasible)
    if isinstance(out, Feasible):
        assert verify_point(lp, out.point)
        assert all(s.contains(out.point) for s in sets)
    else:
        assert verify_farkas(lp, out)
        named = [m for m in (*out.leq_multipliers, *out.eq_multipliers) if m]
        assert 0 < len(named) <= d + 1
    cert = polyhedra_meet(sets)
    assert cert.feasible == isinstance(out, Feasible)
    assert cert.feasible or len(cert.farkas) <= d + 1


TRIANGLE = polytope_from_vertices(2, [vec(p) for p in ((0, 0), (4, 0), (0, 4))])
SEGMENT = polytope_from_vertices(2, (vec((0, 0)), vec((2, 2))))
POINT = polytope_from_vertices(3, (vec(("1/3", "2/7", 5)),))
TINY = Fraction(1, 10**12)


@pytest.mark.parametrize(
    "poly, base, direction, expected",
    [
        (TRIANGLE, (4, 0), (1, 1), True),  # tangent at a vertex only
        (TRIANGLE, (4 + TINY, 0), (1, 1), False),
        (TRIANGLE, (7, 0), ("1/3", 0), True),  # along a facet
        (TRIANGLE, (7, -TINY), ("1/3", 0), False),  # parallel, just outside
        (TRIANGLE, (7, TINY), ("1/3", 0), True),  # parallel, just inside
        (SEGMENT, (1, 1), (1, "-1/3"), True),
        (SEGMENT, (5, 5), ("1/2", "1/2"), True),  # the segment's own line
        (SEGMENT, (5, 5 + TINY), ("1/2", "1/2"), False),
        (POINT, ("1/3", "2/7", 5), ("1/2", "1/3", "1/5"), True),
        (POINT, ("1/3", "2/7", 5 + TINY), ("1/2", "1/3", "1/5"), False),
        (Polyhedron(2, (Halfspace(vec((1, 0)), rat(0)),)), (TINY, 0), (0, 1), False),
        (Polyhedron(2, (Halfspace(vec((1, 0)), rat(0)),)), (TINY, 0), (1, 1), True),
        (Polyhedron.whole_space(3), (TINY, 0, 0), ("1/9", 0, 0), True),
    ],
)
def test_line_crossing_boundary_cases(poly, base, direction, expected):
    assert _assert_crossing_agrees(AffineFlat.line(vec(base), vec(direction)), poly) is expected


# ---------------------------------------------------------------------------
# strict line kernel (relative-interior crossing) against the margin LP


def _assert_relint_agrees(line, poly):
    """line_meets_relint against the LP oracle: the largest common slack of
    the inequality rows over the line's points on the equality rows (None
    when there is no such point) is positive.  Returns (decision, margin)."""
    got = line_meets_relint(line, poly)
    margin = _max_margin(1, (), *_flat_rows(line, poly))[0]
    assert got == (margin is not None and margin > 0)
    return got, margin


@PROPERTY
@given(st.data())
def test_strict_line_kernel_matches_the_margin_lp(data):
    poly = data.draw(polyhedra(data.draw(st.sampled_from([2, 3]))))
    _assert_relint_agrees(data.draw(lines_against(poly)), poly)


@st.composite
def carried_hulls_and_lines(draw):
    """Hulls of 1..d points in R^d, so every one carries equality rows, with
    lines inside the carrier (direction between two of the points) or free,
    based at a point or the centroid, optionally shifted off the carrier."""
    d = draw(st.sampled_from([2, 3, 4]))
    pts = [vec(p) for p in draw(st.lists(points(d), min_size=1, max_size=d))]
    poly = polytope_from_vertices(d, pts)
    base = draw(st.sampled_from(pts + [_centroid(pts)]))
    direction = draw(points(d))
    if len(pts) > 1 and draw(st.booleans()):
        p, q = draw(st.permutations(pts))[:2]
        direction = vsub(q, p)
    if not any(direction):
        direction = (1,) + (0,) * (d - 1)
    base = vadd(base, vscale(draw(EPS), draw(points(d))))
    return poly, AffineFlat.line(base, direction)


@PROPERTY
@given(carried_hulls_and_lines())
def test_strict_line_kernel_matches_the_margin_lp_on_carried_sets(case):
    poly, line = case
    assert poly.equalities
    _assert_relint_agrees(line, poly)


def _facet_cases(d):
    """Lines against each facet of the d-simplex the facet-crossing bound
    scores, as (facet, base, direction, LP margin); positive margins reach
    the LP's cap of 1."""
    verts = _simplex_vertices(d)
    for skip, facet in enumerate(_simplex_facets(verts)):
        w = [v for j, v in enumerate(verts) if j != skip]
        opposite, center = verts[skip], _centroid(w)
        inward = vsub(opposite, center)
        yield facet, center, vsub(w[1], w[0]), 1  # in the carrier, through the centroid
        if d >= 3:  # in the plane the carrier is the facet's own line
            # barycentric (1, t, -t, 0, ...): meets the facet at w0 only
            yield facet, w[0], vsub(w[1], w[2]), 0
        yield facet, center, inward, 1  # crossing the carrier at an interior point
        yield facet, w[0], vsub(opposite, w[0]), 0  # crossing it at a vertex
        off = vadd(center, vscale(rat(1, 7), inward))
        yield facet, off, vsub(w[1], w[0]), None  # parallel to the carrier, off it


@pytest.mark.parametrize("d", [2, 3, 4])
def test_strict_line_kernel_on_simplex_facets(d):
    cases = list(_facet_cases(d))
    assert len(cases) == (d + 1) * (5 if d >= 3 else 4)
    for facet, base, direction, margin in cases:
        got, lp_margin = _assert_relint_agrees(AffineFlat.line(base, direction), facet)
        assert lp_margin == margin
        assert got is (margin == 1)


def test_strict_line_kernel_checks_its_arguments():
    square = box((0, 0), (1, 1))
    with pytest.raises(DimensionError):
        line_meets_relint(AffineFlat.line(vec((0, 0, 0)), vec((1, 0, 0))), square)
    with pytest.raises(InputError):
        line_meets_relint(AffineFlat(2, vec((0, 0))), square)


def _reference_line(p, q):
    """The rational formula: primitive integer v along q - p with a positive
    leading entry, t = p . v / v . v, base = p - t v."""
    v, _ = normalize_row(vsub(q, p), ZERO)
    if next(x for x in v if x) < 0:
        v = tuple(-x for x in v)
    t = dot(p, v) / dot(v, v)
    return vsub(p, tuple(t * x for x in v)), (v,)


@PROPERTY
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(points(d, COORD), points(d, COORD))))
def test_line_through_matches_rational_formula(pair):
    p, q = pair
    if p == q:
        return
    expected = _reference_line(vec(p), vec(q))
    for a, b in ((p, q), (q, p)):  # one of the two orders has a negative leading difference
        line = line_through(a, b)
        assert (line.base, line.directions) == expected


# ---------------------------------------------------------------------------
# integer point checks against the per-row rational `dot`

POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7)


@PROPERTY
@given(st.data())
def test_integer_point_checks_match_the_rational_rows(data):
    d = data.draw(st.sampled_from([2, 3]))
    poly = data.draw(polyhedra(d))
    # vertices lie exactly on facets; the nudge moves them off by tiny rationals
    x = data.draw(st.sampled_from(vertices_of(poly) + [data.draw(points(d, COORD))]))
    x = vadd(x, data.draw(points(d, EPS)))
    assert poly.contains(x) == (
        all(h.contains(x) for h in poly.inequalities)
        and all(h.contains(x) for h in poly.equalities)
    )
    # the same rows as an LP, scaled by positive rationals to Fraction entries
    def scaled(h):
        q = data.draw(POSITIVE)
        return tuple(q * a for a in h.normal), q * h.offset

    leq = tuple(scaled(h) for h in poly.inequalities)
    eq = tuple(scaled(h) for h in poly.equalities)
    lp = LinearProgram(d, leq=leq, eq=eq, nonneg=data.draw(st.booleans()))
    assert verify_point(lp, x) == (
        (not lp.nonneg or all(v >= 0 for v in x))
        and all(dot(c, x) <= r for c, r in leq)
        and all(dot(c, x) == r for c, r in eq)
    )


def test_float_coordinates_are_an_input_error_in_membership():
    with pytest.raises(InputError, match="floats are not accepted"):
        box((0, 0), (1, 1)).contains((Fraction(1, 2), 0.5))


# ---------------------------------------------------------------------------
# pair meetings: the line kernel inside `first_meeting` against the LP


def _assert_meeting_agrees(a, b):
    """first_meeting on the pair against polyhedra_intersect and, when a set
    is line-shaped, the rational interval of the joint rows on its carrier
    line.  Returns (decision, whether a carrier line decided it)."""
    got = first_meeting([a, b], 2)
    assert got in (None, (0, 1))
    feasible = polyhedra_intersect([a, b]).feasible
    assert (got is not None) == feasible
    line = a._carrier_line if a._carrier_line is not None else b._carrier_line
    if line is not None:
        assert (line_parameter_interval(line, a.intersected(b)) is not None) == feasible
    return feasible, line is not None


def _hull(*pts):
    return polytope_from_vertices(len(pts[0]), [vec(p) for p in pts])


NANO = Fraction(1, 10**9)
SPACE_TRIANGLE = _hull((0, 0, 0), (4, 0, 0), (0, 4, 0))
CLASHING = Polyhedron(2, (), (Hyperplane(vec((2, 0)), rat(0)), Hyperplane(vec((1, 0)), rat(1))))


@pytest.mark.parametrize(
    "a, b, expected, kernel",
    [
        (_hull((4, 0), (6, 2)), TRIANGLE, True, True),  # touches a vertex
        (_hull((4 + NANO, 0), (6, 2)), TRIANGLE, False, True),
        (SEGMENT, _hull((1, 1), (3, 3)), True, True),  # collinear, overlapping
        (SEGMENT, _hull((2, 2), (3, 3)), True, True),  # collinear, touching
        (SEGMENT, _hull((2 + NANO, 2 + NANO), (3, 3)), False, True),  # collinear, apart
        (_hull((1, 1), (1, 1)), SEGMENT, True, True),  # one-point segment, on the other's line
        (_hull((1, 1 + NANO), (1, 1 + NANO)), SEGMENT, False, True),
        (_hull((1, 1), (1, 1)), TRIANGLE, True, False),  # no carrier on either side
        (_hull((4, NANO)), TRIANGLE, False, False),
        (_hull((1, 1)), _hull((1, 1)), True, False),
        (_hull((1, 0), (3, 0)), TRIANGLE, True, True),  # on a polygon edge
        (_hull((5, 0), (6, 0)), TRIANGLE, False, True),  # on its line, past the edge
        (_hull((1, -NANO), (3, -NANO)), TRIANGLE, False, True),  # parallel, off it
        (_hull((1, NANO), (3, NANO)), TRIANGLE, True, True),  # parallel, inside
        (TRIANGLE, _hull((0, 4), (4, 0)), True, True),  # along the hypotenuse
        (TRIANGLE, _hull((0, 4 + NANO), (4, NANO)), False, True),
        (_hull((1, 1, -1), (1, 1, 1)), SPACE_TRIANGLE, True, True),  # pierces it in R^3
        (_hull((1, 1, NANO), (2, 2, 1)), SPACE_TRIANGLE, False, True),
        (SPACE_TRIANGLE, _hull((1, 3, 0), (3, 3, 0)), True, True),  # in its plane, touching
        (SPACE_TRIANGLE, _hull((0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)), True, False),
        (CLASHING, SEGMENT, False, True),  # the segment's carrier decides
        (CLASHING, TRIANGLE, False, False),  # inconsistent rows have no carrier
        (Polyhedron(2, (), (Hyperplane(vec((0, 1)), rat(1)),)), TRIANGLE, True, True),
    ],
)
def test_first_meeting_pairs_match_the_lp(a, b, expected, kernel):
    for pair in ((a, b), (b, a)):
        assert _assert_meeting_agrees(*pair) == (expected, kernel)


def test_carrier_lines_come_from_the_equality_rows():
    seg = _hull(("1/3", 2), (5, "-7/2"))
    line = seg._carrier_line
    carrier = Polyhedron(2, (), seg.equalities)
    assert line.k == 1 and flat_crosses(line, seg)
    assert carrier.contains(line.base) and carrier.contains(vadd(line.base, *line.directions))
    for no_line in (_hull((1, 1)), CLASHING, TRIANGLE, SPACE_TRIANGLE, Polyhedron.whole_space(1)):
        assert no_line._carrier_line is None


@st.composite
def meeting_pairs(draw):
    """A set from `polyhedra` against a segment whose ends are free points or
    the set's vertices nudged by tiny rationals, or against another set."""
    d = draw(st.sampled_from([2, 3]))
    b = draw(polyhedra(d))
    verts = vertices_of(b)

    def end():
        if verts and draw(st.booleans()):
            return vadd(draw(st.sampled_from(verts)), draw(points(d, EPS)))
        return draw(points(d, COORD))

    a = polytope_from_vertices(d, [end(), end()]) if draw(st.booleans()) else draw(polyhedra(d))
    return (a, b) if draw(st.booleans()) else (b, a)


@PROPERTY
@given(meeting_pairs())
def test_first_meeting_pairs_match_the_lp_on_random_sets(pair):
    _assert_meeting_agrees(*pair)


@PROPERTY
@given(st.data())
def test_vertices_of_matches_the_chart_oracle(data):
    assert_vertices_match_the_chart(data.draw(polyhedra(data.draw(st.sampled_from([2, 3, 4])))))


# ---------------------------------------------------------------------------
# integer translation against the rational row formula


@PROPERTY
@given(st.data())
def test_translated_rows_match_the_rational_formula(data):
    d = data.draw(st.sampled_from([2, 3]))
    poly = data.draw(polyhedra(d))
    t = data.draw(points(d, COORD))
    moved = poly.translated(t)

    def shifted(h):
        return h.normal, h.offset + sum(x * Fraction(y) for x, y in zip(h.normal, t))

    assert moved.inequalities == tuple(Halfspace(*shifted(h)) for h in poly.inequalities)
    assert moved.equalities == tuple(Hyperplane(*shifted(h)) for h in poly.equalities)
    for h in moved.inequalities + moved.equalities:
        assert all(type(x) is int for x in h.normal) and type(h.offset) is int
    if poly.vertices_hint is not None:
        assert moved.vertices_hint == tuple(vadd(v, vec(t)) for v in poly.vertices_hint)
