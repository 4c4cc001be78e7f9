"""Rainbow sweeps, the two-color lemma, and the planar dichotomy."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, count_calls, load_fixture, polyhedra
from oracles import point_in, primal_check_ch, repairing_separating_halfspaces
from hellykit import colorful, hypergraphs
from hellykit import lp as lp_module
from hellykit.budgets import SearchBudget
from hellykit.colorful import (
    ColoredFamily,
    HyperplaneCover,
    LineCover,
    PiercedClass,
    _line_to_hyperplane,
    check_ch,
    dichotomy_report,
    fractional_two_color_search,
    generic_line_class,
    helly_witness,
    intersecting_class,
    separating_halfspaces,
    theorem_main_d2,
    two_color_lemma,
)
from hellykit.constructions import generate_figure1, generate_simplex_family
from hellykit.errors import PreconditionError, ScaleError
from hellykit.geometry import (
    AffineFlat,
    Halfspace,
    Hyperplane,
    Point,
    Polyhedron,
    flat_crosses,
    hyperplane_crosses,
    joint_lp,
    line_through,
    polyhedra_intersect,
    polytope_from_vertices,
    sets_meet,
)
from hellykit.hypergraphs import (
    TransversalResult,
    build_cover_hypergraph,
    candidate_lines,
    candidate_planes,
    piercing_number,
    tau,
)
from hellykit.instances import (
    random_ch_family,
    random_ch_pair,
    random_fractional_instance,
    random_two_colored,
)
from hellykit.lp import lp_solve
from hellykit.projection import affine_project
from hellykit.rationals import rat, rat_str, vec
from hellykit.serialize import (
    digest,
    family_from_doc,
    line_to_json,
    point_to_json,
    vec_to_json,
)


def box(lo, hi):
    return Polyhedron.box(vec(lo), vec(hi))


def fixture_family(name):
    fam, _ = family_from_doc(load_fixture(name))
    return fam


def test_check_ch_holds_on_fixture():
    rep = check_ch(fixture_family("family_ch_d2.json"))
    assert rep.holds
    assert rep.checked == 4
    assert rep.violating_rainbow is None


def test_check_ch_refutes_disjoint_boxes():
    rep = check_ch(fixture_family("family_disjoint_boxes.json"))
    assert not rep.holds
    assert rep.violating_rainbow == ((0, 0), (1, 0))
    assert rep.certificate is not None and not rep.certificate.feasible


def late_violation_family():
    """Two rainbows: the first meets, the second is empty."""
    a = box((0, 0), (2, 2))
    return ColoredFamily(2, ((a,), (box((1, 1), (3, 3)), box((5, 5), (6, 6)))))


def test_check_ch_lists_the_points_swept_before_a_violation():
    rep = check_ch(late_violation_family())
    assert not rep.holds
    assert (rep.violating_rainbow, rep.checked) == (((0, 0), (1, 1)), 2)
    (point,) = rep.points
    assert box((1, 1), (2, 2)).contains(point)


@pytest.mark.parametrize(
    "fam",
    [fixture_family("family_ch_d2.json"), late_violation_family()],
    ids=["holds", "late-violation"],
)
def test_check_ch_sends_a_bogus_hint_to_the_lp(monkeypatch, fam):
    lps = count_calls(monkeypatch, colorful, "polyhedra_meet")
    plain = check_ch(fam)
    plain_lps = len(lps)
    far = Point(vec((100, 100)))
    hinted = check_ch(fam, hints={pick: far for pick in fam.picks()})
    assert hinted == plain  # holds, violation, certificate, checked and points
    assert len(lps) == 2 * plain_lps > 0


def test_check_ch_accepts_verified_hints_without_the_lp(monkeypatch):
    fam = late_violation_family()
    inside = Point(vec(("3/2", "3/2")))
    lps = count_calls(monkeypatch, colorful, "polyhedra_intersect")
    hinted = check_ch(fam, hints={(0, 0): inside})
    assert len(lps) == 1  # the violating rainbow only
    assert hinted.points == (inside,)
    plain = check_ch(fam)
    assert (hinted.violating_rainbow, hinted.certificate, hinted.checked) == (
        plain.violating_rainbow,
        plain.certificate,
        plain.checked,
    )


def _far_set_appended(fam):
    """`fam` with a far box added last to class 1: the selections through it
    are empty, and come after feasible ones."""
    far = box((1000, 1000), (1001, 1001))
    classes = list(fam.classes)
    classes[1] = classes[1] + (far,)
    return ColoredFamily(fam.dim, tuple(classes))


def _sweep_inputs():
    fams = [random_ch_family(s, d) for d in (2, 3) for s in range(6)]
    fams += [random_ch_pair(s) for s in range(8)]
    fams += [_far_set_appended(random_ch_pair(s)) for s in range(4)]
    return fams + [late_violation_family()]


def _simplex_families():
    return [generate_simplex_family(*args).family for args in ((2, 1, 0), (3, 1, 7002))]


def test_check_ch_matches_the_primal_sweep(monkeypatch):
    saved = 0
    for fam in _sweep_inputs() + _simplex_families():
        ref = primal_check_ch(fam)
        lps = count_calls(monkeypatch, colorful, "polyhedra_meet")
        rep = check_ch(fam)
        monkeypatch.undo()
        assert (rep.holds, rep.violating_rainbow, rep.certificate, rep.checked) == (
            ref.holds,
            ref.violating_rainbow,
            ref.certificate,
            ref.checked,
        )
        assert len(rep.points) == len(ref.points)
        for pick, point in zip(fam.picks(), rep.points):
            assert all(point_in(fam.classes[k][i], point.coords) for k, i in enumerate(pick))
        saved += ref.checked - len(lps)
    assert saved > 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: generate_figure1(3, 3),
        lambda: random_ch_family(11, 3),  # "axis" style, 3 x 3 x 3 rainbows
        lambda: random_ch_family(10, 3),  # "boxed-axis" style
    ],
    ids=["figure1-3-3", "axis-d3", "boxed-axis-d3"],
)
def test_check_ch_decides_pinned_rainbows_without_a_tableau(monkeypatch, build):
    fam = build()
    tableaux = count_calls(monkeypatch, lp_module, "_Tableau")
    rep = check_ch(fam)
    monkeypatch.undo()
    assert tableaux == []
    assert rep.holds and rep.checked == fam.rainbow_count == 27
    # each rainbow's one common point is the primal tableau's
    for pick, point in zip(fam.picks(), rep.points):
        lp = joint_lp([fam.classes[k][i] for k, i in enumerate(pick)])[0]
        assert lp_solve(lp).point == point.coords


def test_rainbow_budget_enforced():
    fam = fixture_family("family_ch_d2.json")
    with pytest.raises(ScaleError):
        check_ch(fam, SearchBudget(max_rainbow_tuples=3))


def test_intersecting_class_returns_verified_class():
    fam = fixture_family("family_ch_d2.json")
    k, point = intersecting_class(fam)
    assert all(s.contains(point.coords) for s in fam.classes[k])


def test_intersecting_class_spatial_fixture():
    fam = fixture_family("family_ch_d3.json")
    k, point = intersecting_class(fam)
    assert all(s.contains(point.coords) for s in fam.classes[k])


def test_intersecting_class_needs_dim_plus_one_classes():
    fam = ColoredFamily(2, ((box((0, 0), (1, 1)),), (box((0, 0), (1, 1)),)))
    with pytest.raises(PreconditionError):
        intersecting_class(fam)


def test_intersecting_class_rejects_non_ch_family():
    fam = fixture_family("family_disjoint_boxes.json")
    fam3 = ColoredFamily(2, fam.classes + ((box((0, 0), (9, 9)),),))
    with pytest.raises(PreconditionError):
        intersecting_class(fam3)


def test_two_color_lemma_pierced_side():
    a = [box((0, 0), (2, 2)), box((1, 1), (3, 3))]
    b = [box((0, 0), (10, 10))]
    out = two_color_lemma(a, b)
    assert isinstance(out, PiercedClass)
    point = out.points[0]
    assert all(s.contains(point.coords) for s in a)


def test_two_color_lemma_hyperplane_side():
    a, b = random_two_colored(5, 2)
    out = two_color_lemma(a, b)
    assert isinstance(out, HyperplaneCover)
    assert len(out.hyperplanes) <= 2
    for s in b:
        assert any(hyperplane_crosses(h, s) for h in out.hyperplanes)


def test_two_color_lemma_hyperplane_side_r3():
    a, b = random_two_colored(9, 3)
    out = two_color_lemma(a, b)
    assert isinstance(out, HyperplaneCover)
    assert len(out.hyperplanes) <= 3
    for s in b:
        assert any(hyperplane_crosses(h, s) for h in out.hyperplanes)


def test_two_color_lemma_requires_meeting_pairs():
    a = [box((0, 0), (1, 1)), box((5, 5), (6, 6))]
    b = [box((20, 20), (21, 21))]
    with pytest.raises(PreconditionError):
        two_color_lemma(a, b)


def test_two_color_lemma_cites_the_first_disjoint_pair():
    # pairs are checked in (A index, B index) order; A[0] meets both B sets
    a = [box((0, 0), (1, 1)), box((10, 10), (11, 11))]
    b = [box((0, 0), (2, 2)), box((-1, -1), (12, 12))]
    with pytest.raises(PreconditionError) as err:
        two_color_lemma(a, b)
    assert str(err.value) == "sets A[1] and B[0] do not meet"
    assert err.value.witness == (1, 0)
    with pytest.raises(ScaleError) as err:
        two_color_lemma(a, b, SearchBudget(max_rainbow_tuples=3))
    assert (err.value.budget_name, err.value.limit, err.value.actual) == (
        "max_rainbow_tuples",
        3,
        4,
    )


def test_helly_witness_is_minimal_and_refuses_meeting_sets():
    a, _ = random_two_colored(5, 2)
    keep = helly_witness(a)
    assert 2 <= len(keep) <= 3
    assert not polyhedra_intersect([a[i] for i in keep]).feasible
    for drop in keep:
        assert polyhedra_intersect([a[i] for i in keep if i != drop]).feasible
    meeting = [box((0, 0), (2, 2)), box((1, 1), (3, 3))]
    with pytest.raises(PreconditionError) as err:
        helly_witness(meeting)
    assert all(point_in(s, err.value.witness.coords) for s in meeting)


def test_theorem_main_d2_on_fixture():
    fam = fixture_family("family_ch_d2.json")
    fam2 = ColoredFamily(2, fam.classes[:2])
    out = theorem_main_d2(fam2)
    if isinstance(out, PiercedClass):
        point = out.points[0]
        assert all(s.contains(point.coords) for s in fam2.classes[out.class_index])
    else:
        assert isinstance(out, LineCover)
        assert len(out.lines) <= 4
        for s in fam2.all_sets():
            assert any(flat_crosses(line, s) for line in out.lines)


def test_generic_line_class_crosses_whole_class():
    fam = fixture_family("family_ch_d2.json")
    fam2 = ColoredFamily(2, fam.classes[:2])
    k, line = generic_line_class(fam2, seed=3)
    assert line.k == 1
    for s in fam2.classes[k]:
        assert flat_crosses(line, s)


def test_generic_line_class_outputs_are_pinned():
    # the class digest is the Fourier-Motzkin projection's, which the lifted
    # systems must reproduce; the line digest pins their primal LP's lines
    classes, lines = [], []
    for seed in (7, 19):
        for r in range(24):
            s = seed * 1000 + r
            for d in (2, 3):
                fam = random_ch_family(s, d)
                k, line = generic_line_class(ColoredFamily(d, fam.classes[:d]), seed=s)
                classes.append([s, d, k])
                lines.append(line_to_json(line))
    assert digest(classes) == (
        "37ab7c1c385bacdd020073bb046cb0f5072820fa2777c1ebff8ecb2dbad30927"
    )
    assert digest(lines) == (
        "b12c5d78d5afd5dd06c59b5c9d267d54d9ec68fdf1e18c156e4ee4ff2ab3c510"
    )


@PROPERTY
@given(st.data())
def test_lifted_system_meets_exactly_when_the_shadows_do(data):
    # the shadows along nu come from the reference Fourier-Motzkin projection
    d = data.draw(st.sampled_from([2, 3]))
    cls = data.draw(st.lists(polyhedra(d), min_size=1, max_size=4))
    nu = data.draw(st.tuples(*([st.integers(-9, 9)] * d)).filter(any))
    j = max(i for i in range(d) if nu[i])
    lifted = polyhedra_intersect(colorful._lifted(cls, nu, j))
    assert lifted.feasible == polyhedra_intersect(affine_project(cls, nu)).feasible
    if lifted.feasible:
        base = list(lifted.point.coords[: d - 1])
        base.insert(j, 0)
        line = AffineFlat.line(vec(base), vec(nu))
        assert all(flat_crosses(line, s) for s in cls)


def test_fractional_search_meets_a_target():
    a = [box((0, 0), (2, 2)), box((1, 1), (3, 3))]
    b = [box((0, 0), (4, 4)), box((2, 0), (5, 3))]
    rep = fractional_two_color_search(a, b, rat(1))
    assert rep.holds
    assert rep.pair_count == 4
    covered_points = len(rep.point_covered)
    covered_planes = len(rep.hyperplane_covered)
    assert (
        rat(covered_points) >= rep.gamma_target
        or rat(covered_planes) >= rep.lambda_target
    )


def test_fractional_search_rejects_low_alpha_claim():
    # claimed meeting fraction exceeds the actual one: hypothesis violated
    a = [box((0, 0), (1, 1)), box((10, 10), (11, 11))]
    b = [box((0, 0), (1, 1))]
    with pytest.raises(PreconditionError):
        fractional_two_color_search(a, b, rat(1))


def tetrahedron(x, y, z):
    return polytope_from_vertices(
        3, [vec((x, y, z)), vec((x + 2, y, z)), vec((x, y + 2, z)), vec((x, y, z + 2))]
    )


def test_fractional_search_in_space_is_pinned():
    # B holds a far tetrahedron and a vertex-free halfspace; the winning plane
    # crosses all three B sets
    a = [tetrahedron(0, 0, 0), tetrahedron(1, 0, 0), tetrahedron(0, 1, 1)]
    b = [tetrahedron(1, 1, 0), tetrahedron(5, 5, 5), Polyhedron(3, (Halfspace((1, 1, 1), 1),))]
    rep = fractional_two_color_search(a, b, rat(1, 2))
    assert (rep.pair_count, rep.point_covered) == (5, (0, 1))
    assert rep.best_hyperplane == Hyperplane((0, 1, -1), 0)
    assert rep.hyperplane_covered == (0, 1, 2)
    assert all(hyperplane_crosses(rep.best_hyperplane, b[j]) for j in rep.hyperplane_covered)


FRACTIONAL_SEEDS = range(10)


def test_fractional_search_witnesses_are_pinned():
    docs = []
    for seed in FRACTIONAL_SEEDS:
        a, b, alpha = random_fractional_instance(seed)
        rep = fractional_two_color_search(a, b, alpha)
        h = rep.best_hyperplane
        docs.append(
            {
                "point": point_to_json(rep.best_point) if rep.best_point else None,
                "point_covered": list(rep.point_covered),
                "hyperplane": (
                    {"normal": vec_to_json(h.normal), "offset": rat_str(h.offset)}
                    if h
                    else None
                ),
                "hyperplane_covered": list(rep.hyperplane_covered),
            }
        )
    assert digest(docs) == (
        "88e2c042010b5e382b89b69a36726684de739aeb1b637ae359c8b31a08328926"
    )


def test_fractional_search_decides_each_set_feasible_once(monkeypatch):
    # `live_a` decides the A sets, and the hyperplane candidates reuse it
    calls = []
    feasible_point = Polyhedron.feasible_point

    def counted(self):
        calls.append(self)
        return feasible_point(self)

    monkeypatch.setattr(Polyhedron, "feasible_point", counted)
    a, b, alpha = random_fractional_instance(0)
    fractional_two_color_search(a, b, alpha)
    assert sorted(map(id, calls)) == sorted(map(id, a + b))


def test_fractional_search_reports_are_pinned():
    # whole reports on seeds 0-39, digest taken when every candidate line
    # was built and tested against every B set with `flat_crosses`
    h = hashlib.sha256()
    for seed in range(40):
        a, b, alpha = random_fractional_instance(seed)
        h.update(repr(fractional_two_color_search(a, b, alpha)).encode())
    assert h.hexdigest() == (
        "a31c6192348e50d58e339e2c575dcac6638122d39a1f17ce53b902dd9e86bb9d"
    )


def test_fractional_search_builds_only_the_winning_line(monkeypatch):
    through = count_calls(monkeypatch, hypergraphs, "line_through")
    fallback_tests = count_calls(monkeypatch, hypergraphs, "flat_crosses")
    kernel_tests = count_calls(monkeypatch, colorful, "flat_crosses")
    a, b, alpha = random_fractional_instance(0)
    rep = fractional_two_color_search(a, b, alpha)
    (pair,) = through
    assert rep.best_hyperplane == _line_to_hyperplane(line_through(*pair))
    assert fallback_tests == kernel_tests == []


def test_planar_candidate_lines_cross_as_their_hyperplanes():
    # the planar search decides each candidate line's crossings as a line;
    # as a hyperplane of the plane the line must cross exactly the same sets
    pairs = 0
    for seed in FRACTIONAL_SEEDS:
        a, b, _ = random_fractional_instance(seed)
        live = [s for s in a + b if s.feasible_point() is not None]
        for line in candidate_lines(live):
            h = _line_to_hyperplane(line)
            for s in b:
                assert flat_crosses(line, s) == hyperplane_crosses(h, s)
                pairs += 1
    assert pairs > 0


def test_dichotomy_report_structure():
    fam = fixture_family("family_ch_d2.json")
    fam2 = ColoredFamily(2, fam.classes[:2])
    rep = dichotomy_report(fam2, f_budget=1, g_budget=4)
    successful = tuple(e for e in rep.entries if e.within_budgets)
    assert successful
    best = successful[0]
    assert best.pierce.size <= 1 or (best.cover and best.cover.size <= 4)


@pytest.mark.parametrize("seed", range(4))
def test_dichotomy_report_in_space_matches_the_cover_oracles(seed):
    # every split is probed (f_budget admits any pierce); k = 1 covers the
    # rest with lines, k = 2 with planes and k = 3 with the space
    fam = random_ch_family(seed, 3)
    rep = dichotomy_report(fam, f_budget=len(fam.all_sets()), g_budget=1)
    assert [e.k for e in rep.entries] == [1] * 4 + [2] * 6 + [3] * 4
    for e in rep.entries:
        rest = [
            s for i, cls in enumerate(fam.classes) if i not in e.pierced_classes for s in cls
        ]
        if e.k == 1:
            oracle = build_cover_hypergraph(rest, candidate_lines(rest))
            assert (e.cover_kind, e.cover) == ("line", tau(oracle))
        elif e.k == 2:
            oracle = build_cover_hypergraph(rest, candidate_planes(rest), hyperplane_crosses)
            assert (e.cover_kind, e.cover) == ("plane", tau(oracle))
        else:
            assert (e.cover_kind, e.cover) == ("space", TransversalResult(1, ()))
        assert e.within_budgets == (e.cover.size <= 1)


def test_pierced_class_certificate_is_checkable_downstream():
    # the returned point must be reusable as a one-point transversal
    a = [box((0, 0), (2, 2)), box((1, 1), (3, 3))]
    b = [box((0, 0), (10, 10))]
    out = two_color_lemma(a, b)
    assert isinstance(out, PiercedClass)
    assert piercing_number(a).size == 1


def test_separating_halfspaces_refuses_a_family_that_is_not_minimal():
    # x <= 0 and x >= 1 are already empty, so the box's Farkas group is empty
    sets = [
        Polyhedron(2, (Halfspace(vec([1, 0]), rat(0)),)),
        Polyhedron(2, (Halfspace(vec([-1, 0]), rat(-1)),)),
        box([-5, -5], [5, 5]),
    ]
    with pytest.raises(PreconditionError, match="set 2 ") as err:
        separating_halfspaces(sets)
    assert err.value.witness == 2


def _minimal_empty_witnesses():
    """The `_minimal_empty` witness of each drawn class whose sets share no
    point: both classes of `random_two_colored` in R^2 and R^3, and of
    `random_ch_pair`."""
    classes = [c for d in (2, 3) for s in range(20) for c in random_two_colored(s, d)]
    classes += [c for s in range(20) for c in random_ch_pair(s).classes]
    for cls in classes:
        if not sets_meet(cls):
            yield [cls[i] for i in colorful._minimal_empty(cls)]


def test_separating_halfspaces_match_the_repairing_reference():
    witnesses = list(_minimal_empty_witnesses())
    assert len(witnesses) == 65
    for sets in witnesses:
        assert separating_halfspaces(sets) == repairing_separating_halfspaces(sets)
