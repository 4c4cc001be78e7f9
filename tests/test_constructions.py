"""Extremal families: the planar pair, the simplex cones, and their audits."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from conftest import count_calls
from hellykit import colorful, constructions
from hellykit import lp as lp_module
from hellykit.colorful import check_ch
from hellykit.constructions import (
    generate_figure1,
    generate_planar,
    generate_simplex_family,
    max_simplex_facets_crossed,
    relint_margin,
    verify_relint_property,
)
from hellykit.errors import GenerationError, InputError
from hellykit.geometry import (
    AffineFlat,
    ColoredFamily,
    Polyhedron,
    flat_crosses,
    polyhedra_intersect,
    polytope_from_vertices,
)
from hellykit.hypergraphs import line_cover_number, piercing_number
from hellykit.rationals import ONE, rat, rat_str
from hellykit.serialize import digest, family_to_doc, line_to_json
from oracles import point_in


def test_figure1_shape_and_ch():
    fam = generate_figure1(2, 2)
    assert fam.num_classes == 3
    assert len(fam.classes[0]) == 2
    assert check_ch(fam).holds


def test_figure1_class_piercing_is_n():
    fam = generate_figure1(2, 3)
    for cls in fam.classes[:2]:
        assert piercing_number(list(cls)).size == 3


def test_figure1_diagonal_line_crosses_everything():
    d, n = 3, 2
    fam = generate_figure1(d, n)
    diagonal = AffineFlat.line(
        tuple(rat(0) for _ in range(d)), tuple(ONE for _ in range(d))
    )
    for s in fam.all_sets():
        assert flat_crosses(diagonal, s)


def test_figure1_input_checks():
    with pytest.raises(InputError):
        generate_figure1(1, 1)
    with pytest.raises(InputError):
        generate_figure1(2, 0)


def test_planar_construction_structure():
    c = generate_planar(2, seed=7)
    assert c.f == 2 and c.m == 4
    assert len(c.triangles) == 4
    assert len(c.segments) == 12
    fam = c.family
    assert fam.num_classes == 2


def test_planar_triangles_pairwise_meet_without_triples():
    c = generate_planar(2, seed=7)
    tri = list(c.triangles)
    for a, b in itertools.combinations(tri, 2):
        assert polyhedra_intersect([a, b]).feasible
    for a, b, d in itertools.combinations(tri, 3):
        assert not polyhedra_intersect([a, b, d]).feasible


def test_planar_segments_meet_all_triangles_and_are_disjoint():
    c = generate_planar(1, seed=0)
    seg = list(c.segments)
    for s in seg:
        for t in c.triangles:
            assert polyhedra_intersect([s, t]).feasible
    for a, b in itertools.combinations(seg, 2):
        assert not polyhedra_intersect([a, b]).feasible


def test_planar_is_deterministic_per_seed():
    a = generate_planar(2, seed=11)
    b = generate_planar(2, seed=11)
    assert a == b
    c = generate_planar(2, seed=12)
    assert a.anchors != c.anchors


def test_planar_translates_each_segment_only_when_the_scan_reaches_it(monkeypatch):
    checked = []
    check = constructions._check_planar_segments

    def logged(triangles, segments):
        out = check(triangles, segments)
        checked.append(out[1])
        return out

    monkeypatch.setattr(constructions, "_check_planar_segments", logged)
    translates = count_calls(monkeypatch, Polyhedron, "translated")
    c = generate_planar(3, seed=7000)
    assert checked == [
        *["segment 1 misses triangle 4"] * 4,
        *["segment 1 misses triangle 5"] * 4,
        "segment 2 misses triangle 5",
        "segment 3 misses triangle 5",
        "segment 5 misses triangle 5",
        None,
    ]
    assert c.step == rat(1, 2**14)
    # a step failing at segment s translates segments 0..s only, and the
    # accepted one all 3m = 18: 8 * 2 + 3 + 4 + 6 + 18
    assert len(translates) == 47


def test_planar_piercing_numbers():
    c = generate_planar(2, seed=7)
    assert piercing_number(list(c.triangles)).size == 2
    assert piercing_number(list(c.segments)).size == 12


def test_planar_needs_two_lines():
    c = generate_planar(1, seed=0)
    assert line_cover_number(list(c.triangles) + list(c.segments)).size >= 2


def test_planar_input_checks():
    with pytest.raises(InputError):
        generate_planar(0)


def test_simplex_construction_structure():
    c = generate_simplex_family(3, 1, seed=0)
    assert c.d == 3 and c.m == 2
    assert len(c.cone_classes) == 2
    assert len(c.facet_groups) == 4
    fam = c.family
    assert fam.num_classes == 3
    assert check_ch(fam).holds


def test_simplex_pre_shrink_family_also_has_ch():
    c = generate_simplex_family(2, 1, seed=0)
    assert check_ch(ColoredFamily(c.d, (*c.raw_classes, c.facets))).holds


def test_simplex_cone_triples_are_empty_within_a_class():
    c = generate_simplex_family(3, 2, seed=0)
    for cls in c.cone_classes:
        for trio in itertools.combinations(cls, 3):
            assert not polyhedra_intersect(list(trio)).feasible


def test_simplex_facet_groups_pairwise_disjoint():
    c = generate_simplex_family(3, 2, seed=0)
    for group in c.facet_groups:
        for a, b in itertools.combinations(group, 2):
            assert not polyhedra_intersect([a, b]).feasible


def test_simplex_determinism():
    assert generate_simplex_family(3, 1, seed=5) == generate_simplex_family(
        3, 1, seed=5
    )


def test_simplex_dimension_gate():
    with pytest.raises(InputError):
        generate_simplex_family(5, 1)
    with pytest.raises(InputError):
        generate_simplex_family(1, 1)


def test_relint_sweep_holds_for_the_plane():
    c = generate_simplex_family(2, 1, seed=0)
    rep = verify_relint_property(c)
    assert rep.holds
    assert rep.entries
    assert all(e.margin > 0 for e in rep.entries)


def test_relint_margin_detects_boundary_contact():
    # a simplex vertex lies on the relative boundary of its facets, so it
    # never reaches a positive margin on any of them
    c = generate_simplex_family(2, 1, seed=0)
    corner = polytope_from_vertices(2, ((rat(12), rat(0)),))
    margins = [relint_margin([corner], facet)[0] for facet in c.facets]
    assert all(m is None or m <= 0 for m in margins)
    assert any(m == 0 for m in margins if m is not None)
    # the facet itself sits squarely inside its own relative interior
    own_margin, point = relint_margin([c.facets[0]], c.facets[0])
    assert own_margin is not None and own_margin > 0
    assert c.facets[0].contains(point)


def test_facet_crossing_maximum_is_two():
    for d in (2, 3, 4):
        rep = max_simplex_facets_crossed(d)
        assert rep.value == 2
        assert rep.lines_checked > 0
        assert rep.witness_line is not None
        assert "at most two" in rep.argument
    assert "relative interiors are disjoint" in rep.argument


def test_facet_crossing_dimension_gate():
    with pytest.raises(InputError):
        max_simplex_facets_crossed(5)


# -- pinned outputs: the dyadic steps and family digests of fixed seeds --------


@pytest.mark.parametrize(
    "build, steps, family_digest",
    [
        (
            lambda: generate_planar(2, 7),
            {"step": "1/64"},
            "b6c55d58af2cee4e3315c6856706d625c21c0c0d0bc404f3d52e0867561f10f0",
        ),
        (
            lambda: generate_simplex_family(2, 1, 0),
            {"epsilon": "1/8", "eta": "1/8"},
            "0a240899502c279b5914e252c6a4a9f4047a464f5f49b2024c8cf16d6ccdfca5",
        ),
        (
            lambda: generate_simplex_family(3, 1, 0),
            {"epsilon": "1/4", "eta": "1/8"},
            "8e271b942c9b971b43899f7cca7b474b9c60ff3738858f840e2bfca5068f3de6",
        ),
    ],
    ids=["planar-2-7", "simplex-2-1-0", "simplex-3-1-0"],
)
def test_construction_outputs_are_pinned(build, steps, family_digest):
    c = build()
    assert {name: rat_str(getattr(c, name)) for name in steps} == steps
    assert digest(family_to_doc(c.family)) == family_digest


@pytest.mark.parametrize(
    "build, calls, pinned",
    [
        (
            lambda: generate_planar(2, 7),
            92,
            "eaca5dcd21d50fe24798b3693507d4ecbb84cada2403bbcb31c48eecbc1b7918",
        ),
        (
            lambda: generate_simplex_family(2, 1, 0),
            4,
            "bd20a984165027eabf17e6cd23fa28df92a4dfccc1441fdd719ec3393e294b84",
        ),
    ],
    ids=["planar-2-7", "simplex-2-1-0"],
)
def test_meeting_decisions_are_pinned(monkeypatch, build, calls, pinned):
    """Every `first_meeting` answer a construction asks for, in order: the
    pins were taken when every pair was still solved as an LP, so they hold
    the line kernel's segment decisions to the LP's."""
    answers = []
    real = constructions.first_meeting

    def recording(sets, r):
        out = real(sets, r)
        answers.append((len(sets), r, out))
        return out

    monkeypatch.setattr(constructions, "first_meeting", recording)
    build()
    assert len(answers) == calls
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == pinned


@pytest.mark.parametrize(
    "d, lines_checked, witness",
    [
        (2, 30, {"base": ["3", "3"], "direction": ["1", "-1"]}),
        (3, 102, {"base": ["2", "2", "4"], "direction": ["1", "-1", "0"]}),
        (
            4,
            260,
            {"base": ["3/2", "3/2", "3", "3"], "direction": ["1", "-1", "0", "0"]},
        ),
    ],
    ids=["d2", "d3", "d4"],
)
def test_facet_crossing_report_is_pinned(d, lines_checked, witness):
    rep = max_simplex_facets_crossed(d)
    assert (rep.value, rep.lines_checked) == (2, lines_checked)
    assert line_to_json(rep.witness_line) == witness


@pytest.mark.parametrize(
    "max_exponent, build, message",
    [
        (
            4,
            lambda: generate_planar(2, 7),
            "no segment translation step satisfied all constraints: "
            "segment 2 misses triangle 3 at step 1/2**4",
        ),
        (
            1,
            lambda: generate_simplex_family(3, 1, 0),
            "shrink search failed: rainbow selection ((0, 0), (1, 1), (2, 3)) "
            "became empty at shrink offset 1/2**1",
        ),
    ],
    ids=["planar-segment-step", "simplex-shrink-offset"],
)
def test_step_search_failure_messages_are_pinned(monkeypatch, max_exponent, build, message):
    monkeypatch.setattr(constructions, "_MAX_STEP_EXPONENT", max_exponent)
    with pytest.raises(GenerationError) as err:
        build()
    assert str(err.value) == message


# -- witnesses carried across the simplex construction's dyadic steps --------


def _simplex_build_log(monkeypatch, args, hinted):
    """Build generate_simplex_family(*args), recording every dyadic step as
    (step name, step, failure), every sweep as (family, report) and every
    sweep LP, which the sweeps decide through `polyhedra_meet`; with
    hinted=False each sweep drops the hints it is given."""
    steps, sweeps = [], []
    real_search = constructions._dyadic_search

    def search(first_t, attempt, step_name, error):
        def logged(step):
            built, failure = attempt(step)
            steps.append((step_name, step, failure))
            return built, failure

        return real_search(first_t, logged, step_name, error)

    def sweep(fam, hints=None):
        report = check_ch(fam, hints=hints if hinted else None)
        sweeps.append((fam, report))
        return report

    monkeypatch.setattr(constructions, "_dyadic_search", search)
    monkeypatch.setattr(constructions, "check_ch", sweep)
    lps = count_calls(monkeypatch, colorful, "polyhedra_meet")
    built = generate_simplex_family(*args)
    monkeypatch.undo()
    return built, steps, sweeps, len(lps)


def _build_id(args) -> str:
    return "-".join(map(str, args))


@pytest.mark.parametrize(
    "args", [(2, 1, 0), (2, 2, 0), (3, 1, 7002), (3, 2, 0)], ids=_build_id
)
def test_hinted_and_unhinted_simplex_builds_agree(monkeypatch, args):
    built, steps, sweeps, lps = _simplex_build_log(monkeypatch, args, True)
    plain, plain_steps, plain_sweeps, plain_lps = _simplex_build_log(
        monkeypatch, args, False
    )
    assert (built.epsilon, built.eta) == (plain.epsilon, plain.eta)
    assert built == plain
    assert steps == plain_steps
    assert [
        (r.holds, r.violating_rainbow, r.certificate, r.checked) for _, r in sweeps
    ] == [(r.holds, r.violating_rainbow, r.certificate, r.checked) for _, r in plain_sweeps]
    assert lps < plain_lps


def test_shrink_steps_of_seed_7002_fail_late_in_the_sweep(monkeypatch):
    # the first three shrink steps cite the 4th, 12th and 12th of 16 rainbows
    _, steps, sweeps, _ = _simplex_build_log(monkeypatch, (3, 1, 7002), True)
    shrink = [failure for name, _, failure in steps if name == "shrink offset"]
    assert shrink[:3] == [
        "rainbow selection ((0, 0), (1, 0), (2, 3)) became empty",
        "rainbow selection ((0, 1), (1, 0), (2, 3)) became empty",
        "rainbow selection ((0, 1), (1, 0), (2, 3)) became empty",
    ]
    # sweeps[0] is the unshrunk family's; a failed sweep keeps the points
    # swept before its violation
    assert [r.checked for _, r in sweeps[1:4]] == [4, 12, 12]
    assert [len(r.points) for _, r in sweeps[1:4]] == [3, 11, 11]


@pytest.mark.parametrize("args", [(2, 2, 0), (3, 1, 7002), (3, 1, 7005)], ids=_build_id)
def test_hinted_sweep_points_lie_in_their_rainbows(monkeypatch, args):
    _, _, sweeps, _ = _simplex_build_log(monkeypatch, args, True)
    assert len(sweeps) > 1
    for fam, report in sweeps:
        for pick, point in zip(fam.picks(), report.points):
            sets = [fam.classes[k][i] for k, i in enumerate(pick)]
            assert all(point_in(s, point.coords) for s in sets), pick


def test_simplex_sweeps_solve_only_the_transposed_system(monkeypatch):
    # every transposed sweep LP has d + 1 = 4 equality rows and no inequality
    # row; the one program in the primal form (one row per joint row) a sweep
    # may solve is the certificate of its violation, after the verdict
    transposed = (4, 0, True)
    sweeps, current = [], [None]
    real_sweep = constructions.check_ch

    def sweep(*args, **kwargs):
        current[0] = []
        try:
            report = real_sweep(*args, **kwargs)
        finally:
            programs, current[0] = current[0], None
        sweeps.append((report.holds, [(len(lp.eq), len(lp.leq), lp.nonneg) for lp in programs]))
        return report

    class Recording(lp_module._Tableau):
        def __init__(self, lp):
            if current[0] is not None:
                current[0].append(lp)
            super().__init__(lp)

    monkeypatch.setattr(constructions, "check_ch", sweep)
    monkeypatch.setattr(lp_module, "_Tableau", Recording)
    for args in ((3, 1, 7000), (3, 1, 7002)):
        sweeps.clear()
        generate_simplex_family(*args)
        assert any(shapes for _, shapes in sweeps)
        for holds, shapes in sweeps:
            if holds:
                assert set(shapes) <= {transposed}
            else:
                assert set(shapes[:-1]) <= {transposed} and shapes[-1] != transposed
    assert sum(not holds for holds, _ in sweeps) >= 3  # seed 7002's shrink steps
