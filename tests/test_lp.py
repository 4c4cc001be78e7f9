"""Certifying simplex: every outcome ships an exactly checkable witness."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import count_calls
from oracles import poly_subset

from hellykit import geometry
from hellykit import lp as lp_module
from hellykit.colorful import check_ch, two_color_lemma
from hellykit.constructions import generate_figure1, generate_planar, generate_simplex_family
from hellykit.errors import InputError
from hellykit.instances import random_polygon_family, random_two_colored
from hellykit.lp import (
    Feasible,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    lp_solve,
    solve_with_multipliers,
    verify_farkas,
    verify_point,
    verify_ray,
)
from hellykit.rationals import dot, rat, rat_str, solve_linear, vec


def row(coeffs, rhs):
    return (vec(coeffs), rat(rhs))


def test_optimal_vertex_of_a_square():
    lp = LinearProgram(
        2,
        leq=(row((1, 0), 4), row((0, 1), 3), row((-1, 0), 0), row((0, -1), 0)),
        objective=vec((2, 5)),
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.point == (rat(4), rat(3))
    assert out.value == rat(23)


def test_minimization_flips_the_goal():
    lp = LinearProgram(
        1,
        leq=(row((1,), 9), row((-1,), -2)),
        objective=vec((1,)),
        maximize=False,
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.value == rat(2)


def test_feasibility_question_returns_a_point():
    lp = LinearProgram(2, leq=(row((1, 1), 5), row((-1, -1), -1)))
    out = lp_solve(lp)
    assert isinstance(out, Feasible)
    assert verify_point(lp, out.point)


def test_infeasible_ships_a_farkas_certificate():
    lp = LinearProgram(1, leq=(row((1,), 0), row((-1,), -1)))
    out = lp_solve(lp)
    assert isinstance(out, Infeasible)
    assert verify_farkas(lp, out)


def test_unbounded_ships_an_improving_ray():
    lp = LinearProgram(2, leq=(row((-1, 0), 0),), objective=vec((1, 0)))
    out = lp_solve(lp)
    assert isinstance(out, Unbounded)
    assert verify_point(lp, out.point)
    assert verify_ray(lp, out.ray)


def test_equalities_and_free_variables():
    lp = LinearProgram(
        2,
        eq=(row((1, 1), 0),),
        leq=(row((1, 0), 5),),
        objective=vec((1, -1)),
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.point[0] + out.point[1] == 0
    assert out.value == rat(10)


def test_nonneg_flag_restricts_the_domain():
    lp = LinearProgram(1, leq=(row((1,), 3),), objective=vec((-1,)), nonneg=True)
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.point == (rat(0),)


def test_degenerate_rows_do_not_cycle():
    # many redundant rows through one vertex; Bland's rule must terminate
    rows = tuple(row((k, 1), 4 * k + 3) for k in range(1, 9))
    lp = LinearProgram(2, leq=rows + (row((-1, 0), -4),), objective=vec((0, 1)))
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert out.point == (rat(4), rat(3))


# ---------------------------------------------------------------------------
# the transposed Farkas decision: lp_solve's verdict from d + 1 tableau rows


@pytest.mark.parametrize(
    "lp, feasible",
    [
        (LinearProgram(2, eq=(row((1, 0), "1/3"), row((0, 1), "2/7"))), True),
        (LinearProgram(2, eq=(row((1, 1), 0), row((2, 2), 1))), False),
        (LinearProgram(2, leq=(row((-1, 0), 0),)), True),
        (LinearProgram(3), True),
        (LinearProgram(2, leq=(row(("1/2", 1), "7/3"), row((-1, "1/4"), 0))), True),
        (LinearProgram(1, leq=(row(("1/2",), 0), row((-1,), "-1/3"))), False),
        # ten rows through or around (4, 3), jointly empty
        (
            LinearProgram(
                2,
                leq=tuple(row((k, 1), 4 * k + 3) for k in range(1, 9))
                + (row((0, -1), -4), row((-1, 0), -4)),
            ),
            False,
        ),
        (
            LinearProgram(
                2, leq=(row((1, 0), 5), row((0, 1), 5)), eq=(row((1, -1), 0),)
            ),
            True,
        ),
    ],
    ids=[
        "one-point",
        "inconsistent-equalities",
        "unbounded",
        "no-rows",
        "rational-rows",
        "rational-empty",
        "ten-rows-empty",
        "equality-and-rows",
    ],
)
def test_transposed_decision_gives_the_tableau_verdict(lp, feasible):
    out = lp_module.decide_feasibility(lp)
    assert isinstance(out, Feasible) == feasible == isinstance(lp_solve(lp), Feasible)
    if feasible:
        assert verify_point(lp, out.point)
    else:
        assert verify_farkas(lp, out)
        named = [m for m in (*out.leq_multipliers, *out.eq_multipliers) if m]
        assert 0 < len(named) <= lp.num_vars + 1


def test_transposed_decision_recovers_the_only_point():
    lp = LinearProgram(2, eq=(row((1, 0), "1/3"), row((0, 1), "2/7")))
    assert lp_module.decide_feasibility(lp) == Feasible((rat("1/3"), rat("2/7")))


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(1, leq=(row((1,), 3),), objective=vec((1,))),
        LinearProgram(1, leq=(row((1,), 3),), nonneg=True),
    ],
    ids=["objective", "nonneg"],
)
def test_transposed_decision_takes_free_feasibility_questions_only(lp):
    with pytest.raises(InputError):
        lp_module.decide_feasibility(lp)


@pytest.mark.parametrize("args", [(3, 1, 7000), (2, 2, 0)], ids=["3-1-7000", "2-2-0"])
def test_construction_decisions_agree_in_both_forms(monkeypatch, args):
    # every sweep and meeting LP of the build, decided again by the tableau
    programs = count_calls(monkeypatch, geometry, "decide_feasibility")
    generate_simplex_family(*args)
    monkeypatch.undo()
    verdicts = [isinstance(lp_module.decide_feasibility(lp), Feasible) for lp, in programs]
    assert verdicts == [isinstance(lp_solve(lp), Feasible) for lp, in programs]
    assert set(verdicts) == {True, False}


def test_row_width_mismatch_is_an_input_error():
    with pytest.raises(InputError):
        LinearProgram(2, leq=(row((1,), 0),))


@pytest.mark.parametrize(
    "lp",
    [
        LinearProgram(1, leq=(((0.5,), 1),)),
        LinearProgram(2, leq=(((1, 0), 1),), eq=(((1, 1), 0.25),)),
    ],
    ids=["coefficient", "equality-rhs"],
)
def test_float_rows_are_an_input_error(lp):
    with pytest.raises(InputError, match="floats are not accepted"):
        lp_solve(lp)


def test_float_coordinates_are_an_input_error():
    lp = LinearProgram(2, leq=(row((1, 0), 1),))
    with pytest.raises(InputError, match="floats are not accepted"):
        verify_point(lp, (rat(0), 0.5))


def test_random_lps_always_verify():
    rng = random.Random("lp-regression")
    for trial in range(60):
        n = rng.randint(1, 3)
        rows = tuple(
            row([rng.randint(-4, 4) for _ in range(n)], rng.randint(-6, 6))
            for _ in range(rng.randint(1, 6))
        )
        objective = vec([rng.randint(-3, 3) for _ in range(n)])
        lp = LinearProgram(n, leq=rows, objective=objective)
        out = lp_solve(lp)
        if isinstance(out, Optimal):
            assert verify_point(lp, out.point)
        elif isinstance(out, Unbounded):
            assert verify_point(lp, out.point)
            assert verify_ray(lp, out.ray)
        elif isinstance(out, Infeasible):
            assert verify_farkas(lp, out)
        else:
            raise AssertionError("objective given, Feasible should not appear")


# ---------------------------------------------------------------------------
# exact outputs pinned over a seeded corpus (pivot order, points, rays, and
# normalized Farkas multipliers must not drift)


PINNED_DIGEST = "ad45abe9ec24693afccadbcb92863d00001a8169bb8fa8eaf45b41d4bf2fb2c8"
PINNED_PIVOT_DIGEST = "7157ca22239d431d9c3609a8f29ae22b622b2d20fca28c0de07e9ebd4b82e503"


def _random_coeff(rng):
    if rng.random() < 0.3:
        return rat(0)
    return rat(rng.randint(-9, 9), rng.randint(1, 6))


def _pinned_corpus():
    rng = random.Random("lp-pinned-outputs")
    corpus = []
    for _ in range(400):
        n = rng.randint(1, 4)

        def rand_row():
            return tuple(_random_coeff(rng) for _ in range(n)), _random_coeff(rng)

        leq = [rand_row() for _ in range(rng.randint(0, 6))]
        eq = [rand_row() for _ in range(rng.choice((0, 0, 1, 2)))]
        if leq and rng.random() < 0.3:
            leq.append(rng.choice(leq))  # duplicated row
        if rng.random() < 0.15:
            leq.append((tuple(rat(0) for _ in range(n)), rat(rng.randint(-1, 2))))
        if eq and rng.random() < 0.3:
            coeffs, rhs = rng.choice(eq)
            eq.append((tuple(2 * a for a in coeffs), 2 * rhs))  # redundant equality
        objective = None
        if rng.random() < 0.8:
            objective = tuple(_random_coeff(rng) for _ in range(n))
        corpus.append(
            LinearProgram(
                n,
                leq=tuple(leq),
                eq=tuple(eq),
                objective=objective,
                maximize=rng.random() < 0.5,
                nonneg=rng.random() < 0.3,
            )
        )
    return corpus


def _multiplier_corpus():
    """Seeded nonneg max programs on inequality rows with rational entries and
    right-hand sides of both signs, so rows enter flipped and scaled."""
    rng = random.Random("lp-row-multipliers")
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        rows = tuple(
            (tuple(_random_coeff(rng) for _ in range(n)), _random_coeff(rng)) for _ in range(m)
        )
        objective = tuple(_random_coeff(rng) for _ in range(n))
        yield LinearProgram(n, leq=rows, objective=objective, nonneg=True)


def test_row_multipliers_solve_the_dual_program():
    kinds = Counter()
    for lp in _multiplier_corpus():
        out, x = solve_with_multipliers(lp)
        assert _canonical(out) == _canonical(lp_solve(lp))
        kinds[type(out).__name__] += 1
        if not isinstance(out, Optimal):
            assert x is None
            continue
        # min b.x s.t. M'x >= c, x >= 0, stated and solved apart
        dual = LinearProgram(
            len(lp.leq),
            leq=tuple(
                (tuple(-a[j] for a, _ in lp.leq), -c) for j, c in enumerate(lp.objective)
            ),
            objective=tuple(b for _, b in lp.leq),
            maximize=False,
            nonneg=True,
        )
        assert verify_point(dual, x) and dot(dual.objective, x) == out.value
        assert lp_solve(dual).value == out.value
    assert set(kinds) == {"Optimal", "Unbounded", "Infeasible"}


def test_row_multipliers_need_a_nonneg_max_program_on_inequality_rows():
    rows = (row((1,), 1),)
    for lp in (
        LinearProgram(1, leq=rows, objective=vec((1,))),
        LinearProgram(1, leq=rows, objective=vec((1,)), maximize=False, nonneg=True),
        LinearProgram(1, leq=rows, eq=rows, objective=vec((1,)), nonneg=True),
        LinearProgram(1, leq=rows, nonneg=True),
    ):
        with pytest.raises(InputError):
            solve_with_multipliers(lp)


def _canonical(out) -> str:
    """Backend-independent text of an outcome: kind plus every exact value."""
    fields = [getattr(out, name) for name in out.__dataclass_fields__]
    parts = [
        ",".join(rat_str(v) for v in f) if isinstance(f, tuple) else rat_str(f)
        for f in fields
    ]
    return type(out).__name__ + "(" + ";".join(parts) + ")"


def test_pinned_outputs_on_a_seeded_corpus():
    digest = hashlib.sha256()
    kinds = Counter()
    for lp in _pinned_corpus():
        out = lp_solve(lp)
        kinds[type(out).__name__] += 1
        digest.update(_canonical(out).encode() + b"\n")
    assert set(kinds) == {"Optimal", "Feasible", "Infeasible", "Unbounded"}
    assert digest.hexdigest() == PINNED_DIGEST


def test_pinned_pivot_sequences_on_a_seeded_corpus(monkeypatch):
    """Each solve's (row, logical column) pivots next to its outcome: a change
    of Bland's order that lands on the same vertex shows here."""
    pivot, pivots = lp_module._Tableau._pivot, []

    def recorded(t, r, c):
        pivots.append(f"{r}:{c}")
        pivot(t, r, c)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recorded)
    digest, total = hashlib.sha256(), 0
    for lp in _pinned_corpus():
        pivots.clear()
        out = lp_solve(lp)
        total += len(pivots)
        digest.update(f"{_canonical(out)} {' '.join(pivots)}\n".encode())
    assert (total, digest.hexdigest()) == (1709, PINNED_PIVOT_DIGEST)


def _lp_text(lp: LinearProgram) -> str:
    """Backend-independent text of a program: every entry through rat_str, so
    int and rational entries of equal value read the same."""

    def rows(source):
        return ";".join(",".join(map(rat_str, c)) + "<" + rat_str(r) for c, r in source)

    objective = "-" if lp.objective is None else ",".join(map(rat_str, lp.objective))
    return f"{lp.num_vars}|{rows(lp.leq)}|{rows(lp.eq)}|{objective}|{lp.maximize}|{lp.nonneg}"


def _two_color_lemmas():
    for d in (2, 3):
        for s in range(5):
            two_color_lemma(*random_two_colored(s, d))


def _polygon_subsets():
    polys = random_polygon_family(0)
    for p, q in itertools.product(polys, repeat=2):
        poly_subset(p, q)


@pytest.mark.parametrize(
    "build, solves, pinned",
    [
        (
            lambda: generate_planar(2, 7),
            13,
            "f291a5f3a91e473043063d19e2ca27d780f3fe4ad2b1de3d6c48229ab6621622",
        ),
        (
            # two refuted shrink sweeps, each certified once more by the
            # primal tableau after its transposed verdict
            lambda: generate_simplex_family(2, 1, 0),
            17,
            "153dccc54375e2406884738bf093ee2383102df8bc528e1508fc313d81b317fd",
        ),
        (
            # the A x B pairs are a `check_ch` sweep (transposed, reusing
            # the last verified point) and the witness trials are verdicts;
            # the generator decides its (halfspace, box) pairs with no program
            _two_color_lemmas,
            187,
            "c57aa4491f0c1fd39bcf35233142da03e2cf7bf00d7dd1c5f10d76139a727d12",
        ),
        (
            _polygon_subsets,
            33,
            "e8a3c15d145b5fed3577dba940a6502191e0045c4b83901f49aa932a62985404",
        ),
        (
            # every rainbow is 3 hyperplanes pinning one point: no program
            lambda: check_ch(generate_figure1(3, 3)),
            0,
            hashlib.sha256().hexdigest(),
        ),
    ],
    ids=[
        "planar-2-7",
        "simplex-2-1-0",
        "two-color-lemma",
        "poly-subset",
        "figure1-3-3",
    ],
)
def test_construction_lp_sequences_are_pinned(monkeypatch, build, solves, pinned):
    """The programs a construction or a query solves, in order, with their
    outcomes (inputs generated inside `build` included)."""
    solved = []

    class Recording(lp_module._Tableau):
        def __init__(self, lp):
            solved.append(lp)
            super().__init__(lp)

    monkeypatch.setattr(lp_module, "_Tableau", Recording)
    build()
    monkeypatch.undo()
    digest = hashlib.sha256()
    for lp in solved:
        digest.update(f"{_lp_text(lp)} -> {_canonical(lp_solve(lp))}\n".encode())
    assert (len(solved), digest.hexdigest()) == (solves, pinned)


def test_beale_cycling_example_terminates_at_the_optimum():
    # Beale (1955): cycles under the textbook largest-coefficient rule
    lp = LinearProgram(
        4,
        leq=(
            row(("1/4", -60, "-1/25", 9), 0),
            row(("1/2", -90, "-1/50", 3), 0),
            row((0, 0, 1, 0), 1),
        ),
        objective=vec(("-3/4", 150, "-1/50", 6)),
        maximize=False,
        nonneg=True,
    )
    out = lp_solve(lp)
    assert out == Optimal(vec(("1/25", 0, 1, 0)), rat(-1, 20))


def test_kuhn_cycling_example_terminates_at_the_optimum():
    # Kuhn's example (Bland 1977): cycles under the largest-coefficient rule.
    # Row 3 bounds the objective below and x >= 0 makes the feasible set
    # pointed, so the optimum is attained at a vertex the oracle lists.
    lp = LinearProgram(
        4,
        leq=(
            row((-2, -9, 1, 9), 0),
            row(("1/3", 1, "-1/3", -2), 0),
            row((2, 3, -1, -12), 2),
        ),
        objective=vec((-2, -3, 1, 12)),
        maximize=False,
        nonneg=True,
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    assert verify_point(lp, out.point)
    assert out.value == min(dot(lp.objective, x) for x in _vertex_candidates(lp))


# ---------------------------------------------------------------------------
# optimality against an independent oracle: brute-force vertex enumeration

BOX = 5
COEF = st.builds(rat, st.integers(-12, 12), st.integers(1, 3))


@st.composite
def boxed_lps(draw):
    """LPs in <= 3 variables inside the box -BOX <= x <= BOX."""
    n = draw(st.integers(1, 3))
    rows = st.tuples(st.tuples(*([COEF] * n)), COEF)
    leq = draw(st.lists(rows, max_size=4))
    if leq and draw(st.booleans()):
        leq.append(draw(st.sampled_from(leq)))  # duplicated row
    eq = draw(st.lists(rows, max_size=2))
    for k in range(n):
        unit = tuple(rat(int(j == k)) for j in range(n))
        leq += [(unit, rat(BOX)), (tuple(-v for v in unit), rat(BOX))]
    return LinearProgram(
        n,
        leq=tuple(leq),
        eq=tuple(eq),
        objective=draw(st.tuples(*([COEF] * n))),
        maximize=draw(st.booleans()),
        nonneg=draw(st.booleans()),
    )


def _vertex_candidates(lp):
    """Feasible solutions of every n-row subsystem taken as equalities.

    Every vertex of the (bounded) feasible set is among them, so they are
    empty exactly when the LP is infeasible, and the best objective value over
    them is the optimum."""
    n = lp.num_vars
    rows = list(lp.leq) + list(lp.eq)
    if lp.nonneg:
        rows += [(tuple(rat(-int(j == k)) for j in range(n)), rat(0)) for k in range(n)]
    for combo in itertools.combinations(rows, n):
        x = solve_linear([c for c, _ in combo], [r for _, r in combo])
        if x is not None and verify_point(lp, x):
            yield x


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(boxed_lps())
def test_optimum_matches_vertex_enumeration(lp):
    values = [dot(lp.objective, x) for x in _vertex_candidates(lp)]
    out = lp_solve(lp)
    if not values:
        assert isinstance(out, Infeasible)
        return
    assert isinstance(out, Optimal)
    assert verify_point(lp, out.point)
    assert out.value == dot(lp.objective, out.point)
    assert out.value == (max(values) if lp.maximize else min(values))


# ---------------------------------------------------------------------------
# the tableau stays on Python ints: a rational slipping back into the rows
# would keep every answer right but cost the integer kernel its speed


def test_tableau_entries_stay_python_ints(monkeypatch):
    pivot, evict = lp_module._Tableau._pivot, lp_module._evict_artificials
    phase, seen = ["phase 1"], set()

    def checked_pivot(t, r, c):
        seen.add((phase[0], t.entry(r, c) < 0))
        pivot(t, r, c)
        assert type(t.den) is int and t.den > 0
        for entries in (*t.rows, t.obj):
            assert all(type(x) is int for x in entries)

    def tracked_evict(t):
        phase[0] = "eviction"
        evict(t)
        phase[0] = "phase 2"

    monkeypatch.setattr(lp_module._Tableau, "_pivot", checked_pivot)
    monkeypatch.setattr(lp_module, "_evict_artificials", tracked_evict)
    lps = [
        # an artificial stays basic at zero and leaves on a negative pivot
        LinearProgram(
            2,
            leq=(row((0, 2), 1), row((0, -2), -1)),
            eq=(row((1, 0), 0),),
            objective=vec(("1/3", "2/5")),
        ),
        LinearProgram(2, leq=(row(("1/2", 1), "7/3"), row((-1, "1/4"), 0))),
        LinearProgram(1, leq=(row(("1/2",), 0), row((-1,), "-1/3"))),
        LinearProgram(2, leq=(row((-1, 0), "1/2"),), objective=vec(("3/2", 0))),
    ]
    kinds = []
    for lp in lps:
        phase[0] = "phase 1"
        kinds.append(type(lp_solve(lp)).__name__)
    assert kinds == ["Optimal", "Feasible", "Infeasible", "Unbounded"]
    assert {"phase 1", "phase 2", "eviction"} <= {p for p, _ in seen}
    assert ("eviction", True) in seen


def test_tableau_stores_one_column_per_variable_and_row():
    # n free variables and m rows: n plus columns, m artificials and the rhs;
    # the minus and slack columns are read off them, never stored
    lp = LinearProgram(
        3,
        leq=(row((1, 0, 0), 1), row((0, 1, "1/2"), 2), row((-1, -1, -1), 0)),
        eq=(row((1, 1, 1), 1),),
        objective=vec((1, 2, 3)),
    )
    t = lp_module._Tableau(lp)
    assert lp_module._phase_one(t, len(lp.leq)) is None
    assert t.total_cols == 3 * 2 + 3 + 4
    assert {len(entries) for entries in (*t.rows, t.obj)} == {3 + 4 + 1}
