"""Exact arithmetic helpers: parsing, row normalization, linear algebra."""

from __future__ import annotations

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_nullspace, fraction_rank, fraction_solve_linear

from hellykit.errors import InputError
from hellykit.rationals import (
    ZERO,
    dot,
    independent_rows,
    integer_row,
    nullspace,
    nullspace_ints,
    normalize_row,
    rank,
    rat,
    rat_str,
    solve_linear,
    solve_square_ints,
    vec,
)


def test_rat_parses_integers_fractions_and_decimal_strings():
    assert rat(3) == rat(6, 2)
    assert rat("3/7") * 7 == 3
    assert rat("0.25") == rat(1, 4)
    assert rat("-2/4") == rat(-1, 2)


def test_rat_rejects_junk():
    with pytest.raises(InputError):
        rat("one half")
    with pytest.raises(InputError):
        rat(0.25)


def test_rat_str_round_trip():
    for text in ("0", "5", "-7", "3/7", "-22/7"):
        assert rat_str(rat(text)) == text


def test_normalize_row_gives_coprime_integers():
    coeffs, rhs = normalize_row(vec((rat(2, 3), rat(-4, 3))), rat(2))
    assert coeffs == (rat(1), rat(-2))
    assert rhs == rat(3)


def test_normalize_row_keeps_the_sign():
    coeffs, rhs = normalize_row(vec((rat(0), rat(-2))), rat(-4))
    assert coeffs == (rat(0), rat(-1))
    assert rhs == rat(-2)


def test_normalize_row_returns_python_ints():
    coeffs, rhs = normalize_row(vec(("1/2", "-3/4")), rat("5/8"))
    assert (coeffs, rhs) == ((4, -6), 5)
    assert type(rhs) is int and all(type(v) is int for v in coeffs)


def test_dense_algebra_is_exact_on_int_input():
    def exact(values):
        return all(type(v) is type(ZERO) for v in values)

    x = solve_linear([[2, 1]], [1])
    assert x == (rat(1, 2), rat(0)) and exact(x)
    (basis,) = nullspace([(2, 1)], 2)
    assert basis == (rat(-1, 2), rat(1)) and exact(basis)
    x = solve_linear([[3, 0], [1, 7]], [2, 1])
    assert x == (rat(2, 3), rat(1, 21)) and exact(x)


def test_normalize_row_divides_int_rows_by_their_gcd():
    assert normalize_row((4, -6), 10) == ((2, -3), 5)
    assert normalize_row([3, 0], -2) == ((3, 0), -2)
    assert normalize_row((0, 0), 0) == ((0, 0), 0)
    assert normalize_row((-2, 4), 0) == ((-1, 2), 0)
    for ints in ((4, -6, 10), (3, 0, -2), (0, 0, 0), (-2, 4, 0)):
        *coeffs, rhs = ints
        assert normalize_row(coeffs, rhs) == integer_row(vec(coeffs), rat(rhs))[:2]


def test_integer_row_returns_python_ints_and_the_scale():
    ints, rhs, scale = integer_row(vec((rat(2, 3), rat(-4, 3))), rat(2))
    assert (ints, rhs, scale) == ((1, -2), 3, rat(3, 2))
    assert type(rhs) is int and all(type(v) is int for v in ints)
    assert integer_row(vec((0, 0)), rat(0)) == ((0, 0), 0, rat(1))


def test_rank_and_nullspace():
    rows = [vec((1, 2, 3)), vec((2, 4, 6)), vec((0, 1, 1))]
    assert rank(rows) == 2
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    for row in rows:
        assert dot(row, basis[0]) == 0


def test_solve_linear_exact():
    sol = solve_linear([vec((2, 1)), vec((1, -1))], vec((7, -1)))
    assert sol == (rat(2), rat(3))


def test_solve_linear_inconsistent_returns_none():
    assert solve_linear([vec((1, 1)), vec((2, 2))], vec((1, 3))) is None


@st.composite
def square_systems(draw):
    n = draw(st.integers(0, 4))
    entries = st.integers(-4, 4) | st.integers(-(10**12), 10**12)
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return matrix, [draw(entries) for _ in range(n)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_systems())
def test_solve_square_ints_matches_solve_linear(system):
    matrix, rhs = system
    got = solve_square_ints(matrix, rhs)
    if fraction_rank(matrix) < len(matrix):
        assert got is None
        return
    nums, den = got
    assert den > 0 and all(type(x) is int for x in (*nums, den))
    assert tuple(rat(x, den) for x in nums) == fraction_solve_linear(matrix, rhs)


def test_solve_square_ints_hand_cases():
    assert solve_square_ints([[2, 1], [1, -1]], [7, -1]) == ((6, 9), 3)
    assert solve_square_ints([[0, 1], [1, 0]], [5, -2]) == ((-2, 5), 1)
    assert solve_square_ints([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_square_ints([], []) == ((), 1)


# ---------------------------------------------------------------------------
# the fraction-free kernel against the reference Fraction elimination

ENTRIES = st.integers(-3, 3) | st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """(ncols, rows) of mixed int and Fraction entries, with zero rows,
    duplicate rows and combinations of two rows mixed in."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


def _all_fractions(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices(), st.data())
def test_dense_algebra_matches_the_fraction_reference(system, data):
    ncols, rows = system
    assert rank(rows) == fraction_rank(rows)
    basis = nullspace(rows, ncols)
    assert basis == fraction_nullspace(rows, ncols) and _all_fractions(basis)
    ints, den = nullspace_ints(rows, ncols)
    assert [tuple(rat(x, den) for x in v) for v in ints] == basis
    picked = independent_rows(rows)
    assert len(picked) == rank(rows)
    for i in range(len(rows)):
        assert rank([rows[j] for j in picked if j <= i]) == rank(rows[: i + 1])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        rhs = [dot(row, x) for row in rows]  # consistent
    else:
        rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    got = solve_linear(rows, rhs)
    assert got == fraction_solve_linear(rows, rhs)
    if got is not None:
        assert _all_fractions([got])
        assert all(dot(row, got) == b for row, b in zip(rows, rhs))


def test_dense_algebra_on_empty_and_inconsistent_inputs():
    cases = [
        ([], 3, []),
        ([()], 0, [0]),
        ([(), ()], 0, [1, 0]),
        ([(0, 0)], 2, [0]),
        ([(0, 0)], 2, [5]),
        ([(1, 1), (2, 2)], 2, [1, 3]),
        ([(1, Fraction(1, 2)), (2, 1)], 2, [1, 2]),
    ]
    for rows, dim, rhs in cases:
        assert rank(rows) == fraction_rank(rows)
        assert nullspace(rows, dim) == fraction_nullspace(rows, dim)
        assert solve_linear(rows, rhs) == fraction_solve_linear(rows, rhs)
    assert nullspace([], 2) == [(rat(1), ZERO), (ZERO, rat(1))]
    assert solve_linear([], []) == ()
    assert solve_linear([[]], [1]) is None
    assert solve_linear([(0, 0)], [5]) is None
    assert solve_linear([(1, 1), (2, 2)], [1, 3]) is None
    assert independent_rows([]) == []
    assert independent_rows([(0, 0), (1, 2), (2, 4), (0, 1)]) == [1, 3]
