"""Exact arithmetic helpers: parsing, row normalization, linear algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellykit.errors import InputError
from hellykit.rationals import (
    ZERO,
    dot,
    integer_row,
    nullspace,
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
    if rank(matrix) < len(matrix):
        assert got is None
        return
    nums, den = got
    assert den > 0 and all(type(x) is int for x in (*nums, den))
    assert tuple(rat(x, den) for x in nums) == solve_linear(matrix, rhs)


def test_solve_square_ints_hand_cases():
    assert solve_square_ints([[2, 1], [1, -1]], [7, -1]) == ((6, 9), 3)
    assert solve_square_ints([[0, 1], [1, 0]], [5, -2]) == ((-2, 5), 1)
    assert solve_square_ints([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_square_ints([], []) == ((), 1)
