"""Exact rational arithmetic and small dense linear algebra.

All decision paths in the toolkit run over exact rationals, carried as
fractions.Fraction (reduced, positive denominator).  `rat` is the only
constructor the rest of the code base calls.

Vectors are plain tuples of rationals.  The linear algebra is textbook
Gauss-Jordan elimination over rationals (each pivot row is divided by its
pivot); sizes never exceed a few dozen rows.  `solve_square_ints` is its
fraction-free counterpart for square integer systems, as vertex enumeration
solves them.  `integer_row` turns a rational row into coprime Python ints plus
its positive scale for the fraction-free LP tableau; `normalize_row` gives
the ints alone, the form polyhedra store.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import InputError

RATIONAL_BACKEND = "fractions.Fraction"

ZERO = Fraction(0)
ONE = Fraction(1)

Vec = tuple  # tuple of rationals; alias for readability in signatures


def rat(value, den=None):
    """Build a rational from int, rational, or string ('p/q' or exact decimal)."""
    if den is not None:
        if den == 0:
            raise InputError("zero denominator")
        return Fraction(value, den)
    if type(value) is Fraction:  # already reduced, and immutable
        return value
    if isinstance(value, str):
        try:
            return Fraction(value.strip())  # accepts "3", "-3/7", "1.25"
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise InputError("floats are not accepted; pass a string or rational")
    if isinstance(value, int):
        return Fraction(value)
    num = getattr(value, "numerator", None)
    d = getattr(value, "denominator", None)
    if num is None or d is None:
        raise InputError(f"cannot interpret {value!r} as a rational")
    return Fraction(num, d)


def rat_str(q) -> str:
    """Serialize as 'p' or 'p/q' (den > 0, reduced)."""
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def floor_rat(q) -> int:
    return int(q.numerator // q.denominator)


def ceil_rat(q) -> int:
    return int(-((-q.numerator) // q.denominator))


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vec:
    return tuple(ZERO for _ in range(n))


def dot(a: Sequence, b: Sequence):
    acc = ZERO
    for x, y in zip(a, b):
        if x and y:
            acc += y * x  # callers pass the int row first: Fraction * int is faster
    return acc


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Sequence) -> Vec:
    return tuple(c * x for x in a)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def common_denominator(values: Iterable) -> int:
    """Least positive int D such that D * q is an integer for every q.

    Every q must be an int or rational: anything else, a float included, is
    an InputError, so no integer check built on D can run on inexact data."""
    den = 1
    for q in values:
        try:
            d = int(q.denominator)
        except AttributeError:
            rat(q)  # raises rat's InputError for a float
            raise InputError(f"not an int or rational: {q!r}") from None
        den = den // gcd(den, d) * d
    return den


def scaled_ints(values: Iterable, den: int) -> list[int]:
    """The integers den * q, for den a common multiple of the denominators."""
    return [int(q.numerator) * (den // int(q.denominator)) for q in values]


def integer_row(coeffs: Sequence, rhs) -> tuple:
    """(ints, r, scale): (coeffs, rhs) times a positive rational `scale`, as
    Python ints with no common factor (all zero for a zero row, scale 1)."""
    row = (*coeffs, rhs)
    den = common_denominator(row)
    *ints, r = scaled_ints(row, den)
    g = gcd(*ints, r)
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(ints), r, Fraction(den, g or 1)


def normalize_row(coeffs: Sequence, rhs) -> tuple:
    """(coeffs, rhs) scaled by a positive rational to coprime Python ints.

    The constraint's solution set is unchanged because the factor is positive.
    """
    return integer_row(coeffs, rhs)[:2]


# ---------------------------------------------------------------------------
# dense exact linear algebra


def _echelon(rows: list[list]) -> tuple[list[list], list[int]]:
    """Row-reduce in place; returns (reduced rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rat(rows[r][c])  # a rational divisor keeps int rows exact
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(vectors: Sequence[Sequence]) -> int:
    rows = [list(v) for v in vectors]
    _, pivots = _echelon(rows)
    return len(pivots)


def nullspace(vectors: Sequence[Sequence], dim: int) -> list[Vec]:
    """Basis of {x : v . x = 0 for every v in vectors}, vectors in R^dim."""
    rows = [list(v) for v in vectors if not is_zero_vec(v)]
    if not rows:
        return [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]
    rows, pivots = _echelon(rows)
    rows = rows[: len(pivots)]
    free_cols = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free_cols:
        x = [ZERO] * dim
        x[fc] = ONE
        for rrow, pc in zip(rows, pivots):
            x[pc] = -rrow[fc]
        basis.append(tuple(x))
    return basis


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence):
    """One solution of matrix . x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if not matrix:
        return zero_vec(0)
    ncols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = _echelon(rows)
    for row in rows:
        if is_zero_vec(row[:ncols]) and row[ncols] != 0:
            return None
    x = [ZERO] * ncols
    for rrow, pc in zip(rows, pivots):
        if pc == ncols:  # pivot in the rhs column: inconsistent
            return None
        x[pc] = rrow[ncols]
    return tuple(x)


def solve_square_ints(matrix: Sequence[Sequence[int]], rhs: Sequence[int]):
    """(nums, den) with matrix . (nums / den) = rhs and den > 0, for a square
    matrix of Python ints, or None when the matrix is singular.

    Fraction-free (Bareiss) elimination followed by back substitution: den is
    |det(matrix)| and den * x is an integer vector by Cramer's rule, so every
    division below is exact and no rational is built.
    """
    n = len(matrix)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        akk = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            aik = row[k]
            rows[i] = [(x * akk - aik * y) // prev for x, y in zip(row, top)]
        prev = akk
    det = prev
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    if det < 0:
        return tuple(-x for x in nums), -det
    return tuple(nums), det
