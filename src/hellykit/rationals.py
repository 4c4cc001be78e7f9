"""Exact rational arithmetic and small dense linear algebra.

All decision paths in the toolkit run over exact rationals, carried as
fractions.Fraction (reduced, positive denominator).  `rat` is the only
constructor the rest of the code base calls.

Vectors are plain tuples of rationals.  The linear algebra is fraction-free:
each input row is scaled once to Python ints, and `_reduce` runs Gauss-Jordan
elimination with every row kept over the running pivot, so each update
(`eliminate`, the LP tableau's too) divides exactly (Bareiss 1968, Edmonds
1967).  The reduced row echelon form is unique, so `nullspace` and
`solve_linear`, which build rationals from the final rows only, return what
elimination over rationals returns; `rank` builds none.  `solve_square_ints`
solves the square integer systems of vertex enumeration by forward
elimination with the same update and back substitution.  Sizes never exceed
a few dozen rows.  `integer_row` turns a rational row into coprime Python
ints plus its positive scale for the fraction-free LP tableau;
`normalize_row` gives the ints alone, the form polyhedra store.
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
    Python ints with no common factor (all zero for a zero row, scale 1).

    A row of Python ints is only divided by its gcd, so a coprime int tuple,
    as every stored polyhedron row is, comes back as itself with scale 1.
    """
    if type(rhs) is int and all(type(a) is int for a in coeffs):
        g = gcd(*coeffs, rhs)
        if g > 1:
            return tuple(a // g for a in coeffs), rhs // g, Fraction(1, g)
        return tuple(coeffs), rhs, ONE
    row = (*coeffs, rhs)
    den = common_denominator(row)
    *ints, r = scaled_ints(row, den)
    g = gcd(*ints, r)
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(ints), r, Fraction(den, g or 1)


def normalize_row(coeffs: Sequence, rhs) -> tuple:
    """(coeffs, rhs) scaled by a positive rational to coprime Python ints;
    the constraint's solution set is unchanged because the factor is
    positive."""
    return integer_row(coeffs, rhs)[:2]


# ---------------------------------------------------------------------------
# dense exact linear algebra, fraction-free


def eliminate(other: list, row: list, f: int, p: int, den: int) -> list:
    """Bareiss update of `other`, whose entry in the pivot column is f, for a
    pivot of value p on `row` over denominator den (Bareiss 1968)."""
    if f:
        return [(x * p - f * y) // den for x, y in zip(other, row)]
    if p == den:
        return other
    return [x * p // den for x in other]


def _ints(values: Sequence) -> list[int]:
    """The row `values` times its least common denominator, as Python ints."""
    if all(type(x) is int for x in values):
        return list(values)
    return scaled_ints(values, common_denominator(values))


def _reduce(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (pivots, den): the pivot columns and a nonzero int such that the
    reduced row echelon form of the input is rows[i] / den, its first
    len(pivots) rows nonzero.  Every row is kept over the running pivot den,
    so each update divides exactly: the entries are minors of the input
    (Edmonds 1967).  The pivot row is the first one at or below the current
    one with a nonzero entry in the column.
    """
    pivots: list[int] = []
    den = 1
    n = len(rows)
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for k in range(r, n):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(n):
            if i != r:
                rows[i] = eliminate(rows[i], top, rows[i][c], p, den)
        den = p
        pivots.append(c)
        if r + 1 == n:
            break
    return pivots, den


def rank(vectors: Sequence[Sequence]) -> int:
    return len(_reduce([_ints(v) for v in vectors])[0])


def independent_rows(vectors: Sequence[Sequence]) -> list[int]:
    """Indices of the vectors outside the span of the vectors before them,
    in order: the pivot columns of the matrix with the vectors as columns."""
    columns = [list(c) for c in zip(*(_ints(v) for v in vectors))]
    return _reduce(columns)[0]


def nullspace_ints(vectors: Sequence[Sequence], dim: int) -> tuple[list[list[int]], int]:
    """(basis, den): `nullspace(vectors, dim)` is each basis vector / den,
    where the basis vectors are Python ints and den is a nonzero int."""
    rows = [_ints(v) for v in vectors]
    pivots, den = _reduce(rows)
    basis = []
    for fc in range(dim):
        if fc in pivots:
            continue
        x = [0] * dim
        x[fc] = den
        for row, pc in zip(rows, pivots):
            x[pc] = -row[fc]
        basis.append(x)
    return basis, den


def nullspace(vectors: Sequence[Sequence], dim: int) -> list[Vec]:
    """Basis of {x : v . x = 0 for every v in vectors}, vectors in R^dim: one
    vector per free column of the reduced row echelon form, 1 there."""
    basis, den = nullspace_ints(vectors, dim)
    return [tuple(rat(x, den) if x else ZERO for x in v) for v in basis]


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence):
    """One solution of matrix . x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if not matrix:
        return zero_vec(0)
    ncols = len(matrix[0])
    rows = [_ints((*row, b)) for row, b in zip(matrix, rhs)]
    pivots, den = _reduce(rows)
    if ncols in pivots:  # a pivot in the rhs column: inconsistent
        return None
    x = [ZERO] * ncols
    for row, pc in zip(rows, pivots):
        if row[ncols]:
            x[pc] = rat(row[ncols], den)
    return tuple(x)


def solve_square_ints(matrix: Sequence[Sequence[int]], rhs: Sequence[int]):
    """(nums, den) with matrix . (nums / den) = rhs and den > 0, for a square
    matrix of Python ints, or None when the matrix is singular.

    Forward elimination with the kernel's update, `eliminate`, on the rows
    below each pivot only, then back substitution: den is |det(matrix)| and
    den * x is an integer vector by Cramer's rule, so every division below is
    exact and no rational is built.  Half the updates of a full reduction,
    and it stops at the first column with no pivot.
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
        for i in range(k + 1, n):
            rows[i] = eliminate(rows[i], top, rows[i][k], top[k], prev)
        prev = top[k]
    det = prev
    nums = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(i + 1, n))
        nums[i] = acc // row[i]
    if det < 0:
        return tuple(-x for x in nums), -det
    return tuple(nums), det
