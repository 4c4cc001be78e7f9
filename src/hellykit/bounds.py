"""Quantitative bound bookkeeping.

Closed-form coverage fractions are evaluated exactly:

    lam(alpha, d)   = alpha^(d+2) / (4 d 3^(d+1))
    gamma(alpha, d) = min(beta(d * lam(alpha, d), d), alpha / (6 d))

beta(alpha, d) is the fractional-Helly piercing fraction.  Kalai ("Intersection
patterns of convex sets", 1984) proved 1 - (1 - alpha)^(1/(d+1)) optimal, so
that is the one beta used.  It is irrational, so it is reported as a certified
rational lower bound computed by exact dyadic bisection of the predicate
(1 - q)^(d+1) >= 1 - alpha.

The recursive piercing/crossing counts are tracked but never evaluated:
M(i, d) bottoms out at integers for i <= 2 and otherwise expands into opaque
expressions over the weak-net symbols W and W_hpl, which have no constructive
definition here.  Sym values exist to be rendered, compared, and stored; any
attempt to read them as numbers is a type error by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InputError
from .rationals import ONE, ZERO, rat, rat_str

_INFIX = {"*", "+", "/"}


@dataclass(frozen=True)
class Sym:
    """Opaque symbolic expression, e.g. G(M(2, 3), 3, 3) or 3 * W_hpl(...)."""

    fn: str
    args: tuple

    def _render(self, arg) -> str:
        if isinstance(arg, Sym):
            inner = str(arg)
            if self.fn in _INFIX and arg.fn in _INFIX:
                return f"({inner})"
            return inner
        if isinstance(arg, int):
            return str(arg)
        return rat_str(arg)

    def __str__(self) -> str:
        parts = [self._render(a) for a in self.args]
        if self.fn in _INFIX:
            return f" {self.fn} ".join(parts)
        return f"{self.fn}({', '.join(parts)})"


Bound = Union[int, Sym]


def _check_alpha_dim(alpha, d: int):
    a = rat(alpha)
    if not (ZERO < a <= ONE):
        raise InputError("alpha must satisfy 0 < alpha <= 1")
    if d < 1:
        raise InputError("dimension must be positive")
    return a


def lam(alpha, d: int):
    """Crossing fraction alpha^(d+2) / (4 d 3^(d+1)); exact rational."""
    a = _check_alpha_dim(alpha, d)
    return a ** (d + 2) / (4 * d * rat(3) ** (d + 1))


def beta_default(alpha, d: int):
    """Certified rational lower bound on 1 - (1 - alpha)^(1/(d+1)).

    Bisects q over a dyadic grid of depth 48 using the exact predicate
    (1 - q)^(d+1) >= 1 - alpha, and doubles the depth until the bound
    is strictly positive, so the result is always usable as a piercing
    fraction.  At any fixed depth the returned grid point is non-decreasing
    in alpha because the true root is.
    """
    a = _check_alpha_dim(alpha, d)
    if a == ONE:
        return ONE
    target = ONE - a
    e = d + 1
    bits = 48
    while True:
        lo, hi = ZERO, ONE
        for _ in range(bits):
            mid = (lo + hi) / 2
            if (ONE - mid) ** e >= target:
                lo = mid
            else:
                hi = mid
        if lo > ZERO:
            return lo
        bits *= 2


BETA_DEFAULT_LABEL = (
    "certified dyadic lower bound on 1 - (1 - alpha)^(1/(d+1))"
)


def gamma(alpha, d: int):
    """Piercing fraction min(beta_default(d * lam, d), alpha / (6 d)); exact.
    The beta argument d * lam(alpha, d) never exceeds 1/12, so it is always a
    legal fraction."""
    a = _check_alpha_dim(alpha, d)
    return min(beta_default(d * lam(a, d), d), a / (6 * d))


# ---------------------------------------------------------------------------
# symbolic recursion

def _inv(m: Bound):
    return rat(1, m) if isinstance(m, int) else Sym("/", (1, m))


def F_sym(m: Bound, k: int, d: int) -> Sym:
    """Piercing count F(m, k, d) = W(gamma(1/m, k), 0, d), kept symbolic."""
    return Sym("W", (Sym("gamma", (_inv(m), k)), 0, d))


def G_sym(m: Bound, k: int, d: int) -> Sym:
    """Crossing count G(m, k, d) = m * W_hpl(lambda(1/m, k) / m, k-1, k)."""
    eps = Sym("/", (Sym("lambda", (_inv(m), k)), m))
    return Sym("*", (m, Sym("W_hpl", (eps, k - 1, k))))


def M(i: int, d: int) -> Bound:
    """Flat count in the step-down recursion.

    M(1, d) = 1 and M(2, d) = d exactly; deeper levels expand symbolically
    as M(i, d) = G(M(i-1, d), d-i+2, d).  The top index i = d follows the
    same recursion (it is the line count that ends the descent).
    """
    if d < 2 or not (1 <= i <= d):
        raise InputError("M(i, d) needs d >= 2 and 1 <= i <= d")
    if i == 1:
        return 1
    if i == 2:
        return d
    return G_sym(M(i - 1, d), d - i + 2, d)


def f_prime(d: int) -> Bound:
    """Points that suffice for one class in the d-colored dichotomy.

    d = 2 is the exactly known case (a single point); for d >= 3 the count
    is the symbolic max over i of F(M(i, d), d-i+1, d).
    """
    if d < 2:
        raise InputError("dimension must be at least 2")
    if d == 2:
        return 1
    return Sym("max", tuple(F_sym(M(i, d), d - i + 1, d) for i in range(1, d)))


def g_prime(d: int, improved: bool = False) -> Bound:
    """Lines that suffice for the whole family in the d-colored dichotomy.

    d = 2 is the exactly known case (at most 4 lines).  For d >= 3 the count
    is d * G(M(d-1, d), 2, d); with improved=True the generic-projection
    refinement (d-1) * G(M(d-1, d), 2, d) + 1 is reported instead.
    """
    if d < 2:
        raise InputError("dimension must be at least 2")
    if d == 2:
        return 4
    core = G_sym(M(d - 1, d), 2, d)
    if improved:
        return Sym("+", (Sym("*", (d - 1, core)), 1))
    return Sym("*", (d, core))


def split_f(k: int, d: int) -> Bound:
    """Points for the first k classes in the split form: k * F(M(d-k+1, d), k, d)."""
    if not (1 <= k <= d):
        raise InputError("k out of range")
    inner = F_sym(M(d - k + 1, d), k, d)
    return inner if k == 1 else Sym("*", (k, inner))


def split_g(k: int, d: int) -> Bound:
    """k-flats for the remaining classes: (d-k+1) * G(M(d-k, d), k+1, d).

    k = d is degenerate: a d-flat is the whole space, so one flat suffices.
    """
    if not (1 <= k <= d):
        raise InputError("k out of range")
    if k == d:
        return 1
    return Sym("*", (d - k + 1, G_sym(M(d - k, d), k + 1, d)))
