"""Certifying linear programming over exact rationals.

Textbook two-phase tableau simplex with Bland's anticycling rule, so
termination is guaranteed and every answer is exact.  Each outcome carries a
certificate that is re-verified before it is returned:

  * Optimal / Feasible  - a point, checked against every constraint;
  * Infeasible          - Farkas multipliers (nonnegative on inequality rows)
                          whose aggregate is the contradiction 0.x <= c, c < 0
                          (functional >= 0 instead of = 0 on sign-constrained
                          variables);
  * Unbounded           - a feasible point plus an improving recession ray.

Problems are stated over free variables by default; `nonneg=True` constrains
all variables to be >= 0 (used by the fractional transversal/matching LPs).
Sizes stay at desk scale (tens of rows), so a dense tableau is the right
tool.  It pivots fraction-free: each row enters as given, the inequality rows
and then the equality rows, and is scaled to coprime Python ints (a stored
polyhedron row already is); the rows share one integer denominator (the basis
determinant), and rationals appear only when a point, ray or certificate is
read out.  The pivot sequence is that of the rational tableau, so the answers
are too.  Polyhedra reach the solver through one builder, geometry.joint_lp,
which fixes the row order and so the pivots and certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Union

from .errors import InputError, TheoremViolationError
from .rationals import (
    ZERO,
    Vec,
    common_denominator,
    dot,
    integer_row,
    is_zero_vec,
    rat,
    scaled_ints,
    vec,
)


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    leq: tuple = ()  # rows (coeffs, rhs) meaning coeffs . x <= rhs
    eq: tuple = ()  # rows (coeffs, rhs) meaning coeffs . x == rhs
    objective: Optional[Vec] = None  # None: pure feasibility question
    maximize: bool = True
    nonneg: bool = False  # if True, every variable is constrained >= 0

    def __post_init__(self):
        for coeffs, _rhs in list(self.leq) + list(self.eq):
            if len(coeffs) != self.num_vars:
                raise InputError(
                    f"row width {len(coeffs)} != num_vars {self.num_vars}"
                )
        if self.objective is not None and len(self.objective) != self.num_vars:
            raise InputError("objective width mismatch")


@dataclass(frozen=True)
class Optimal:
    point: Vec
    value: object  # rational


@dataclass(frozen=True)
class Feasible:
    point: Vec


@dataclass(frozen=True)
class Infeasible:
    leq_multipliers: Vec  # aligned with lp.leq, each >= 0
    eq_multipliers: Vec  # aligned with lp.eq, signs free


@dataclass(frozen=True)
class Unbounded:
    point: Vec
    ray: Vec


LpOutcome = Union[Optimal, Feasible, Infeasible, Unbounded]


def aggregate_rows(width: int, weighted_rows) -> tuple:
    """Sum mult * (coeffs, rhs) over (mult, (coeffs, rhs)) pairs: returns
    (functional, constant), the one aggregation every Farkas check uses."""
    functional = [ZERO] * width
    constant = ZERO
    for mult, (coeffs, rhs) in weighted_rows:
        if mult:
            for k, a in enumerate(coeffs):
                if a:
                    functional[k] += mult * a
            constant += mult * rhs
    return tuple(functional), constant


def farkas_aggregate(lp: LinearProgram, cert: Infeasible):
    """Aggregate the certificate's multipliers: returns (functional, constant)."""
    return aggregate_rows(
        lp.num_vars,
        chain(zip(cert.leq_multipliers, lp.leq), zip(cert.eq_multipliers, lp.eq)),
    )


def verify_farkas(lp: LinearProgram, cert: Infeasible) -> bool:
    if any(m < 0 for m in cert.leq_multipliers):
        return False
    functional, constant = farkas_aggregate(lp, cert)
    if constant >= 0:
        return False
    if lp.nonneg:
        return all(g >= 0 for g in functional)
    return is_zero_vec(functional)


def verify_point(lp: LinearProgram, point: Vec) -> bool:
    if lp.nonneg and any(x < 0 for x in point):
        return False
    for coeffs, rhs in lp.leq:
        if dot(coeffs, point) > rhs:
            return False
    for coeffs, rhs in lp.eq:
        if dot(coeffs, point) != rhs:
            return False
    return True


def verify_ray(lp: LinearProgram, ray: Vec) -> bool:
    if is_zero_vec(ray):
        return False
    if lp.nonneg and any(x < 0 for x in ray):
        return False
    for coeffs, _ in lp.leq:
        if dot(coeffs, ray) > 0:
            return False
    for coeffs, _ in lp.eq:
        if dot(coeffs, ray) != 0:
            return False
    if lp.objective is not None:
        gain = dot(lp.objective, ray)
        if lp.maximize and gain <= 0:
            return False
        if not lp.maximize and gain >= 0:
            return False
    return True


class _Tableau:
    """Dense fraction-free simplex tableau; rows end with the rhs entry.

    Every row holds Python ints over the common denominator `den` > 0, the
    absolute basis determinant, so the rational tableau row i is
    rows[i] / den and every division in `_pivot` is exact (Edmonds 1967,
    Bareiss 1968).  The reduced-cost row `obj` lives over the same `den`,
    times a positive constant when the costs are not integers; only its signs
    are read.  Rows are the inequality rows, then the equality rows, each in
    program order.  Columns are the structural ones, then a slack per
    inequality row, then from `art` on the artificials, one per row; the
    artificials never enter the basis.
    """

    def __init__(self, lp: LinearProgram):
        # a variable spans one structural column per sign: (1,) when it is
        # nonneg, the +/- pair (1, -1) when it is free
        self.signs = (1,) if lp.nonneg else (1, -1)
        self.num_vars = lp.num_vars
        cols = lp.num_vars * len(self.signs)
        n_leq = len(lp.leq)
        self.art = cols + n_leq  # a slack column per inequality row, in row order
        total = self.total_cols = self.art + n_leq + len(lp.eq)
        self.flip, self.scale, self.rows = [], [], []
        for i, (coeffs, rhs) in enumerate(chain(lp.leq, lp.eq)):
            try:
                c, r, k = integer_row(coeffs, rhs)
            except AttributeError:  # an entry that is not an int or rational
                vec((*coeffs, rhs))  # raises rat's InputError, e.g. for floats
                raise
            sigma = -1 if r < 0 else 1
            row = [s * sigma * a for a in c for s in self.signs] + [0] * (total + 1 - cols)
            if i < n_leq:
                row[cols + i] = sigma
            row[self.art + i] = 1
            row[total] = sigma * r
            self.flip.append(sigma)
            self.scale.append(k)  # positive factor from the given row to the stored one
            self.rows.append(row)
        self.den = 1
        self.basis = list(range(self.art, total))
        self.obj = None  # reduced-cost row, entry [total] = -den * (objective value)

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        p = row[c]
        den = self.den
        self.rows = [
            other if i == r else _eliminate(other, row, c, p, den)
            for i, other in enumerate(self.rows)
        ]
        self.obj = _eliminate(self.obj, row, c, p, den)
        if p < 0:
            self.rows = [[-x for x in other] for other in self.rows]
            self.obj = [-x for x in self.obj]
            p = -p
        self.den = p
        self.basis[r] = c

    def _set_costs(self, costs: list) -> None:
        """Install reduced costs for the integer minimization cost vector `costs`."""
        obj = [c * self.den for c in costs] + [0]
        for i, row in enumerate(self.rows):
            cb = costs[self.basis[i]]
            if cb:
                obj = [o - cb * x for o, x in zip(obj, row)]
        self.obj = obj

    def _bland_step(self) -> str:
        """One simplex step; returns 'optimal', 'pivoted', or 'unbounded'."""
        total = self.total_cols
        enter = None
        for j in range(self.art):
            if self.obj[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        # minimum ratio rows[i][total] / rows[i][enter] over positive entries,
        # compared by cross-multiplication; ties go to the smaller basis index
        leave = None
        for i, row in enumerate(self.rows):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                best = self.rows[leave]
                lhs, rhs = row[total] * best[enter], best[total] * a
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                    leave = i
        if leave is None:
            self._unbounded_col = enter
            return "unbounded"
        self._pivot(leave, enter)
        return "pivoted"

    def _run(self) -> str:
        while True:
            state = self._bland_step()
            if state != "pivoted":
                return state

    # -- solution readout ---------------------------------------------------

    def _structural(self, values: dict) -> Vec:
        """Map expanded-column numerators over `den` back to the variables."""
        w = len(self.signs)
        return tuple(
            rat(sum(s * values.get(k * w + j, 0) for j, s in enumerate(self.signs)), self.den)
            for k in range(self.num_vars)
        )

    def structural_point(self) -> Vec:
        total = self.total_cols
        return self._structural({b: self.rows[i][total] for i, b in enumerate(self.basis)})

    def structural_ray(self, enter: int) -> Vec:
        delta = {enter: self.den}
        for i, b in enumerate(self.basis):
            v = self.rows[i][enter]
            if v:
                delta[b] = -v
        return self._structural(delta)


def _eliminate(other: list, row: list, c: int, p: int, den: int) -> list:
    """Bareiss update of `other` for a pivot on row[c] = p over denominator den."""
    f = other[c]
    if f:
        return [(x * p - f * y) // den for x, y in zip(other, row)]
    if p == den:
        return other
    return [x * p // den for x in other]


def _phase_one(t: _Tableau, n_leq: int):
    """Returns None if feasible, else the Infeasible certificate; the first
    `n_leq` rows are the inequality rows."""
    t._set_costs([0] * t.art + [1] * len(t.rows))
    state = t._run()
    if state == "unbounded":  # sum of artificials is bounded below by zero
        raise TheoremViolationError("phase-1 objective reported unbounded")
    if t.obj[t.total_cols] < 0:  # -den * (sum of artificials) < 0
        # reduced cost of artificial i is 1 - y_i, so den * y_i is
        # den - obj[art + i]; map the dual value back through the row's
        # sign flip and normalization scale (the factor den cancels below)
        mults = _normalize_multipliers(
            [
                -sigma * (t.den - t.obj[t.art + i]) * k
                for i, (sigma, k) in enumerate(zip(t.flip, t.scale))
            ]
        )
        return Infeasible(tuple(mults[:n_leq]), tuple(mults[n_leq:]))
    _evict_artificials(t)
    return None


def _normalize_multipliers(mults: list) -> list:
    """Scale by a positive rational so the multipliers are coprime integers."""
    nonzero = [m for m in mults if m]
    if not nonzero:
        return mults
    _, _, scale = integer_row(nonzero, ZERO)
    return [m * scale for m in mults]


def _evict_artificials(t: _Tableau) -> None:
    """Pivot basic artificials (all at value zero) out where possible."""
    for i in range(len(t.rows)):
        if t.basis[i] < t.art:
            continue
        pivot_col = None
        for j in range(t.art):
            if t.rows[i][j] != 0:
                pivot_col = j
                break
        if pivot_col is not None:
            t._pivot(i, pivot_col)
        # else: row is a redundant zero row; harmless to keep


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; every returned certificate is re-verified first."""
    t = _Tableau(lp)
    cert = _phase_one(t, len(lp.leq))
    if cert is not None:
        if not verify_farkas(lp, cert):
            raise TheoremViolationError("Farkas certificate failed verification")
        return cert
    if lp.objective is None:
        point = t.structural_point()
        if not verify_point(lp, point):
            raise TheoremViolationError("feasible point failed verification")
        return Feasible(point)
    # only the signs of the reduced costs are read, so clearing the
    # objective's denominators (a positive factor) changes no pivot
    objective = tuple(rat(c) for c in lp.objective)
    sense = -1 if lp.maximize else 1
    ints = scaled_ints(objective, common_denominator(objective))
    costs = [s * sense * c for c in ints for s in t.signs]
    t._set_costs(costs + [0] * (t.total_cols - len(costs)))
    state = t._run()
    point = t.structural_point()
    if not verify_point(lp, point):
        raise TheoremViolationError("simplex point failed verification")
    if state == "unbounded":
        ray = t.structural_ray(t._unbounded_col)
        if not verify_ray(lp, ray):
            raise TheoremViolationError("unbounded ray failed verification")
        return Unbounded(point, ray)
    value = dot(lp.objective, point)
    return Optimal(point, value)
