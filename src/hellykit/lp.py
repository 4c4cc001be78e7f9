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
Sizes stay at desk scale (tens of rows), so a dense tableau of rationals is
the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Union

from .errors import InputError, TheoremViolationError
from .rationals import ONE, ZERO, Vec, dot, is_zero_vec, normalize_row, rat


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


def _row_scale(coeffs, rhs, scaled_coeffs, scaled_rhs):
    """Positive factor k with (scaled_coeffs, scaled_rhs) = k * (coeffs, rhs)."""
    for a, b in zip(scaled_coeffs, coeffs):
        if rat(b) != 0:
            return a / rat(b)
    if rat(rhs) != 0:
        return scaled_rhs / rat(rhs)
    return ONE


class _Tableau:
    """Dense simplex tableau; rows end with the rhs entry."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        # expanded structural columns: one per nonneg var, a +/- pair per free var
        self.col_of_plus = []
        self.col_of_minus = []
        cols = 0
        for _ in range(n):
            self.col_of_plus.append(cols)
            cols += 1
            if not lp.nonneg:
                self.col_of_minus.append(cols)
                cols += 1
            else:
                self.col_of_minus.append(None)
        self.num_structural = cols
        rows = []
        self.row_kind = []  # ("leq", idx) / ("eq", idx)
        self.scale = []  # positive factor from the original row to the stored one
        for idx, (coeffs, rhs) in enumerate(lp.leq):
            c, r = normalize_row(tuple(rat(x) for x in coeffs), rat(rhs))
            rows.append((c, r))
            self.row_kind.append(("leq", idx))
            self.scale.append(_row_scale(coeffs, rhs, c, r))
        for idx, (coeffs, rhs) in enumerate(lp.eq):
            c, r = normalize_row(tuple(rat(x) for x in coeffs), rat(rhs))
            rows.append((c, r))
            self.row_kind.append(("eq", idx))
            self.scale.append(_row_scale(coeffs, rhs, c, r))
        m = len(rows)
        self.slack_col = {}
        for i, (kind, _) in enumerate(self.row_kind):
            if kind == "leq":
                self.slack_col[i] = cols
                cols += 1
        self.art_col = [cols + i for i in range(m)]
        total = cols + m
        self.total_cols = total
        self.flip = []
        self.rows = []
        for i, (coeffs, rhs) in enumerate(rows):
            sigma = -ONE if rhs < 0 else ONE
            self.flip.append(sigma)
            row = [ZERO] * (total + 1)
            for k, a in enumerate(coeffs):
                if a:
                    row[self.col_of_plus[k]] = sigma * a
                    if self.col_of_minus[k] is not None:
                        row[self.col_of_minus[k]] = -sigma * a
            if i in self.slack_col:
                row[self.slack_col[i]] = sigma
            row[self.art_col[i]] = ONE
            row[total] = sigma * rhs
            self.rows.append(row)
        self.basis = list(self.art_col)
        self.banned = set()  # columns never allowed to enter
        self.obj = None  # reduced-cost row, entry [total] = -(objective value)

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        pv = row[c]
        if pv != 1:
            inv = ONE / pv
            self.rows[r] = row = [x * inv if x else x for x in row]
        for other in self.rows:
            if other is row:
                continue
            f = other[c]
            if f:
                for j, v in enumerate(row):
                    if v:
                        other[j] -= f * v
        f = self.obj[c]
        if f:
            for j, v in enumerate(row):
                if v:
                    self.obj[j] -= f * v
        self.basis[r] = c

    def _set_costs(self, costs: list) -> None:
        """Install reduced costs for the minimization cost vector `costs`."""
        total = self.total_cols
        obj = list(costs) + [ZERO]
        for i, row in enumerate(self.rows):
            cb = costs[self.basis[i]]
            if cb:
                for j in range(total + 1):
                    if row[j]:
                        obj[j] -= cb * row[j]
        self.obj = obj

    def _bland_step(self) -> str:
        """One simplex step; returns 'optimal', 'pivoted', or 'unbounded'."""
        total = self.total_cols
        enter = None
        for j in range(total):
            if j in self.banned:
                continue
            if self.obj[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(self.rows):
            a = row[enter]
            if a > 0:
                ratio = row[total] / a
                if best is None or ratio < best or (
                    ratio == best and self.basis[i] < self.basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            self._unbounded_col = enter
            return "unbounded"
        entering_was_artificial = enter in self.art_col
        left_col = self.basis[leave]
        self._pivot(leave, enter)
        if left_col in self.art_col and not entering_was_artificial:
            self.banned.add(left_col)
        return "pivoted"

    def _run(self) -> str:
        while True:
            state = self._bland_step()
            if state != "pivoted":
                return state

    # -- solution readout ---------------------------------------------------

    def structural_point(self) -> Vec:
        total = self.total_cols
        vals = {}
        for i, b in enumerate(self.basis):
            vals[b] = self.rows[i][total]
        point = []
        for k in range(self.lp.num_vars):
            x = vals.get(self.col_of_plus[k], ZERO)
            mc = self.col_of_minus[k]
            if mc is not None:
                x = x - vals.get(mc, ZERO)
            point.append(x)
        return tuple(point)

    def structural_ray(self, enter: int) -> Vec:
        delta = {enter: ONE}
        for i, b in enumerate(self.basis):
            v = self.rows[i][enter]
            if v:
                delta[b] = -v
        ray = []
        for k in range(self.lp.num_vars):
            x = delta.get(self.col_of_plus[k], ZERO)
            mc = self.col_of_minus[k]
            if mc is not None:
                x = x - delta.get(mc, ZERO)
            ray.append(x)
        return tuple(ray)


def _phase_one(t: _Tableau):
    """Returns None if feasible, else the Infeasible certificate."""
    costs = [ZERO] * (t.total_cols)
    for c in t.art_col:
        costs[c] = ONE
    for c in t.art_col:
        t.banned.add(c)  # artificials may not (re)enter
    t._set_costs(costs)
    state = t._run()
    if state == "unbounded":  # sum of artificials is bounded below by zero
        raise TheoremViolationError("phase-1 objective reported unbounded")
    opt_value = -t.obj[t.total_cols]
    if opt_value > 0:
        m = len(t.rows)
        n_leq = len(t.lp.leq)
        mult_leq = [ZERO] * n_leq
        mult_eq = [ZERO] * len(t.lp.eq)
        for i in range(m):
            # reduced cost of artificial i is 1 - y_i; map the dual value back
            # through the row's sign flip and normalization scale
            y_i = ONE - t.obj[t.art_col[i]]
            mu = -t.flip[i] * y_i * t.scale[i]
            kind, idx = t.row_kind[i]
            if kind == "leq":
                mult_leq[idx] = mu
            else:
                mult_eq[idx] = mu
        mults = _normalize_multipliers(mult_leq + mult_eq)
        cert = Infeasible(tuple(mults[:n_leq]), tuple(mults[n_leq:]))
        return cert
    _evict_artificials(t)
    return None


def _normalize_multipliers(mults: list) -> list:
    """Scale by a positive rational so the multipliers are coprime integers."""
    nonzero = [m for m in mults if m]
    if not nonzero:
        return mults
    coeffs, _ = normalize_row(tuple(nonzero), ZERO)
    scale = coeffs[0] / nonzero[0]
    if scale < 0:
        raise TheoremViolationError("multiplier normalization flipped sign")
    return [m * scale for m in mults]


def _evict_artificials(t: _Tableau) -> None:
    """Pivot basic artificials (all at value zero) out where possible."""
    art = set(t.art_col)
    for i in range(len(t.rows)):
        if t.basis[i] not in art:
            continue
        pivot_col = None
        for j in range(t.total_cols):
            if j in art:
                continue
            if t.rows[i][j] != 0:
                pivot_col = j
                break
        if pivot_col is not None:
            t._pivot(i, pivot_col)
        # else: row is a redundant zero row; harmless to keep


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; every returned certificate is re-verified first."""
    t = _Tableau(lp)
    cert = _phase_one(t)
    if cert is not None:
        if not verify_farkas(lp, cert):
            raise TheoremViolationError("Farkas certificate failed verification")
        return cert
    if lp.objective is None:
        point = t.structural_point()
        if not verify_point(lp, point):
            raise TheoremViolationError("feasible point failed verification")
        return Feasible(point)
    sense = -ONE if lp.maximize else ONE
    costs = [ZERO] * t.total_cols
    for k, c in enumerate(lp.objective):
        if c:
            cc = sense * rat(c)
            costs[t.col_of_plus[k]] += cc
            if t.col_of_minus[k] is not None:
                costs[t.col_of_minus[k]] -= cc
    t._set_costs(costs)
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
