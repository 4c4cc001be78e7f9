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
all variables to be >= 0 (the fractional matching LP).  A nonneg max
program on inequality rows also yields its dual solution from the same
optimal tableau (`solve_with_multipliers`), one multiplier per row from its
slack's reduced cost, certified by weak duality before it is returned: so
one solve of the nu* program gives the tau* weights too.
Sizes stay at desk scale (tens of rows), so a dense tableau is the right
tool.  It pivots fraction-free: each row enters as given, the inequality rows
and then the equality rows, and is scaled to coprime Python ints by
`integer_row` (a stored polyhedron row already is, as are the 0/1 rows of
the nu* program, and enters as itself with scale 1); the rows share one
integer denominator (the basis determinant), and rationals appear only when
a point, ray, certificate or multiplier is read out.  The tableau stores one
column per variable and one artificial per row: a free variable's minus
column and an inequality row's slack column are fixed multiples of stored
ones (see `_Tableau`), read where the pivot rule needs them.  Pivots index
the textbook tableau's columns, so the pivot sequence is that of the rational
tableau, and the answers are too.  The point check (`verify_point`) reads the
program, never the tableau, and runs in Python ints over the point's common
denominator.  Polyhedra reach the solver through one builder,
geometry.joint_lp, which fixes the row order and so the pivots and
certificates.

A free-variable feasibility question {x : Ax <= b, Ex = f} can be decided in
two forms, both on this tableau, and the rule for choosing is: primal where
a point or certificate is returned, transposed for verdicts, and neither
when the equality rows pin one point.

  * primal (`lp_solve`): one tableau row per constraint row.  A caller that
    returns the point or the Farkas certificate uses this form
    (`geometry.polyhedra_intersect`), so the bytes of every report stay
    what they have always been;
  * transposed (`decide_feasibility`): the Farkas system y >= 0, yA' = 0,
    yb' = -1 (each equality row split in two), with d + 1 rows however many
    rows the question has.  Its certificate names at most d + 1 rows, and
    when it is infeasible its own multipliers give a point of the question.
    Both answers are checked on the question, like the primal ones.  A
    caller that reads only the verdict, or a point that reaches no report,
    uses this form (`geometry.polyhedra_meet` and `geometry.sets_meet`).
    Its point and certificate generally differ from the primal ones;
  * pinned point (`geometry._certified_intersection`): when the equality
    rows have rank d they fix one point, the only one either form could
    return.  It is solved from d of those rows in Python ints and accepted
    when it satisfies every row, before either form is built; otherwise the
    question goes to the form its caller asks for, which certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Optional, Union

from .errors import InputError, TheoremViolationError
from .rationals import (
    ZERO,
    Vec,
    common_denominator,
    dot,
    eliminate,
    integer_row,
    is_zero_vec,
    rat,
    scaled_ints,
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
                raise InputError(f"row width {len(coeffs)} != num_vars {self.num_vars}")
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
    (functional, constant), the one aggregation every Farkas check uses.

    An integral multiplier enters as an int, so on int rows (stored
    polyhedron rows, a transposed system) the sums stay Python ints; a
    rational term makes its sum rational."""
    functional = [0] * width
    constant = 0
    for mult, (coeffs, rhs) in weighted_rows:
        if mult:
            if mult.denominator == 1:
                mult = mult.numerator
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
    """Exact check of every constraint at `point`, apart from the tableau.

    The point is scaled once to X / D, and a row a . x <= r is tested as
    a . X <= r * D: in Python ints on integer rows."""
    den = common_denominator(point)
    xs = scaled_ints(point, den)
    if lp.nonneg and any(x < 0 for x in xs):
        return False
    for coeffs, rhs in lp.leq:
        if sum(map(mul, coeffs, xs)) > rhs * den:
            return False
    for coeffs, rhs in lp.eq:
        if sum(map(mul, coeffs, xs)) != rhs * den:
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
    gain = 0 if lp.objective is None else dot(lp.objective, ray)
    return lp.objective is None or (gain > 0 if lp.maximize else gain < 0)


class _Tableau:
    """Dense fraction-free simplex tableau that stores one column per variable.

    Every row holds Python ints over the common denominator `den` > 0, the
    absolute basis determinant, so the rational tableau row i is
    rows[i] / den and every division in `_pivot` is exact (Edmonds 1967,
    Bareiss 1968).  The reduced-cost row `obj` lives over the same `den`,
    times a positive constant when the costs are not integers: the pivots read
    its signs, and `solve_with_multipliers` its slack entries over both.  Rows
    are the inequality rows, then the equality rows, each in program order.

    *Logical* columns are those of the textbook tableau, and the pivot rule,
    `basis` and every method argument index them: a variable's structural
    column per sign (the +/- pair of a free variable), then a slack per
    inequality row, then from `art` on an artificial per row, which never
    enters the basis.  *Stored* columns are fewer: each variable's plus
    column, then the artificials, then the rhs.  The others are multiples of
    a stored one, which `column` records as (stored index, factor):

      * a minus column is -1 times its plus column;
      * the slack of inequality row i is flip_i times artificial i.

    Both hold at the start (the slack and the artificial of row i are
    flip_i and 1 times the same unit vector) and after every pivot, because
    the Bareiss update and the sign change of a negative pivot act on each
    column by the same linear map.  Costs are multiples likewise, except
    that an artificial costs `c_art` (1 in phase 1, 0 in phase 2) and a slack
    nothing, so slack i has the reduced cost flip_i * (obj[art_i] - c_art *
    den); `_reduced_cost` reads it so, and so must the update of `obj`.
    """

    def __init__(self, lp: LinearProgram):
        # a variable spans one logical structural column per sign: (1,) when
        # it is nonneg, the +/- pair (1, -1) when it is free
        self.signs = (1,) if lp.nonneg else (1, -1)
        n = self.num_vars = lp.num_vars
        self.cols = cols = n * len(self.signs)
        self.n_leq = n_leq = len(lp.leq)
        m = n_leq + len(lp.eq)
        self.art = cols + n_leq
        self.total_cols = self.art + m
        self.rhs = n + m  # stored index of the rhs entry
        self.flip, self.scale, self.rows = [], [], []
        for i, (coeffs, rhs) in enumerate(chain(lp.leq, lp.eq)):
            c, r, k = integer_row(coeffs, rhs)
            sigma = -1 if r < 0 else 1
            row = [sigma * a for a in c] + [0] * (m + 1)
            row[n + i] = 1
            row[n + m] = sigma * r
            self.flip.append(sigma)
            self.scale.append(k)  # positive factor from the given row to the stored one
            self.rows.append(row)
        self.column = [(k, s) for k in range(n) for s in self.signs]
        self.column += [(n + i, self.flip[i]) for i in range(n_leq)]
        self.column += [(n + i, 1) for i in range(m)]
        self.den = 1
        self.basis = list(range(self.art, self.total_cols))
        self.obj = None  # reduced-cost row, entry [rhs] = -den * (objective value)
        self.c_art = 0

    def entry(self, r: int, j: int) -> int:
        """Row r's entry in logical column j."""
        s, f = self.column[j]
        return f * self.rows[r][s]

    def _reduced_cost(self, j: int) -> int:
        """Logical column j's reduced cost, over den as `obj` stores it."""
        s, f = self.column[j]
        if self.cols <= j < self.art:
            return f * (self.obj[s] - self.c_art * self.den)
        return f * self.obj[s]

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        s, f = self.column[c]
        row = self.rows[r]
        p = f * row[s]
        den = self.den
        self.rows = [
            other if i == r else eliminate(other, row, f * other[s], p, den)
            for i, other in enumerate(self.rows)
        ]
        self.obj = eliminate(self.obj, row, self._reduced_cost(c), p, den)
        if p < 0:
            self.rows = [[-x for x in other] for other in self.rows]
            self.obj = [-x for x in self.obj]
            p = -p
        self.den = p
        self.basis[r] = c

    def _set_costs(self, costs: list, c_art: int) -> None:
        """Install reduced costs for integer minimization costs: `costs` per
        variable (its plus column), `c_art` per artificial, 0 per slack."""
        self.c_art = c_art
        den = self.den
        obj = [c * den for c in costs] + [c_art * den] * len(self.rows) + [0]
        for i, row in enumerate(self.rows):
            b = self.basis[i]
            if b < self.cols:
                s, f = self.column[b]
                cb = f * costs[s]
            else:
                cb = c_art if b >= self.art else 0
            if cb:
                obj = [o - cb * x for o, x in zip(obj, row)]
        self.obj = obj

    def _bland_step(self) -> str:
        """One simplex step; returns 'optimal', 'pivoted', or 'unbounded'."""
        # Bland's rule: the first logical column with a negative reduced cost
        enter = next((j for j in range(self.art) if self._reduced_cost(j) < 0), None)
        if enter is None:
            return "optimal"
        # minimum ratio rhs / (entering entry) over positive entries, compared
        # by cross-multiplication; ties go to the smaller basis index
        s, f = self.column[enter]
        rhs = self.rhs
        leave = None
        for i, row in enumerate(self.rows):
            a = f * row[s]
            if a > 0:
                if leave is None:
                    leave, best_a, best_r = i, a, row[rhs]
                    continue
                lhs, rhs_cross = row[rhs] * best_a, best_r * a
                if lhs < rhs_cross or (
                    lhs == rhs_cross and self.basis[i] < self.basis[leave]
                ):
                    leave, best_a, best_r = i, a, row[rhs]
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
        """Map logical-column numerators over `den` back to the variables."""
        w = len(self.signs)
        return tuple(
            rat(sum(s * values.get(k * w + j, 0) for j, s in enumerate(self.signs)), self.den)
            for k in range(self.num_vars)
        )

    def structural_point(self) -> Vec:
        return self._structural({b: self.rows[i][self.rhs] for i, b in enumerate(self.basis)})

    def structural_ray(self, enter: int) -> Vec:
        delta = {enter: self.den}
        for i, b in enumerate(self.basis):
            v = self.entry(i, enter)
            if v:
                delta[b] = -v
        return self._structural(delta)


def _phase_one(t: _Tableau, n_leq: int):
    """Returns None if feasible, else the Infeasible certificate; the first
    `n_leq` rows are the inequality rows."""
    t._set_costs([0] * t.num_vars, 1)
    state = t._run()
    if state == "unbounded":  # sum of artificials is bounded below by zero
        raise TheoremViolationError("phase-1 objective reported unbounded")
    if t.obj[t.rhs] < 0:  # -den * (sum of artificials) < 0
        # reduced cost of artificial i is 1 - y_i, so den * y_i is
        # den - obj[art_i]; map the dual value back through the row's
        # sign flip and normalization scale (the factor den cancels below)
        mults = _normalize_multipliers(
            [
                -sigma * (t.den - t.obj[t.num_vars + i]) * k
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
        pivot_col = next((j for j in range(t.art) if t.entry(i, j)), None)
        if pivot_col is not None:
            t._pivot(i, pivot_col)
        # else: row is a redundant zero row; harmless to keep


def _farkas_system(lp: LinearProgram) -> LinearProgram:
    """The transposed program of a free-variable feasibility question
    {x : Ax <= b, Ex = f}: y >= 0 over the columns (leq rows, eq rows, eq
    rows negated), with the d + 1 equality rows yA' = 0 and yb' = -1."""
    columns = (
        *lp.leq,
        *lp.eq,
        *((tuple(-a for a in coeffs), -rhs) for coeffs, rhs in lp.eq),
    )
    rows = [(tuple(c[j] for c, _ in columns), 0) for j in range(lp.num_vars)]
    rows.append((tuple(r for _, r in columns), -1))
    return LinearProgram(len(columns), eq=tuple(rows), nonneg=True)


def decide_feasibility(lp: LinearProgram) -> Union[Feasible, Infeasible]:
    """Decide a free-variable feasibility question on its transposed Farkas
    system (`_farkas_system`), whose tableau has d + 1 rows however many rows
    the question has; the answer is certified on the question itself.

    A feasible transposed program gives the Infeasible certificate: y on the
    inequality rows and the difference of the two copies on each equality
    row.  A basic y has at most d + 1 nonzero entries, so the certificate
    names at most d + 1 rows (Helly's theorem for halfspaces made explicit).
    An infeasible one has Farkas multipliers (u, w) with w > 0, so x = -u/w
    satisfies every row.  The certificate passes `verify_farkas` and the point
    `verify_point` on `lp` before either is returned."""
    if lp.objective is not None or lp.nonneg:
        raise InputError("the transposed form decides free-variable feasibility only")
    out = lp_solve(_farkas_system(lp))
    if isinstance(out, Feasible):
        n_leq, n_eq = len(lp.leq), len(lp.eq)
        y = _normalize_multipliers(list(out.point))
        split = zip(y[n_leq : n_leq + n_eq], y[n_leq + n_eq :])
        cert = Infeasible(tuple(y[:n_leq]), tuple(p - q for p, q in split))
        if not verify_farkas(lp, cert):
            raise TheoremViolationError("transposed Farkas certificate failed verification")
        return cert
    *u, w = out.eq_multipliers
    point = tuple(rat(-a, w) for a in u)
    if not verify_point(lp, point):
        raise TheoremViolationError("transposed point failed verification")
    return Feasible(point)


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; every returned certificate is re-verified first."""
    return _solve(lp, _Tableau(lp))


def _solve(lp: LinearProgram, t: _Tableau) -> LpOutcome:
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
    # the pivots read only the signs of the reduced costs, so clearing the
    # objective's denominators (a positive factor) changes none of them
    objective = tuple(rat(c) for c in lp.objective)
    sense = -1 if lp.maximize else 1
    ints = scaled_ints(objective, common_denominator(objective))
    t._set_costs([sense * c for c in ints], 0)
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


def solve_with_multipliers(lp: LinearProgram) -> tuple:
    """(outcome, x) for max c.y s.t. My <= b, y >= 0, x None unless Optimal.

    x is an optimum of the dual min b.x s.t. M'x >= c, x >= 0 (Chvatal,
    *Linear Programming*, 1983, ch. 5): row i's multiplier is its slack's
    reduced cost, read through `column` (the row's flip), over den times the
    objective's denominator, times the row's `scale`.  It is certified in
    Python ints over its common denominator: x >= 0, M'x >= c, b.x = c.y."""
    if not lp.nonneg or lp.eq or not lp.maximize or lp.objective is None:
        raise InputError("multipliers are read for a nonneg max program on <= rows")
    t = _Tableau(lp)
    out = _solve(lp, t)
    if not isinstance(out, Optimal):
        return out, None
    per = t.den * common_denominator(lp.objective)
    x = tuple(rat(k * t._reduced_cost(t.cols + i), per) for i, k in enumerate(t.scale))
    den = common_denominator(x)
    mx, bx = aggregate_rows(lp.num_vars, zip(scaled_ints(x, den), lp.leq))
    if min(x, default=0) < 0 or bx != out.value * den or any(
        g < c * den for g, c in zip(mx, lp.objective)
    ):
        raise TheoremViolationError("row multipliers failed the weak-duality check")
    return out, x
