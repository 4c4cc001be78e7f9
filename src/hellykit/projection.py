"""Exact shadows of polyhedra: Fourier-Motzkin elimination with LP cleanup.

A reference kept for the tests and the benchmark tracer; no module of the
package imports it (`colorful.generic_line_class` lifts instead of projecting).

Projecting along a direction nu is a rational change of variables

    x = yhat + t * nu        (yhat ranging over the hyperplane x_j = 0)

followed by elimination of the single parameter t.  At desk scale (at most a
few eliminations in dimension <= 4) Fourier-Motzkin is entirely adequate; the
quadratic row blowup is tamed by an exact LP redundancy sweep after each
elimination step.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError, InputError
from .geometry import Halfspace, Hyperplane, Polyhedron
from .lp import Infeasible, LinearProgram, Optimal, lp_solve
from .rationals import ZERO, dot, is_zero_vec, rat, vec


def _solve_rows(nvars, leq, eq, objective=None, maximize=True):
    return lp_solve(
        LinearProgram(nvars, leq=tuple(leq), eq=tuple(eq), objective=objective, maximize=maximize)
    )


def _drop_redundant(nvars: int, leq: list, eq: list) -> list:
    """Remove inequality rows implied by the remaining system (exact LPs)."""
    kept = list(leq)
    i = 0
    while i < len(kept):
        coeffs, rhs = kept[i]
        others = kept[:i] + kept[i + 1 :]
        out = _solve_rows(nvars, others, eq, objective=coeffs, maximize=True)
        if isinstance(out, Optimal) and out.value <= rhs:
            kept = others
        else:
            i += 1
    return kept


def eliminate_variable(nvars: int, leq: list, eq: list, j: int):
    """Project rows onto the coordinates != j; returns rows over nvars-1 vars."""

    def drop(coeffs):
        return coeffs[:j] + coeffs[j + 1 :]

    pivot_idx = next((i for i, row in enumerate(eq) if row[0][j] != 0), None)
    new_leq, new_eq = [], []
    if pivot_idx is not None:
        pc, pr = eq[pivot_idx]
        pj = rat(pc[j])  # a rational divisor keeps int rows exact
        for i, (coeffs, rhs) in enumerate(eq):
            if i == pivot_idx:
                continue
            f = coeffs[j] / pj
            nc = tuple(a - f * b for a, b in zip(coeffs, pc))
            new_eq.append((drop(nc), rhs - f * pr))
        for coeffs, rhs in leq:
            f = coeffs[j] / pj
            nc = tuple(a - f * b for a, b in zip(coeffs, pc))
            new_leq.append((drop(nc), rhs - f * pr))
    else:
        for coeffs, rhs in eq:  # no equality involves x_j
            new_eq.append((drop(coeffs), rhs))
        pos = [(c, r) for c, r in leq if c[j] > 0]
        neg = [(c, r) for c, r in leq if c[j] < 0]
        zero = [(c, r) for c, r in leq if c[j] == 0]
        for c, r in zero:
            new_leq.append((drop(c), r))
        for cp, rp in pos:
            for cn, rn in neg:
                # scale so the j-entries cancel; both factors positive
                fp, fn = -cn[j], cp[j]
                comb = tuple(fp * a + fn * b for a, b in zip(cp, cn))
                new_leq.append((drop(comb), fp * rp + fn * rn))
    new_leq = [(c, r) for c, r in dict.fromkeys(new_leq) if not (is_zero_vec(c) and r >= 0)]
    new_eq = [(c, r) for c, r in dict.fromkeys(new_eq) if not (is_zero_vec(c) and r == 0)]
    return new_leq, new_eq


def project_polyhedron(poly: Polyhedron, direction: Sequence) -> Polyhedron:
    """Shadow of `poly` along `direction`, as a polyhedron in R^(d-1).

    Coordinates of the result are the ambient coordinates with index j removed,
    where j is the last index with direction[j] != 0 (the shadow lives on the
    hyperplane x_j = 0).
    """
    nu = vec(direction)
    if len(nu) != poly.dim:
        raise DimensionError("direction width mismatch")
    if is_zero_vec(nu):
        raise InputError("projection direction must be nonzero")
    if poly.dim < 2:
        raise DimensionError("projection needs ambient dimension >= 2")
    d = poly.dim
    j = max(i for i in range(d) if nu[i] != 0)
    # variables: y_i for i != j (in increasing order), then the parameter t
    leq, eq = [], []

    def transform(normal, offset):
        coeffs = [normal[i] for i in range(d) if i != j]
        t = dot(normal, nu)
        # an integral t entry stays an int, so int rows stay int rows through
        # the elimination and the redundancy LPs
        coeffs.append(t.numerator if t.denominator == 1 else t)
        return tuple(coeffs), offset

    for h in poly.inequalities:
        leq.append(transform(h.normal, h.offset))
    for h in poly.equalities:
        eq.append(transform(h.normal, h.offset))
    leq, eq = eliminate_variable(d, leq, eq, d - 1)  # t is the last variable
    # infeasible shadows collapse to a canonical empty polyhedron
    out = _solve_rows(d - 1, leq, eq)
    if isinstance(out, Infeasible):
        one = tuple([rat(1)] + [ZERO] * (d - 2))
        return Polyhedron(
            d - 1,
            (Halfspace(one, rat(0)), Halfspace(tuple(-v for v in one), rat(-1))),
        )
    leq = _drop_redundant(d - 1, leq, eq)
    ineqs = tuple(Halfspace(c, r) for c, r in leq)
    eqs = tuple(Hyperplane(c, r) for c, r in eq)
    return Polyhedron(d - 1, ineqs, eqs)


def affine_project(fam: Sequence[Polyhedron], direction: Sequence) -> list[Polyhedron]:
    """Project every set of the family along one common direction."""
    return [project_polyhedron(p, direction) for p in fam]

