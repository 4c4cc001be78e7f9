"""Colored-family dichotomies.

A d-colored family assigns each convex set one of several color classes.
The colorful Helly property (CH) asks that every rainbow selection, one set
per class, has a common point.  With d+1 classes in R^d, CH forces an entire
class to share a point; with fewer classes the conclusion degrades into
point-versus-flat dichotomies.  This module makes those statements
constructive at desk scale:

* check_ch enumerates rainbow selections and certifies the first failure;
* intersecting_class finds the promised class on (d+1)-colored CH input;
* two_color_lemma: when every A-member meets every B-member, either all of
  A shares a point, or the bounding hyperplanes of a separating-halfspace
  family cross every B-member with at most d hyperplanes.  The halfspaces
  separate an inclusion-minimal empty witness inside A (its sets share no
  point, but drop any one and the rest do), the only family
  separating_halfspaces accepts: minimality gives every halfspace a nonzero
  normal;
* theorem_main_d2 runs the two-colored step twice in the plane: one class
  is pierced by a single point, or at most four verified lines cross
  everything;
* generic_line_class finds, for a seeded direction nu, the lowest of d
  classes in R^d crossed by one line parallel to nu, from one lifted linear
  system per class (no shadow is built);
* fractional_two_color_search scans finite candidate pools for the point or
  hyperplane promised when only an alpha fraction of the pairs meet;
* dichotomy_report measures which class splits admit a (points, k-flats)
  transversal pair within stated budgets.

Every emitted transversal is re-verified exactly before it is returned.
Conclusions that are consequences of theorems are asserted: when such an
assertion fails the functions raise TheoremViolationError (a bug trap)
instead of returning a wrong answer.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .bounds import BETA_DEFAULT_LABEL, gamma, lam
from .budgets import DEFAULT_BUDGET, SearchBudget
from .errors import (
    DimensionError,
    InputError,
    PreconditionError,
    ScaleError,
    TheoremViolationError,
)
from .geometry import (
    AffineFlat,
    ColoredFamily,
    FarkasEntry,
    Halfspace,
    Hyperplane,
    IntersectionCertificate,
    Point,
    Polyhedron,
    flat_crosses,
    hyperplane_crosses,
    hyperplane_to_flat,
    polyhedra_intersect,
    polyhedra_meet,
    sets_meet,
)
from .hypergraphs import (
    TransversalResult,
    _as_flat,
    _cover_candidates,
    line_cover_number,
    maximal_intersecting_subfamilies,
    piercing_number,
    plane_cover_number,
)
from .lp import Infeasible, Optimal, aggregate_rows, lp_solve
from .rationals import ZERO, dot, is_zero_vec, rat, vec


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class ChReport:
    """Outcome of a full rainbow-selection sweep.

    holds = False cites the first failing selection as (class, set) index
    pairs together with the emptiness certificate of its joint system.
    `points` lists a verified common Point of every selection swept, in
    sweep order: all of them when holds = True, those before the violation
    otherwise.  Each is the selection's hint, the point of the selection
    before it, or the transposed LP's point (`polyhedra_meet`), whichever
    `check_ch` verified first, so it need not be the primal tableau's.
    """

    holds: bool
    violating_rainbow: Optional[tuple] = None
    certificate: Optional[IntersectionCertificate] = None
    checked: int = 0
    points: tuple = ()


@dataclass(frozen=True)
class PiercedClass:
    class_index: int
    points: tuple  # of Point


@dataclass(frozen=True)
class LineCover:
    lines: tuple  # of AffineFlat with k = 1


@dataclass(frozen=True)
class HyperplaneCover:
    """class_index names the crossed family (position in the input order)."""

    class_index: int
    hyperplanes: tuple


DichotomyOutcome = Union[PiercedClass, LineCover, HyperplaneCover]


# ---------------------------------------------------------------------------
# CH verification and the (d+1)-colored consequence


def check_ch(
    fam: ColoredFamily,
    budget: SearchBudget = DEFAULT_BUDGET,
    hints: Optional[Mapping] = None,
) -> ChReport:
    """Decide the colorful Helly property by exhaustive rainbow enumeration.

    Selections are visited in lexicographic index order, so the cited
    violation is deterministic.  Raises ScaleError when the number of
    selections exceeds the rainbow budget.

    Each selection is accepted on the first of three points that
    `Polyhedron.contains` verifies in all of its sets: its hint, the point
    of the selection swept before it (neighbouring selections often share
    one), or the point of its joint system decided by `polyhedra_meet`.
    That is the point the selection's equality rows pin, when they have
    rank d and it lies in every set (as for d hyperplanes from the d
    parallel classes of `generate_figure1`, decided with no tableau), else
    the point of the transposed Farkas system.  A selection that system
    refutes is solved once more by `polyhedra_intersect`, whose primal
    certificate is the one cited.  Only selections that do meet are ever
    accepted without the LP, so `holds`, the violation, its certificate and
    `checked` depend on neither the hints nor the reused points; only
    `points` may.

    `hints` maps a pick (one set index per class) to a candidate Point.  The
    simplex construction hints its dyadic sweeps with two monotonicity
    facts.  Halving the shrink offset only loosens the cuts, so a point of
    a selection at one step lies in it at the next.  A facet-copy
    selection's system is convex in (x, eta), so the midpoint of its points
    at eta = 0 and at 2 * eta lies in it at eta.
    """
    total = fam.rainbow_count
    if total > budget.max_rainbow_tuples:
        raise ScaleError("max_rainbow_tuples", budget.max_rainbow_tuples, total)
    hints = hints or {}
    points = []
    for pick in fam.picks():
        sets = [fam.classes[k][i] for k, i in enumerate(pick)]
        for point in (hints.get(pick), points[-1] if points else None):
            if point is not None and all(s.contains(point) for s in sets):
                break
        else:
            point = polyhedra_meet(sets).point
        if point is None:
            rainbow = tuple((k, i) for k, i in enumerate(pick))
            cert = polyhedra_intersect(sets)
            return ChReport(False, rainbow, cert, len(points) + 1, tuple(points))
        points.append(point)
    return ChReport(True, None, None, len(points), tuple(points))


def intersecting_class(
    fam: ColoredFamily,
    report: Optional[ChReport] = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> tuple[int, Point]:
    """Find a class with a common point in a (d+1)-colored CH family.

    Existence is a theorem, so exhausting all classes without success raises
    TheoremViolationError.  The first intersecting class (lowest index) is
    returned with a verified common point.  A `report` from check_ch on the
    same family stands in for the sweep.
    """
    if fam.num_classes != fam.dim + 1:
        raise PreconditionError(
            f"need dim+1 = {fam.dim + 1} classes, got {fam.num_classes}"
        )
    rep = report if report is not None else check_ch(fam, budget)
    if not rep.holds:
        raise PreconditionError(
            "family lacks the colorful Helly property",
            witness=rep.violating_rainbow,
        )
    return _first_meeting_class(fam.classes)


def _first_meeting_class(classes: Iterable) -> tuple[int, Point]:
    """The lowest class whose sets share a point, with its primal LP point;
    CH promises one, so finding none raises TheoremViolationError."""
    for k, cls in enumerate(classes):
        cert = polyhedra_intersect(cls)
        if cert.feasible:
            return k, cert.point
    raise TheoremViolationError("CH holds but no class has a common point")


# ---------------------------------------------------------------------------
# separating halfspaces and minimal empty witnesses


def _halfspace_contains_set(h: Halfspace, s: Polyhedron) -> bool:
    out = lp_solve(s.feasibility_lp(objective=h.normal, maximize=True))
    if isinstance(out, Optimal):
        return out.value <= h.offset
    return isinstance(out, Infeasible)  # empty sets sit inside everything


def separating_halfspaces(sets: Sequence[Polyhedron]) -> tuple:
    """Halfspaces H_i containing the respective sets with empty intersection,
    for an inclusion-minimal empty family: the sets share no point, and
    removing any one of them leaves a family that does (`_minimal_empty`).

    Groups the Farkas multipliers of the joint infeasible system by the
    originating set; each group aggregates to one halfspace containing its
    set, and the aggregates sum to an absurd constraint 0 . x <= c < 0, so
    their intersection is empty.  A certificate of equality rows only may
    sum to 0 = c with c > 0; its multipliers are sign-free, so it is negated
    first.

    Minimality makes every aggregated normal nonzero.  Were group i's normal
    zero, it would read 0 . x <= c_i, valid on its nonempty set, so c_i >= 0;
    the other groups alone would then sum to 0 . x <= c - c_i < 0 and refute
    the family without set i, which has a common point.  A vanishing normal
    therefore raises PreconditionError naming that set.  Both postconditions
    are re-verified by LP before returning.
    """
    sets = list(sets)
    if not sets:
        raise InputError("need at least one set")
    d = sets[0].dim
    cert = polyhedra_intersect(sets)
    if cert.feasible:
        raise PreconditionError(
            "the sets share a point", witness=cert.point
        )
    entries = list(cert.farkas)

    def aggregate(weighted):
        return aggregate_rows(d, ((e.multiplier, e.row(sets)) for e in weighted))

    if aggregate(entries)[1] > 0:
        if any(e.kind != "eq" for e in entries):
            raise TheoremViolationError("positive constant with inequality rows")
        entries = [
            FarkasEntry(e.set_index, e.kind, e.row_index, -e.multiplier)
            for e in entries
        ]
    halfspaces = []
    for i in range(len(sets)):
        normal, offset = aggregate(e for e in entries if e.set_index == i)
        if is_zero_vec(normal):
            raise PreconditionError(
                f"set {i} gets a zero normal: the family is not an "
                f"inclusion-minimal empty family of nonempty sets",
                witness=i,
            )
        halfspaces.append(Halfspace(normal, offset))
    for i, (h, s) in enumerate(zip(halfspaces, sets)):
        if not _halfspace_contains_set(h, s):
            raise TheoremViolationError(f"halfspace {i} fails to contain its set")
    if not Polyhedron(d, tuple(halfspaces)).is_empty():
        raise TheoremViolationError("separating halfspaces still intersect")
    return tuple(halfspaces)


def helly_witness(sets: Sequence[Polyhedron]) -> list[int]:
    """Indices of an inclusion-minimal empty-intersection subfamily.

    Scans removal candidates from the highest index down, so the result is
    biased toward keeping early sets and is deterministic.  Minimality under
    single removal bounds the size by dim+1: were the witness larger, every
    (dim+1)-subfamily would sit inside some intersecting single-removal
    subfamily, and the Helly theorem would make the whole witness intersect.
    """
    sets = list(sets)
    cert = polyhedra_intersect(sets)
    if cert.feasible:
        raise PreconditionError("the sets share a point", witness=cert.point)
    return _minimal_empty(sets)


def _minimal_empty(sets: Sequence[Polyhedron]) -> list[int]:
    """`helly_witness` for sets already known to have no common point: the
    single-removal trials read verdicts only (`sets_meet`)."""
    keep = list(range(len(sets)))
    for idx in range(len(sets) - 1, -1, -1):
        if len(keep) == 1:
            break
        trial = [t for t in keep if t != idx]
        if not sets_meet([sets[t] for t in trial]):
            keep = trial
    if len(keep) > sets[0].dim + 1:
        raise TheoremViolationError(
            f"minimal empty witness has size {len(keep)} > dim+1"
        )
    return keep


# ---------------------------------------------------------------------------
# the two-colored dichotomy and its planar consequence


def two_color_lemma(
    a_sets: Sequence[Polyhedron],
    b_sets: Sequence[Polyhedron],
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    pairs_checked: bool = False,
) -> DichotomyOutcome:
    """Point in all of A, or at most d hyperplanes crossing every B.

    Requires every A-member to meet every B-member (verified by `check_ch` on
    the two-class family (A, B), unless the caller vouches via
    pairs_checked).  When A has no common point, `_minimal_empty` picks an
    inclusion-minimal empty witness inside A, the family
    `separating_halfspaces` requires, and it yields one separating halfspace
    per witness set; every B-member meets each witness set, so it cannot
    avoid the boundaries of the first w-1 halfspaces without landing in
    their empty intersection.  The returned cover is verified set by set.
    """
    a_sets, b_sets = list(a_sets), list(b_sets)
    if not a_sets:
        raise InputError("class A is empty")
    d = a_sets[0].dim
    if b_sets and not pairs_checked:
        rep = check_ch(ColoredFamily(d, (a_sets, b_sets)), budget)
        if not rep.holds:
            (_, i), (_, j) = rep.violating_rainbow
            raise PreconditionError(
                f"sets A[{i}] and B[{j}] do not meet", witness=(i, j)
            )
    cert = polyhedra_intersect(a_sets)
    if cert.feasible:
        return PiercedClass(0, (cert.point,))
    witness = _minimal_empty(a_sets)
    halfspaces = separating_halfspaces([a_sets[i] for i in witness])
    bounding = [Hyperplane(h.normal, h.offset) for h in halfspaces[: len(witness) - 1]]
    hyperplanes = tuple(dict.fromkeys(bounding))
    if len(hyperplanes) > d:
        raise TheoremViolationError("more than d bounding hyperplanes emitted")
    for j, b in enumerate(b_sets):
        if not any(hyperplane_crosses(h, b) for h in hyperplanes):
            raise TheoremViolationError(
                f"B[{j}] avoids every bounding hyperplane of the witness"
            )
    return HyperplaneCover(1, hyperplanes)


def theorem_main_d2(
    fam: ColoredFamily,
    budget: SearchBudget = DEFAULT_BUDGET,
    report: Optional[ChReport] = None,
) -> DichotomyOutcome:
    """Planar 2-colored dichotomy: one piercing point, or at most 4 lines.

    Runs the two-colored step in both role orders.  If neither class has a
    common point, each application contributes at most two bounding lines
    (crossing the opposite class), and their union crosses every set of the
    family.  The cover is re-verified before emission.  A `report` from
    check_ch on the same family stands in for the cross-pair sweep.
    """
    if fam.dim != 2 or fam.num_classes != 2:
        raise PreconditionError("expected two classes in the plane")
    rep = report if report is not None else check_ch(fam, budget)
    if not rep.holds:
        raise PreconditionError(
            "some pair of differently colored sets is disjoint",
            witness=rep.violating_rainbow,
        )
    first, second = fam.classes
    out_a = two_color_lemma(first, second, budget, pairs_checked=True)
    if isinstance(out_a, PiercedClass):
        return PiercedClass(0, out_a.points)
    out_b = two_color_lemma(second, first, budget, pairs_checked=True)
    if isinstance(out_b, PiercedClass):
        return PiercedClass(1, out_b.points)
    hyperplanes = tuple(dict.fromkeys(out_a.hyperplanes + out_b.hyperplanes))
    lines = tuple(hyperplane_to_flat(h) for h in hyperplanes)
    if len(lines) > 4:
        raise TheoremViolationError("planar dichotomy emitted more than 4 lines")
    for k, cls in enumerate(fam.classes):
        for i, s in enumerate(cls):
            if not any(flat_crosses(line, s) for line in lines):
                raise TheoremViolationError(
                    f"set {i} of class {k} avoids the whole line cover"
                )
    return LineCover(lines)


# ---------------------------------------------------------------------------
# generic single-line finder


def _lifted(cls: Sequence[Polyhedron], nu: tuple, j: int) -> list[Polyhedron]:
    """The class's sets over (x without x_j, t_1, ..., t_m): row (n, c) of set
    s becomes n.x + (n.nu) t_s <= c (or = c), so they meet exactly when a
    line x + R nu with x_j = 0 crosses every set.  A lifted normal is never
    zero: n_j != 0 makes n.nu = n_j nu_j != 0."""
    d, m = len(nu), len(cls)

    def row(h, s: int) -> tuple:
        coeffs = [*h.normal[:j], *h.normal[j + 1 :]] + [0] * m
        coeffs[d - 1 + s] = sum(map(mul, h.normal, nu))
        return coeffs, h.offset

    return [
        Polyhedron(
            d - 1 + m,
            tuple(Halfspace(*row(h, s)) for h in p.inequalities),
            tuple(Hyperplane(*row(h, s)) for h in p.equalities),
        )
        for s, p in enumerate(cls)
    ]


def generic_line_class(
    fam: ColoredFamily,
    seed: int = 0,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> tuple[int, AffineFlat]:
    """One class of a d-colored CH family in R^d crossed by a single line.

    Projecting along a direction nu keeps CH, so the shadows of some class
    share a point, and the line over it, parallel to nu, crosses that class.
    No shadow is built: the lowest class whose lifted system (`_lifted`)
    has a point is that class, and the point gives the line's base.  nu is
    one seeded integer draw, and the line is checked against every member.
    """
    if fam.num_classes != fam.dim:
        raise PreconditionError(
            f"need exactly dim = {fam.dim} classes, got {fam.num_classes}"
        )
    if fam.dim < 2:
        raise DimensionError("need ambient dimension at least 2")
    rep = check_ch(fam, budget)
    if not rep.holds:
        raise PreconditionError(
            "family lacks the colorful Helly property",
            witness=rep.violating_rainbow,
        )
    rng = random.Random(seed)
    nu = (0,)
    while is_zero_vec(nu):
        nu = tuple(rng.randint(-9, 9) for _ in range(fam.dim))
    j = max(i for i in range(fam.dim) if nu[i] != 0)
    idx, point = _first_meeting_class(_lifted(cls, nu, j) for cls in fam.classes)
    base = list(point.coords[: fam.dim - 1])
    base.insert(j, ZERO)
    line = AffineFlat.line(tuple(base), vec(nu))
    if not all(flat_crosses(line, s) for s in fam.classes[idx]):
        raise TheoremViolationError(f"lifted line misses class {idx}")
    return idx, line


# ---------------------------------------------------------------------------
# fractional two-colored search


@dataclass(frozen=True)
class FractionalSearchReport:
    """Best single point over A and best single hyperplane over B.

    Coverage targets are gamma*|A| and lambda*|B|; `holds` states that at
    least one target is met, which is guaranteed whenever the meeting-pair
    fraction is at least alpha.  beta_label records which fractional-Helly
    bound produced gamma.
    """

    dim: int
    alpha: object
    pair_count: int
    pair_target: object
    gamma_value: object
    lambda_value: object
    gamma_target: object
    lambda_target: object
    best_point: Optional[Point]
    point_covered: tuple
    best_hyperplane: Optional[Hyperplane]
    hyperplane_covered: tuple
    holds: bool
    beta_label: str


def _line_to_hyperplane(line: AffineFlat) -> Hyperplane:
    (dx, dy), = line.directions
    normal = (-dy, dx)
    return Hyperplane(normal, dot(normal, line.base))


def fractional_two_color_search(
    a_sets: Sequence[Polyhedron],
    b_sets: Sequence[Polyhedron],
    alpha,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> FractionalSearchReport:
    """Search the promised point/hyperplane dichotomy at fraction alpha.

    Requires at least alpha*|A|*|B| meeting pairs (counted exactly).  The
    point candidates are the witness points of maximal intersecting
    subfamilies of A; hyperplane candidates pass through vertices of the
    input sets.  Each one's covered B sets are read from the edges of
    `hypergraphs._cover_candidates` for hyperplanes (lines in the plane,
    planes in R^3), and only the winning candidate is built, a line then
    converted to a Hyperplane.  Vertex signs decide each bounded set against
    a candidate, and rows or the LP decide every other set; an empty set is
    crossed by no candidate.
    The first candidate covering the most B sets wins.
    Failing both coverage targets contradicts the dichotomy, so it raises
    TheoremViolationError.
    """
    a_sets, b_sets = list(a_sets), list(b_sets)
    if not a_sets or not b_sets:
        raise InputError("both families must be nonempty")
    d = a_sets[0].dim
    if d not in (2, 3):
        raise InputError("hyperplane candidates exist for dimensions 2 and 3 only")
    alpha = rat(alpha)
    if not (ZERO < alpha <= 1):
        raise InputError("alpha must satisfy 0 < alpha <= 1")
    pair_total = len(a_sets) * len(b_sets)
    if pair_total > budget.max_rainbow_tuples:
        raise ScaleError("max_rainbow_tuples", budget.max_rainbow_tuples, pair_total)
    pair_count = sum(sets_meet([a, b]) for a, b in itertools.product(a_sets, b_sets))
    pair_target = alpha * pair_total
    if pair_count < pair_target:
        raise PreconditionError(
            f"only {pair_count} of {pair_total} pairs meet, below the "
            f"required fraction",
            witness=pair_count,
        )
    gamma_value = gamma(alpha, d)
    lambda_value = lam(alpha, d)
    gamma_target = gamma_value * len(a_sets)
    lambda_target = lambda_value * len(b_sets)

    live_a = [i for i, s in enumerate(a_sets) if s.feasible_point() is not None]
    best_point, point_covered = None, ()
    if live_a:
        subfamilies, witnesses = maximal_intersecting_subfamilies(
            [a_sets[i] for i in live_a], budget
        )
        for sub, pt in zip(subfamilies, witnesses):
            covered = tuple(sorted(live_a[i] for i in sub))
            if len(covered) > len(point_covered):
                best_point, point_covered = pt, covered

    live_b = [j for j, s in enumerate(b_sets) if s.feasible_point() is not None]
    live_sets = [a_sets[i] for i in live_a] + [b_sets[j] for j in live_b]
    best_hyperplane, hyperplane_covered = None, ()
    if live_sets:
        candidates, edges = _cover_candidates(live_sets, d - 1)
        covered = [[] for _ in candidates]
        for pos, j in enumerate(live_b, len(live_a)):
            for k in edges[pos]:
                covered[k].append(j)
        best = max(range(len(candidates)), key=lambda k: len(covered[k]))
        if covered[best]:
            hyperplane_covered = tuple(covered[best])
            flat = _as_flat(candidates[best])
            best_hyperplane = _line_to_hyperplane(flat) if d == 2 else flat

    holds = (
        rat(len(point_covered)) >= gamma_target
        or rat(len(hyperplane_covered)) >= lambda_target
    )
    if not holds:
        raise TheoremViolationError(
            "neither coverage target was met despite the meeting-pair fraction"
        )
    return FractionalSearchReport(
        dim=d,
        alpha=alpha,
        pair_count=pair_count,
        pair_target=pair_target,
        gamma_value=gamma_value,
        lambda_value=lambda_value,
        gamma_target=gamma_target,
        lambda_target=lambda_target,
        best_point=best_point,
        point_covered=point_covered,
        best_hyperplane=best_hyperplane,
        hyperplane_covered=hyperplane_covered,
        holds=holds,
        beta_label=BETA_DEFAULT_LABEL,
    )


# ---------------------------------------------------------------------------
# split probes


@dataclass(frozen=True)
class DichotomyEntry:
    """One (k, class subset) probe: pierce the subset, cross the rest."""

    k: int
    pierced_classes: tuple
    pierce: TransversalResult
    cover: Optional[TransversalResult]
    cover_kind: Optional[str]  # "line", "plane", or "space"
    within_budgets: bool


@dataclass(frozen=True)
class DichotomyReport:
    dim: int
    f_budget: int
    g_budget: int
    entries: tuple


def dichotomy_report(
    fam: ColoredFamily,
    f_budget: int,
    g_budget: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> DichotomyReport:
    """Piercing and cover numbers for every split of the color classes.

    For each k and each k-subset of classes, the subset union is pierced
    exactly; when the piercing count stays within f_budget, the remaining
    classes are covered by k-flats (lines for k = 1, planes for k = 2 in
    R^3, the whole space when k equals the dimension).  A cover number is
    exact over the candidate pool, and the true value only for bounded
    planar sets, whose pool is complete; elsewhere it is an upper bound.
    Suffix covers are skipped (cover = None) once the point side already
    exceeds its budget.
    """
    if fam.dim > 3:
        raise InputError("split probes cover dimensions up to 3")
    if f_budget < 0 or g_budget < 0:
        raise InputError("budgets must be nonnegative")
    entries = []
    for k in range(1, fam.dim + 1):
        for subset in itertools.combinations(range(fam.num_classes), k):
            prefix = [s for i in subset for s in fam.classes[i]]
            suffix = [
                s
                for i in range(fam.num_classes)
                if i not in subset
                for s in fam.classes[i]
            ]
            pierce = piercing_number(prefix, budget)
            if pierce.size > f_budget:
                entries.append(
                    DichotomyEntry(k, subset, pierce, None, None, False)
                )
                continue
            if not suffix:
                cover = TransversalResult(0, ())
                kind = "space" if k == fam.dim else ("line" if k == 1 else "plane")
            elif k == fam.dim:
                cover = TransversalResult(1, ())
                kind = "space"
            elif k == 1:
                cover = line_cover_number(suffix, budget)
                kind = "line"
            else:  # k == 2 in R^3
                cover = plane_cover_number(suffix, budget)
                kind = "plane"
            entries.append(
                DichotomyEntry(
                    k, subset, pierce, cover, kind, cover.size <= g_budget
                )
            )
    return DichotomyReport(fam.dim, f_budget, g_budget, tuple(entries))
