"""Exact generators for the lower-bound families and their verifiers.

Three constructions drive the transversal lower bounds.  The axis family
puts n parallel hyperplanes orthogonal to each coordinate axis into d
classes and adds the whole space as class d+1: rainbow selections always
meet and one diagonal line crosses every member, yet piercing any single
class takes n points.  The planar family nests m = 2f triangles in a
frame triangle so that every two meet but no three share a point, then
lays 3m pairwise disjoint segments along the frame's sides, each meeting
every triangle.  Its d-dimensional analogue mounts the same triangle
scheme on the 2-faces tau_i = conv(v_i, v_{i+1}, v_{i+2}) of a simplex,
cones each little triangle with the d - 2 opposite vertices, shrinks
everything away from the (d-2)-faces, and finishes with m parallel copies
of each shrunk facet.  Colorful intersections survive, but a line crosses
at most two facet interiors, so ceil((d+1)/2) lines are needed to cross
every member of every class.

Magnitudes the construction leaves free (how far to shrink, how far to
slide the copies) are pinned by searching dyadic steps 1/2**t and taking
the first value under which every claimed property verifies exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .colorful import check_ch
from .errors import GenerationError, InputError, TheoremViolationError
from .geometry import (
    AffineFlat,
    ColoredFamily,
    Halfspace,
    Hyperplane,
    Point,
    Polyhedron,
    first_meeting,
    line_meets_relint,
    line_through,
    polytope_from_vertices,
)
from .lp import LinearProgram, Optimal, lp_solve
from .rationals import ONE, ZERO, dot, rat, vadd, vscale, vsub

_MAX_STEP_EXPONENT = 48


def _dyadic_search(first_t: int, attempt, step_name: str, error: str):
    """(step, built) for the first step 1/2**t, t >= first_t, that `attempt`
    accepts.  `attempt(step)` returns (built, None) or (None, failure); when
    every step fails, the last failure is reported with its step.

    Steps are tried in halving order, so an `attempt` closure may carry what
    it verified at the step before to the next one.  The simplex
    construction does so with two monotonicity facts about its rainbow
    selections: halving the shrink offset loosens every cut, so a point of a
    selection at one step stays in it at the next; and a copy selection's
    system is convex in (x, eta), so the midpoint of its points at eta = 0
    and at the previous step 2 * eta lies in it at eta.  Carried points are
    only hints to `check_ch`, which verifies each one exactly, so the steps
    accepted and the failures cited are those of fresh sweeps."""
    for t in range(first_t, _MAX_STEP_EXPONENT + 1):
        step = rat(1, 2**t)
        built, failure = attempt(step)
        if failure is None:
            return step, built
    raise GenerationError(f"{error}: {failure} at {step_name} 1/2**{t}")


# -- axis-parallel hyperplane family -----------------------------------------


def generate_figure1(d: int, n: int) -> ColoredFamily:
    """d classes of n parallel hyperplanes plus the whole space as class d+1.

    Class i consists of the hyperplanes x_i = 1, ..., x_i = n.  Every
    rainbow selection meets (pick the prescribed coordinates and anything
    for the rest), the diagonal line t * (1, ..., 1) crosses every set, and
    piercing class i alone takes n points since its members are pairwise
    disjoint.
    """
    if d < 2:
        raise InputError("ambient dimension must be at least 2")
    if n < 1:
        raise InputError("need at least one hyperplane per class")
    classes = []
    for axis in range(d):
        normal = tuple(ONE if j == axis else ZERO for j in range(d))
        classes.append(
            tuple(
                Polyhedron(d, (), (Hyperplane(normal, rat(k)),))
                for k in range(1, n + 1)
            )
        )
    classes.append((Polyhedron.whole_space(d),))
    return ColoredFamily(d, tuple(classes))


# -- shared triangle scheme ---------------------------------------------------


# reference frame in which the scheme parameters are drawn
_REFERENCE = ((ZERO, ZERO), (ONE, ZERO), (rat(1, 2), ONE))


def _scheme_set(mu, theta, corners: Sequence[tuple], apex: Sequence = ()) -> Polyhedron:
    """conv(apex + the scheme triangle (mu, theta) placed in corners (a, b, c)).

    The triangle's horizontal side joins the points at height mu toward c
    on sides ac and bc; its third vertex sits on side ab at parameter theta.
    """
    a, b, c = corners
    triangle = [
        vadd(vscale(ONE - mu, a), vscale(mu, c)),
        vadd(vscale(ONE - mu, b), vscale(mu, c)),
        vadd(vscale(ONE - theta, a), vscale(theta, b)),
    ]
    return polytope_from_vertices(len(a), [*apex, *triangle])


def _min_ordinate(a: Polyhedron, b: Polyhedron):
    """Exact minimum y over a nonempty planar intersection."""
    out = lp_solve(a.intersected(b).feasibility_lp((ZERO, ONE), maximize=False))
    if not isinstance(out, Optimal):
        raise GenerationError("two scheme triangles failed to meet")
    return out.value


def _triangle_scheme(m: int, rng: random.Random) -> list[tuple]:
    """m parameter pairs (mu, theta): horizontal side height and base anchor.

    The first two triangles are seeded; each later one has its horizontal
    side at half the lowest ordinate reached by any pairwise intersection
    so far, which empties every triple while keeping all pairs meeting.
    Base anchors are kept distinct so pairwise intersections stay strictly
    above the base line and the recursion never bottoms out.  Each triangle
    is built once, and only the pairs the newest one forms are solved: the
    lowest ordinate is a running minimum.
    """

    def fresh_theta(used: list) -> object:
        for _ in range(200):
            candidate = rat(rng.randint(1, 63), 64)
            if candidate not in used:
                return candidate
        raise GenerationError("could not draw a fresh base anchor")

    params: list[tuple] = []
    thetas: list = []
    built: list[Polyhedron] = []
    lowest = None
    for i in range(m):
        if i < 2:
            mu = rat(rng.randint(16, 48), 64)
        else:
            built.extend(_scheme_set(p, t, _REFERENCE) for p, t in params[len(built) :])
            newest = built[-1]
            for other in built[:-1]:
                y = _min_ordinate(other, newest)
                if lowest is None or y < lowest:
                    lowest = y
            if lowest <= 0:
                raise GenerationError("pairwise intersections touched the base")
            mu = lowest * rat(1, 2)
        theta = fresh_theta(thetas)
        thetas.append(theta)
        params.append((mu, theta))
    return params


# -- planar construction ------------------------------------------------------


@dataclass(frozen=True)
class PlanarConstruction:
    """m = 2f nested triangles plus 3m boundary segments in a frame triangle.

    `triangles` holds the nested triangles in placement order; `segments`
    holds m copies per frame side, ordered side-major (side * m + copy).
    `heights` and `anchors` record each triangle's horizontal-side ordinate
    and base-vertex abscissa; `side_spans` the parameter range each shrunk
    side segment covers; `step` the copy translation step.
    """

    f: int
    m: int
    seed: int
    outer: Polyhedron
    triangles: tuple
    segments: tuple
    heights: tuple
    anchors: tuple
    side_spans: tuple
    step: object

    @property
    def family(self) -> ColoredFamily:
        return ColoredFamily(2, (self.triangles, self.segments))


_FRAME = (
    (rat(0), rat(0)),
    (rat(12), rat(0)),
    (rat(6), rat(12)),
)


def _side_rows(outer: Polyhedron, corners: Sequence[tuple]) -> list[Halfspace]:
    """The frame's inequality row carrying each side, in side order."""
    rows = []
    pairs = [(0, 1), (1, 2), (2, 0)]
    for a, b in pairs:
        row = next(
            h
            for h in outer.inequalities
            if dot(h.normal, corners[a]) == h.offset
            and dot(h.normal, corners[b]) == h.offset
        )
        rows.append(row)
    return rows


def _segment(p: tuple, q: tuple) -> Polyhedron:
    return polytope_from_vertices(2, [p, q])


def _check_planar_segments(
    triangles: Sequence[Polyhedron], segments: Iterable[Polyhedron]
) -> tuple:
    """(segments, None) when every segment property holds, else (None, the
    first violated one).

    The segments are taken lazily, each tested against every triangle as
    soon as it is built, so a step that fails at an early segment builds no
    later one; the pairwise disjointness is tested once all are built.
    Unlike the simplex sweeps, this scan carries nothing from one dyadic
    step to the next: the segments' disjointness is not monotone in the
    step, and the line kernel's pair tests yield no witness point."""
    built = []
    for si, seg in enumerate(segments):
        for ti, tri in enumerate(triangles):
            if first_meeting([seg, tri], 2) is None:
                return None, f"segment {si} misses triangle {ti}"
        built.append(seg)
    pair = first_meeting(built, 2)
    if pair is not None:
        return None, "segments {} and {} overlap".format(*pair)
    return tuple(built), None


def generate_planar(f: int, seed: int = 0) -> PlanarConstruction:
    """Recursive planar family: m = 2f triangles and 3m disjoint segments.

    Triangles are placed so each new horizontal side lies strictly below
    every pairwise intersection built so far (ordinates found exactly as
    LP minima).  Each frame side is then shrunk away from its endpoints,
    keeping every triangle's contact point strictly inside, and m inward
    translates of each shrunk side are taken with a dyadic step small
    enough that every copy still meets every triangle and all 3m segments
    stay pairwise disjoint.  Every claimed property is re-verified exactly
    before the construction is returned.
    """
    if f < 1:
        raise InputError("need f >= 1")
    m = 2 * f
    rng = random.Random(f"planar:{f}:{seed}")
    params = _triangle_scheme(m, rng)
    corners = _FRAME
    outer = polytope_from_vertices(2, corners)
    scale = rat(12)
    triangles = tuple(_scheme_set(mu, theta, corners) for mu, theta in params)

    for i, j in itertools.combinations(range(m), 2):
        if first_meeting([triangles[i], triangles[j]], 2) is None:
            raise GenerationError(f"triangles {i} and {j} fail to meet")
    triple = first_meeting(triangles, 3)
    if triple is not None:
        raise GenerationError("triangles {}, {}, {} share a point".format(*triple))

    # contact parameter of each triangle along every frame side
    contact_params = [
        [theta for _, theta in params],  # base side, vertex (theta, 0)
        [mu for mu, _ in params],  # right side, top-right vertex
        [ONE - mu for mu, _ in params],  # left side, top-left vertex
    ]
    half = rat(1, 2)
    side_rows = _side_rows(outer, corners)
    side_pairs = [(0, 1), (1, 2), (2, 0)]
    spans = []
    shrunk_sides = []
    for side in range(3):
        lo = min(contact_params[side]) * half
        hi = (ONE + max(contact_params[side])) * half
        spans.append((lo, hi))
        p, q = corners[side_pairs[side][0]], corners[side_pairs[side][1]]
        direction = vsub(q, p)
        shrunk_sides.append(
            _segment(vadd(p, vscale(lo, direction)), vadd(p, vscale(hi, direction)))
        )
    inward = [vscale(rat(-1), row.normal) for row in side_rows]

    def translate_sides(step):
        segments = (
            shrunk_sides[side].translated(vscale(step * j, inward[side]))
            for side in range(3)
            for j in range(m)
        )
        return _check_planar_segments(triangles, segments)

    step, segments = _dyadic_search(
        3,
        translate_sides,
        "step",
        "no segment translation step satisfied all constraints",
    )
    return PlanarConstruction(
        f=f,
        m=m,
        seed=seed,
        outer=outer,
        triangles=triangles,
        segments=segments,
        heights=tuple(mu * scale for mu, _ in params),
        anchors=tuple(theta * scale for _, theta in params),
        side_spans=tuple(spans),
        step=step,
    )


# -- simplex construction -----------------------------------------------------


@dataclass(frozen=True)
class SimplexConstruction:
    """Cone classes over 2-face triangle schemes plus shrunk-facet copies.

    `raw_classes` and `facets` hold the construction before shrinking (the
    relative-interior verifier runs on these); `cone_classes` the shrunk
    cones, `facet_groups` the m parallel copies of each shrunk facet.
    `epsilon` is the shrink offset, `eta` the copy translation step, and
    `triangle_params` the per-face (height, anchor) scheme parameters.
    """

    d: int
    f: int
    m: int
    seed: int
    vertices: tuple
    simplex: Polyhedron
    raw_classes: tuple
    facets: tuple
    cone_classes: tuple
    facet_groups: tuple
    epsilon: object
    eta: object
    triangle_params: tuple

    @property
    def family(self) -> ColoredFamily:
        """The final d-colored family: shrunk cones plus all facet copies."""
        copies = tuple(itertools.chain.from_iterable(self.facet_groups))
        return ColoredFamily(self.d, (*self.cone_classes, copies))

    @property
    def all_sets(self) -> tuple:
        out = list(itertools.chain.from_iterable(self.cone_classes))
        out.extend(itertools.chain.from_iterable(self.facet_groups))
        return tuple(out)


def _simplex_vertices(d: int) -> list[tuple]:
    verts = [tuple(rat(12) if j == i else ZERO for j in range(d)) for i in range(d)]
    verts.append(tuple(ZERO for _ in range(d)))
    return verts


def _simplex_facets(verts: Sequence[tuple]) -> tuple:
    """Facet i is the convex hull of every vertex but vertex i."""
    d = len(verts) - 1
    return tuple(
        polytope_from_vertices(d, [v for j, v in enumerate(verts) if j != skip])
        for skip in range(d + 1)
    )


def _centroid(points: Sequence[tuple]) -> tuple:
    dim = len(points[0])
    total = tuple(sum(p[j] for p in points) for j in range(dim))
    return vscale(rat(1, len(points)), total)


def _swept_points(fam: ColoredFamily, report) -> dict:
    """Pick -> verified point for every selection `check_ch` swept, which
    is every selection, or those before the violation."""
    return dict(zip(fam.picks(), report.points))


def _midpoint(p: Point, q: Point) -> Point:
    return Point(vscale(rat(1, 2), vadd(p.coords, q.coords)))


def _pair_cuts(simplex: Polyhedron, epsilon) -> list[Halfspace]:
    """One cut per facet pair; together they clear every (d-2)-face."""
    cuts = []
    for a, b in itertools.combinations(simplex.inequalities, 2):
        cuts.append(Halfspace(vadd(a.normal, b.normal), a.offset + b.offset - epsilon))
    return cuts


def _inward_normal(facet: Polyhedron, centroid: tuple) -> tuple:
    carrier = facet.equalities[0]
    if dot(carrier.normal, centroid) < carrier.offset:
        return vscale(rat(-1), carrier.normal)
    return tuple(carrier.normal)


def generate_simplex_family(d: int, f: int, seed: int = 0) -> SimplexConstruction:
    """Simplex lower-bound family in R^d, exactly verified before return.

    For each 2-face tau_i = conv(v_i, v_{i+1}, v_{i+2}), i = 1..d-1, a
    triangle scheme of m = 2f triangles is mapped affinely into tau_i and
    each triangle is coned with the d - 2 opposite vertices.  All sets are
    then shrunk away from the (d-2)-faces by adding, for every facet pair,
    the summed halfspace with offset reduced by epsilon; the facet class
    consists of m inward translates of each shrunk facet.  Both dyadic
    magnitudes are the first values under which every rainbow selection
    still meets, no three sets of a cone class share a point, and each
    facet's copies are pairwise disjoint.

    Each sweep hints `check_ch` with points verified at an earlier step.  A
    shrink step gets the previous step's points: halving epsilon only
    loosens the cuts, so they stay inside.  The first shrink step gets the
    unshrunk sweep's points; the cuts may remove some of them, and those
    selections go to the LP.  A copy step gets, for copy 0,
    the accepted shrink sweep's point of the same selection (the sets are
    the same), and for copy j >= 1 the midpoint of that point and the
    selection's point at the previous step 2 * eta: the selection's system
    is convex in (x, eta).  A step that fails only on a triple or an
    overlap swept every selection, so the next step hints them all.  The
    hints are verified exactly and the rest go to the LP, so epsilon, eta,
    the family and every cited failure are those of unhinted sweeps.

    A selection that no hint covers may still contain the point `check_ch`
    verified for the selection swept before it.  The sweeps and the triple
    and overlap checks read verdicts only, and the sweep points only feed
    hints, so their LPs are decided on the transposed Farkas system
    (`polyhedra_meet`, inside `check_ch` and `first_meeting`): d + 1 tableau
    rows instead of one per joint row.  The one primal program is the
    certificate `check_ch` cites for a step's refuted selection.
    """
    if not 2 <= d <= 4:
        raise InputError("the simplex construction is built for 2 <= d <= 4")
    if f < 1:
        raise InputError("need f >= 1")
    m = 2 * f
    rng = random.Random(f"simplex:{d}:{f}:{seed}")
    verts = _simplex_vertices(d)
    simplex = polytope_from_vertices(d, verts)
    centroid = _centroid(verts)

    raw_classes = []
    all_params = []
    for face in range(d - 1):
        face_corners = [verts[face], verts[face + 1], verts[face + 2]]
        apex = [verts[j] for j in range(d + 1) if j not in (face, face + 1, face + 2)]
        params = _triangle_scheme(m, rng)
        all_params.append(tuple(params))
        raw_classes.append(
            tuple(_scheme_set(mu, theta, face_corners, apex) for mu, theta in params)
        )
    raw_classes = tuple(raw_classes)

    facets = _simplex_facets(verts)

    pre_family = ColoredFamily(d, (*raw_classes, facets))
    pre = check_ch(pre_family)
    if not pre.holds:
        raise TheoremViolationError(
            "a rainbow selection of the unshrunk construction is empty: "
            f"{pre.violating_rainbow}"
        )

    # pick -> point verified at the last shrink step; the cuts only remove
    # points, yet the unshrunk sweep's points often survive the first one
    shrink_points = _swept_points(pre_family, pre)

    def shrink(epsilon):
        cuts = _pair_cuts(simplex, epsilon)
        classes = tuple(
            tuple(cone.with_rows(ineqs=cuts) for cone in cls) for cls in raw_classes
        )
        shrunk = tuple(facet.with_rows(ineqs=cuts) for facet in facets)
        fam = ColoredFamily(d, (*classes, shrunk))
        report = check_ch(fam, hints=shrink_points)
        shrink_points.clear()
        shrink_points.update(_swept_points(fam, report))
        if not report.holds:
            return None, f"rainbow selection {report.violating_rainbow} became empty"
        for ci, cls in enumerate(classes):
            triple = first_meeting(cls, 3)
            if triple is not None:
                return None, f"sets {triple} of cone class {ci} still share a point"
        return (classes, shrunk), None

    epsilon, (shrunk_classes, shrunk_facets) = _dyadic_search(
        1, shrink, "shrink offset", "shrink search failed"
    )

    inward = [_inward_normal(facet, centroid) for facet in shrunk_facets]
    # copy pick -> point verified at the last copy step, 2 * eta
    copy_points: dict = {}

    def copy_hints(fam: ColoredFamily) -> dict:
        """Copy j of facet fi is shrunk facet fi at eta = 0, so the accepted
        shrink sweep's point hints copy 0 and, averaged with the point at
        2 * eta, copy j >= 1."""
        hints = {}
        for pick in fam.picks():
            *cones, copy = pick
            fi, j = divmod(copy, m)
            at_zero = shrink_points[(*cones, fi)]
            if j == 0:
                hints[pick] = at_zero
            elif pick in copy_points:
                hints[pick] = _midpoint(at_zero, copy_points[pick])
        return hints

    def copy_facets(eta):
        groups = tuple(
            tuple(
                shrunk_facets[fi].translated(vscale(eta * j, inward[fi]))
                for j in range(m)
            )
            for fi in range(d + 1)
        )
        copies = tuple(itertools.chain.from_iterable(groups))
        fam = ColoredFamily(d, (*shrunk_classes, copies))
        report = check_ch(fam, hints=copy_hints(fam))
        copy_points.clear()
        copy_points.update(_swept_points(fam, report))
        if not report.holds:
            return None, f"rainbow selection {report.violating_rainbow} became empty"
        for fi, group in enumerate(groups):
            pair = first_meeting(group, 2)
            if pair is not None:
                return None, "copies {} and {} of facet {} overlap".format(*pair, fi)
        return groups, None

    eta, facet_groups = _dyadic_search(
        3, copy_facets, "copy step", "facet copy search failed"
    )

    return SimplexConstruction(
        d=d,
        f=f,
        m=m,
        seed=seed,
        vertices=tuple(verts),
        simplex=simplex,
        raw_classes=raw_classes,
        facets=facets,
        cone_classes=shrunk_classes,
        facet_groups=facet_groups,
        epsilon=epsilon,
        eta=eta,
        triangle_params=tuple(all_params),
    )


# -- relative-interior property -----------------------------------------------


@dataclass(frozen=True)
class RelintEntry:
    """One colorful selection: cone indices per class plus the facet index."""

    selection: tuple
    facet: int
    margin: Optional[object]
    point: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.margin is not None and self.margin > 0


@dataclass(frozen=True)
class RelintReport:
    dim: int
    entries: tuple

    @property
    def holds(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> tuple:
        return tuple(e for e in self.entries if not e.ok)


def relint_margin(sets: Sequence[Polyhedron], facet: Polyhedron):
    """Largest slack of a point of the joint intersection inside the facet.

    The point is constrained to the facet's carrier hyperplane and to every
    given set; the margin delta is the common slack in the facet's
    inequality rows (capped at 1) and is maximized.  A positive optimum
    certifies a point of the intersection in the facet's relative interior;
    a nonpositive one, or infeasibility, refutes it.  Returns (margin,
    point) with margin None when the carrier slice is already empty.
    """
    if not facet.equalities:
        raise InputError("facet carries no hyperplane equality")
    d = facet.dim
    if any(s.dim != d for s in sets):
        raise InputError("selection/facet dimension mismatch")
    leq = [(h.normal, h.offset) for s in sets for h in s.inequalities]
    eq = [(h.normal, h.offset) for s in (*sets, facet) for h in s.equalities]
    slack = [(h.normal, h.offset) for h in facet.inequalities]
    return _max_margin(d, leq, slack, eq)


def _max_margin(width: int, leq: Sequence, slack: Sequence, eq: Sequence):
    """Maximize delta <= 1 subject to the rows `leq`, `eq` and `slack`, the
    last with delta added to their left-hand sides.  Rows are
    (coefficients, rhs) over `width` variables; returns (delta, point), or
    (None, None) when the rows are infeasible."""
    zeros = (0,) * width
    rows = [((*c, 0), r) for c, r in leq]
    rows.extend(((*c, 1), r) for c, r in slack)
    rows.append(((*zeros, 1), 1))
    eqs = tuple(((*c, 0), r) for c, r in eq)
    out = lp_solve(LinearProgram(width + 1, tuple(rows), eqs, (*zeros, 1)))
    if isinstance(out, Optimal):
        return out.value, tuple(out.point[:width])
    return None, None


def verify_relint_property(construction: SimplexConstruction) -> RelintReport:
    """Sweep of all colorful selections against all facet relative interiors.

    For every choice of one unshrunk cone per class and every facet, the
    joint intersection must reach the facet's relative interior; each entry
    records the exact margin and a witness point.  Any failing entry marks
    a construction bug, never an acceptable outcome.
    """
    entries = []
    index_ranges = [range(len(cls)) for cls in construction.raw_classes]
    for selection in itertools.product(*index_ranges):
        sets = [
            construction.raw_classes[ci][si] for ci, si in enumerate(selection)
        ]
        for fi, facet in enumerate(construction.facets):
            margin, point = relint_margin(sets, facet)
            entries.append(RelintEntry(selection, fi, margin, point))
    return RelintReport(construction.d, tuple(entries))


# -- lines versus facet interiors ---------------------------------------------


@dataclass(frozen=True)
class FacetCrossingReport:
    """Most facet relative interiors of a d-simplex one line can cross."""

    dim: int
    value: int
    lines_checked: int
    witness_line: AffineFlat
    argument: str


_CROSSING_ARGUMENT = (
    "a line meets the boundary of a convex body in at most two points or "
    "boundary segments, and distinct facet relative interiors are disjoint, "
    "so no line crosses more than two of them"
)


def max_simplex_facets_crossed(d: int) -> FacetCrossingReport:
    """Exact maximum number of facet relative interiors a line crosses.

    Candidate lines run through pairs of interior facet points (centroids
    and centroid-vertex midpoints of distinct facets) and through vertex
    pairs; each is scored against every facet by `line_meets_relint`, an
    exact integer test with no LP.  The maximum is 2 for every 2 <= d <= 4,
    matching the a-priori convexity argument recorded in the report.
    """
    if not 2 <= d <= 4:
        raise InputError("facet crossing bound is computed for 2 <= d <= 4")
    verts = _simplex_vertices(d)
    facets = _simplex_facets(verts)
    half = rat(1, 2)
    facet_points: list[list[tuple]] = []
    for facet in facets:
        fverts = facet.vertices_hint
        center = _centroid(fverts)
        pts = [center]
        pts.extend(vscale(half, vadd(center, v)) for v in fverts)
        facet_points.append(pts)

    lines: dict = {}

    def add_line(p: tuple, q: tuple) -> None:
        if p == q:
            return
        line = line_through(p, q)
        lines.setdefault((line.base, line.directions), line)

    for fa, fb in itertools.combinations(range(d + 1), 2):
        for p in facet_points[fa]:
            for q in facet_points[fb]:
                add_line(p, q)
    for p, q in itertools.combinations(verts, 2):
        add_line(p, q)

    best = 0
    witness = None
    for line in lines.values():
        crossed = sum(line_meets_relint(line, facet) for facet in facets)
        if crossed > best:
            best = crossed
            witness = line
    if best > 2:
        raise TheoremViolationError(
            f"a line crossed {best} facet interiors of a {d}-simplex"
        )
    if best < 2 or witness is None:
        raise TheoremViolationError(
            "candidate lines failed to reach two facet interiors"
        )
    return FacetCrossingReport(
        dim=d,
        value=best,
        lines_checked=len(lines),
        witness_line=witness,
        argument=_CROSSING_ARGUMENT,
    )
