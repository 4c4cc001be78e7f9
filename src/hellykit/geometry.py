"""Exact convex geometry: H-polyhedra, affine flats, certified intersection.

The universal carrier is the H-representation

    P = {x in R^d : N x <= c, E x = f}

with rational data; lower-dimensional sets (segments, polygon facets,
hyperplanes) carry explicit equality rows.  Each row is stored as coprime
Python ints, its only integer form, which the LP tableau and the line kernel
read as stored; rationals stay at the API edge (offsets, points, flats).

Vertex-list inputs are converted on ingestion by `polytope_from_vertices`,
in Python ints: the points are scaled once to X / D, and each facet normal
is the integer minors of the differences of the points spanning it.  A hull
of lower dimension than the space runs the same facet search on the points'
coordinates in a chart of its affine hull and pulls each facet back to
ambient coordinates.  That one routine covers segments, polygons, and the
small simplicial shapes (d <= 4) the constructions need.

Whether a line meets a set, closed (`flat_crosses` with k = 1) or in its
relative interior (`line_meets_relint`, as for a facet), is decided by one
integer line kernel on the stored rows: each line caches its integer form
once, and parameter bounds, each marked strict or closed, are compared by
cross-multiplication, so no rational is built and no LP is solved per test.
Line and plane covers decide crossings without this kernel (see
`hypergraphs`): vertex signs decide bounded sets against hyperplane
candidates, and rows or the LP decide everything else.  `flat_crosses` and
`hyperplane_crosses` stay on the rows and the LP, independent of that
screen.

`vertices_of` enumerates vertices in ints too: each candidate vertex is one
fraction-free square solve, and rationals are built for accepted vertices
only.  Each set does this once, on first use: `Polyhedron._vertex_frame`
keeps the vertex list, each vertex in integer form, and an exact `bounded`
flag decided in ints from the rows (`_recession_trivial`).

Whether sets share a point is decided from the shape of their rows, and the
LP runs only when no shape decides.  The kernels, in order:

  1. pinned point: when the joint equality rows have rank d, they fix one
     point, solved from d of them in ints (`_pinned_point`) and accepted
     when every set contains it.  Every joint decision of
     `polyhedra_intersect` and `polyhedra_meet` (`_certified_intersection`)
     and `Polyhedron.feasible_point` try it first; the point is the one
     either tableau would return, as it is the only common point.  A point
     that some set does not contain decides nothing: the tableau then
     certifies the system empty.
  2. carrier line: a pair (`sets_meet`, and so `first_meeting` with r = 2)
     in which either set is line-shaped, its equality rows fixing a line
     (rank d - 1, consistent), as a segment's do: every common point lies
     on that cached carrier line, so the joint rows are tested there by the
     line kernel.
  3. vertex signs: a hyperplane candidate of a cover against a bounded
     set, by the signs of the set's cached vertices (see `hypergraphs`).
  4. tableau: everything else, with the certificate of infeasibility.  On
     the transposed Farkas system (`polyhedra_meet`) when only the verdict
     is read; `polyhedra_intersect` keeps the primal tableau and serves
     only callers that return its point or certificate.

`sets_meet` tries the carrier line before the joint decision, so a pair
that both the carrier line and a pinned point could decide, such as two
crossing segments in the plane, goes to the line kernel; both give the same
verdict.

`ColoredFamily` (polyhedra partitioned into color classes) lives here, next
to `Polyhedron`, so that reading a family document loads no more than this
module and what it imports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimensionError, InputError, TheoremViolationError
from .lp import (
    Feasible,
    Infeasible,
    LinearProgram,
    aggregate_rows,
    decide_feasibility,
    lp_solve,
)
from .rationals import (
    ONE,
    ZERO,
    Vec,
    common_denominator,
    dot,
    independent_rows,
    is_zero_vec,
    normalize_row,
    nullspace,
    nullspace_ints,
    rank,
    rat,
    scaled_ints,
    solve_linear,
    solve_square_ints,
    vec,
    vsub,
)


@dataclass(frozen=True)
class Point:
    coords: Vec

    @property
    def dim(self) -> int:
        return len(self.coords)


def _exact(value):
    """An int as it is, anything else through `rat`."""
    return value if type(value) is int else rat(value)


def _stored_row(normal: Sequence, offset, name: str) -> tuple:
    """(normal, offset) as coprime Python ints; the normal must be nonzero.

    Int entries reach `normalize_row` as they are, so an integer row is
    normalised without building a rational."""
    n = tuple(map(_exact, normal))
    if is_zero_vec(n):
        raise InputError(f"{name} normal must be nonzero")
    return normalize_row(n, _exact(offset))


@dataclass(frozen=True)
class Halfspace:
    """{x : normal . x <= offset}; normal != 0, stored as coprime Python ints."""

    normal: Vec
    offset: object

    def __post_init__(self):
        n, c = _stored_row(self.normal, self.offset, "halfspace")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", c)

    def contains(self, x: Sequence) -> bool:
        return dot(self.normal, x) <= self.offset


@dataclass(frozen=True)
class Hyperplane:
    """{x : normal . x = offset}; stored like a Halfspace, sign-canonical."""

    normal: Vec
    offset: object

    def __post_init__(self):
        n, c = _stored_row(self.normal, self.offset, "hyperplane")
        if next(v for v in n if v) < 0:
            n = tuple(-v for v in n)
            c = -c
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", c)

    def contains(self, x: Sequence) -> bool:
        return dot(self.normal, x) == self.offset


class VertexFrame(NamedTuple):
    """A set's vertices, kept once per set by `Polyhedron._vertex_frame`.

    `scaled` holds each vertex as (X, D), ints X and the least D > 0 with
    vertex = X / D.  `bounded` is True when the set has a vertex and its
    rows' recession cone is {0}: the set is then the hull of its vertices.
    """

    vertices: tuple
    scaled: tuple
    bounded: bool


@dataclass(frozen=True)
class Polyhedron:
    dim: int
    inequalities: tuple = ()
    equalities: tuple = ()
    # vertex list remembered from a V-representation ingestion, ignored for
    # equality so H-equal polyhedra compare equal.  `vertices_of` returns it
    # without checking it against the rows, which is why
    # `serialize.polyhedron_from_json` does not read a document's `vertices`
    # back: an edited list would become the set's vertices unverified.
    vertices_hint: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.dim < 0:
            raise DimensionError("negative dimension")
        for h in self.inequalities:
            if len(h.normal) != self.dim:
                raise DimensionError("inequality width mismatch")
        for h in self.equalities:
            if len(h.normal) != self.dim:
                raise DimensionError("equality width mismatch")
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))

    # -- constructors --------------------------------------------------------

    @classmethod
    def whole_space(cls, dim: int) -> "Polyhedron":
        return cls(dim)

    @classmethod
    def box(cls, lower: Sequence, upper: Sequence) -> "Polyhedron":
        lo, hi = vec(lower), vec(upper)
        if len(lo) != len(hi):
            raise DimensionError("box corner widths differ")
        d = len(lo)
        ineqs = []
        for i in range(d):
            e = tuple(ONE if j == i else ZERO for j in range(d))
            ineqs.append(Halfspace(e, hi[i]))
            ineqs.append(Halfspace(tuple(-v for v in e), -lo[i]))
        return cls(d, tuple(ineqs))

    # -- basic queries ---------------------------------------------------------

    def contains(self, x) -> bool:
        """Exact membership: the point is scaled once to X / D, and each
        stored row a . x <= c (or = c) is tested as a . X <= c * D in ints."""
        coords = x.coords if isinstance(x, Point) else x
        if len(coords) != self.dim:
            raise DimensionError("point/polyhedron dimension mismatch")
        den = common_denominator(coords)
        return self._contains_ints(scaled_ints(coords, den), den)

    def _contains_ints(self, xs: Sequence[int], den: int) -> bool:
        """`contains` for the point X / D given as ints X and D > 0."""
        return all(
            sum(map(mul, h.normal, xs)) <= h.offset * den for h in self.inequalities
        ) and all(sum(map(mul, h.normal, xs)) == h.offset * den for h in self.equalities)

    def feasibility_lp(self, objective=None, maximize=True) -> LinearProgram:
        return joint_lp([self], objective, maximize)[0]

    def feasible_point(self) -> Optional[Vec]:
        """A point of the set, or None when it is empty: the point its
        equality rows pin (`_pinned_point`) when they pin one inside the set,
        else the primal tableau's point.  A pinned point is the set's only
        point, so both give the same answer."""
        point = _pinned_point([self])
        if point is not None:
            return point
        out = lp_solve(self.feasibility_lp())
        return out.point if isinstance(out, Feasible) else None

    def is_empty(self) -> bool:
        return self.feasible_point() is None

    @cached_property
    def _carrier_line(self) -> Optional["AffineFlat"]:
        """The line the equality rows fix, or None.

        A set is line-shaped when its equality rows have rank d - 1 and are
        consistent; every point of it then lies on this line.  One-point
        sets (rank d), inconsistent rows and d < 2 have no carrier."""
        if self.dim < 2 or not self.equalities:
            return None
        normals = [h.normal for h in self.equalities]
        directions = nullspace(normals, self.dim)
        if len(directions) != 1:
            return None
        base = solve_linear(normals, [h.offset for h in self.equalities])
        if base is None:
            return None
        return AffineFlat.line(base, directions[0])

    @cached_property
    def _vertex_frame(self) -> "VertexFrame":
        """The set's vertex list, worked out once on first use: the hint if
        there is one, else `_enumerate_vertices`, together with each vertex
        in integer form and the exact `bounded` flag (see `VertexFrame`)."""
        if self.vertices_hint is None:
            scaled = _enumerate_vertices(self)
            verts = tuple(tuple(rat(x, den) for x in xs) for xs, den in scaled)
        else:
            verts = tuple(self.vertices_hint)
            dens = map(common_denominator, verts)
            scaled = tuple((tuple(scaled_ints(v, den)), den) for v, den in zip(verts, dens))
        return VertexFrame(verts, scaled, bool(verts) and _recession_trivial(self))

    # -- derived polyhedra -----------------------------------------------------

    def intersected(self, other: "Polyhedron") -> "Polyhedron":
        if other.dim != self.dim:
            raise DimensionError("intersection of different ambient dimensions")
        return Polyhedron(
            self.dim,
            self.inequalities + other.inequalities,
            self.equalities + other.equalities,
        )

    def with_rows(self, ineqs: Iterable = (), eqs: Iterable = ()) -> "Polyhedron":
        return Polyhedron(
            self.dim, self.inequalities + tuple(ineqs), self.equalities + tuple(eqs)
        )

    def translated(self, t: Sequence) -> "Polyhedron":
        """The set shifted by t, worked out in ints: t is scaled once to T / D,
        and each stored row (n, c) becomes (D * n, D * c + n . T), which the
        stored-row normaliser brings back to coprime ints.  The vertex hint
        is shifted over one common denominator of t and its points."""
        tv = vec(t)
        if len(tv) != self.dim:
            raise DimensionError("translation/polyhedron dimension mismatch")
        den = common_denominator(tv)
        ts = scaled_ints(tv, den)

        def shifted(h) -> tuple:
            n = h.normal
            return tuple(den * x for x in n), den * h.offset + sum(map(mul, n, ts))

        ineqs = tuple(Halfspace(*shifted(h)) for h in self.inequalities)
        eqs = tuple(Hyperplane(*shifted(h)) for h in self.equalities)
        hint = self.vertices_hint
        if hint is not None:
            hden = common_denominator(itertools.chain(tv, *hint))
            th = scaled_ints(tv, hden)
            hint = tuple(
                tuple(rat(x + y, hden) for x, y in zip(scaled_ints(v, hden), th)) for v in hint
            )
        return Polyhedron(self.dim, ineqs, eqs, vertices_hint=hint)


@dataclass(frozen=True)
class ColoredFamily:
    """Convex sets partitioned into color classes within one ambient space."""

    dim: int
    classes: tuple  # tuple of tuples of Polyhedron

    def __post_init__(self):
        classes = tuple(tuple(c) for c in self.classes)
        if not classes:
            raise InputError("a colored family needs at least one class")
        for k, cls in enumerate(classes):
            if not cls:
                raise InputError(f"color class {k} is empty")
            for s in cls:
                if not isinstance(s, Polyhedron):
                    raise InputError("class members must be polyhedra")
                if s.dim != self.dim:
                    raise DimensionError(
                        f"class {k} member has dimension {s.dim}, expected {self.dim}"
                    )
        object.__setattr__(self, "classes", classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def rainbow_count(self) -> int:
        return prod(len(c) for c in self.classes)

    def picks(self):
        """Every rainbow pick (one set index per class) in lexicographic
        order, the order in which `check_ch` sweeps them."""
        return itertools.product(*(range(len(c)) for c in self.classes))

    def all_sets(self) -> list[Polyhedron]:
        return [s for cls in self.classes for s in cls]


@dataclass(frozen=True)
class AffineFlat:
    """base + span(directions); 0 <= k < ambient dim, directions independent."""

    dim: int
    base: Vec
    directions: tuple = ()

    def __post_init__(self):
        base = vec(self.base)
        dirs = tuple(vec(d) for d in self.directions)
        if len(base) != self.dim or any(len(d) != self.dim for d in dirs):
            raise DimensionError("flat data width mismatch")
        if not (0 <= len(dirs) < self.dim):
            raise InputError("flat dimension k must satisfy 0 <= k < dim")
        if len(dirs) == 1:
            independent = not is_zero_vec(dirs[0])
        else:
            independent = rank(dirs) == len(dirs)
        if not independent:
            raise InputError("flat directions must be linearly independent")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)

    @property
    def k(self) -> int:
        return len(self.directions)

    @cached_property
    def _line_ints(self) -> tuple:
        """(D, B, V) for a line: base = B / D with D > 0, and V a positive
        integer multiple of the direction; all Python ints."""
        (direction,) = self.directions
        den = common_denominator(self.base)
        scale = common_denominator(direction)
        return den, tuple(scaled_ints(self.base, den)), tuple(scaled_ints(direction, scale))

    @classmethod
    def line(cls, base: Sequence, direction: Sequence) -> "AffineFlat":
        return cls(len(tuple(base)), tuple(base), (tuple(direction),))


# ---------------------------------------------------------------------------
# certified joint intersection


@dataclass(frozen=True)
class FarkasEntry:
    set_index: int
    kind: str  # "ineq" or "eq"
    row_index: int
    multiplier: object

    def row(self, sets: Sequence[Polyhedron]) -> tuple:
        """(normal, offset) of the weighted row: normal . x <= offset for
        "ineq", normal . x = offset for "eq"."""
        s = sets[self.set_index]
        h = (s.inequalities if self.kind == "ineq" else s.equalities)[self.row_index]
        return h.normal, h.offset


@dataclass(frozen=True)
class IntersectionCertificate:
    point: Optional[Point]
    farkas: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.point is not None


def _joint_dim(sets: Sequence[Polyhedron]) -> int:
    """The ambient dimension a nonempty group of sets shares."""
    if not sets:
        raise InputError("need at least one polyhedron")
    d = sets[0].dim
    if any(s.dim != d for s in sets):
        raise DimensionError("mixed ambient dimensions")
    return d


def joint_lp(sets: Sequence[Polyhedron], objective=None, maximize=True):
    """LP for the intersection of `sets` plus row provenance lists.

    The one place polyhedron rows become LP rows: the inequality rows of each
    set in turn, and likewise the equality rows, as stored."""
    d = _joint_dim(sets)
    leq, eq, prov_leq, prov_eq = [], [], [], []
    for si, s in enumerate(sets):
        for ri, h in enumerate(s.inequalities):
            leq.append((h.normal, h.offset))
            prov_leq.append((si, ri))
        for ri, h in enumerate(s.equalities):
            eq.append((h.normal, h.offset))
            prov_eq.append((si, ri))
    lp = LinearProgram(d, leq=tuple(leq), eq=tuple(eq), objective=objective, maximize=maximize)
    return lp, prov_leq, prov_eq


def polyhedra_intersect(sets: Sequence[Polyhedron]) -> IntersectionCertificate:
    """Decide whether the sets share a point; certify either way.

    Feasible: returns a common point (verified against every input row).
    Infeasible: returns Farkas entries tagged with (set, row) provenance whose
    aggregate is 0 . x <= c with c < 0 (or 0 . x = c, c != 0 via equality rows).
    A point the joint equality rows pin is returned without a tableau (see
    `_certified_intersection`); it is the only common point, so it is the
    primal tableau's too.  Every other system is decided by the primal
    tableau, so the point and the certificate are the ones every report has
    always shown.
    """
    return _certified_intersection(sets, lp_solve)


def polyhedra_meet(sets: Sequence[Polyhedron]) -> IntersectionCertificate:
    """`polyhedra_intersect` decided on the transposed Farkas system
    (`lp.decide_feasibility`): d + 1 tableau rows however many rows the sets
    have, a certificate on at most d + 1 rows, and a point that may differ
    from the primal one.  For callers that read the verdict, or a point that
    reaches no report; the answer is checked as `polyhedra_intersect`'s is.
    A point the joint equality rows pin is returned before either tableau,
    as there."""
    return _certified_intersection(sets, decide_feasibility)


def _pinned_point(sets: Sequence[Polyhedron]) -> Optional[Vec]:
    """The one point the joint equality rows of `sets` fix, when it lies in
    every set; else None.

    With exactly d equality rows, they are the system; with more,
    `independent_rows` picks d of them in order, or finds rank below d.
    The d stored int rows are solved fraction-free by `solve_square_ints`
    as x = X / D (None when singular), and the point is returned only when
    every set contains it (`Polyhedron.contains`, tested on X and D).  So
    a system whose rows pin no point, or pin one outside some set, is left
    to the tableau and keeps the LP's certificate."""
    d = _joint_dim(sets)
    eqs = [h for s in sets for h in s.equalities]
    if not eqs or len(eqs) < d:
        return None
    if len(eqs) > d:
        eqs = [eqs[i] for i in independent_rows([h.normal for h in eqs])]
        if len(eqs) != d:
            return None
    sol = solve_square_ints([h.normal for h in eqs], [h.offset for h in eqs])
    if sol is None or not all(s._contains_ints(*sol) for s in sets):
        return None
    xs, den = sol
    return tuple(rat(x, den) for x in xs)


def _certified_intersection(sets: Sequence[Polyhedron], solve) -> IntersectionCertificate:
    """The joint program of `sets` decided by `solve`, its point checked with
    `Polyhedron.contains` on every set or its Farkas multipliers tagged with
    their (set, row) provenance and checked again.

    The one place `polyhedra_intersect` and `polyhedra_meet` decide a joint
    system.  A system whose equality rows pin a point inside every set
    (`_pinned_point`) is feasible with that point as its only one, the point
    either tableau would return, so it is answered before any tableau is
    built.  Every other system, and so every certificate, is the LP's."""
    pinned = _pinned_point(sets)
    if pinned is not None:
        return IntersectionCertificate(Point(pinned))
    lp, prov_leq, prov_eq = joint_lp(sets)
    out = solve(lp)
    if isinstance(out, Feasible):
        pt = Point(out.point)
        if not all(s.contains(out.point) for s in sets):
            raise TheoremViolationError("intersection point fails membership")
        return IntersectionCertificate(pt)
    if not isinstance(out, Infeasible):
        raise TheoremViolationError(f"unexpected LP outcome {type(out).__name__}")
    entries = []
    for mult, (si, ri) in zip(out.leq_multipliers, prov_leq):
        if mult:
            entries.append(FarkasEntry(si, "ineq", ri, mult))
    for mult, (si, ri) in zip(out.eq_multipliers, prov_eq):
        if mult:
            entries.append(FarkasEntry(si, "eq", ri, mult))
    cert = IntersectionCertificate(None, tuple(entries))
    if not verify_farkas_entries(sets, cert.farkas):
        raise TheoremViolationError("grouped Farkas certificate failed verification")
    return cert


def sets_meet(group: Sequence[Polyhedron]) -> bool:
    """Whether the sets share a point, for callers that read only the
    verdict: for a pair with a line-shaped member, on the integer line kernel
    along that member's carrier line (the common points lie on it), and by
    `polyhedra_meet` otherwise (a pinned point, else the transposed LP)."""
    if len(group) == 2:
        a, b = group
        line = a._carrier_line if a._carrier_line is not None else b._carrier_line
        if line is not None:
            return _line_meets(line, a.intersected(b), False)
    return polyhedra_meet(group).feasible


def first_meeting(sets: Sequence[Polyhedron], r: int) -> Optional[tuple]:
    """Lexicographically first r-tuple of indices whose sets share a point,
    or None; stops at the first one found.

    A pair (r = 2) in which either set is line-shaped (equality rows of
    rank d - 1 that are consistent, as a segment's are) is decided in Python
    ints by the line kernel on that set's carrier line.  `polyhedra_meet`
    decides every other tuple: pairs in which neither set has a carrier
    (one-point sets, inconsistent equality rows, sets of higher dimension),
    and every r != 2.  A tuple whose equality rows pin a point in every set
    meets there; any other runs the transposed Farkas system, d + 1 tableau
    rows however many rows the tuple has.  Only indices are returned, so no
    point or certificate depends on which path decided."""
    for combo in itertools.combinations(range(len(sets)), r):
        if sets_meet([sets[i] for i in combo]):
            return combo
    return None


def verify_farkas_entries(sets: Sequence[Polyhedron], entries: Sequence[FarkasEntry]) -> bool:
    """Exact check that tagged multipliers aggregate to an absurd constraint."""
    if not entries:
        return False
    if any(e.kind == "ineq" and e.multiplier < 0 for e in entries):
        return False
    functional, constant = aggregate_rows(
        sets[0].dim, ((e.multiplier, e.row(sets)) for e in entries)
    )
    if not is_zero_vec(functional):
        return False
    if constant < 0:
        return True
    # pure-equality contradictions may aggregate to 0 = c with c != 0
    return constant != 0 and all(e.kind == "eq" for e in entries)


# ---------------------------------------------------------------------------
# flats vs polyhedra


def _line_meets(line: AffineFlat, poly: Polyhedron, open_rows: bool) -> bool:
    """The k = 1 kernel: does some point of the line satisfy the rows of
    `poly`, its inequality rows strictly when `open_rows`?

    With base = B / D and integer direction V, row (n, c) reads a * t <= r
    (or =) for a = n . V, r = c * D - n . B, in Python ints; the parameter
    bounds r / a are compared by cross-multiplication.  Each bound records
    whether it is strict: inequality rows are open when `open_rows`, equality
    rows are always closed.
    """
    den, base, direction = line._line_ints
    # t <= hn / hd and t >= ln / ld with hd, ld >= 0, strict when hs / ls; a
    # zero denominator stands for an infinite bound (hn = 1 or ln = -1).  A
    # bound moves only when strictly tightened, and needs no tie rule: the
    # inequality rows are read first, so no closed bound exists yet when a
    # strict one is set, and a later closed row at the same value is looser.
    hn, hd, ln, ld, hs, ls = 1, 0, -1, 0, False, False
    for is_eq, rows in ((False, poly.inequalities), (True, poly.equalities)):
        strict = open_rows and not is_eq
        for h in rows:
            a, r = 0, h.offset * den
            for x, v, b in zip(h.normal, direction, base):
                a += x * v
                r -= x * b
            if is_eq and a < 0:  # a * t = r with a > 0 bounds t on both sides
                a, r = -a, -r
            if a > 0:
                if r * hd < hn * a:
                    hn, hd, hs = r, a, strict
                if is_eq and r * ld > ln * a:
                    ln, ld, ls = r, a, False
            elif a < 0:
                if r * ld < ln * a:
                    ln, ld, ls = -r, -a, strict
            elif r < 0 or is_eq and r or strict and not r:
                return False
    gap = hn * ld - ln * hd
    return gap > 0 or gap == 0 and not (hs or ls)


def flat_crosses(flat: AffineFlat, poly: Polyhedron) -> bool:
    """Exact decision of flat-meets-set in the flat's k parameters.

    k = 0 degenerates to point membership.  k = 1 is exact interval
    propagation (the one-variable LP spelled out) by the integer line
    kernel, every row closed.  k >= 2 adjoins the flat's d - k equality rows
    to the set and asks it for a point, as `hyperplane_crosses` does.
    """
    if flat.dim != poly.dim:
        raise DimensionError("flat/polyhedron dimension mismatch")
    if flat.k == 0:
        return poly.contains(flat.base)
    if flat.k == 1:
        return _line_meets(flat, poly, False)
    normals = nullspace(flat.directions, flat.dim)
    on_flat = tuple(Hyperplane(n, dot(n, flat.base)) for n in normals)
    return poly.with_rows(eqs=on_flat).feasible_point() is not None


def line_meets_relint(line: AffineFlat, poly: Polyhedron) -> bool:
    """Whether some point of the line satisfies every equality row of `poly`
    and every inequality row strictly.

    For a facet (carrier equalities, facet inequalities) this is crossing its
    relative interior, i.e. a positive margin max{delta : a * t + delta <= r}.
    It is the integer line kernel of `flat_crosses` with open inequality rows.
    """
    if line.dim != poly.dim:
        raise DimensionError("line/polyhedron dimension mismatch")
    if line.k != 1:
        raise InputError("relative-interior crossing is defined for lines (k = 1)")
    return _line_meets(line, poly, True)


def hyperplane_crosses(h: Hyperplane, poly: Polyhedron) -> bool:
    """Exact decision of hyperplane-meets-set (feasibility with h adjoined)."""
    return poly.with_rows(eqs=(h,)).feasible_point() is not None


def hyperplane_to_flat(h: Hyperplane) -> AffineFlat:
    d = len(h.normal)
    base = solve_linear([list(h.normal)], [h.offset])
    dirs = nullspace([h.normal], d)
    return AffineFlat(d, base, tuple(dirs))


def _line_key(p: Sequence[int], dp: int, q: Sequence[int], dq: int) -> tuple:
    """(v, D, *B), in ints, of the line through the distinct points p / dp
    and q / dq (dp, dq > 0), equal for two pairs exactly when they span one
    line: v is the primitive direction with a positive leading entry, and
    B / D, reduced, the foot of the perpendicular from the origin."""
    diff = [y * dp - x * dq for x, y in zip(p, q)]
    g = gcd(*diff)
    if g == 0:
        raise InputError("line through coincident points")
    if next(x for x in diff if x) < 0:
        g = -g
    v = tuple(x // g for x in diff)
    vv = sum(x * x for x in v)
    pv = sum(map(mul, p, v))
    foot = (dp * vv, *(x * vv - pv * y for x, y in zip(p, v)))
    g = gcd(*foot)
    return (v, *(x // g for x in foot))


def line_through(p: Sequence, q: Sequence) -> AffineFlat:
    """Canonical line through two distinct points, built from `_line_key`."""
    p, q = vec(p), vec(q)
    if len(p) != len(q):
        raise DimensionError("line through points of different widths")
    dp, dq = common_denominator(p), common_denominator(q)
    v, den, *base = _line_key(scaled_ints(p, dp), dp, scaled_ints(q, dq), dq)
    return AffineFlat(len(p), tuple(rat(x, den) for x in base), (tuple(rat(x) for x in v),))


# ---------------------------------------------------------------------------
# V-representation ingestion and vertex enumeration


def affine_hull(points: Sequence[Vec]):
    """(base, basis, hull_equalities) of the affine hull of the points: the
    basis is each difference p - base outside the span of those before it."""
    base = points[0]
    diffs = [vsub(p, base) for p in points[1:]]
    basis = [diffs[i] for i in independent_rows(diffs)]
    normals = nullspace(basis, len(base)) if len(basis) < len(base) else []
    eqs = tuple(Hyperplane(n, dot(n, base)) for n in normals)
    return base, basis, eqs


def _hull_facets(points: Sequence[Vec]) -> tuple[list, list]:
    """(facets, is_vertex) of the hull of points spanning R^r, in Python ints.

    The points are scaled once to X / D.  Each r-subset of them, in
    lexicographic order, that spans a hyperplane gives its normal as the
    integer (r-1)-minors of the differences (`nullspace_ints`); it is a
    facet, oriented outward and listed once, when every point lies on one
    side.  A point is a vertex when the normals of the facets through it
    have rank r.
    """
    den = common_denominator(x for p in points for x in p)
    xs = [scaled_ints(p, den) for p in points]
    r = len(xs[0])
    facets: dict = {}
    for subset in itertools.combinations(xs, r):
        p0 = subset[0]
        normals, _ = nullspace_ints([[a - b for a, b in zip(p, p0)] for p in subset[1:]], r)
        if len(normals) != 1:
            continue  # subset does not span a hyperplane
        (normal,) = normals
        c = sum(map(mul, normal, p0))
        values = [sum(map(mul, normal, p)) for p in xs]
        if max(values) > c:
            if min(values) < c:
                continue
            normal, c = [-v for v in normal], -c
        h = Halfspace([den * v for v in normal], c)
        facets.setdefault((h.normal, h.offset), h)
    rows = list(facets.values())
    is_vertex = [
        rank([h.normal for h in rows if sum(map(mul, h.normal, p)) == h.offset * den]) == r
        for p in xs
    ]
    return rows, is_vertex


def polytope_from_vertices(dim: int, vertices: Sequence[Sequence]) -> Polyhedron:
    """Exact H-representation of a convex hull given by its vertex list.

    A full-dimensional hull takes its facets straight from `_hull_facets`.
    A lower-dimensional one runs it on the points' coordinates in a chart of
    the affine hull (base + span of the basis) and pulls each facet back to
    ambient coordinates.  Intended for segments, planar polygons, and
    simplicial shapes with at most a handful of vertices; the vertex hint
    keeps the points that are vertices, in input order.
    """
    pts = [vec(v) for v in vertices]
    if not pts:
        raise InputError("vertex list is empty")
    if any(len(p) != dim for p in pts):
        raise DimensionError("vertex width mismatch")
    uniq: list[Vec] = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    base, basis, eqs = affine_hull(uniq)
    if not basis:
        return Polyhedron(dim, (), eqs, vertices_hint=tuple(uniq))
    if len(basis) == dim:  # full-dimensional: no chart
        ineqs, is_vertex = _hull_facets(uniq)
    else:
        matrix = [[b[i] for b in basis] for i in range(dim)]
        chart = [solve_linear(matrix, vsub(p, base)) for p in uniq]
        if None in chart:  # cannot happen: every point lies in the hull
            raise InputError("point outside the affine hull chart")
        chart_facets, is_vertex = _hull_facets(chart)
        ineqs = []
        for h in chart_facets:
            n = solve_linear(basis, h.normal)
            if n is None:  # cannot happen: basis rows are independent
                raise TheoremViolationError("facet pullback failed")
            ineqs.append(Halfspace(n, h.offset + dot(n, base)))
    hint = tuple(p for p, keep in zip(uniq, is_vertex) if keep)
    return Polyhedron(dim, tuple(ineqs), eqs, vertices_hint=hint)


def vertices_of(poly: Polyhedron) -> list[Vec]:
    """All vertices of a (possibly lower-dimensional) bounded polyhedron.

    The set's vertex hint if it has one, else the enumeration of
    `_enumerate_vertices`.  The list is worked out once per set, on first
    use, and kept in `Polyhedron._vertex_frame`; each call returns a fresh
    copy of it.  Inconsistent equality rows leave no vertex; unbounded
    polyhedra return whatever vertices exist (possibly none).  Desk scale
    only.
    """
    return list(poly._vertex_frame.vertices)


def _enumerate_vertices(poly: Polyhedron) -> tuple:
    """The vertices of `poly` from its rows, each as (X, D): ints X and the
    least D > 0 with vertex = X / D, listed once in order of discovery.

    A vertex is the unique solution of an independent subset E of the
    equality rows (chosen once) together with r = d - |E| inequality rows.
    Each r-subset of inequality rows, in lexicographic order, gives a square
    integer system [E; N_sub] x = [f; c_sub], solved fraction-free by
    `solve_square_ints` as x = X / D; the point is a vertex when every other
    row holds at it, tested as n . X <= c * D (or =) in ints.
    """
    picked = independent_rows([h.normal for h in poly.equalities])
    independent = [poly.equalities[i] for i in picked]
    dependent = [h for i, h in enumerate(poly.equalities) if i not in picked]
    rows = poly.inequalities
    found: dict = {}
    for subset in itertools.combinations(range(len(rows)), poly.dim - len(independent)):
        system = independent + [rows[i] for i in subset]
        sol = solve_square_ints([h.normal for h in system], [h.offset for h in system])
        if sol is None:
            continue
        xs, den = sol
        if all(
            sum(map(mul, h.normal, xs)) <= h.offset * den
            for i, h in enumerate(rows)
            if i not in subset
        ) and all(sum(map(mul, h.normal, xs)) == h.offset * den for h in dependent):
            g = gcd(den, *xs)
            found.setdefault((tuple(x // g for x in xs), den // g))
    return tuple(found)


def _recession_trivial(poly: Polyhedron) -> bool:
    """Whether the rows' recession cone {y : N y <= 0, E y = 0} is {0}, in
    ints; for a nonempty set, whether it is bounded.

    The cone holds no line exactly when the rows have rank d.  A cone with no
    line is {0} exactly when it has no extreme ray, and every extreme ray is
    spanned by the nullspace of d - 1 rows: so the cone is {0} exactly when
    no y spanning such a 1-dimensional nullspace has y or -y in it.  In the
    plane those y are the n-perpendiculars of the row normals n.
    """
    d = poly.dim
    ineqs = [h.normal for h in poly.inequalities]
    eqs = [h.normal for h in poly.equalities]
    if d == 0:
        return True
    if nullspace_ints(ineqs + eqs, d)[0]:
        return False
    for rows in itertools.combinations(ineqs + eqs, d - 1):
        ys, _ = nullspace_ints(rows, d)
        if len(ys) != 1 or any(sum(map(mul, n, ys[0])) for n in eqs):
            continue
        values = [sum(map(mul, n, ys[0])) for n in ineqs]
        if max(values, default=0) <= 0 or min(values, default=0) >= 0:
            return False
    return True
