"""Independent brute-force oracles for piercing and line-cover numbers,
the rational parameter interval of a line through a set, and the reference
versions of retired package routines.

The brute-force oracles run on stdlib Fractions and elementary 2x2 linear
algebra, sharing no solver code with the package: candidate points come
from the line arrangement spanned by the polygon edges, candidate lines
from a dense integer half-grid, and the minima from exhaustive subset
search over coverage signatures.

`fraction_rank`, `fraction_nullspace` and `fraction_solve_linear` are the
package's former textbook Gauss-Jordan elimination over Fractions (each
pivot row divided by its pivot), kept as the reference for the
fraction-free kernel of `hellykit.rationals`.  `chart_polytope_from_vertices`
is the former hull ingestion on that algebra: the affine hull, the points'
coordinates in a rational chart of it, the supporting hyperplanes of the
chart points, and each facet pulled back to ambient coordinates.
`chart_vertices` is the former rational vertex enumeration, kept as the
reference for the fraction-free `geometry.vertices_of`, on the same
Fraction algebra.  `pairwise_candidate_lines` is the former candidate-line
builder, one `line_through` per pool pair and one `flat_crosses` scan per
set.  `tau_greedy` is the former greedy transversal bound.
`list_scan_point_pool` is the former candidate point pool, deduplicated by
a list scan.  `poly_subset` and `poly_equal` compare polyhedra row by row
with exact LPs, and `flat_family_from_doc` reads a family document as one
uncolored list of sets.  `point_in` is set membership in any dimension,
apart from the package's integer point checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hellykit.errors import DimensionError, InputError
from hellykit.geometry import (
    AffineFlat,
    Halfspace,
    Hyperplane,
    Polyhedron,
    flat_crosses,
    line_through,
    polyhedra_intersect,
    vertices_of,
)
from hellykit.hypergraphs import TransversalResult, _candidate_point_pool, _greedy_cover
from hellykit.lp import Optimal, Unbounded, lp_solve
from hellykit.rationals import ONE, ZERO, dot, is_zero_vec, vadd, vec, vsub
from hellykit.serialize import family_from_doc


def poly_rows(poly) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Extract (a, c) inequality rows a . x <= c of a set as Fractions, each
    equality row as two opposite ones."""
    rows = []
    for h in poly.inequalities:
        a = tuple(Fraction(str(x)) for x in h.normal)
        rows.append((a, Fraction(str(h.offset))))
    for h in poly.equalities:
        a = tuple(Fraction(str(x)) for x in h.normal)
        c = Fraction(str(h.offset))
        rows.append((a, c))
        rows.append((tuple(-x for x in a), -c))
    return rows


def contains(rows, p) -> bool:
    return all(a[0] * p[0] + a[1] * p[1] <= c for a, c in rows)


def point_in(poly, p) -> bool:
    """Membership of p in a set of any dimension: plain Fraction sums over
    `poly_rows`, with no integer scaling."""
    xs = [Fraction(str(x)) for x in p]
    return all(sum(a_i * x for a_i, x in zip(a, xs)) <= c for a, c in poly_rows(poly))


def _line_meet(r1, r2):
    (a1, b1), c1 = r1
    (a2, b2), c2 = r2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return (x, y)


def arrangement_points(all_rows) -> list[tuple[Fraction, Fraction]]:
    """Pairwise intersections of the boundary lines of every row."""
    points = set()
    for r1, r2 in itertools.combinations(all_rows, 2):
        p = _line_meet(r1, r2)
        if p is not None:
            points.add(p)
    return sorted(points)


def _min_cover(signatures: list[frozenset], universe: frozenset) -> int:
    """Smallest number of signatures whose union is the universe."""
    distinct = set()
    for s in signatures:
        if s and not any(s < t for t in signatures):
            distinct.add(s)
    pool = sorted(distinct, key=sorted)
    for k in range(1, len(universe) + 1):
        for combo in itertools.combinations(pool, k):
            if frozenset().union(*combo) == universe:
                return k
    raise AssertionError("no cover exists over the candidate pool")


def brute_pierce(family) -> int:
    """Exact piercing number via arrangement-vertex candidates."""
    rows_per_set = [poly_rows(s) for s in family]
    all_rows = [r for rows in rows_per_set for r in rows]
    candidates = arrangement_points(all_rows)
    universe = frozenset(range(len(family)))
    signatures = [
        frozenset(i for i, rows in enumerate(rows_per_set) if contains(rows, p))
        for p in candidates
    ]
    return _min_cover(signatures, universe)


def vertices_2d(rows) -> list[tuple[Fraction, Fraction]]:
    """Vertex enumeration of a bounded planar polyhedron from its rows."""
    verts = set()
    for r1, r2 in itertools.combinations(rows, 2):
        p = _line_meet(r1, r2)
        if p is not None and contains(rows, p):
            verts.add(p)
    return sorted(verts)


def line_crosses(normal, offset, verts) -> bool:
    """A line meets a bounded convex set iff its vertices straddle it."""
    values = [normal[0] * x + normal[1] * y - offset for x, y in verts]
    return min(values) <= 0 <= max(values)


def _grid_normals(bound: int):
    """Coprime integer normals up to the bound, one per direction."""
    from math import gcd

    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0) or (a == 0 and b < 0):
                continue
            if gcd(a, abs(b)) == 1:
                yield (Fraction(a), Fraction(b))


def brute_line_cover(family, normal_bound: int = 4) -> int:
    """Exact line-cover number over a dense grid of line slopes.

    For a fixed normal n, the set crossed by the line n.x = c is an
    interval [min n.v, max n.v] over the vertices v, so every maximal
    crossing signature appears at an interval endpoint.  Sweeping the
    endpoints therefore covers an arbitrarily dense offset grid exactly.
    """
    verts_per_set = [vertices_2d(poly_rows(s)) for s in family]
    if any(not v for v in verts_per_set):
        raise AssertionError("oracle needs bounded full-rank polygons")
    universe = frozenset(range(len(family)))
    signatures = []
    for normal in _grid_normals(normal_bound):
        spans = []
        for verts in verts_per_set:
            values = [normal[0] * x + normal[1] * y for x, y in verts]
            spans.append((min(values), max(values)))
        for offset in {e for span in spans for e in span}:
            sig = frozenset(
                i for i, (lo, hi) in enumerate(spans) if lo <= offset <= hi
            )
            if sig:
                signatures.append(sig)
    return _min_cover(signatures, universe)


def line_parameter_interval(line, poly):
    """Parameter range {t : base + t * direction in poly} of a line as
    (lo, hi), None for an infinite end, or None when the line misses the set.

    Each stored row is pulled back to a * t <= b in Fractions (an equality
    row to two opposite inequalities) and the bounds b / a are intersected.
    """
    (direction,) = line.directions

    def pulled_back(normal, offset):
        a = sum(Fraction(x) * v for x, v in zip(normal, direction))
        return a, Fraction(offset) - sum(Fraction(x) * p for x, p in zip(normal, line.base))

    rows = [pulled_back(h.normal, h.offset) for h in poly.inequalities]
    for h in poly.equalities:
        a, b = pulled_back(h.normal, h.offset)
        rows += [(a, b), (-a, -b)]
    lo = hi = None  # None = unbounded on that side
    for a, b in rows:
        if a == 0:
            if b < 0:
                return None
        elif a > 0:
            hi = b / a if hi is None else min(hi, b / a)
        else:
            lo = b / a if lo is None else max(lo, b / a)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def _fraction_echelon(rows: list[list]) -> tuple[list[list], list[int]]:
    """Row-reduce in place over Fractions; returns (reduced rows, pivot
    column indices)."""
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
        pv = Fraction(rows[r][c])
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


def fraction_rank(vectors) -> int:
    _, pivots = _fraction_echelon([list(v) for v in vectors])
    return len(pivots)


def fraction_nullspace(vectors, dim: int) -> list[tuple]:
    """Basis of {x : v . x = 0 for every v in vectors}, vectors in R^dim."""
    rows = [list(v) for v in vectors if not is_zero_vec(v)]
    if not rows:
        return [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]
    rows, pivots = _fraction_echelon(rows)
    basis = []
    for fc in (c for c in range(dim) if c not in pivots):
        x = [ZERO] * dim
        x[fc] = ONE
        for rrow, pc in zip(rows, pivots):
            x[pc] = -rrow[fc]
        basis.append(tuple(x))
    return basis


def fraction_solve_linear(matrix, rhs):
    """One solution of matrix . x = rhs with free coordinates zero, or None
    if inconsistent."""
    if not matrix:
        return ()
    ncols = len(matrix[0])
    rows, pivots = _fraction_echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    for row in rows:
        if is_zero_vec(row[:ncols]) and row[ncols] != 0:
            return None
    x = [ZERO] * ncols
    for rrow, pc in zip(rows, pivots):
        if pc == ncols:
            return None
        x[pc] = rrow[ncols]
    return tuple(x)


def _chart_affine_hull(points):
    """(base, basis, hull_equalities) of the affine hull of the points."""
    base = points[0]
    d = len(base)
    basis: list = []
    for p in points[1:]:
        diff = vsub(p, base)
        if is_zero_vec(diff):
            continue
        if fraction_rank(basis + [diff]) > len(basis):
            basis.append(diff)
    normals = fraction_nullspace(basis, d) if len(basis) < d else []
    eqs = tuple(Hyperplane(n, dot(n, base)) for n in normals)
    return base, basis, eqs


def _chart_coords(base, basis, p):
    matrix = [[b[i] for b in basis] for i in range(len(base))]
    u = fraction_solve_linear(matrix, vsub(p, base))
    if u is None:
        raise InputError("point outside the affine hull chart")
    return u


def _full_dim_facets(points, r: int) -> list:
    """Supporting halfspaces of conv(points) spanned by point subsets in R^r."""
    facets = {}
    for subset in itertools.combinations(range(len(points)), r):
        pts = [points[i] for i in subset]
        ns = fraction_nullspace([vsub(p, pts[0]) for p in pts[1:]], r)
        if len(ns) != 1:
            continue
        normal = ns[0]
        c = dot(normal, pts[0])
        values = [dot(normal, p) for p in points]
        if all(v <= c for v in values):
            h = Halfspace(normal, c)
            facets[(h.normal, h.offset)] = h
        if all(v >= c for v in values):
            h = Halfspace(tuple(-v for v in normal), -c)
            facets[(h.normal, h.offset)] = h
    return list(facets.values())


def chart_polytope_from_vertices(dim: int, vertices) -> Polyhedron:
    """The convex hull of a vertex list as a Polyhedron, built inside a
    rational chart of its affine hull; the vertex hint keeps the points
    where the active chart facets have full rank."""
    pts = [vec(v) for v in vertices]
    if not pts:
        raise InputError("vertex list is empty")
    if any(len(p) != dim for p in pts):
        raise DimensionError("vertex width mismatch")
    uniq: list = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    base, basis, eqs = _chart_affine_hull(uniq)
    r = len(basis)
    if r == 0:
        return Polyhedron(dim, (), eqs, vertices_hint=tuple(uniq))
    chart_pts = [_chart_coords(base, basis, p) for p in uniq]
    chart_facets = _full_dim_facets(chart_pts, r)
    ineqs = []
    for h in chart_facets:
        n = fraction_solve_linear([list(b) for b in basis], h.normal)
        ineqs.append(Halfspace(n, h.offset + dot(n, base)))
    hull_vertices = []
    for p, u in zip(uniq, chart_pts):
        active = [h.normal for h in chart_facets if dot(h.normal, u) == h.offset]
        if fraction_rank(active) == r:
            hull_vertices.append(p)
    return Polyhedron(dim, tuple(ineqs), eqs, vertices_hint=tuple(hull_vertices))


def chart_vertices(poly) -> list[tuple]:
    """All vertices of a polyhedron, in `vertices_of` order, ignoring any
    vertex hint: r-subsets of inequality rows solved inside a rational chart
    (base + span of a nullspace basis) of the equality rows."""
    d = poly.dim
    if poly.equalities:
        normals = [list(h.normal) for h in poly.equalities]
        offsets = [h.offset for h in poly.equalities]
        base = fraction_solve_linear(normals, offsets)
        if base is None:
            return []
        basis = fraction_nullspace([h.normal for h in poly.equalities], d)
    else:
        base = tuple(ZERO for _ in range(d))
        basis = [tuple(ONE if j == i else ZERO for j in range(d)) for i in range(d)]
    r = len(basis)
    if r == 0:
        return [base] if poly.contains(base) else []
    rows = []
    for h in poly.inequalities:
        coeffs = tuple(dot(h.normal, b) for b in basis)
        rows.append((coeffs, h.offset - dot(h.normal, base)))
    found: list[tuple] = []
    for subset in itertools.combinations(range(len(rows)), r):
        mat = [list(rows[i][0]) for i in subset]
        if fraction_rank(mat) != r:
            continue
        u = fraction_solve_linear(mat, [rows[i][1] for i in subset])
        if u is None:
            continue
        if all(dot(c, u) <= b for c, b in rows):
            x = base
            for t, b in zip(u, basis):
                if t:
                    x = vadd(x, tuple(t * v for v in b))
            if x not in found:
                found.append(x)
    return found


def tau_greedy(h) -> TransversalResult:
    """Greedy upper bound on tau, labeled non-optimal: repeatedly take the
    vertex in the most uncovered edges, the smallest on ties."""
    witness = tuple(sorted(_greedy_cover(list(h.edges))))
    assert all(e & set(witness) for e in h.edges)
    return TransversalResult(len(witness), witness, exact=False)


def pairwise_candidate_lines(fam) -> list:
    """Candidate lines in `candidate_lines` order: the canonical line of
    every pool pair, deduplicated by value in order of first appearance,
    then an axis line through each set that no earlier line crosses."""
    lines: dict = {}
    for p, q in itertools.combinations(_candidate_point_pool(fam), 2):
        line = line_through(p, q)
        lines.setdefault((line.base, line.directions), line)
    out = list(lines.values())
    d = fam[0].dim
    for s in fam:
        if any(flat_crosses(line, s) for line in out):
            continue
        base = s.feasible_point()
        if base is None:
            raise AssertionError("an empty set has no fallback line")
        out.append(AffineFlat.line(base, tuple(ONE if i == 0 else ZERO for i in range(d))))
    return out


def list_scan_point_pool(fam) -> list[tuple]:
    """`_candidate_point_pool` as a list scan: each new point is compared
    with every earlier one before it is appended."""
    pool: list[tuple] = []

    def add(p):
        if p is not None and p not in pool:
            pool.append(p)

    vert_lists = [vertices_of(s) for s in fam]
    for vl in vert_lists:
        for v in vl:
            add(v)
    for i, s in enumerate(fam):
        if vert_lists[i]:
            continue
        add(s.feasible_point())
        for j, other in enumerate(fam):
            if j == i:
                continue
            cert = polyhedra_intersect([s, other])
            if cert.feasible:
                add(cert.point.coords)
    return pool


def poly_subset(p, q) -> bool:
    """Is P a subset of Q?  Decided row by row with exact LPs."""
    if p.dim != q.dim:
        raise DimensionError("comparing polyhedra of different dimensions")
    if p.is_empty():
        return True
    bounds = [(h.normal, h.offset) for h in q.inequalities]
    for h in q.equalities:
        bounds += [(h.normal, h.offset), (tuple(-v for v in h.normal), -h.offset)]
    for normal, offset in bounds:
        out = lp_solve(p.feasibility_lp(normal))
        if isinstance(out, Unbounded) or (isinstance(out, Optimal) and out.value > offset):
            return False
    return True


def poly_equal(p, q) -> bool:
    return poly_subset(p, q) and poly_subset(q, p)


def flat_family_from_doc(doc: dict) -> tuple[list, list[str]]:
    """All sets of a document in class order (for uncolored questions)."""
    fam, labels = family_from_doc(doc)
    return list(fam.all_sets()), labels
