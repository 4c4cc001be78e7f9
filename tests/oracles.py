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
set; `nullspace_candidate_planes` is the former candidate-plane builder,
one `fraction_nullspace` per pool triple and `hyperplane_crosses` for its
fallback scan.  `tuple_scan_hyperplanes` is the reference for the candidate
hyperplanes of both: the normalized `Hyperplane` through every point
d-tuple, on the same Fraction algebra.  `loop_sign_masks` is the former
per-point sign scan of a candidate hyperplane, kept as the reference for
the packed lanes of `hypergraphs._sign_masks`.  `frozenset_reduce_for_tau` is the former tau reduction,
vertex profiles kept as frozensets.  `tau_greedy` is the former greedy
transversal bound.  `lp_bounded` decides boundedness by LPs, max +-x_i over
the set.
`fraction_tau_star` and `fraction_nu_star` are the former tau* and nu*
programs, stated on `Fraction` 0/1 rows and objectives: the covering program
is the independent value oracle for tau*, and `fraction_nu_star` the
reference for the int-row packing program of `hellykit.hypergraphs`.
`fraction_multiplier_tau_star` reads tau* as that Fraction-row program's row
multipliers, the reference for the package's readout, and
`is_fractional_cover` checks a tau* certificate.
`list_scan_point_pool` is the former candidate point pool, deduplicated by
a list scan.  `count_bound_nu_b` is the former b-matching search, pruned by
the number of edges left only.  `primal_check_ch` is the former rainbow
sweep, every selection decided by the primal `polyhedra_intersect`.
`repairing_separating_halfspaces` is the former separation of an empty
family, which pre-checked each set by LP and repaired a set whose Farkas
group has a zero normal from the set's own rows; on the inclusion-minimal
witnesses it is the reference for `colorful.separating_halfspaces`.
`flat_rows` pulls a set's rows back to a flat's parameters, the former
k >= 2 route of `geometry.flat_crosses`.
`poly_subset` and `poly_equal` compare polyhedra row by row with exact LPs, and
`flat_family_from_doc` reads a family document as one uncolored list of
sets.  `point_in` is set membership in any dimension,
apart from the package's integer point checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hellykit.colorful import ChReport, _halfspace_contains_set
from hellykit.errors import DimensionError, InputError, PreconditionError, TheoremViolationError
from hellykit.geometry import (
    AffineFlat,
    FarkasEntry,
    Halfspace,
    Hyperplane,
    Polyhedron,
    flat_crosses,
    hyperplane_crosses,
    line_through,
    polyhedra_intersect,
    vertices_of,
)
from hellykit.hypergraphs import (
    FractionalResult,
    TransversalResult,
    _candidate_point_pool,
    _greedy_cover,
    nu_star,
)
from hellykit.lp import (
    LinearProgram,
    Optimal,
    Unbounded,
    aggregate_rows,
    lp_solve,
    solve_with_multipliers,
)
from hellykit.rationals import ONE, ZERO, dot, floor_rat, is_zero_vec, rat, vadd, vec, vsub
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


def frozenset_reduce_for_tau(edges):
    """`hypergraphs._reduce_for_tau` with each vertex's profile kept as a
    frozenset of edge positions and dominance tested by `<`."""
    forced: set[int] = set()
    current = list(dict.fromkeys(edges))
    changed = True
    while changed:
        changed = False
        current = list(dict.fromkeys(current))
        minimal = []
        for e in current:
            if any(o < e for o in current):
                changed = True
                continue
            minimal.append(e)
        current = minimal
        singletons = [e for e in current if len(e) == 1]
        if singletons:
            changed = True
            for e in singletons:
                forced.update(e)
            current = [e for e in current if not (e & forced)]
            continue
        profiles: dict[int, set[int]] = {}
        for idx, e in enumerate(current):
            for v in e:
                profiles.setdefault(v, set()).add(idx)
        rep: dict[frozenset, int] = {}
        dropped = set()
        for v in sorted(profiles):
            sig = frozenset(profiles[v])
            if sig in rep:
                dropped.add(v)
            else:
                rep[sig] = v
        sigs = list(rep)
        for a in sigs:
            for b in sigs:
                if a is not b and a < b:
                    dropped.add(rep[a])
                    break
        if dropped:
            changed = True
            current = [frozenset(e - dropped) for e in current]
    return forced, current


def tau_greedy(h) -> TransversalResult:
    """Greedy upper bound on tau, labeled non-optimal: repeatedly take the
    vertex in the most uncovered edges, the smallest on ties."""
    witness = tuple(sorted(_greedy_cover(list(h.edges))))
    assert all(e & set(witness) for e in h.edges)
    return TransversalResult(len(witness), witness, exact=False)


def fraction_tau_star(h) -> FractionalResult:
    n = h.vertex_count
    rows = tuple(
        (tuple(-ONE if v in e else ZERO for v in range(n)), -ONE) for e in h.edges
    )
    lp = LinearProgram(
        n, leq=rows, objective=tuple(ONE for _ in range(n)), maximize=False, nonneg=True
    )
    out = lp_solve(lp)
    assert isinstance(out, Optimal)
    return FractionalResult(out.value, out.point)


def _fraction_packing(h) -> LinearProgram:
    m = len(h.edges)
    rows = tuple(
        (tuple(ONE if v in e else ZERO for e in h.edges), ONE)
        for v in range(h.vertex_count)
    )
    return LinearProgram(
        m, leq=rows, objective=tuple(ONE for _ in range(m)), maximize=True, nonneg=True
    )


def fraction_nu_star(h) -> FractionalResult:
    out = lp_solve(_fraction_packing(h))
    assert isinstance(out, Optimal)
    return FractionalResult(out.value, out.point)


def fraction_multiplier_tau_star(h) -> FractionalResult:
    """tau* as the row multipliers of the Fraction-row packing program."""
    out, x = solve_with_multipliers(_fraction_packing(h))
    assert isinstance(out, Optimal)
    return FractionalResult(out.value, x)


def is_fractional_cover(h, weights) -> bool:
    """Whether `weights` is a fractional transversal of `h`: one weight per
    vertex, each >= 0, and a load of at least 1 on every edge."""
    return (
        len(weights) == h.vertex_count
        and all(w >= 0 for w in weights)
        and all(sum(weights[v] for v in e) >= 1 for e in h.edges)
    )


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


def nullspace_candidate_planes(fam) -> list:
    """Candidate planes in `candidate_planes` order: the plane of every
    affinely independent pool triple, its normal a `fraction_nullspace`
    vector, deduplicated by value in order of first appearance, then a plane
    x_0 = const through each set that no earlier plane crosses, by
    `hyperplane_crosses`."""
    planes: dict = {}
    for a, b, c in itertools.combinations(_candidate_point_pool(fam), 3):
        ns = fraction_nullspace([vsub(b, a), vsub(c, a)], 3)
        if len(ns) != 1:
            continue
        h = Hyperplane(ns[0], dot(ns[0], a))
        planes.setdefault((h.normal, h.offset), h)
    out = list(planes.values())
    for s in fam:
        if any(hyperplane_crosses(h, s) for h in out):
            continue
        base = s.feasible_point()
        if base is None:
            raise AssertionError("an empty set has no fallback plane")
        out.append(Hyperplane((ONE, ZERO, ZERO), base[0]))
    return out


def tuple_scan_hyperplanes(points, d: int) -> list[tuple]:
    """(tuple, Hyperplane) for each distinct hyperplane of R^d through d of
    the points: every index d-tuple in combination order whose differences
    span a `fraction_nullspace` of dimension one gives its normalized
    `Hyperplane`, and the first tuple giving each hyperplane is kept."""
    planes: dict = {}
    for t in itertools.combinations(range(len(points)), d):
        a = points[t[0]]
        ns = fraction_nullspace([vsub(points[k], a) for k in t[1:]], d)
        if len(ns) != 1:
            continue
        h = Hyperplane(ns[0], dot(ns[0], a))
        planes.setdefault((h.normal, h.offset), (t, h))
    return list(planes.values())


def loop_sign_masks(row, homogeneous) -> tuple:
    """(nonneg, nonpos): bitmasks over pool points, given in homogeneous
    integer form (X_k, D_k) with D_k > 0, of the closed sides of the
    hyperplane n . x = c with row = (n, -c), in the plane or in R^3.  Bit k
    is set in nonneg when n . X_k - c * D_k >= 0, and in nonpos when it is
    <= 0; one Python step per pool point."""
    if len(row) == 3:
        a, b, c = row
        values = [a * x + b * y + c * w for x, y, w in homogeneous]
    else:
        a, b, c, e = row
        values = [a * x + b * y + c * z + e * w for x, y, z, w in homogeneous]
    nonneg = nonpos = 0
    bit = 1
    for value in values:
        if value >= 0:
            nonneg |= bit
        if value <= 0:
            nonpos |= bit
        bit <<= 1
    return nonneg, nonpos


def lp_bounded(poly) -> bool:
    """Whether a nonempty set is bounded: max x_i and max -x_i over it are
    finite for every coordinate i, each decided by an exact LP."""
    d = poly.dim
    for i in range(d):
        for sign in (ONE, -ONE):
            objective = tuple(sign if j == i else ZERO for j in range(d))
            if isinstance(lp_solve(poly.feasibility_lp(objective)), Unbounded):
                return False
    return True


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


def count_bound_nu_b(h, b: int) -> int:
    """Maximum b-matching by depth-first search over the edges in order,
    pruned when the edges left cannot beat the best count or the best count
    reaches floor(b * nu*)."""
    ub = floor_rat(rat(b) * nu_star(h).value)
    edges = list(h.edges)
    m = len(edges)
    caps = [b] * h.vertex_count
    best = 0
    for e in edges:
        if all(caps[v] > 0 for v in e):
            for v in e:
                caps[v] -= 1
            best += 1
    caps = [b] * h.vertex_count

    def dfs(i: int, count: int):
        nonlocal best
        if count + (m - i) <= best or best == ub:
            return
        if i == m:
            best = max(best, count)
            return
        e = edges[i]
        if all(caps[v] > 0 for v in e):
            for v in e:
                caps[v] -= 1
            dfs(i + 1, count + 1)
            for v in e:
                caps[v] += 1
        dfs(i + 1, count)

    dfs(0, 0)
    del dfs
    return best


def primal_check_ch(fam) -> ChReport:
    """The rainbow sweep with every selection decided by the primal tableau,
    in `ColoredFamily.picks` order; the reference for `colorful.check_ch`."""
    points = []
    for pick in fam.picks():
        cert = polyhedra_intersect([fam.classes[k][i] for k, i in enumerate(pick)])
        if not cert.feasible:
            rainbow = tuple(enumerate(pick))
            return ChReport(False, rainbow, cert, len(points) + 1, tuple(points))
        points.append(cert.point)
    return ChReport(True, None, None, len(points), tuple(points))


def _own_row_halfspace(s: Polyhedron) -> Halfspace:
    if s.inequalities:
        return s.inequalities[0]
    h = s.equalities[0]
    return Halfspace(h.normal, h.offset)


def _repair_halfspace(s: Polyhedron, others) -> Halfspace:
    """Halfspace containing s, disjoint from the (provably empty) rest.

    A separation attempt against the other aggregates runs first; when its
    certificate puts no weight on the rows of s (which happens exactly when
    the other aggregates are contradictory on their own), any row of s works.
    """
    sets = [s, Polyhedron(s.dim, tuple(others))]
    cert = polyhedra_intersect(sets)
    if not cert.feasible:
        normal, offset = aggregate_rows(
            s.dim, ((e.multiplier, e.row(sets)) for e in cert.farkas if e.set_index == 0)
        )
        if not is_zero_vec(normal):
            return Halfspace(normal, offset)
    return _own_row_halfspace(s)


def repairing_separating_halfspaces(sets) -> tuple:
    """Halfspaces H_i containing the respective nonempty sets of any empty
    family, with empty intersection: the aggregated Farkas group of each
    set, or, where that normal vanishes, a repaired halfspace."""
    sets = list(sets)
    if not sets:
        raise InputError("need at least one set")
    d = sets[0].dim
    for i, s in enumerate(sets):
        if not (s.inequalities or s.equalities):
            raise InputError(f"set {i} is the whole space; no halfspace can contain it")
        if s.is_empty():
            raise InputError(f"set {i} is empty; separation needs nonempty sets")
    cert = polyhedra_intersect(sets)
    if cert.feasible:
        raise PreconditionError("the sets share a point", witness=cert.point)
    entries = list(cert.farkas)

    def aggregate(weighted):
        return aggregate_rows(d, ((e.multiplier, e.row(sets)) for e in weighted))

    if aggregate(entries)[1] > 0:
        # pure-equality contradictions may aggregate to 0 = c with c > 0;
        # equality multipliers are sign-free, so negate the certificate
        if any(e.kind != "eq" for e in entries):
            raise TheoremViolationError("positive constant with inequality rows")
        entries = [
            FarkasEntry(e.set_index, e.kind, e.row_index, -e.multiplier) for e in entries
        ]
    halfspaces: list = [None] * len(sets)
    repaired = []
    for i in range(len(sets)):
        normal, offset = aggregate(e for e in entries if e.set_index == i)
        if is_zero_vec(normal):
            if offset < 0:
                raise TheoremViolationError(
                    f"nonempty set {i} received a self-contradictory aggregate"
                )
            repaired.append(i)
        else:
            halfspaces[i] = Halfspace(normal, offset)
    for i in repaired:
        others = [h for h in halfspaces if h is not None]
        halfspaces[i] = _repair_halfspace(sets[i], others)
    for i, (h, s) in enumerate(zip(halfspaces, sets)):
        if not _halfspace_contains_set(h, s):
            raise TheoremViolationError(f"halfspace {i} fails to contain its set")
    if not Polyhedron(d, tuple(halfspaces)).is_empty():
        raise TheoremViolationError("separating halfspaces still intersect")
    return tuple(halfspaces)


def flat_rows(flat, poly):
    """Constraint rows of `poly` pulled back to the flat's parameters."""
    leq, eq = [], []
    for h in poly.inequalities:
        coeffs = tuple(dot(h.normal, dvec) for dvec in flat.directions)
        leq.append((coeffs, h.offset - dot(h.normal, flat.base)))
    for h in poly.equalities:
        coeffs = tuple(dot(h.normal, dvec) for dvec in flat.directions)
        eq.append((coeffs, h.offset - dot(h.normal, flat.base)))
    return leq, eq


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
