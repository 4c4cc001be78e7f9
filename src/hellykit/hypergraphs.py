"""Transversal and matching numbers of desk-scale hypergraphs.

Exact quantities:

    tau     minimum vertex transversal (hitting set), branch and bound;
    nu*     fractional matching, exact rational LP;
    tau*    fractional transversal, the dual solution of the nu* program;
    nu_b    maximum b-matching (edge subset using no vertex more than b times).

Every duality report asserts the sandwich nu_b / b <= nu* = tau* <= tau.
tau* and nu* come from one solve of the packing program max 1.y s.t.
A'y <= 1, y >= 0 on Python-int rows, which enter the LP tableau as they are:
nu* is its optimum, and the tau* weights its row multipliers, certified by
weak duality (`_fractional_pair`).  A duality report solves it once and
bounds its nu_b search with its value; `tau` solves it once more, on its core.

The geometric builders turn a family of convex sets into hypergraphs whose
transversals are piercing numbers (vertices = points witnessing maximal
intersecting subfamilies) or flat-cover numbers (vertices = candidate lines
or planes drawn from a finite candidate pool).

Line covers in any R^d and plane covers in R^3 skip the generic builder:
one routine, `_cover_candidates`, builds the candidates and edges of both.
Vertex signs decide bounded sets against hyperplane candidates (lines in
the plane, planes in R^3), and rows or the LP decide everything else.  Each
pool point is scaled once to integers X / D, and `_hyperplanes_through`
finds the hyperplane candidates: the first pool pair or triple spanning each
distinct line or plane, its integer row, and two bitmasks over the pool,
the points on its closed nonnegative and nonpositive sides, whose meet
deduplicates the candidates.  The masks take a few big-int operations per
candidate, not one step per pool point: the pool's homogeneous coordinates
are packed once into one int per coordinate, one lane of w bits per point,
so a row's dot product with every point is one sum of d + 1 products, and
the top bit of each biased lane is that point's sign.  A row's value at a
pool point is a (d + 1) x (d + 1) determinant of pool entries, at most
(d + 1)! * m^(d + 1) in absolute value for m the largest |entry|, which
fixes w.  A bounded set is the hull of its vertices,
all of them pool points, so it is crossed exactly when its vertex mask
meets both (`_vertex_masks`, `_crossings`).  A set with no vertex or an
unbounded one is decided on its rows: by the slacks of the two pool points
against every row, in Python ints (`_slack_crossings`), for a line, and by
`hyperplane_crosses` for a plane.  Lines in R^3 are not hyperplanes: they
are deduplicated by one integer canonical-line key, `geometry._line_key`,
and take the slack path for every set.  A pool line stays its pool pair
and a pool plane its integer row; only a flat that is read is built, by
`_as_flat`.  `build_cover_hypergraph` tests every (candidate, set) pair
with a given predicate; it is the oracle of both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from operator import mul
from typing import Optional, Sequence

from .budgets import DEFAULT_BUDGET, SearchBudget
from .errors import InputError, ScaleError, TheoremViolationError
from .geometry import (
    AffineFlat,
    Hyperplane,
    Point,
    Polyhedron,
    _joint_dim,
    _line_key,
    flat_crosses,
    hyperplane_crosses,
    line_through,
    polyhedra_intersect,
    vertices_of,
)
from .lp import LinearProgram, Optimal, solve_with_multipliers
from .rationals import (
    ONE,
    ZERO,
    ceil_rat,
    common_denominator,
    floor_rat,
    rat,
    scaled_ints,
)


@dataclass(frozen=True)
class Hypergraph:
    vertex_count: int
    edges: tuple  # tuple of frozensets; repeated edges are meaningful for nu_b
    payload: Optional[tuple] = None  # per-vertex geometric witness, audit only

    def __post_init__(self):
        edges = tuple(frozenset(e) for e in self.edges)
        for e in edges:
            if not e:
                raise InputError("hypergraph edge is empty")
            if min(e) < 0 or max(e) >= self.vertex_count:
                raise InputError("edge vertex out of range")
        object.__setattr__(self, "edges", edges)
        if self.payload is not None and len(self.payload) != self.vertex_count:
            raise InputError("payload length must equal vertex_count")


@dataclass(frozen=True)
class TransversalResult:
    size: int
    witness: tuple  # vertex indices
    exact: bool = True


@dataclass(frozen=True)
class FractionalResult:
    value: object  # rational
    weights: tuple


@dataclass(frozen=True)
class DualityReport:
    b: int
    tau_result: Optional[TransversalResult]
    tau_star_result: FractionalResult
    nu_star_result: FractionalResult
    nu_b_value: int
    sandwich_ok: bool
    scale_note: str = ""


# ---------------------------------------------------------------------------
# exact tau


def _reduce_for_tau(edges: Sequence[frozenset]):
    """Correctness-preserving shrinking of a hitting-set instance.

    Returns (forced_vertices, reduced_edges).  Steps: duplicate and superset
    edges dropped, singleton edges forced, dominated vertices removed (u goes
    if some v lies in every edge containing u).  A vertex's profile, the
    edges containing it, is an int bitmask over edge positions, so profile a
    lies strictly inside profile b when `a & b == a and a != b`.
    """
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
        profiles: dict[int, int] = {}
        for idx, e in enumerate(current):
            bit = 1 << idx
            for v in e:
                profiles[v] = profiles.get(v, 0) | bit
        # vertices with identical incidence are interchangeable: keep the
        # smallest id, then test dominance across distinct profiles only
        rep: dict[int, int] = {}
        dropped = set()
        for v in sorted(profiles):
            sig = profiles[v]
            if sig in rep:
                dropped.add(v)
            else:
                rep[sig] = v
        for a in rep:
            for b in rep:
                if a & b == a and a != b:
                    dropped.add(rep[a])
                    break
        if dropped:
            changed = True
            current = [frozenset(e - dropped) for e in current]
    return forced, current


def _greedy_cover(edges: list[frozenset]) -> set[int]:
    uncovered = list(edges)
    chosen: set[int] = set()
    while uncovered:
        counts: dict[int, int] = {}
        for e in uncovered:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda u: (-counts[u], u))
        chosen.add(v)
        uncovered = [e for e in uncovered if v not in e]
    return chosen


def tau(h: Hypergraph, budget: SearchBudget = DEFAULT_BUDGET) -> TransversalResult:
    """Exact minimum transversal via branch and bound.

    The edge budget is enforced on the input hypergraph, the vertex budget on
    the reduced core (see _reduce_for_tau); ceil(tau*) of the core, from one
    solve of its packing program, serves as the root pruning bound.
    """
    if len(h.edges) > budget.max_tau_edges:
        raise ScaleError("max_tau_edges", budget.max_tau_edges, len(h.edges))
    if not h.edges:
        return TransversalResult(0, ())
    forced, core = _reduce_for_tau(h.edges)
    if not core:
        witness = tuple(sorted(forced))
        _assert_covers(h, witness)
        return TransversalResult(len(witness), witness)
    verts = sorted({v for e in core for v in e})
    if len(verts) > budget.max_tau_vertices:
        raise ScaleError(
            "max_tau_vertices",
            budget.max_tau_vertices,
            len(verts),
            detail="after reduction",
        )
    core_h = _relabel(core, verts)
    root_lb = ceil_rat(_fractional_pair(core_h)[0].value)
    vmask = [0] * len(verts)
    for ei, e in enumerate(core_h.edges):
        for v in e:
            vmask[v] |= 1 << ei
    edge_vsets = [frozenset(e) for e in core_h.edges]
    all_edges_mask = (1 << len(core_h.edges)) - 1
    greedy = _greedy_cover(list(edge_vsets))
    best_size = len(greedy)
    best_set = set(greedy)
    degree = [bin(m).count("1") for m in vmask]

    def matching_lb(uncovered_mask: int) -> int:
        used: set[int] = set()
        count = 0
        for ei, e in enumerate(edge_vsets):
            if uncovered_mask >> ei & 1 and not (e & used):
                used |= e
                count += 1
        return count

    def dfs(covered: int, chosen: list[int]):
        nonlocal best_size, best_set
        if covered == all_edges_mask:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = set(chosen)
            return
        if best_size == root_lb:
            return
        remaining = all_edges_mask & ~covered
        if len(chosen) + matching_lb(remaining) >= best_size:
            return
        # branch on the uncovered edge with fewest options
        pick = None
        for ei, e in enumerate(edge_vsets):
            if remaining >> ei & 1 and (pick is None or len(e) < len(pick)):
                pick = e
                if len(pick) <= 2:
                    break
        for v in sorted(pick, key=lambda u: (-degree[u], u)):
            chosen.append(v)
            dfs(covered | vmask[v], chosen)
            chosen.pop()
            if best_size == root_lb:
                return

    dfs(0, [])
    del dfs  # a recursive closure is a reference cycle: free its captures now
    witness = tuple(sorted(forced | {verts[v] for v in best_set}))
    _assert_covers(h, witness)
    if len(witness) < len(forced) + root_lb:
        raise TheoremViolationError("tau fell below its LP lower bound")
    return TransversalResult(len(witness), witness)


def _relabel(edges: list[frozenset], verts: list[int]) -> Hypergraph:
    index = {v: i for i, v in enumerate(verts)}
    return Hypergraph(len(verts), tuple(frozenset(index[v] for v in e) for e in edges))


def _assert_covers(h: Hypergraph, witness: Sequence[int]) -> None:
    w = set(witness)
    for e in h.edges:
        if not (e & w):
            raise TheoremViolationError("claimed transversal misses an edge")


# ---------------------------------------------------------------------------
# fractional quantities


def _fractional_pair(h: Hypergraph) -> tuple[FractionalResult, FractionalResult]:
    """(tau*, nu*) of `h` from one solve of the packing program on its vertex
    rows: nu* is its optimum y, and tau* the row multipliers x read from the
    same tableau and certified by weak duality (`lp.solve_with_multipliers`)."""
    if not h.edges:
        raise InputError("tau* and nu* need at least one edge")
    m = len(h.edges)
    rows = tuple((tuple(int(v in e) for e in h.edges), 1) for v in range(h.vertex_count))
    out, x = solve_with_multipliers(LinearProgram(m, leq=rows, objective=(1,) * m, nonneg=True))
    if not isinstance(out, Optimal):
        raise TheoremViolationError("nu* LP must have an optimum")
    return FractionalResult(out.value, x), FractionalResult(out.value, out.point)


def tau_star(h: Hypergraph) -> FractionalResult:
    """Minimum fractional transversal, read from the optimal nu* tableau."""
    return _fractional_pair(h)[0]


def nu_star(h: Hypergraph) -> FractionalResult:
    """Maximum fractional matching: the packing program's optimum."""
    return _fractional_pair(h)[1]


def nu_b(h: Hypergraph, b: int) -> int:
    """Maximum number of edges (with multiplicity) loading no vertex more than b."""
    if b < 1:
        raise InputError("b must be a positive integer")
    if not h.edges:
        return 0
    return _nu_b(h, b, nu_star(h).value)


def _nu_b(h: Hypergraph, b: int, nu_star_value) -> int:
    """`nu_b` of a hypergraph with edges whose nu* is `nu_star_value`; the
    search stops at the duality bound floor(b * nu*).

    A branch is pruned when even the best completion cannot beat the best
    count found.  Two bounds cap how many more edges fit from position i on:
    the m - i edges left, and the spare capacity (the sum of the vertices'
    remaining capacities) over `min_size[i]`, the size of the smallest edge
    left, since each of them uses at least that many units."""
    ub = floor_rat(rat(b) * nu_star_value)
    edges = list(h.edges)
    m = len(edges)
    min_size = [len(e) for e in edges]
    for i in range(m - 2, -1, -1):
        min_size[i] = min(min_size[i], min_size[i + 1])
    caps = [b] * h.vertex_count
    best_found = 0  # greedy start
    for e in edges:
        if all(caps[v] > 0 for v in e):
            for v in e:
                caps[v] -= 1
            best_found += 1
    caps = [b] * h.vertex_count

    def dfs(i: int, count: int, spare: int):
        nonlocal best_found
        if count + (m - i) <= best_found or best_found == ub:
            return
        if i == m:
            if count > best_found:
                best_found = count
            return
        if count + spare // min_size[i] <= best_found:
            return
        e = edges[i]
        if all(caps[v] > 0 for v in e):
            for v in e:
                caps[v] -= 1
            dfs(i + 1, count + 1, spare - len(e))
            for v in e:
                caps[v] += 1
        dfs(i + 1, count, spare)

    dfs(0, 0, b * h.vertex_count)
    del dfs  # as in tau
    if best_found > ub:
        raise TheoremViolationError("nu_b exceeded its duality upper bound")
    return best_found


def duality_report(
    h: Hypergraph, b: int = 1, budget: SearchBudget = DEFAULT_BUDGET
) -> DualityReport:
    """tau, tau*, nu*, nu_b with the exact duality sandwich asserted; tau is
    searched under `budget`, and a tau beyond it is reported in `scale_note`.
    tau* and nu* come from one packing program (`_fractional_pair`), whose
    weak-duality certificate makes tau* = nu*."""
    if b < 1:
        raise InputError("b must be a positive integer")
    ts, ns = _fractional_pair(h)
    note = ""
    try:
        t = tau(h, budget)
    except ScaleError as exc:
        t = None
        note = str(exc)
    nb = _nu_b(h, b, ns.value)
    ok = rat(nb, b) <= ns.value and (t is None or ts.value <= rat(t.size))
    if not ok:
        raise TheoremViolationError("duality sandwich nu_b/b <= nu* = tau* <= tau failed")
    return DualityReport(b, t, ts, ns, nb, ok, note)


# ---------------------------------------------------------------------------
# geometric builders


def maximal_intersecting_subfamilies(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
):
    """All maximal index sets whose members share a point, with witnesses.

    Bron-Kerbosch style recursion over the hereditary system of intersecting
    subfamilies; feasibility of each extension is an exact LP.
    """
    if len(fam) > budget.max_subfamily_sets:
        raise ScaleError("max_subfamily_sets", budget.max_subfamily_sets, len(fam))
    cache: dict = {}  # subfamily -> its polyhedra_intersect answer, on sorted indices

    def feas(s: frozenset) -> bool:
        if s not in cache:
            cache[s] = polyhedra_intersect([fam[i] for i in sorted(s)])
        return cache[s].feasible

    singles = [i for i in range(len(fam)) if feas(frozenset([i]))]
    if not singles:
        return [], []
    results: list[frozenset] = []

    def extend(r: frozenset, p: list[int], x: list[int]):
        if not p and not x:
            results.append(r)
            return
        for idx, v in enumerate(list(p)):
            r2 = r | {v}
            p2 = [w for w in p[idx + 1 :] if feas(r2 | {w})]
            x2 = [w for w in x if feas(r2 | {w})]
            extend(r2, p2, x2)
            x = x + [v]

    extend(frozenset(), singles, [])
    del extend  # as in tau
    results.sort(key=lambda s: tuple(sorted(s)))
    witnesses = [cache[s].point for s in results]
    return results, witnesses


def build_point_hypergraph(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
) -> Hypergraph:
    """Vertices: one witness point per maximal intersecting subfamily.

    Edge e_A collects the vertices whose subfamily contains A, so transversals
    of the hypergraph are exactly piercing sets of the family.
    """
    if not fam:
        raise InputError("empty family")
    subfamilies, witnesses = maximal_intersecting_subfamilies(fam, budget)
    edges = tuple(
        frozenset(v for v, s in enumerate(subfamilies) if i in s) for i in range(len(fam))
    )
    empties = [i for i, e in enumerate(edges) if not e]
    if empties:
        raise InputError(f"sets {empties} are empty; they cannot be pierced")
    return Hypergraph(len(subfamilies), edges, payload=tuple(witnesses))


def piercing_number(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
) -> TransversalResult:
    return tau(build_point_hypergraph(fam, budget), budget)


def transversal_points(h: Hypergraph, result: TransversalResult) -> list[Point]:
    if h.payload is None:
        raise InputError("hypergraph carries no point payload")
    return [h.payload[v] for v in result.witness]


# -- candidate pools for flat covers ----------------------------------------


def _candidate_point_pool(fam: Sequence[Polyhedron]) -> list[tuple]:
    """Vertices of every set; vertex-free sets contribute their own feasible
    point and feasible points of their pairwise intersections (the enrichment
    that recovers diagonal transversals of hyperplane families).  Points are
    keyed by value in a dict, which keeps the order of first appearance."""
    pool: dict[tuple, None] = {}

    def add(p):
        if p is not None:
            pool.setdefault(p)

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
    return list(pool)


def _scaled_pool(pool: Sequence[tuple]) -> list[tuple]:
    """Each pool point as (X, D), ints X and the least D > 0 with
    point = X / D: the form a set's vertex frame keeps for its vertices, so
    `_vertex_masks` finds each vertex in the pool by it.  The forms are
    distinct, as the points are, so they index the pool too."""
    dens = [common_denominator(p) for p in pool]
    return [(tuple(scaled_ints(p, den)), den) for p, den in zip(pool, dens)]


def _bits(mask: int):
    """The positions of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the top byte of a lane, 0-255, to the digit "1" when its top bit is set
_TOP_BIT = b"0" * 128 + b"1" * 128


def _sign_masks(row: Sequence[int], lanes: tuple) -> tuple:
    """(nonneg, nonpos): bitmasks over the pool points packed in `lanes`
    (see `_hyperplanes_through`) of the closed sides of the hyperplane
    n . x = c with row = (n, -c) scaled by any positive factor.  Bit k is set
    in nonneg when n . X_k - c * D_k >= 0, and in nonpos when it is <= 0;
    their meet is the points on the hyperplane.

    v = sum_j row_j * C_j holds value_k in lane k, so lane k of bias + v
    is value_k + 2^(w-1), in [0, 2^w), whose top bit is set exactly when
    value_k >= 0; bias - v does the same for value_k <= 0.  The top byte of
    each lane becomes one binary digit, lane n - 1 first.  The width w
    keeps every lane in range, so none carries into the next; `to_bytes`
    raises on a sum that is negative or wider than the n lanes."""
    columns, bias, step, size = lanes
    v = sum(map(mul, row, columns))
    nonneg = int((bias + v).to_bytes(size, "big")[::step].translate(_TOP_BIT), 2)
    nonpos = int((bias - v).to_bytes(size, "big")[::step].translate(_TOP_BIT), 2)
    return nonneg, nonpos


def _vertex_masks(fam: Sequence[Polyhedron], scaled: Sequence) -> list:
    """For each set, the bitmask of the pool indices of its vertices when it
    is bounded, and None for a set with no vertex or an unbounded one; a
    vertex is found in the pool by its (X, D) form (`_scaled_pool`).

    A bounded set is the hull of its vertices, so it meets a hyperplane
    exactly when its vertices do not all lie strictly on one side: with
    sign masks (nonneg, nonpos), when `mask & nonneg and mask & nonpos`.
    The rows decide the sets with no mask."""
    index = {form: i for i, form in enumerate(scaled)}
    frames = [s._vertex_frame for s in fam]
    return [sum(1 << index[form] for form in f.scaled) if f.bounded else None for f in frames]


def _crossings(vmask: int, masks: Sequence) -> list[int]:
    """Indices of the candidates, given by their sign masks, that cross the
    bounded set with vertex mask `vmask`."""
    return [k for k, (nonneg, nonpos) in enumerate(masks) if vmask & nonneg and vmask & nonpos]


def _slacks_meet(sp: tuple, sq: tuple, dp: int, dq: int) -> bool:
    """Whether the line through pool points p = X_p / dp and q = X_q / dq
    meets a set, from their integer slacks c * D - n . X against its rows:
    (inequality slacks, equality slacks) for each point.

    On the line p + t (q - p) a row's slack is s(p) + t (s(q) - s(p)), in
    units of 1 / (dp * dq) after scaling by dp * dq: r + t (s - r) with
    r = s(p) * dq and s = s(q) * dp.  So the row reads a * t <= r (= r for an
    equality) with a = r - s: the closed interval test of the integer line
    kernel, with no dot product, stopping once the interval is empty.
    """
    (pi, pe), (qi, qe) = sp, sq
    # t <= hn / hd and t >= ln / ld with hd, ld >= 0; a zero denominator
    # stands for an infinite bound
    hn, hd, ln, ld = 1, 0, -1, 0
    for r, s in zip(pe, qe):
        r *= dq
        a = r - s * dp
        if not a:
            if r:
                return False
            continue
        if a < 0:
            a, r = -a, -r
        if r * hd < hn * a:
            hn, hd = r, a
        if r * ld > ln * a:
            ln, ld = r, a
    for r, s in zip(pi, qi):
        r *= dq
        a = r - s * dp
        if a > 0:
            if r * hd < hn * a:
                hn, hd = r, a
                if hn * ld < ln * hd:
                    return False
        elif a < 0:
            if r * ld < ln * a:
                ln, ld = -r, -a
                if hn * ld < ln * hd:
                    return False
        elif r < 0:
            return False
    return hn * ld >= ln * hd


def _row_through(*points: tuple) -> tuple:
    """A row (n, -c), up to a nonzero factor, of the hyperplane n . x = c
    through d = 2 or 3 points in homogeneous form (X, D): the cross product
    of two, or the four signed 3x3 minors of three; all zero when the
    points span no hyperplane."""
    if len(points) == 2:
        (p0, p1, p2), (q0, q1, q2) = points
        return (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = points
    m01, m02, m03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    m12, m13, m23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    return (
        c1 * m23 - c2 * m13 + c3 * m12,
        c2 * m03 - c0 * m23 - c3 * m02,
        c0 * m13 - c1 * m03 + c3 * m01,
        c1 * m02 - c0 * m12 - c2 * m01,
    )


def _hyperplanes_through(homogeneous: Sequence[tuple], d: int) -> tuple[list, list, list]:
    """(tuples, rows, masks) for pool points in homogeneous form (X, D) in
    R^d, d = 2 or 3: the first pool d-tuple spanning each distinct
    hyperplane, in combination order, its row (`_row_through`) and its sign
    masks.  A kept hyperplane's zero mask holds every pool point on it; when
    those are more than d, each (d - 1)-tuple of them is marked in
    `spanned` with that mask, and a d-tuple whose last point is marked for
    its first d - 1 lies on a kept hyperplane and is skipped.

    The sign masks come from lanes of w bits packed into one int per
    homogeneous coordinate, C_j = sum_k X_k,j * 2^(k w), and the bias int
    holding 2^(w-1) in every lane (`_sign_masks`).  A row's value at a pool
    point is a (d + 1) x (d + 1) determinant of pool entries, so it is at
    most (d + 1)! * m^(d + 1) in absolute value, m the largest |entry|; w is
    that bound's bit length plus a sign bit, rounded up to whole bytes."""
    tuples, rows, masks = [], [], []
    spanned: dict = {}
    n = len(homogeneous)
    top = max((abs(x) for p in homogeneous for x in p), default=0)
    step = ((factorial(d + 1) * top ** (d + 1)).bit_length() + 8) // 8
    columns = tuple(
        sum(p[j] << (k * 8 * step) for k, p in enumerate(homogeneous)) for j in range(d + 1)
    )
    bias = int.from_bytes((b"\x80" + bytes(step - 1)) * n, "big")
    lanes = (columns, bias, step, n * step)
    for prefix in itertools.combinations(range(n), d - 1):
        head = [homogeneous[i] for i in prefix]
        skip = spanned.get(prefix, 0)
        for last in range(prefix[-1] + 1, n):
            if skip >> last & 1:
                continue
            row = _row_through(*head, homogeneous[last])
            if not any(row):
                continue  # the d points are collinear
            nonneg, nonpos = _sign_masks(row, lanes)
            on = nonneg & nonpos
            if on.bit_count() > d:
                for marked in itertools.combinations(_bits(on), d - 1):
                    spanned[marked] = spanned.get(marked, 0) | on
                skip |= on
            tuples.append((*prefix, last))
            rows.append(row)
            masks.append((nonneg, nonpos))
    return tuples, rows, masks


def _distinct_lines(scaled: Sequence) -> list[tuple]:
    """The first pool pair (i, j) spanning each distinct line, in pair order,
    for pool points in any dimension, deduplicated by `_line_key`, the
    integer form of the canonical line of `line_through`."""
    first: dict = {}
    for (i, (p, dp)), (j, (q, dq)) in itertools.combinations(enumerate(scaled), 2):
        first.setdefault(_line_key(p, dp, q, dq), (i, j))
    return list(first.values())


def _slack_crossings(s: Polyhedron, pairs: Sequence, scaled: Sequence) -> list[int]:
    """Indices of the pool lines, given by their pairs, that cross s, from
    each pool point's slacks c * D - n . X against the rows of s, computed
    once: a line crosses s when p or q lies in it, and otherwise as
    `_slacks_meet` decides."""
    slacks = [
        (
            tuple(h.offset * den - sum(map(mul, h.normal, x)) for h in s.inequalities),
            tuple(h.offset * den - sum(map(mul, h.normal, x)) for h in s.equalities),
        )
        for x, den in scaled
    ]
    inside = [min(si, default=0) >= 0 and not any(se) for si, se in slacks]
    return [
        k
        for k, (i, j) in enumerate(pairs)
        if inside[i]
        or inside[j]
        or _slacks_meet(slacks[i], slacks[j], scaled[i][1], scaled[j][1])
    ]


def _cover_candidates(fam: Sequence[Polyhedron], k: int) -> tuple[list, tuple]:
    """(candidates, edges): the candidate k-flats of `fam`, lines (k = 1) in
    any R^d or planes (k = 2) in R^3, and for each set the frozenset of
    candidates crossing it.

    Candidates come in `candidate_lines` or `candidate_planes` order: one
    per distinct flat through pool points, then one fallback flat per set
    that no earlier candidate crosses, the line through a point of it along
    x_0 or the plane x_0 = const.  A pool line stays the first pool pair
    (p, q) spanning it and a pool plane its integer row (n, -c); `_as_flat`
    builds the flat a candidate stands for, so none is built for a candidate
    nobody reads.

    Each pool point is scaled once to X / D.  A hyperplane cover (k = d - 1)
    takes its candidates from `_hyperplanes_through`, whose sign masks decide
    each bounded set (`_vertex_masks`, `_crossings`); lines in R^3 take
    theirs from `_distinct_lines`.  The rows decide every other set: the
    pool points' slacks for a line (`_slack_crossings`), `hyperplane_crosses`
    for a plane, whose pool planes are built only then.  Fallback flats are
    tested against every set with `flat_crosses` or `hyperplane_crosses`.
    """
    if not fam:
        raise InputError("empty family")
    d = _joint_dim(fam)
    if k == 2 and d != 3:
        raise InputError("candidate planes are generated in R^3 only")
    pool = _candidate_point_pool(fam)
    if d < 2 and len(pool) > 1:  # the error `line_through` raises on a pool pair
        raise InputError("flat dimension k must satisfy 0 <= k < dim")
    scaled = _scaled_pool(pool)
    if k == d - 1:
        tuples, rows, masks = _hyperplanes_through([(*x, den) for x, den in scaled], d)
        vmasks = _vertex_masks(fam, scaled)
    else:
        tuples, vmasks = _distinct_lines(scaled), [None] * len(fam)
    candidates: list = [(pool[i], pool[j]) for i, j in tuples] if k == 1 else rows
    planes = None
    edges = []
    for s, vmask in zip(fam, vmasks):
        if vmask is not None:
            edges.append(_crossings(vmask, masks))
        elif k == 1:
            edges.append(_slack_crossings(s, tuples, scaled))
        else:
            planes = planes or [_as_flat(row) for row in rows]
            edges.append([i for i, h in enumerate(planes) if hyperplane_crosses(h, s)])
    axis = tuple(ONE if i == 0 else ZERO for i in range(d))
    for s, edge in zip(fam, edges):
        if edge:
            continue
        base = s.feasible_point()
        if base is None:
            raise InputError(f"cannot cover an empty set with {'lines' if k == 1 else 'planes'}")
        if k == 1:
            flat, crosses = AffineFlat.line(base, axis), flat_crosses
        else:
            flat, crosses = Hyperplane(axis, base[0]), hyperplane_crosses
        for t, e in zip(fam, edges):
            if crosses(flat, t):
                e.append(len(candidates))
        candidates.append(flat)
    return candidates, tuple(frozenset(e) for e in edges)


def _as_flat(candidate):
    """The flat a `_cover_candidates` candidate stands for: the line through
    a pool pair, the plane of an integer row (n, -c), or a fallback flat."""
    if isinstance(candidate, (AffineFlat, Hyperplane)):
        return candidate
    if len(candidate) == 2:
        return line_through(*candidate)
    return Hyperplane(candidate[:3], -candidate[3])


def candidate_lines(fam: Sequence[Polyhedron]) -> list[AffineFlat]:
    """Lines through pairs of pool points, one per distinct line in order of
    first appearance, plus one axis line per set that no earlier line
    crosses (an orphan).  Built from `_cover_candidates`."""
    return [_as_flat(c) for c in _cover_candidates(fam, 1)[0]]


def line_cover_number(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
) -> TransversalResult:
    """Minimum lines crossing every set, exact over the candidate pool.

    For bounded planar polygon families the pool (lines through vertex pairs)
    is complete, so the value is the true line-cover number; tangency counts
    as crossing because all sets are closed.  In R^3 the value is exact over
    the candidate pool (see the construction verifiers for the a-priori
    lower-bound argument).  `tau` runs on the edges of `_cover_candidates`,
    decided by vertex signs for bounded planar sets and on the rows for the
    rest; the witness indexes `candidate_lines(fam)`, and no line is built.
    """
    candidates, edges = _cover_candidates(fam, 1)
    return tau(Hypergraph(len(candidates), edges), budget)


def candidate_planes(fam: Sequence[Polyhedron]) -> list[Hyperplane]:
    """Planes through affinely independent pool point triples (ambient R^3),
    one per distinct plane in order of first appearance, plus one plane
    x_0 = const per set that no earlier plane crosses: vertex signs decide
    whether a plane crosses a bounded set, and the LP decides the rest.
    Built from `_cover_candidates`."""
    return [_as_flat(c) for c in _cover_candidates(fam, 2)[0]]


def plane_cover_number(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
) -> TransversalResult:
    """Minimum candidate planes crossing every set (d = 3 dichotomy probe),
    exact over the candidate pool.  `tau` runs on the edges of
    `_cover_candidates`, decided by vertex signs for bounded sets and by the
    LP for the rest; the witness indexes `candidate_planes(fam)`, and no
    plane is built for a bounded family."""
    candidates, edges = _cover_candidates(fam, 2)
    return tau(Hypergraph(len(candidates), edges), budget)


def build_cover_hypergraph(
    fam: Sequence[Polyhedron], candidates: Sequence, crosses=None
) -> Hypergraph:
    """Edge e_B = candidates crossing B; vertices carry the candidates.

    `crosses(candidate, set)` decides crossing; None means `flat_crosses`,
    looked up at call time so a rebound (for example traced) predicate is used.
    One call per (candidate, set) pair.  Line and plane covers do not build
    their hypergraphs here (see `_cover_candidates`), so they carry no
    payload; this builder with `flat_crosses`, or with
    `hyperplane_crosses` for planes, is their oracle.
    """
    crosses = crosses or flat_crosses
    edges = []
    for si, s in enumerate(fam):
        e = frozenset(i for i, f in enumerate(candidates) if crosses(f, s))
        if not e:
            raise InputError(f"set {si} is crossed by no candidate flat")
        edges.append(e)
    return Hypergraph(len(candidates), tuple(edges), payload=tuple(candidates))
