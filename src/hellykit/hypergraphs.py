"""Transversal and matching numbers of desk-scale hypergraphs.

Exact quantities:

    tau     minimum vertex transversal (hitting set), branch and bound;
    tau*    fractional transversal, exact rational LP;
    nu*     fractional matching, exact rational LP (equal to tau* by duality);
    nu_b    maximum b-matching (edge subset using no vertex more than b times).

Every duality report asserts the sandwich nu_b / b <= nu* = tau* <= tau.
The tau* and nu* programs are stated on Python-int rows and objectives,
which enter the LP tableau as they are; a duality report solves nu* once
and bounds its nu_b search with that value.

The geometric builders turn a family of convex sets into hypergraphs whose
transversals are piercing numbers (vertices = points witnessing maximal
intersecting subfamilies) or flat-cover numbers (vertices = candidate lines
or planes drawn from a finite candidate pool).

Line covers skip the generic builder.  `_line_candidates` scales each pool
point once to integers, computes its slack against every row of every set
once, and decides whether the line through two pool points crosses a set
from the two points' slacks alone, in Python ints: no dot product per test,
and no line is built.  Only a witness line is ever built, by `_as_line`.
Plane covers still test each (plane, set) pair with `hyperplane_crosses`
through `build_cover_hypergraph`, which carries the planes as its payload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .budgets import DEFAULT_BUDGET, SearchBudget
from .errors import InputError, ScaleError, TheoremViolationError
from .geometry import (
    AffineFlat,
    Hyperplane,
    Point,
    Polyhedron,
    flat_crosses,
    hyperplane_crosses,
    line_through,
    nullspace,
    polyhedra_intersect,
    vertices_of,
)
from .lp import LinearProgram, Optimal, lp_solve
from .rationals import (
    ONE,
    ZERO,
    ceil_rat,
    common_denominator,
    dot,
    floor_rat,
    rat,
    scaled_ints,
    vsub,
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
            if any(not (0 <= v < self.vertex_count) for v in e):
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
    if some v lies in every edge containing u).
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
        profiles: dict[int, set[int]] = {}
        for idx, e in enumerate(current):
            for v in e:
                profiles.setdefault(v, set()).add(idx)
        # vertices with identical incidence are interchangeable: keep the
        # smallest id, then test dominance across distinct profiles only
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
    the reduced core (see _reduce_for_tau); the LP value ceil(tau*) of the
    core serves as the root pruning bound.
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
    root_lb = ceil_rat(tau_star(core_h).value)
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


def tau_star(h: Hypergraph) -> FractionalResult:
    if not h.edges:
        raise InputError("tau* needs at least one edge")
    n = h.vertex_count
    rows = tuple((tuple(-int(v in e) for v in range(n)), -1) for e in h.edges)
    lp = LinearProgram(n, leq=rows, objective=(1,) * n, maximize=False, nonneg=True)
    out = lp_solve(lp)
    if not isinstance(out, Optimal):
        raise TheoremViolationError("tau* LP must have an optimum")
    return FractionalResult(out.value, out.point)


def nu_star(h: Hypergraph) -> FractionalResult:
    if not h.edges:
        raise InputError("nu* needs at least one edge")
    m = len(h.edges)
    rows = tuple(
        (tuple(int(v in e) for e in h.edges), 1) for v in range(h.vertex_count)
    )
    lp = LinearProgram(m, leq=rows, objective=(1,) * m, maximize=True, nonneg=True)
    out = lp_solve(lp)
    if not isinstance(out, Optimal):
        raise TheoremViolationError("nu* LP must have an optimum")
    return FractionalResult(out.value, out.point)


def nu_b(h: Hypergraph, b: int) -> int:
    """Maximum number of edges (with multiplicity) loading no vertex more than b."""
    if b < 1:
        raise InputError("b must be a positive integer")
    if not h.edges:
        return 0
    return _nu_b(h, b, nu_star(h).value)


def _nu_b(h: Hypergraph, b: int, nu_star_value) -> int:
    """`nu_b` of a hypergraph with edges whose nu* is `nu_star_value`; the
    search stops at the duality bound floor(b * nu*)."""
    ub = floor_rat(rat(b) * nu_star_value)
    edges = list(h.edges)
    m = len(edges)
    caps = [b] * h.vertex_count
    # greedy start
    best = 0
    for e in edges:
        if all(caps[v] > 0 for v in e):
            for v in e:
                caps[v] -= 1
            best += 1
    caps = [b] * h.vertex_count
    best_found = best

    def dfs(i: int, count: int):
        nonlocal best_found
        if count + (m - i) <= best_found or best_found == ub:
            return
        if i == m:
            if count > best_found:
                best_found = count
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
    del dfs  # as in tau
    if best_found > ub:
        raise TheoremViolationError("nu_b exceeded its duality upper bound")
    return best_found


def duality_report(
    h: Hypergraph, b: int = 1, budget: SearchBudget = DEFAULT_BUDGET
) -> DualityReport:
    """tau, tau*, nu*, nu_b with the exact duality sandwich asserted; tau is
    searched under `budget`, and a tau beyond it is reported in `scale_note`."""
    ts = tau_star(h)
    ns = nu_star(h)
    if ts.value != ns.value:
        raise TheoremViolationError("LP duality violated: tau* != nu*")
    note = ""
    try:
        t = tau(h, budget)
    except ScaleError as exc:
        t = None
        note = str(exc)
    if b < 1:
        raise InputError("b must be a positive integer")
    nb = _nu_b(h, b, ns.value)
    ok = rat(nb, b) <= ns.value and (t is None or ts.value <= rat(t.size))
    if not ok:
        raise TheoremViolationError("duality sandwich nu_b/b <= nu* = tau* <= tau failed")
    return DualityReport(b, t, ts, ns, nb, ok, note)


# ---------------------------------------------------------------------------
# geometric builders


def _intersection_feasible(fam: Sequence[Polyhedron], subset: frozenset, cache: dict):
    got = cache.get(subset)
    if got is None:
        got = polyhedra_intersect([fam[i] for i in sorted(subset)])
        cache[subset] = got
    return got


def maximal_intersecting_subfamilies(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
):
    """All maximal index sets whose members share a point, with witnesses.

    Bron-Kerbosch style recursion over the hereditary system of intersecting
    subfamilies; feasibility of each extension is an exact LP.
    """
    if len(fam) > budget.max_subfamily_sets:
        raise ScaleError("max_subfamily_sets", budget.max_subfamily_sets, len(fam))
    cache: dict = {}
    singles = [
        i for i in range(len(fam)) if _intersection_feasible(fam, frozenset([i]), cache).feasible
    ]
    if not singles:
        return [], []
    results: list[frozenset] = []

    def feas(s: frozenset) -> bool:
        return _intersection_feasible(fam, s, cache).feasible

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
    empties = [i for i in range(len(fam)) if not any(i in s for s in subfamilies)]
    if empties:
        raise InputError(f"sets {empties} are empty; they cannot be pierced")
    edges = []
    for i in range(len(fam)):
        edges.append(frozenset(vi for vi, s in enumerate(subfamilies) if i in s))
    return Hypergraph(len(subfamilies), tuple(edges), payload=tuple(witnesses))


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


def _line_candidates(fam: Sequence[Polyhedron]) -> tuple[list, tuple]:
    """(candidates, edges): the candidate lines of `fam`, and for each set the
    frozenset of candidates crossing it.

    Candidates come in `candidate_lines` order: one per distinct line through
    two pool points, as the first pool pair (p, q) spanning it, then one axis
    line per set that no earlier candidate crosses, as an AffineFlat.
    `_as_line` turns a candidate into its line, so no flat is built for a
    pool line nobody asks for.

    Each pool point is scaled once to X / D, and its slack c * D - n . X
    against every row of every set is computed once; a pool line crosses a
    set when p or q lies in it, and otherwise as `_slacks_meet` decides.
    Pool lines are deduplicated by an integer key, the primitive direction v
    and the perpendicular-foot numerators (v . v) X_p - (X_p . v) v over
    D_p (v . v), reduced: the canonical line of `line_through`.  Fallback
    lines are tested against every set with `flat_crosses`.
    """
    if not fam:
        raise InputError("empty family")
    d = fam[0].dim
    pool = _candidate_point_pool(fam)
    if d < 2 and len(pool) > 1:  # the error `line_through` raises on a pool pair
        raise InputError("flat dimension k must satisfy 0 <= k < dim")
    dens = [common_denominator(p) for p in pool]
    ints = [scaled_ints(p, den) for p, den in zip(pool, dens)]
    pairs = []
    seen = set()
    for (i, p), (j, q) in itertools.combinations(enumerate(ints), 2):
        dp, dq = dens[i], dens[j]
        diff = [y * dp - x * dq for x, y in zip(p, q)]
        g = gcd(*diff)
        if next(x for x in diff if x) < 0:
            g = -g
        v = tuple(x // g for x in diff)
        vv = sum(x * x for x in v)
        pv = sum(map(mul, p, v))
        foot = (dp * vv, *(x * vv - pv * y for x, y in zip(p, v)))
        g = gcd(*foot)
        key = (v, *(x // g for x in foot))
        if key not in seen:
            seen.add(key)
            pairs.append((i, j))
    edges = []
    for s in fam:
        slacks = [
            (
                tuple(h.offset * den - sum(map(mul, h.normal, x)) for h in s.inequalities),
                tuple(h.offset * den - sum(map(mul, h.normal, x)) for h in s.equalities),
            )
            for x, den in zip(ints, dens)
        ]
        inside = [min(si, default=0) >= 0 and not any(se) for si, se in slacks]
        edges.append(
            [
                k
                for k, (i, j) in enumerate(pairs)
                if inside[i]
                or inside[j]
                or _slacks_meet(slacks[i], slacks[j], dens[i], dens[j])
            ]
        )
    candidates: list = [(pool[i], pool[j]) for i, j in pairs]
    axis = tuple(ONE if i == 0 else ZERO for i in range(d))
    for s, edge in zip(fam, edges):
        if edge:
            continue
        base = s.feasible_point()
        if base is None:
            raise InputError("cannot cover an empty set with lines")
        line = AffineFlat.line(base, axis)
        for t, e in zip(fam, edges):
            if flat_crosses(line, t):
                e.append(len(candidates))
        candidates.append(line)
    return candidates, tuple(frozenset(e) for e in edges)


def _as_line(candidate) -> AffineFlat:
    """The line a `_line_candidates` candidate stands for."""
    return candidate if isinstance(candidate, AffineFlat) else line_through(*candidate)


def candidate_lines(fam: Sequence[Polyhedron]) -> list[AffineFlat]:
    """Lines through pairs of pool points, one per distinct line in order of
    first appearance, plus one axis line per set that no earlier line
    crosses (an orphan).  Built from `_line_candidates`."""
    return [_as_line(c) for c in _line_candidates(fam)[0]]


def line_cover_number(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
) -> TransversalResult:
    """Minimum lines crossing every set, exact over the candidate pool.

    For bounded planar polygon families the pool (lines through vertex pairs)
    is complete, so the value is the true line-cover number; tangency counts
    as crossing because all sets are closed.  In R^3 the value is exact over
    the candidate pool (see the construction verifiers for the a-priori
    lower-bound argument).  `tau` runs on the edges of `_line_candidates`;
    the witness indexes `candidate_lines(fam)`, and no line is built.
    """
    candidates, edges = _line_candidates(fam)
    return tau(Hypergraph(len(candidates), edges), budget)


def candidate_planes(fam: Sequence[Polyhedron]) -> list[Hyperplane]:
    """Planes through affinely independent pool point triples (ambient R^3)."""
    if not fam:
        raise InputError("empty family")
    if fam[0].dim != 3:
        raise InputError("candidate planes are generated in R^3 only")
    pool = _candidate_point_pool(fam)
    planes: dict = {}
    for a, b, c in itertools.combinations(pool, 3):
        ns = nullspace([vsub(b, a), vsub(c, a)], 3)
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
            raise InputError("cannot cover an empty set with planes")
        out.append(Hyperplane((ONE, ZERO, ZERO), base[0]))
    return out


def plane_cover_number(
    fam: Sequence[Polyhedron], budget: SearchBudget = DEFAULT_BUDGET
) -> TransversalResult:
    """Minimum candidate planes crossing every set (d = 3 dichotomy probe)."""
    h = build_cover_hypergraph(fam, candidate_planes(fam), hyperplane_crosses)
    return tau(h, budget)


def build_cover_hypergraph(
    fam: Sequence[Polyhedron], candidates: Sequence, crosses=None
) -> Hypergraph:
    """Edge e_B = candidates crossing B; vertices carry the candidates.

    `crosses(candidate, set)` decides crossing; None means `flat_crosses`,
    looked up at call time so a rebound (for example traced) predicate is used.
    One call per (candidate, set) pair.  `plane_cover_number` builds its
    hypergraph here; line covers do not (see `_line_candidates`), so they
    carry no payload, and this builder with `flat_crosses` is their oracle.
    """
    crosses = crosses or flat_crosses
    edges = []
    for si, s in enumerate(fam):
        e = frozenset(i for i, f in enumerate(candidates) if crosses(f, s))
        if not e:
            raise InputError(f"set {si} is crossed by no candidate flat")
        edges.append(e)
    return Hypergraph(len(candidates), tuple(edges), payload=tuple(candidates))
