"""Answer checks for benchmark jobs.

Each check re-verifies a job's answer by means independent of the code
that produced it: witness points are tested with `Polyhedron.contains`,
crossings with a point found on the flat and tested the same way,
duality values against their weight vectors, and small piercing and
line-cover numbers against the brute-force oracles in `tests/oracles.py`.
A check returns the job's canonical answer (JSON values, rationals as
strings), so two runs on one seed can be compared by digest, and raises
`CheckFailed` when a certificate does not hold.
"""

from __future__ import annotations

import itertools

from hellykit.colorful import HyperplaneCover, LineCover, PiercedClass
from hellykit.geometry import Point, polyhedra_intersect, polytope_from_vertices
from hellykit.hypergraphs import candidate_lines
from hellykit.rationals import rat, rat_str
from hellykit.serialize import digest, family_to_doc, line_to_json
from oracles import brute_line_cover, brute_pierce


class CheckFailed(Exception):
    """A job's answer or certificate did not verify."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def vec_json(v) -> list[str]:
    return [rat_str(x) for x in v]


def _coords(p):
    return p.coords if isinstance(p, Point) else tuple(p)


def require_point_in(point, sets, what: str) -> None:
    coords = _coords(point)
    require(all(s.contains(coords) for s in sets), what)


def line_point(line, poly):
    """A point of `line` that should lie in `poly`, from its pulled-back rows.

    The parameter interval is recomputed here from the raw rows; the caller
    confirms the point with `Polyhedron.contains`, so a wrong interval can
    only reject a crossing, never accept one.
    """
    base, (direction,) = line.base, line.directions
    rows = [(h.normal, h.offset) for h in poly.inequalities]
    for h in poly.equalities:
        rows.append((h.normal, h.offset))
        rows.append((tuple(-a for a in h.normal), -h.offset))
    lo = hi = None
    for normal, offset in rows:
        a = sum(x * y for x, y in zip(normal, direction))
        b = offset - sum(x * y for x, y in zip(normal, base))
        if a == 0:
            if b < 0:
                return None
        elif a > 0:
            hi = b / a if hi is None else min(hi, b / a)
        else:
            lo = b / a if lo is None else max(lo, b / a)
    t = lo if lo is not None else (hi if hi is not None else rat(0))
    return tuple(p + t * v for p, v in zip(base, direction))


def line_meets(line, poly) -> bool:
    p = line_point(line, poly)
    return p is not None and poly.contains(p)


def hyperplane_meets(h, poly) -> bool:
    p = poly.with_rows(eqs=(h,)).feasible_point()
    return p is not None and poly.contains(p) and h.contains(p)


def hyperplane_json(h) -> dict:
    return {"normal": vec_json(h.normal), "offset": rat_str(h.offset)}


def require_lines_cover(lines, sets, what: str) -> None:
    for i, s in enumerate(sets):
        require(any(line_meets(line, s) for line in lines), f"{what}: set {i} uncovered")


# -- queries -----------------------------------------------------------------


def check_duality(h, b: int, rep) -> dict:
    ts, ns, t = rep.tau_star_result, rep.nu_star_result, rep.tau_result
    require(t is not None, "tau exceeded its budget")
    w = ts.weights
    require(all(x >= 0 for x in w), "tau* weights negative")
    require(all(sum(w[v] for v in e) >= 1 for e in h.edges), "tau* weights miss an edge")
    require(sum(w) == ts.value, "tau* value differs from its weights")
    y = ns.weights
    require(all(x >= 0 for x in y), "nu* weights negative")
    for v in range(h.vertex_count):
        load = sum(y[j] for j, e in enumerate(h.edges) if v in e)
        require(load <= 1, "nu* weights overload a vertex")
    require(sum(y) == ns.value, "nu* value differs from its weights")
    require(ts.value == ns.value, "tau* != nu*")
    cover = set(t.witness)
    require(len(cover) == t.size, "tau witness size")
    require(all(e & cover for e in h.edges), "tau witness misses an edge")
    smaller = t.size - 1
    if smaller >= 0:
        require(
            not any(
                all(e & set(c) for e in h.edges)
                for c in itertools.combinations(range(h.vertex_count), smaller)
            ),
            "a smaller transversal exists",
        )
    require(rat(rep.nu_b_value, b) <= ns.value <= t.size, "duality sandwich fails")
    return {
        "b": b,
        "tau": t.size,
        "tau_witness": list(t.witness),
        "tau_star": rat_str(ts.value),
        "nu_b": rep.nu_b_value,
    }


def check_dichotomy(out, classes, max_flats: int) -> dict:
    """Check a point-or-flats outcome against the classes it must serve."""
    if isinstance(out, PiercedClass):
        for p in out.points:
            require_point_in(p, classes[out.class_index], "piercing point misses a set")
        return {"pierced": out.class_index, "points": [vec_json(_coords(p)) for p in out.points]}
    if isinstance(out, HyperplaneCover):
        require(len(out.hyperplanes) <= max_flats, "too many hyperplanes")
        for j, s in enumerate(classes[out.class_index]):
            require(any(hyperplane_meets(h, s) for h in out.hyperplanes), f"set {j} uncrossed")
        return {"crossed": out.class_index, "hyperplanes": [hyperplane_json(h) for h in out.hyperplanes]}
    require(isinstance(out, LineCover), f"unexpected outcome {type(out).__name__}")
    require(len(out.lines) <= max_flats, "too many lines")
    for cls in classes:
        require_lines_cover(out.lines, cls, "line cover")
    return {"lines": [line_to_json(line) for line in out.lines]}


def check_class_point(fam, answer) -> dict:
    k, point = answer
    require_point_in(point, fam.classes[k], "class point misses a set")
    return {"class": k, "point": vec_json(_coords(point))}


def check_class_line(fam, answer) -> dict:
    k, line = answer
    require_lines_cover([line], fam.classes[k], "generic line")
    return {"class": k, "line": line_to_json(line)}


def check_pierce(polys, result) -> dict:
    require(result.size == brute_pierce(polys), "piercing number differs from the oracle")
    return {"pierce": result.size}


def check_small_line_cover(polys, result) -> dict:
    # The oracle sweeps a finite grid of slopes, so its value is an upper bound
    # that equals the true number on every family the acceptance suite uses.
    require(1 <= result.size <= brute_line_cover(polys), "line cover exceeds the oracle")
    return {"line_cover": result.size}


# -- sweeps ------------------------------------------------------------------


def _hint_centroids_inside(sets) -> bool:
    for s in sets:
        verts = s.vertices_hint
        if verts is None:
            continue
        c = tuple(sum(v[j] for v in verts) / len(verts) for j in range(s.dim))
        if not s.contains(c):
            return False
    return True


def check_simplex(d: int, f: int, c, relint) -> dict:
    m = 2 * f
    require(len(c.cone_classes) == d - 1, "cone class count")
    require(all(len(cls) == m for cls in c.cone_classes), "cone class size")
    require(len(c.facet_groups) == d + 1, "facet group count")
    require(all(len(g) == m for g in c.facet_groups), "facet group size")
    require(c.epsilon > 0 and c.eta > 0, "shrink steps must be positive")
    require(_hint_centroids_inside(c.raw_classes[0] + c.facets), "raw set misses its own centroid")
    require(relint.holds and relint.entries, "relint property fails")
    for e in relint.entries:
        sets = [c.raw_classes[ci][si] for ci, si in enumerate(e.selection)]
        require_point_in(e.point, sets + [c.facets[e.facet]], "relint witness outside")
    return {
        "simplex": [d, f, c.seed],
        "epsilon": rat_str(c.epsilon),
        "eta": rat_str(c.eta),
        "family": digest(family_to_doc(c.family)),
        "margins": [rat_str(e.margin) for e in relint.entries],
    }


def check_planar(f: int, c) -> dict:
    require(len(c.triangles) == 2 * f and len(c.segments) == 6 * f, "planar set counts")
    for a, b in itertools.combinations(c.triangles, 2):
        cert = polyhedra_intersect([a, b])
        require(cert.feasible, "two triangles fail to meet")
        require_point_in(cert.point, [a, b], "triangle meeting point")
    return {"planar": [f, c.seed], "step": rat_str(c.step), "family": digest(family_to_doc(c.family))}


def corner_simplex_facets(d: int) -> list:
    """Facets of conv(0, 12 e_1, ..., 12 e_d), the simplex of the constructions."""
    verts = [tuple(rat(12) if j == i else rat(0) for j in range(d)) for i in range(d)]
    verts.append(tuple(rat(0) for _ in range(d)))
    return [
        polytope_from_vertices(d, [v for j, v in enumerate(verts) if j != skip])
        for skip in range(d + 1)
    ]


def check_facets_crossed(d: int, rep) -> dict:
    require(rep.value == 2, "a line crosses other than two facet interiors")
    hit = sum(1 for facet in corner_simplex_facets(d) if line_meets(rep.witness_line, facet))
    require(hit >= 2, "witness line meets fewer than two facets")
    return {"facets_crossed": [rep.dim, rep.value, rep.lines_checked]}


def check_fractional(a_sets, b_sets, rep) -> dict:
    require(rep.holds, "fractional search failed")
    if rep.point_covered:
        require_point_in(rep.best_point, [a_sets[i] for i in rep.point_covered], "best point")
    for j in rep.hyperplane_covered:
        require(hyperplane_meets(rep.best_hyperplane, b_sets[j]), "best hyperplane misses")
    require(
        len(rep.point_covered) >= rep.gamma_target
        or len(rep.hyperplane_covered) >= rep.lambda_target,
        "no coverage target met",
    )
    return {
        "pairs": rep.pair_count,
        "point_covered": list(rep.point_covered),
        "hyperplane_covered": list(rep.hyperplane_covered),
    }


# -- covers ------------------------------------------------------------------


def check_line_cover(fam, result) -> dict:
    lines = candidate_lines(fam)
    chosen = [lines[i] for i in result.witness]
    require(len(chosen) == result.size >= 1, "empty line cover")
    require_lines_cover(chosen, fam, "line cover")
    return {"size": result.size, "lines": [line_to_json(line) for line in chosen]}
