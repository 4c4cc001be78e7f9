"""Command-line harness: exact-geometry questions in, certified reports out.

One table, `_COMMANDS`, gives each subcommand its handler, the reader that
parses its input document (a colored family, a hypergraph or a stored
report; none when the request holds only construction parameters) and its
certificate checker.  A request's input is read once, for the handler and
the checker both; the checker runs on the results before the single JSON
report is printed to standard output.  Reports echo the full request, so
`recheck` can re-validate any report standalone: it runs the same checker on
the stored results and re-runs the original computation, demanding exact
agreement.

A request loads only the modules its subcommand runs: the handlers that use
`colorful` or `constructions` import them when they are called, so a
`pierce`, `line-cover` or `duality` request never loads either.

Exit codes: 0 = claim verified or quantity computed; 2 = property refuted
(the report carries the refuting certificate); 3 = a search budget or
generation bound was exceeded; 4 = malformed input.  The mapping depends
only on the mathematical outcome, never on timing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .budgets import SearchBudget, budget_from_env
from .errors import GenerationError, InputError, ScaleError, TheoremViolationError
from .geometry import (
    AffineFlat,
    ColoredFamily,
    Point,
    first_meeting,
    flat_crosses,
    hyperplane_crosses,
    polyhedra_intersect,
    verify_farkas_entries,
)
from .hypergraphs import (
    Hypergraph,
    _as_flat,
    _cover_candidates,
    build_point_hypergraph,
    duality_report,
    line_cover_number,
    piercing_number,
    tau,
    transversal_points,
)
from .rationals import ONE, ceil_rat, rat, rat_str
from .serialize import (
    SCHEMA_VERSION,
    canonical_dumps,
    digest,
    family_from_doc,
    family_to_doc,
    farkas_from_json,
    farkas_to_json,
    hyperplane_from_json,
    hypergraph_from_doc,
    line_from_json,
    line_to_json,
    point_to_json,
    row_to_json,
    vec_from_json,
    vec_to_json,
)

if TYPE_CHECKING:
    from .colorful import PiercedClass

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_SCALE = 3
EXIT_INPUT = 4

_WITNESS_CAP = 256


@dataclass
class Outcome:
    results: dict
    exit_code: int
    log: list


# -- helpers ------------------------------------------------------------------


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None


def _two_classes(doc) -> tuple[ColoredFamily, list]:
    """A family document with exactly two classes, read as `family_from_doc`."""
    family = family_from_doc(doc)
    if family[0].num_classes != 2:
        raise InputError(f"expected exactly 2 classes, got {family[0].num_classes}")
    return family


def _jsonable_witness(witness):
    if witness is None:
        return None
    if isinstance(witness, Point):
        return point_to_json(witness)
    if isinstance(witness, (tuple, list)):
        return [_jsonable_witness(w) for w in witness]
    if isinstance(witness, (int, str, bool)):
        return witness
    return str(witness)


def _refutation(rep, log: list, **lead) -> Outcome:
    """Exit-2 outcome citing a CH sweep's violating rainbow and its Farkas
    certificate; `lead` fields go between `holds` and the certificate."""
    results = {
        "holds": False,
        **lead,
        "violating_rainbow": list(rep.violating_rainbow),
        "farkas": farkas_to_json(rep.certificate.farkas),
    }
    return Outcome(results, EXIT_REFUTED, log)


def _pierced(out: PiercedClass, note: str) -> Outcome:
    results = {
        "outcome": "pierced",
        "class_index": out.class_index,
        "points": [point_to_json(p) for p in out.points],
    }
    return Outcome(results, EXIT_OK, [note])


# -- subcommand handlers ------------------------------------------------------
# Each handler takes its command's parsed input (for a family document, the
# (family, labels) pair of `family_from_doc`), the request and the budget.


def _cmd_check_ch(family, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import check_ch

    fam, _ = family
    rep = check_ch(fam, budget)
    log = [f"swept {rep.checked} rainbow selections over {fam.num_classes} classes"]
    if not rep.holds:
        log.append("emptiness certificate verified by exact aggregation")
        return _refutation(rep, log, checked=rep.checked)
    results = {"holds": True, "checked": rep.checked}
    if fam.rainbow_count <= _WITNESS_CAP:
        # each witness is the primal tableau's point of its selection, as
        # reports have always shown; the sweep's points may differ
        results["witnesses"] = []
        for pick in fam.picks():
            sets = [fam.classes[k][i] for k, i in enumerate(pick)]
            point = polyhedra_intersect(sets).point
            results["witnesses"].append({"rainbow": list(pick), "point": point_to_json(point)})
        results["witnesses_included"] = True
    else:
        results["witnesses_included"] = False
        results["note"] = "witness list omitted beyond cap; recheck re-sweeps"
    return Outcome(results, EXIT_OK, log)


def _cmd_intersecting(family, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import check_ch, intersecting_class

    fam, labels = family
    if fam.num_classes != fam.dim + 1:
        raise InputError(
            f"need dim+1 = {fam.dim + 1} classes, got {fam.num_classes}"
        )
    rep = check_ch(fam, budget)
    if not rep.holds:
        return _refutation(rep, ["colorful Helly hypothesis refuted"])
    k, point = intersecting_class(fam, rep, budget)
    log = [
        f"class {k} ({labels[k]}) has a verified common point",
        f"point lies in all {len(fam.classes[k])} members (exact membership)",
    ]
    results = {
        "class_index": k,
        "label": labels[k],
        "point": point_to_json(point),
    }
    return Outcome(results, EXIT_OK, log)


def _cmd_pierce(family, request: dict, budget: SearchBudget) -> Outcome:
    fam, _ = family
    h = build_point_hypergraph(fam.all_sets(), budget)
    result = tau(h, budget)
    results = {
        "piercing_number": result.size,
        "points": [point_to_json(p) for p in transversal_points(h, result)],
        "exact": result.exact,
    }
    log = [
        f"candidate points: one per maximal intersecting subfamily "
        f"({h.vertex_count} candidates)",
        f"minimum transversal of size {result.size} re-verified against all sets",
    ]
    return Outcome(results, EXIT_OK, log)


def _cmd_line_cover(family, request: dict, budget: SearchBudget) -> Outcome:
    fam, _ = family
    candidates, edges = _cover_candidates(list(fam.all_sets()), 1)
    result = tau(Hypergraph(len(candidates), edges), budget)
    results = {
        "size": result.size,
        "lines": [line_to_json(_as_flat(candidates[i])) for i in result.witness],
        "candidates": len(candidates),
        "exact_over_candidates": True,
    }
    log = [
        f"{len(candidates)} candidate lines from the vertex-pair pool",
        f"cover of size {result.size} crosses every set (exact interval checks)",
    ]
    return Outcome(results, EXIT_OK, log)


def _cmd_two_color(family, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import HyperplaneCover, PiercedClass, two_color_lemma

    a_sets, b_sets = family[0].classes
    out = two_color_lemma(a_sets, b_sets, budget)
    if isinstance(out, PiercedClass):
        return _pierced(out, f"one point lies in all {len(a_sets)} first-class sets")
    assert isinstance(out, HyperplaneCover)
    results = {
        "outcome": "hyperplanes",
        "class_crossed": out.class_index,
        "hyperplanes": [row_to_json(h) for h in out.hyperplanes],
    }
    log = [
        f"{len(out.hyperplanes)} hyperplanes (at most the dimension) cross "
        f"all {len(b_sets)} second-class sets",
    ]
    return Outcome(results, EXIT_OK, log)


def _cmd_d2_dichotomy(family, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import LineCover, PiercedClass, check_ch, theorem_main_d2

    fam, _ = family
    if fam.dim != 2:
        raise InputError("the dichotomy runs in the plane (dim = 2)")
    rep = check_ch(fam, budget)
    if not rep.holds:
        return _refutation(rep, ["cross-pair hypothesis refuted"])
    out = theorem_main_d2(fam, budget, report=rep)
    if isinstance(out, PiercedClass):
        return _pierced(out, f"class {out.class_index} has a common point (1 <= 1 bound)")
    assert isinstance(out, LineCover)
    results = {
        "outcome": "lines",
        "lines": [line_to_json(line) for line in out.lines],
    }
    log = [
        f"{len(out.lines)} lines (at most 4) cross every set of both classes",
    ]
    return Outcome(results, EXIT_OK, log)


def _cmd_fractional(family, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import fractional_two_color_search

    a_sets, b_sets = family[0].classes
    alpha = rat(request["alpha"])
    rep = fractional_two_color_search(a_sets, b_sets, alpha, budget=budget)
    results = {
        "dim": rep.dim,
        "alpha": rat_str(rep.alpha),
        "pair_count": rep.pair_count,
        "pair_target": rat_str(rep.pair_target),
        "gamma": rat_str(rep.gamma_value),
        "lambda": rat_str(rep.lambda_value),
        "point_side": {
            "point": point_to_json(rep.best_point) if rep.best_point else None,
            "covered": list(rep.point_covered),
            "target": rat_str(rep.gamma_target),
        },
        "hyperplane_side": {
            "hyperplane": row_to_json(rep.best_hyperplane) if rep.best_hyperplane else None,
            "covered": list(rep.hyperplane_covered),
            "target": rat_str(rep.lambda_target),
        },
        "holds": rep.holds,
        "beta": {"role": "configuration", "label": rep.beta_label},
    }
    log = [
        f"meeting pairs: {rep.pair_count} >= alpha * |A| * |B| = "
        f"{rat_str(rep.pair_target)}",
        "dichotomy satisfied on the "
        + (
            "point side"
            if rat(len(rep.point_covered)) >= rep.gamma_target
            else "hyperplane side"
        ),
    ]
    return Outcome(results, EXIT_OK, log)


def _cmd_duality(h, request: dict, budget: SearchBudget) -> Outcome:
    b = int(request.get("b", 1))
    rep = duality_report(h, b, budget)
    results = {
        "b": rep.b,
        "nu_b": rep.nu_b_value,
        "nu_b_over_b": rat_str(rat(rep.nu_b_value, rep.b)),
        "nu_star": rat_str(rep.nu_star_result.value),
        "nu_star_weights": [rat_str(w) for w in rep.nu_star_result.weights],
        "tau_star": rat_str(rep.tau_star_result.value),
        "tau_star_weights": [rat_str(w) for w in rep.tau_star_result.weights],
        "tau": rep.tau_result.size if rep.tau_result else None,
        "tau_witness": sorted(rep.tau_result.witness) if rep.tau_result else None,
        "sandwich_ok": rep.sandwich_ok,
    }
    if rep.scale_note:
        results["scale_note"] = rep.scale_note
    log = [
        "nu_b/b <= nu* = tau* <= tau verified with exact rational arithmetic",
        f"nu* = tau* = {rat_str(rep.nu_star_result.value)}",
    ]
    return Outcome(results, EXIT_OK, log)


_PLANAR_LABELS = ("triangles", "segments")

# size parameters of each generator kind, with their defaults
_GENERATOR_DEFAULTS = {"figure1": {"d": 2, "n": 1}, "planar": {"f": 1}, "simplex": {"d": 3, "f": 1}}


def _generator_params(request: dict, kind: str) -> dict:
    if kind not in _GENERATOR_DEFAULTS:
        raise InputError(f"unknown generator kind {kind!r}")
    return {
        key: int(request.get(key, default))
        for key, default in _GENERATOR_DEFAULTS[kind].items()
    }


def _generator_family(request: dict):
    """Build (family, labels, audit, construction) for a generate request."""
    from .constructions import generate_figure1, generate_planar, generate_simplex_family

    kind = request["kind"]
    params = _generator_params(request, kind)
    seed = int(request.get("seed", 0))
    if kind == "figure1":
        d, n = params["d"], params["n"]
        fam = generate_figure1(d, n)
        labels = [f"axis {i + 1} hyperplanes" for i in range(d)] + ["whole space"]
        return fam, labels, {"kind": kind, "d": d, "n": n}, None
    if kind == "planar":
        c = generate_planar(params["f"], seed)
        audit = {
            "kind": kind,
            "f": c.f,
            "m": c.m,
            "seed": seed,
            "heights": [rat_str(x) for x in c.heights],
            "anchors": [rat_str(x) for x in c.anchors],
            "side_spans": [[rat_str(lo), rat_str(hi)] for lo, hi in c.side_spans],
            "step": rat_str(c.step),
        }
        return c.family, list(_PLANAR_LABELS), audit, c
    d, f = params["d"], params["f"]  # simplex
    c = generate_simplex_family(d, f, seed)
    labels = [f"cones over face {i + 1}" for i in range(d - 1)] + ["facet copies"]
    audit = {
        "kind": kind,
        "d": d,
        "f": f,
        "m": c.m,
        "seed": seed,
        "epsilon": rat_str(c.epsilon),
        "eta": rat_str(c.eta),
        "triangle_params": [
            [[rat_str(mu), rat_str(theta)] for mu, theta in face]
            for face in c.triangle_params
        ],
    }
    return c.family, labels, audit, c


def _cmd_generate(_, request: dict, budget: SearchBudget) -> Outcome:
    fam, labels, audit, construction = _generator_family(request)
    results = {"family": family_to_doc(fam, labels), "audit": audit}
    log = [f"generated {request['kind']} family with {fam.num_classes} classes"]
    svg_path = request.get("svg")
    if svg_path:
        if request["kind"] != "planar":
            raise InputError("SVG emission is supported for planar constructions")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(_planar_svg(construction))
        log.append(f"wrote SVG rendering to {svg_path}")
    return Outcome(results, EXIT_OK, log)


def _claim(name: str, observed, required, ok: bool, **extra) -> dict:
    out = {"claim": name, "observed": observed, "required": required, "ok": bool(ok)}
    out.update(extra)
    return out


def _cmd_verify_lower_bound(_, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import check_ch
    from .constructions import max_simplex_facets_crossed

    fam, labels, audit, construction = _generator_family(request)
    kind = request["kind"]
    claims = []
    log = []
    if kind == "figure1":
        d, n = audit["d"], audit["n"]
        rep = check_ch(fam, budget)
        claims.append(_claim("colorful Helly property", rep.holds, True, rep.holds))
        for i in range(d):
            r = piercing_number(list(fam.classes[i]), budget)
            claims.append(
                _claim(f"piercing number of class {i + 1}", r.size, n, r.size == n)
            )
        diagonal = AffineFlat.line(
            tuple(rat(0) for _ in range(d)), tuple(ONE for _ in range(d))
        )
        crossed = all(flat_crosses(diagonal, s) for s in fam.all_sets())
        claims.append(_claim("diagonal line crosses every set", crossed, True, crossed))
    elif kind == "planar":
        f, m = audit["f"], audit["m"]
        tri = list(construction.triangles)
        seg = list(construction.segments)
        r1 = piercing_number(tri, budget)
        claims.append(
            _claim("piercing number of triangles", r1.size, f">= {f}", r1.size >= f)
        )
        seg_disjoint = first_meeting(seg, 2) is None
        if seg_disjoint:  # one point per segment is needed, and enough
            seg_tau = len(seg)
        else:
            seg_tau = piercing_number(seg, budget).size
        claims.append(
            _claim("piercing number of segments", seg_tau, 3 * m, seg_tau == 3 * m)
        )
        claims.append(
            _claim("segments pairwise disjoint", seg_disjoint, True, seg_disjoint)
        )
        cover = line_cover_number(tri + seg, budget)
        claims.append(_claim("line cover of the union", cover.size, ">= 2", cover.size >= 2))
        triples_ok = first_meeting(tri, 3) is None
        claims.append(_claim("no three triangles share a point", triples_ok, True, triples_ok))
        log.append(f"line cover witness size {cover.size} over exact candidate pool")
    else:  # simplex
        d, f = audit["d"], audit["f"]
        rep = check_ch(fam, budget)
        claims.append(_claim("colorful Helly property", rep.holds, True, rep.holds))
        for i, cls in enumerate(construction.cone_classes):
            r = piercing_number(list(cls), budget)
            claims.append(
                _claim(f"piercing number of cone class {i + 1}", r.size, f">= {f}", r.size >= f)
            )
        groups = construction.facet_groups
        disjoint = all(first_meeting(group, 2) is None for group in groups)
        claims.append(_claim("facet copy groups pairwise disjoint", disjoint, True, disjoint))
        needed = (d + 2) // 2
        crossing = max_simplex_facets_crossed(d)
        claims.append(
            _claim(
                "max facet interiors crossed by one line",
                crossing.value,
                2,
                crossing.value == 2,
                argument=crossing.argument,
            )
        )
        if d == 2:  # bounded planar sets: the vertex-pair pool is complete
            cover = line_cover_number(list(construction.all_sets), budget)
            claims.append(
                _claim(
                    "line cover of the union",
                    cover.size,
                    f">= {needed}",
                    cover.size >= needed,
                )
            )
        else:  # a pool value is only an upper bound here: prove the lower one
            claims.append(
                _claim(
                    "line cover of the union",
                    f"implied >= {needed}",
                    f">= {needed}",
                    crossing.value == 2,
                    method="facet-crossing bound: a line crosses at most 2 facet interiors",
                )
            )
        if d == 3:
            cover = line_cover_number(list(construction.all_sets), budget)
            claims.append(
                _claim(
                    "line cover of the union, upper bound",
                    cover.size,
                    f">= {needed}",
                    cover.size >= needed,
                    method="verified line witness over the candidate pool",
                )
            )
    all_ok = all(c["ok"] for c in claims)
    results = {"kind": kind, "audit": audit, "claims": claims, "all_ok": all_ok}
    log.append(f"{sum(c['ok'] for c in claims)}/{len(claims)} claims verified")
    return Outcome(results, EXIT_OK if all_ok else EXIT_REFUTED, log)


def _cmd_relint_check(_, request: dict, budget: SearchBudget) -> Outcome:
    from .constructions import generate_simplex_family, verify_relint_property

    params = _generator_params(request, "simplex")
    d, f = params["d"], params["f"]
    seed = int(request.get("seed", 0))
    construction = generate_simplex_family(d, f, seed)
    rep = verify_relint_property(construction)
    entries = [
        {
            "selection": list(e.selection),
            "facet": e.facet,
            "margin": rat_str(e.margin) if e.margin is not None else None,
            "point": vec_to_json(e.point) if e.point is not None else None,
            "ok": e.ok,
        }
        for e in rep.entries
    ]
    results = {
        "d": d,
        "f": f,
        "seed": seed,
        "holds": rep.holds,
        "selections": len(entries),
        "entries": entries,
    }
    log = [
        f"swept {len(entries)} colorful selections against facet relative interiors"
    ]
    if not rep.holds:
        log.append(f"{len(rep.failures)} selections failed: construction bug")
        return Outcome(results, EXIT_REFUTED, log)
    return Outcome(results, EXIT_OK, log)


def _cmd_generic_line(family, request: dict, budget: SearchBudget) -> Outcome:
    from .colorful import generic_line_class

    fam, labels = family
    seed = int(request.get("seed", 0))
    k, line = generic_line_class(fam, seed=seed, budget=budget)
    results = {
        "class_index": k,
        "label": labels[k],
        "line": line_to_json(line),
    }
    log = [
        f"projection along a seeded direction left class {k} with a common point",
        f"the fiber line crosses all {len(fam.classes[k])} members (exact)",
    ]
    return Outcome(results, EXIT_OK, log)


# -- certificate checks ---------------------------------------------------------
# One checker per command reads the JSON results of a report against its
# parsed input, raises TheoremViolationError on a failed certificate, and
# returns the note `recheck` logs (None: nothing to check).  A result with
# `holds: false` is checked as a refutation, by `_check_refutation`, instead.


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise TheoremViolationError(message)


def _require_met(sets, items, meets, message: str) -> None:
    """Every set is met by some item: `meets(item, set)`."""
    _require(all(any(meets(x, s) for x in items) for s in sets), message)


def _inside(point, s) -> bool:
    return s.contains(point)


def _check_refutation(family, results: dict) -> str:
    sets = [family[0].classes[k][i] for k, i in results["violating_rainbow"]]
    entries = farkas_from_json(results["farkas"])
    _require(verify_farkas_entries(sets, entries), "emptiness certificate failed")
    return "emptiness certificate re-aggregated exactly"


def _check_check_ch(family, results: dict) -> Optional[str]:
    if not results.get("witnesses_included"):
        return None
    for w in results["witnesses"]:
        picked = [family[0].classes[k][i] for k, i in enumerate(w["rainbow"])]
        point = vec_from_json(w["point"])
        _require_met(picked, [point], _inside, "rainbow witness rejected")
    return f"{len(results['witnesses'])} rainbow witnesses re-verified"


def _check_intersecting(family, results: dict) -> str:
    members = family[0].classes[results["class_index"]]
    point = vec_from_json(results["point"])
    _require_met(members, [point], _inside, "class witness rejected")
    return "class common point re-verified"


def _check_pierce(family, results: dict) -> str:
    points = [vec_from_json(p) for p in results["points"]]
    _require_met(family[0].all_sets(), points, _inside, "piercing set rejected")
    return "piercing transversal re-verified"


def _check_line_cover(family, results: dict) -> str:
    lines = [line_from_json(obj) for obj in results["lines"]]
    _require_met(family[0].all_sets(), lines, flat_crosses, "line cover rejected")
    return "line cover re-verified"


def _require_pierced(fam: ColoredFamily, results: dict) -> None:
    members = fam.classes[results["class_index"]]
    point = vec_from_json(results["points"][0])
    _require_met(members, [point], _inside, "piercing point rejected")


def _check_two_color(family, results: dict) -> str:
    fam, _ = family
    if results["outcome"] == "pierced":
        _require_pierced(fam, results)
    else:
        crossed = fam.classes[results["class_crossed"]]
        planes = [hyperplane_from_json(h) for h in results["hyperplanes"]]
        _require_met(crossed, planes, hyperplane_crosses, "hyperplane cover rejected")
    return "two-color certificate re-verified"


def _check_d2_dichotomy(family, results: dict) -> str:
    fam, _ = family
    if results["outcome"] == "pierced":
        _require_pierced(fam, results)
    else:
        lines = [line_from_json(obj) for obj in results["lines"]]
        _require_met(fam.all_sets(), lines, flat_crosses, "dichotomy lines rejected")
    return "dichotomy certificate re-verified"


def _check_generic_line(family, results: dict) -> str:
    members = family[0].classes[results["class_index"]]
    line = line_from_json(results["line"])
    _require_met(members, [line], flat_crosses, "line rejected")
    return "crossing line re-verified"


def _side_met(sets, results: dict, key: str, parse, meets, value) -> bool:
    """One side of a fractional report: its stored witness meets every set it
    lists as covered, and its target is `value` times the number of sets.
    Returns whether the side meets its target."""
    side, name = results[f"{key}_side"], f"{key} side"
    covered = side["covered"]
    _require(
        covered == sorted(set(covered))
        and all(type(j) is int and 0 <= j < len(sets) for j in covered),
        f"{name} covered indices are not distinct indices of the class",
    )
    if side[key] is None:
        _require(not covered, f"{name} covers sets without a witness")
    else:
        item = parse(side[key])
        _require_met([sets[j] for j in covered], [item], meets, f"{name} witness rejected")
    target = rat(side["target"])
    _require(target == rat(value) * len(sets), f"{name} target mismatch")
    return len(covered) >= target


def _check_fractional(family, results: dict) -> str:
    a_sets, b_sets = family[0].classes
    point_met = _side_met(a_sets, results, "point", vec_from_json, _inside, results["gamma"])
    # the LP predicate, independent of the line kernel the search uses
    plane_met = _side_met(
        b_sets, results, "hyperplane", hyperplane_from_json, hyperplane_crosses, results["lambda"]
    )
    _require(results["holds"] == (point_met or plane_met), "holds flag mismatch")
    return "fractional dichotomy witnesses re-verified"


def _check_duality(h, results: dict) -> str:
    weights = [rat(w) for w in results["tau_star_weights"]]
    _require(
        len(weights) == h.vertex_count,
        "tau* weight count differs from the vertex count",
    )
    _require(all(w >= 0 for w in weights), "tau* weights must be nonnegative")
    _require(
        all(sum(weights[v] for v in e) >= ONE for e in h.edges),
        "tau* weights not a transversal",
    )
    tau_star = rat(results["tau_star"])
    _require(sum(weights) == tau_star, "tau* value mismatch")
    # the packing side: nu* weights, tau* = nu*, and the sandwich around them
    ys, nu_star = [rat(y) for y in results["nu_star_weights"]], rat(results["nu_star"])
    _require(len(ys) == len(h.edges), "nu* weight count differs from the edge count")
    _require(all(y >= 0 for y in ys), "nu* weights must be nonnegative")
    _require(
        all(sum(y for y, e in zip(ys, h.edges) if v in e) <= ONE for v in range(h.vertex_count)),
        "nu* weights overload a vertex",
    )
    _require(sum(ys) == nu_star, "nu* value mismatch")
    _require(nu_star == tau_star, "nu* differs from tau*")
    _require(results["nu_b"] <= results["b"] * nu_star, "nu_b exceeds b * nu*")
    if results["tau"] is not None:
        witness = results["tau_witness"]
        _require(
            all(type(v) is int and 0 <= v < h.vertex_count for v in witness)
            and len(set(witness)) == results["tau"],
            "tau witness is not tau distinct vertices",
        )
        _require(all(e & set(witness) for e in h.edges), "tau witness not a transversal")
        _require(results["tau"] >= ceil_rat(tau_star), "tau below ceil(tau*)")
    return "fractional transversal certificate re-verified"


def _check_results(command, results: dict, parsed: Callable) -> Optional[str]:
    """Run the command's checker on its results, reading the input with
    `parsed()` only then; error results carry no certificate and are not
    checked."""
    entry = _COMMANDS.get(command)
    if entry is None or entry.check is None or "error" in results:
        return None
    if results.get("holds") is False:
        return _check_refutation(parsed(), results)
    return entry.check(parsed(), results)


# -- recheck ------------------------------------------------------------------


def _stored_budget(report: dict) -> SearchBudget:
    """The budgets a report was computed under; fields it omits keep their
    defaults."""
    stored = report.get("budgets", {})
    names = {f.name for f in dataclasses.fields(SearchBudget)}
    if (
        not isinstance(stored, dict)
        or not set(stored) <= names
        or any(type(v) is not int for v in stored.values())
    ):
        raise InputError(f"malformed stored budgets: {stored!r}")
    return SearchBudget(**stored)


def _stored_report(doc) -> dict:
    """A previously emitted report, with a stored request `recheck` can re-run."""
    if not isinstance(doc, dict) or not isinstance(doc.get("request"), dict):
        raise InputError("recheck expects a previously emitted report")
    if doc["request"].get("command") == "recheck":
        raise InputError("rechecking a recheck report is not supported")
    if "input" not in doc["request"]:
        raise InputError("malformed stored request: missing 'input'")
    return doc


def _differing_parameters(request: dict) -> list:
    """The construction parameters whose top-level copy, the one a re-run
    reads, differs from the digested copy in `input`.  Every digested
    parameter but `kind` (implied by `relint-check`) has a top-level copy."""
    params = request["input"]
    if not isinstance(params, dict):
        raise InputError("malformed stored request: 'input' is not an object")
    missing = sorted(k for k in params if k not in request and k != "kind")
    if missing:
        raise InputError(f"malformed stored request: missing {missing}")
    return sorted(k for k, v in params.items() if k in request and request[k] != v)


def _cmd_recheck(report: dict, request: dict, budget: SearchBudget) -> Outcome:
    """Check the stored certificate, then re-run the stored request under
    the stored budgets and demand the same results and exit code."""
    stored_request = report["request"]
    command = stored_request.get("command")
    stored_budget = _stored_budget(report)
    stored_results = report.get("results", {})
    stored_digest = report.get("input_digest")
    fresh = digest(stored_request["input"])
    if stored_digest != fresh:
        results = {
            "agrees": False,
            "reason": "input digest mismatch",
            "stored": stored_digest,
            "recomputed": fresh,
        }
        return Outcome(results, EXIT_REFUTED, ["digest mismatch"])
    entry = _COMMANDS.get(command)
    if entry is not None and entry.read is None:
        differing = _differing_parameters(stored_request)
        if differing:
            results = {
                "agrees": False,
                "reason": "request parameters differ from the digested input",
                "parameters": differing,
            }
            return Outcome(results, EXIT_REFUTED, ["parameter mismatch"])
    try:
        note = _check_results(command, stored_results, lambda: entry.read(stored_request["input"]))
    except TheoremViolationError as exc:
        raise TheoremViolationError(f"stored {exc}") from None
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"malformed stored certificate: {exc!r}") from None
    log = [] if note is None else [note]
    if "svg" in stored_request:
        # re-run the SVG path without leaving a file behind
        stored_request = {**stored_request, "svg": os.devnull}
    try:
        rerun = _dispatch(stored_request, stored_budget)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed stored request: {exc!r}") from None
    fresh_results = json.loads(json.dumps(rerun.results))
    # compare the JSON texts: Python `==` lets `true` or `1.0` pass for `1`
    agrees = canonical_dumps([fresh_results, rerun.exit_code]) == canonical_dumps(
        [stored_results, report.get("exit_code")]
    )
    results = {
        "agrees": agrees,
        "command": command,
        "exit_code_stored": report.get("exit_code"),
        "exit_code_recomputed": rerun.exit_code,
    }
    if not agrees:
        results["recomputed_results"] = fresh_results
        return Outcome(results, EXIT_REFUTED, log + ["re-run disagreed with report"])
    log.append("re-run reproduced the stored results exactly")
    return Outcome(results, EXIT_OK, log)


# -- planar SVG (visual aid only) ----------------------------------------------


def _svg_coords(v) -> tuple[float, float]:
    return float(v[0]) * 40 + 40, 560 - float(v[1]) * 40


def _planar_svg(construction) -> str:
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">'
    ]

    def polygon(vertices, stroke, width=2):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(_svg_coords, vertices))
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    polygon(construction.outer.vertices_hint, "#333333", width=3)
    palette = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")
    for i, tri in enumerate(construction.triangles):
        polygon(tri.vertices_hint, palette[i % len(palette)])
    for seg in construction.segments:
        (x1, y1), (x2, y2) = map(_svg_coords, seg.vertices_hint)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#555555" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# -- dispatch and entry point ---------------------------------------------------


class _Command(NamedTuple):
    run: Callable  # (parsed input, request, budget) -> Outcome
    read: Optional[Callable] = None  # input document -> parsed input; None: not read
    check: Optional[Callable] = None  # (parsed input, results) -> note; None: re-run only


_COMMANDS = {
    "check-ch": _Command(_cmd_check_ch, family_from_doc, _check_check_ch),
    "intersecting-class": _Command(_cmd_intersecting, family_from_doc, _check_intersecting),
    "pierce": _Command(_cmd_pierce, family_from_doc, _check_pierce),
    "line-cover": _Command(_cmd_line_cover, family_from_doc, _check_line_cover),
    "two-color": _Command(_cmd_two_color, _two_classes, _check_two_color),
    "d2-dichotomy": _Command(_cmd_d2_dichotomy, _two_classes, _check_d2_dichotomy),
    "fractional-two-color": _Command(_cmd_fractional, _two_classes, _check_fractional),
    "duality": _Command(_cmd_duality, hypergraph_from_doc, _check_duality),
    "generate": _Command(_cmd_generate),
    "verify-lower-bound": _Command(_cmd_verify_lower_bound),
    "relint-check": _Command(_cmd_relint_check),
    "generic-line": _Command(_cmd_generic_line, family_from_doc, _check_generic_line),
    "recheck": _Command(_cmd_recheck, _stored_report),
}


# exit code of each error class; the first match wins, so PreconditionError
# reports as the InputError it subclasses
_ERROR_EXITS = {
    InputError: EXIT_INPUT,
    ScaleError: EXIT_SCALE,
    GenerationError: EXIT_SCALE,
    TheoremViolationError: EXIT_REFUTED,
}


def _error_outcome(exc: Exception) -> Outcome:
    """Results of a failed request: the message, the budget a ScaleError
    names, the witness a PreconditionError carries, and `refuted` for a
    TheoremViolationError."""
    results = {"error": str(exc)}
    if isinstance(exc, ScaleError):
        results.update(budget=exc.budget_name, limit=exc.limit, actual=exc.actual)
    witness = _jsonable_witness(getattr(exc, "witness", None))
    if witness is not None:
        results["witness"] = witness
    if isinstance(exc, TheoremViolationError):
        results["refuted"] = True
    code = next(code for cls, code in _ERROR_EXITS.items() if isinstance(exc, cls))
    return Outcome(results, code, [])


def _dispatch(request: dict, budget: SearchBudget) -> Outcome:
    command = request.get("command")
    entry = _COMMANDS.get(command)
    if entry is None:
        raise InputError(f"unknown command {command!r}")
    try:
        parsed = entry.read(request["input"]) if entry.read else None
        outcome = entry.run(parsed, request, budget)
        _check_results(command, outcome.results, lambda: parsed)
        return outcome
    except tuple(_ERROR_EXITS) as exc:
        return _error_outcome(exc)


def _render_pretty(report: dict) -> str:
    lines = [
        f"command      {report['command']}",
        f"exit code    {report['exit_code']}",
        f"wall time    {report['wall_time_ms']} ms",
    ]
    if "input_digest" in report:
        lines.append(f"input digest {report['input_digest'][:16]}...")

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v)
        elif isinstance(value, list) and len(value) > 6:
            lines.append(f"  {prefix[:-1]:<28} [{len(value)} entries]")
        else:
            lines.append(f"  {prefix[:-1]:<28} {value}")

    lines.append("results:")
    walk("", report["results"])
    for entry in report.get("verification", []):
        lines.append(f"  note: {entry}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument(
        "--pretty",
        action="store_true",
        help="indent the JSON report and print a summary table to stderr",
    )
    parser = argparse.ArgumentParser(
        prog="hellykit",
        description="exact transversal and colorful-Helly toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(name: str, help_text: str, input_help: str = "family JSON path or '-'"):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--input", required=True, help=input_help)
        return p

    with_input("check-ch", "sweep all rainbow selections of a colored family")
    with_input("intersecting-class", "find a class with a common point (d+1 classes)")
    with_input("pierce", "exact piercing number of all sets in a document")
    with_input("line-cover", "exact line cover over the candidate pool")
    with_input("two-color", "piercing point or <= d crossing hyperplanes")
    with_input("d2-dichotomy", "planar dichotomy: one point or <= 4 lines")
    p = with_input("fractional-two-color", "fractional dichotomy with thresholds")
    p.add_argument("--alpha", required=True, help="meeting-pair fraction, e.g. 1/2")
    p = with_input("duality", "nu_b/b <= nu* = tau* <= tau", "hypergraph JSON path or '-'")
    p.add_argument("--b", type=int, default=1, help="matching multiplicity bound")
    p = sub.add_parser("generate", parents=[common], help="emit a named construction")
    p.add_argument("kind", choices=("figure1", "planar", "simplex"))
    p.add_argument("--d", type=int, help="ambient dimension")
    p.add_argument("--n", type=int, help="hyperplanes per class (figure1)")
    p.add_argument("--f", type=int, help="target piercing parameter (m = 2f)")
    p.add_argument("--svg", help="write an SVG rendering (planar only)")
    p = sub.add_parser(
        "verify-lower-bound",
        parents=[common],
        help="re-generate a construction and certify its claims",
    )
    p.add_argument("kind", choices=("figure1", "planar", "simplex"))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--f", type=int)
    p = sub.add_parser(
        "relint-check",
        parents=[common],
        help="sweep colorful selections against facet relative interiors",
    )
    p.add_argument("--d", type=int)
    p.add_argument("--f", type=int)
    with_input("generic-line", "one class crossed by a line along a seeded direction")
    with_input("recheck", "re-validate a previously emitted report", "report JSON path or '-'")
    return parser


def _request_from_args(args: argparse.Namespace) -> dict:
    request: dict = {"command": args.command, "seed": args.seed}
    given = {k: v for k, v in vars(args).items() if v is not None}
    if args.command in ("generate", "verify-lower-bound"):
        request["kind"] = args.kind
        request.update(_generator_params(given, args.kind))
        if args.command == "generate" and args.svg:
            request["svg"] = args.svg
        request["input"] = {
            k: v for k, v in request.items() if k in ("kind", "d", "n", "f", "seed")
        }
    elif args.command == "relint-check":
        sizes = _generator_params(given, "simplex")
        request.update(sizes)
        request["input"] = {"kind": "simplex", **sizes, "seed": args.seed}
    else:
        request["input"] = _read_json(args.input)
        request.update((key, given[key]) for key in ("alpha", "b") if key in given)
    return request


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        budget = budget_from_env(os.environ)
        request = _request_from_args(args)
    except InputError as exc:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "results": {"error": str(exc)},
            "verification": [],
            "exit_code": EXIT_INPUT,
            "wall_time_ms": 0,
        }
        print(json.dumps(report, indent=2 if args.pretty else None))
        return EXIT_INPUT
    started = time.monotonic()
    outcome = _dispatch(request, budget)
    wall_ms = int((time.monotonic() - started) * 1000)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": request["command"],
        "request": request,
        "input_digest": digest(request.get("input")),
        "seed": request.get("seed", 0),
        "budgets": dataclasses.asdict(budget),
        "results": outcome.results,
        "verification": outcome.log,
        "wall_time_ms": wall_ms,
        "exit_code": outcome.exit_code,
    }
    print(json.dumps(report, indent=2 if args.pretty else None))
    if args.pretty:
        print(_render_pretty(report), file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
