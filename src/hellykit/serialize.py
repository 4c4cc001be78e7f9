"""Lossless JSON interchange for families, hypergraphs, and certificates.

All rationals travel as exact strings ("3", "-7/2", or exact decimals on
input), never as floats.  Polyhedra serialize in H-representation; a
V-representation is accepted on input for simplicial shapes in dimension
at most 3 and is converted to rows on load.  Loading a saved object
reproduces it exactly (vertex hints are a reconstruction aid and do not
take part in equality).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

from .errors import InputError
from .geometry import (
    AffineFlat,
    ColoredFamily,
    FarkasEntry,
    Halfspace,
    Hyperplane,
    Point,
    Polyhedron,
    polytope_from_vertices,
)
from .hypergraphs import Hypergraph
from .rationals import rank, rat, rat_str, vsub

SCHEMA_VERSION = 1


# -- scalars and vectors ------------------------------------------------------


def vec_to_json(v: Sequence) -> list[str]:
    return [rat_str(x) for x in v]


def vec_from_json(obj) -> tuple:
    if not isinstance(obj, list) or not obj:
        raise InputError("vector must be a nonempty list of rational strings")
    return tuple(rat(x) for x in obj)


# -- rows and polyhedra -------------------------------------------------------


def row_to_json(row) -> dict:
    return {"normal": vec_to_json(row.normal), "offset": rat_str(row.offset)}


def _row_fields(obj: dict) -> tuple:
    if not isinstance(obj, dict) or "normal" not in obj or "offset" not in obj:
        raise InputError("row must carry 'normal' and 'offset'")
    return vec_from_json(obj["normal"]), rat(obj["offset"])


def halfspace_from_json(obj: dict) -> Halfspace:
    normal, offset = _row_fields(obj)
    return Halfspace(normal, offset)


def hyperplane_from_json(obj: dict) -> Hyperplane:
    normal, offset = _row_fields(obj)
    return Hyperplane(normal, offset)


def polyhedron_to_json(poly: Polyhedron) -> dict:
    hrep = {
        "inequalities": [row_to_json(h) for h in poly.inequalities],
        "equalities": [row_to_json(h) for h in poly.equalities],
    }
    out = {"hrep": hrep}
    if poly.vertices_hint is not None:
        out["vertices"] = [vec_to_json(v) for v in poly.vertices_hint]
    return out


def _polyhedron_from_vrep(obj: dict, dim: int) -> Polyhedron:
    verts = obj.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise InputError("vrep must carry a nonempty 'vertices' list")
    if dim > 3:
        raise InputError("vrep input is accepted in dimension <= 3 only")
    points = [vec_from_json(v) for v in verts]
    if any(len(p) != dim for p in points):
        raise InputError("vrep vertex width does not match the ambient dimension")
    distinct = []
    for p in points:
        if p not in distinct:
            distinct.append(p)
    if len(distinct) > dim + 1 or (
        len(distinct) > 1
        and rank([vsub(p, distinct[0]) for p in distinct[1:]]) != len(distinct) - 1
    ):
        raise InputError(
            "vrep input is accepted for simplicial shapes only "
            "(affinely independent vertices); supply an hrep instead"
        )
    return polytope_from_vertices(dim, distinct)


def polyhedron_from_json(obj: dict, dim: int) -> Polyhedron:
    if not isinstance(obj, dict):
        raise InputError("set must be an object with 'hrep' or 'vrep'")
    if "hrep" in obj:
        hrep = obj["hrep"]
        if not isinstance(hrep, dict):
            raise InputError("hrep must be an object")
        ineqs = tuple(
            halfspace_from_json(r) for r in hrep.get("inequalities", [])
        )
        eqs = tuple(hyperplane_from_json(r) for r in hrep.get("equalities", []))
        if any(len(h.normal) != dim for h in ineqs + eqs):
            raise InputError("row width does not match the ambient dimension")
        return Polyhedron(dim, ineqs, eqs)
    if "vrep" in obj:
        return _polyhedron_from_vrep(obj["vrep"], dim)
    raise InputError("set must carry either 'hrep' or 'vrep'")


# -- family documents ---------------------------------------------------------


def family_to_doc(
    fam: ColoredFamily, labels: Optional[Sequence[str]] = None
) -> dict:
    if labels is None:
        labels = [f"class {i + 1}" for i in range(fam.num_classes)]
    if len(labels) != fam.num_classes:
        raise InputError("one label per class is required")
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": fam.dim,
        "classes": [
            {
                "label": str(label),
                "sets": [polyhedron_to_json(s) for s in cls],
            }
            for label, cls in zip(labels, fam.classes)
        ],
    }


def family_from_doc(doc: dict) -> tuple[ColoredFamily, list[str]]:
    if not isinstance(doc, dict):
        raise InputError("family document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {doc.get('schema_version')!r}")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise InputError("family document needs an integer dim >= 1")
    raw_classes = doc.get("classes")
    if not isinstance(raw_classes, list) or not raw_classes:
        raise InputError("family document needs a nonempty 'classes' list")
    labels = []
    classes = []
    for entry in raw_classes:
        if not isinstance(entry, dict) or "sets" not in entry:
            raise InputError("each class needs a 'sets' list")
        labels.append(str(entry.get("label", f"class {len(labels) + 1}")))
        sets = entry["sets"]
        if not isinstance(sets, list) or not sets:
            raise InputError("each class needs at least one set")
        classes.append(tuple(polyhedron_from_json(s, dim) for s in sets))
    return ColoredFamily(dim, tuple(classes)), labels


# -- hypergraph documents -----------------------------------------------------


def hypergraph_to_doc(h: Hypergraph) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "vertices": h.vertex_count,
        "edges": [sorted(e) for e in h.edges],
    }
    if h.payload is not None and all(isinstance(p, Point) for p in h.payload):
        doc["points"] = [vec_to_json(p.coords) for p in h.payload]
    return doc


def hypergraph_from_doc(doc: dict) -> Hypergraph:
    if not isinstance(doc, dict):
        raise InputError("hypergraph document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {doc.get('schema_version')!r}")
    n = doc.get("vertices")
    edges = doc.get("edges")
    if type(n) is not int or n < 0 or not isinstance(edges, list):
        raise InputError(
            "hypergraph document needs an integer 'vertices' >= 0 and an 'edges' list"
        )
    if not all(isinstance(e, list) and all(type(v) is int for v in e) for e in edges):
        raise InputError("edges must be lists of integer vertex indices")
    payload = None
    if "points" in doc:
        pts = doc["points"]
        if not isinstance(pts, list) or len(pts) != n:
            raise InputError("'points' must list one point per vertex")
        payload = tuple(Point(vec_from_json(p)) for p in pts)
    return Hypergraph(n, tuple(edges), payload=payload)


# -- certificates and flats ---------------------------------------------------


def point_to_json(p: Point) -> list[str]:
    return vec_to_json(p.coords)


def line_to_json(line: AffineFlat) -> dict:
    if line.k != 1:
        raise InputError("only lines serialize through line_to_json")
    return {"base": vec_to_json(line.base), "direction": vec_to_json(line.directions[0])}


def line_from_json(obj: dict) -> AffineFlat:
    if not isinstance(obj, dict) or "base" not in obj or "direction" not in obj:
        raise InputError("line must carry 'base' and 'direction'")
    return AffineFlat.line(vec_from_json(obj["base"]), vec_from_json(obj["direction"]))


def farkas_to_json(entries: Sequence[FarkasEntry]) -> list[dict]:
    return [
        {
            "set": e.set_index,
            "kind": e.kind,
            "row": e.row_index,
            "multiplier": rat_str(e.multiplier),
        }
        for e in entries
    ]


def farkas_from_json(obj) -> tuple[FarkasEntry, ...]:
    if not isinstance(obj, list):
        raise InputError("farkas certificate must be a list")
    out = []
    for e in obj:
        if not isinstance(e, dict):
            raise InputError("farkas entry must be an object")
        kind = e.get("kind")
        if kind not in ("ineq", "eq"):
            raise InputError(f"unknown farkas row kind {kind!r}")
        set_index, row_index = e.get("set"), e.get("row")
        if not all(type(v) is int and v >= 0 for v in (set_index, row_index)):
            raise InputError(
                f"farkas set and row must be integers >= 0, got {set_index!r}, {row_index!r}"
            )
        out.append(FarkasEntry(set_index, kind, row_index, rat(e["multiplier"])))
    return tuple(out)


# -- canonical digests --------------------------------------------------------


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()
