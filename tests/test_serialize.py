"""JSON documents: exact rationals in, exact rationals out, stable digests."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROPERTY, load_fixture, polyhedra
from oracles import poly_equal
from hellykit.errors import InputError
from hellykit.geometry import AffineFlat, ColoredFamily, FarkasEntry, Point, Polyhedron
from hellykit.hypergraphs import Hypergraph
from hellykit.rationals import rat
from hellykit.serialize import (
    SCHEMA_VERSION,
    canonical_dumps,
    digest,
    family_from_doc,
    family_to_doc,
    farkas_from_json,
    farkas_to_json,
    hypergraph_from_doc,
    hypergraph_to_doc,
    line_from_json,
    line_to_json,
    point_to_json,
    polyhedron_from_json,
    polyhedron_to_json,
    vec_from_json,
    vec_to_json,
)


def _assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into a document: {obj!r}")
    if isinstance(obj, dict):
        for v in obj.values():
            _assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            _assert_no_floats(v)


def test_family_documents_round_trip():
    for name in ("family_ch_d2.json", "family_ch_d3.json", "family_disjoint_boxes.json"):
        doc = load_fixture(name)
        fam, labels = family_from_doc(doc)
        again = family_to_doc(fam, labels)
        fam2, labels2 = family_from_doc(json.loads(json.dumps(again)))
        assert fam2 == fam
        assert labels2 == labels
        _assert_no_floats(again)


def test_hypergraph_documents_round_trip():
    for name in ("hypergraph_triangle.json", "hypergraph_fano.json"):
        doc = load_fixture(name)
        h = hypergraph_from_doc(doc)
        again = hypergraph_to_doc(h)
        assert hypergraph_from_doc(json.loads(json.dumps(again))) == h
        _assert_no_floats(again)


def test_hypergraph_points_payload_round_trip():
    h = Hypergraph(
        2,
        (frozenset({0, 1}),),
        payload=(Point((rat(1, 3), rat(2))), Point((rat("-5/7"), rat(0)))),
    )
    doc = hypergraph_to_doc(h)
    assert doc["points"] == [["1/3", "2"], ["-5/7", "0"]]
    assert hypergraph_from_doc(doc) == h


def test_vectors_serialize_as_rational_strings():
    v = (rat(1, 3), rat(-7, 2), rat(4))
    encoded = vec_to_json(v)
    assert encoded == ["1/3", "-7/2", "4"]
    assert vec_from_json(encoded) == v
    with pytest.raises(InputError):
        vec_from_json([])
    with pytest.raises(InputError):
        vec_from_json("1/3")


def test_polyhedron_hrep_round_trip():
    box = Polyhedron.box([rat(0), rat(-1, 2)], [rat(3), rat(5, 2)])
    obj = polyhedron_to_json(box)
    _assert_no_floats(obj)
    assert poly_equal(polyhedron_from_json(obj, 2), box)


def test_vrep_accepts_simplices_only():
    triangle = {"vrep": {"vertices": [["0", "0"], ["2", "0"], ["0", "2"]]}}
    poly = polyhedron_from_json(triangle, 2)
    assert poly.contains((rat(1, 2), rat(1, 2)))
    assert not poly.contains((rat(2), rat(2)))
    square = {
        "vrep": {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}
    }
    with pytest.raises(InputError):
        polyhedron_from_json(square, 2)


def test_vrep_rejects_high_dimension_and_bad_width():
    point4 = {"vrep": {"vertices": [["0", "0", "0", "0"]]}}
    with pytest.raises(InputError):
        polyhedron_from_json(point4, 4)
    skew = {"vrep": {"vertices": [["0", "0", "0"]]}}
    with pytest.raises(InputError):
        polyhedron_from_json(skew, 2)


def test_polyhedron_requires_some_representation():
    with pytest.raises(InputError):
        polyhedron_from_json({}, 2)
    with pytest.raises(InputError):
        polyhedron_from_json({"hrep": []}, 2)


def test_family_document_validation():
    good = load_fixture("family_ch_d2.json")
    stale = dict(good, schema_version=99)
    with pytest.raises(InputError):
        family_from_doc(stale)
    with pytest.raises(InputError):
        family_from_doc(dict(good, dim="two"))
    with pytest.raises(InputError):
        family_from_doc(dict(good, classes=[]))
    with pytest.raises(InputError):
        family_from_doc(dict(good, classes=[{"label": "empty", "sets": []}]))


def test_hypergraph_document_validation():
    with pytest.raises(InputError):
        hypergraph_from_doc({"schema_version": SCHEMA_VERSION, "vertices": 3})
    with pytest.raises(InputError):
        hypergraph_from_doc(
            {"schema_version": SCHEMA_VERSION, "vertices": 2, "edges": [["a"]]}
        )
    with pytest.raises(InputError):
        hypergraph_from_doc(
            {
                "schema_version": SCHEMA_VERSION,
                "vertices": 2,
                "edges": [[0, 1]],
                "points": [["0", "0"]],
            }
        )


def test_point_and_line_round_trip():
    assert point_to_json(Point((rat(1, 2), rat(-3)))) == ["1/2", "-3"]
    line = AffineFlat.line((rat(0), rat(1)), (rat(2), rat(1)))
    obj = line_to_json(line)
    back = line_from_json(json.loads(json.dumps(obj)))
    assert back.base == line.base
    assert back.directions == line.directions
    plane = AffineFlat(
        3, (rat(0),) * 3, ((rat(1), rat(0), rat(0)), (rat(0), rat(1), rat(0)))
    )
    with pytest.raises(InputError):
        line_to_json(plane)


def test_farkas_round_trip_and_validation():
    entries = (
        FarkasEntry(0, "ineq", 1, rat(2, 3)),
        FarkasEntry(1, "eq", 0, rat(-1, 4)),
    )
    obj = farkas_to_json(entries)
    _assert_no_floats(obj)
    assert farkas_from_json(json.loads(json.dumps(obj))) == entries
    with pytest.raises(InputError):
        farkas_from_json([{"set": 0, "kind": "mystery", "row": 0, "multiplier": "1"}])
    with pytest.raises(InputError):
        farkas_from_json({"set": 0})


def test_canonical_digest_ignores_key_order_and_spacing():
    a = {"b": [1, 2], "a": {"y": "1/2", "x": "3"}}
    b = {"a": {"x": "3", "y": "1/2"}, "b": [1, 2]}
    assert canonical_dumps(a) == canonical_dumps(b)
    assert digest(a) == digest(b)
    assert digest(a) != digest(dict(a, b=[2, 1]))
    assert len(digest(a)) == 64


def test_digest_is_stable_across_runs():
    doc = load_fixture("family_ch_d2.json")
    assert digest(doc) == digest(json.loads(json.dumps(doc)))


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_family_documents_round_trip_on_drawn_families(data):
    d = data.draw(st.sampled_from([2, 3]))
    classes = data.draw(
        st.lists(st.lists(polyhedra(d), min_size=1, max_size=3), min_size=1, max_size=2)
    )
    fam = ColoredFamily(d, tuple(map(tuple, classes)))
    back, labels = family_from_doc(json.loads(canonical_dumps(family_to_doc(fam))))
    assert back == fam
    assert labels == [f"class {i + 1}" for i in range(len(classes))]
