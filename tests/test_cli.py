"""Command-line surface: JSON reports, exit codes, and recheckability."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from conftest import FIXTURES, load_fixture
from hellykit import cli
from hellykit.cli import main
from hellykit.hypergraphs import TransversalResult
from hellykit.rationals import rat


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_report_envelope_fields(capsys):
    code, report, _ = invoke(
        capsys, "pierce", "--input", str(FIXTURES / "corpus" / "single_triangle.json")
    )
    assert code == 0
    for key in (
        "schema_version",
        "command",
        "request",
        "input_digest",
        "seed",
        "budgets",
        "results",
        "verification",
        "wall_time_ms",
        "exit_code",
    ):
        assert key in report
    assert report["command"] == "pierce"
    assert report["exit_code"] == 0
    assert report["results"]["piercing_number"] == 1


def test_check_ch_holds_and_refutes(capsys):
    code, report, _ = invoke(
        capsys, "check-ch", "--input", str(FIXTURES / "family_ch_d2.json")
    )
    assert code == 0
    assert report["results"]["holds"] is True

    code, report, _ = invoke(
        capsys, "check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")
    )
    assert code == 2
    res = report["results"]
    assert res["holds"] is False
    assert res["violating_rainbow"] == [[0, 0], [1, 0]]
    assert res["farkas"], "refutation must carry a Farkas certificate"


def test_check_ch_lists_the_witnesses_of_its_own_sweep(capsys, monkeypatch):
    # one primal LP per rainbow selection, for its witness point: the sweep
    # itself decides on the transposed system, which `geometry.lp_solve`
    # does not see, and the report bytes stay pinned
    from hellykit import geometry

    solves = []
    lp_solve = geometry.lp_solve
    monkeypatch.setattr(geometry, "lp_solve", lambda lp: solves.append(lp) or lp_solve(lp))
    code, report, _ = invoke(capsys, "check-ch", "--input", str(FIXTURES / "family_ch_d2.json"))
    assert code == 0
    assert len(solves) == report["results"]["checked"] == len(report["results"]["witnesses"]) == 4
    blob = json.dumps({**report, "wall_time_ms": 0}).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "962696e8d72c7d3aa0d3ba239df512fb26676c84df68002793f24ab4beafd119"
    )


@pytest.mark.parametrize(
    "command, source",
    [("recheck", "report"), ("duality", "hypergraph"), ("pierce", "family")],
)
def test_input_help_names_the_document_read(capsys, command, source):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    words = " ".join(capsys.readouterr().out.split())  # as wrapped to any terminal width
    assert f"--input INPUT {source} JSON path or '-'" in words


def test_generate_then_verify_lower_bound(capsys):
    code, report, _ = invoke(capsys, "generate", "planar", "--f", "2", "--seed", "7")
    assert code == 0
    fam_doc = report["results"]["family"]
    assert len(fam_doc["classes"]) == 2
    assert len(fam_doc["classes"][1]["sets"]) == 12  # 3m segments with m = 2f

    code, report, _ = invoke(
        capsys, "verify-lower-bound", "planar", "--f", "2", "--seed", "7"
    )
    assert code == 0
    claims = {c["claim"]: c for c in report["results"]["claims"]}
    assert claims["piercing number of triangles"]["observed"] >= 2
    assert claims["line cover of the union"]["observed"] >= 2
    assert report["results"]["all_ok"] is True


def test_verify_lower_bound_planar_f3_fits_the_default_budgets(capsys):
    # 18 segments exceed max_subfamily_sets; pairwise disjoint, they need no tau
    code, report, _ = invoke(capsys, "verify-lower-bound", "planar", "--f", "3", "--seed", "0")
    assert code == 0
    claims = {c["claim"]: c for c in report["results"]["claims"]}
    assert claims["piercing number of segments"]["observed"] == 18
    assert claims["segments pairwise disjoint"]["observed"] is True
    assert report["results"]["all_ok"] is True


def test_verify_lower_bound_simplex_d2_line_cover_is_the_exact_pool_value(capsys):
    # bounded planar sets: the pool is complete, and the report is the one
    # the pool-value claim has always produced
    code, report, _ = invoke(capsys, "verify-lower-bound", "simplex", "--d", "2")
    assert code == 0
    claims = {c["claim"]: c for c in report["results"]["claims"]}
    assert claims["line cover of the union"] == {
        "claim": "line cover of the union",
        "observed": 2,
        "required": ">= 2",
        "ok": True,
    }
    assert "line cover of the union, upper bound" not in claims
    blob = json.dumps({**report, "wall_time_ms": 0}).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "b56bd5d19d0720ef46542d33ed45c43609e6cf2a9c0a665186bbad0c2ba2a3d5"
    )


def test_verify_lower_bound_simplex_d3_proves_the_line_cover_bound(capsys, monkeypatch):
    # in R^3 the pool value is only an upper bound: the lower half comes from
    # the facet-crossing claim, and a pool value below it is refuted
    code, report, _ = invoke(capsys, "verify-lower-bound", "simplex", "--d", "3")
    assert code == 0
    claims = {c["claim"]: c for c in report["results"]["claims"]}
    lower = claims["line cover of the union"]
    assert (lower["observed"], lower["ok"]) == ("implied >= 2", True)
    assert lower["method"].startswith("facet-crossing bound")
    upper = claims["line cover of the union, upper bound"]
    assert (upper["observed"], upper["ok"]) == (2, True)
    monkeypatch.setattr(cli, "line_cover_number", lambda sets, budget: TransversalResult(1, (0,)))
    code, report, _ = invoke(capsys, "verify-lower-bound", "simplex", "--d", "3")
    assert code == 2
    claims = {c["claim"]: c for c in report["results"]["claims"]}
    assert claims["line cover of the union"]["ok"] is True
    assert claims["line cover of the union, upper bound"]["ok"] is False


def test_duality_triangle_with_multiplicity_two(capsys):
    code, report, _ = invoke(
        capsys,
        "duality",
        "--input",
        str(FIXTURES / "hypergraph_triangle.json"),
        "--b",
        "2",
    )
    assert code == 0
    res = report["results"]
    assert res["nu_b"] == 3
    assert rat(res["nu_b_over_b"]) == rat(3, 2)
    assert rat(res["nu_star"]) == rat(3, 2)
    assert rat(res["tau_star"]) == rat(3, 2)
    assert res["tau"] == 2
    assert res["sandwich_ok"] is True


def test_line_cover_collinear_boxes(capsys):
    code, report, _ = invoke(
        capsys,
        "line-cover",
        "--input",
        str(FIXTURES / "corpus" / "three_collinear_boxes.json"),
    )
    assert code == 0
    assert report["results"]["size"] == 1
    assert len(report["results"]["lines"]) == 1


def test_two_color_on_meeting_pairs(capsys, tmp_path):
    from hellykit.instances import random_two_colored
    from hellykit.colorful import ColoredFamily
    from hellykit.serialize import family_to_doc

    a_sets, b_sets = random_two_colored(3, 2)
    doc = family_to_doc(ColoredFamily(2, (tuple(a_sets), tuple(b_sets))), ["A", "B"])
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    code, report, _ = invoke(capsys, "two-color", "--input", str(path))
    assert code == 0
    res = report["results"]
    assert res["outcome"] in ("pierced", "hyperplanes")
    if res["outcome"] == "hyperplanes":
        assert len(res["hyperplanes"]) <= 2


def test_recheck_agreement_and_tampering(capsys, tmp_path):
    code, report, _ = invoke(
        capsys, "check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")
    )
    assert code == 2
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(report))
    code, again, _ = invoke(capsys, "recheck", "--input", str(stored))
    assert code == 0
    assert again["results"]["agrees"] is True

    flipped = json.loads(stored.read_text())
    flipped["results"]["holds"] = True
    tampered = tmp_path / "flipped.json"
    tampered.write_text(json.dumps(flipped))
    code, verdict, _ = invoke(capsys, "recheck", "--input", str(tampered))
    assert code == 2
    assert verdict["results"]["agrees"] is False

    swapped = json.loads(stored.read_text())
    swapped["request"]["input"]["classes"][0]["label"] = "edited"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(swapped))
    code, verdict, _ = invoke(capsys, "recheck", "--input", str(edited))
    assert code == 2
    assert verdict["results"]["reason"] == "input digest mismatch"


@pytest.mark.parametrize(
    "forge",
    [
        lambda rep: rep["results"].update(checked=1.0),
        lambda rep: rep["results"].update(checked=True),
        lambda rep: rep["results"]["violating_rainbow"].__setitem__(1, [True, 0]),
        lambda rep: rep.update(exit_code=2.0),
    ],
    ids=["checked-float", "checked-bool", "rainbow-bool", "exit-code-float"],
)
def test_recheck_refutes_results_equal_only_under_python_eq(capsys, tmp_path, forge):
    # `1.0 == 1` and `True == 1` in Python, but the report bytes differ
    _, report, _ = invoke(
        capsys, "check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")
    )
    assert report["results"]["checked"] == 1
    assert report["results"]["violating_rainbow"][1] == [1, 0]
    assert report["exit_code"] == 2
    forge(report)
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 2
    assert verdict["results"]["agrees"] is False


def test_precondition_failures_exit_four(capsys):
    code, report, _ = invoke(
        capsys,
        "intersecting-class",
        "--input",
        str(FIXTURES / "family_disjoint_boxes.json"),
    )
    assert code == 4
    assert report["exit_code"] == 4
    assert "error" in report["results"]


def test_missing_input_file_exits_four(capsys, tmp_path):
    code, report, _ = invoke(
        capsys, "pierce", "--input", str(tmp_path / "missing.json")
    )
    assert code == 4


_TRIANGLE = load_fixture("hypergraph_triangle.json")
_INTERVAL = {
    "schema_version": 1,
    "dim": 1,
    "classes": [{"sets": [{"hrep": {"inequalities": [{"normal": ["1"], "offset": "1"}]}}]}],
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("duality", dict(_TRIANGLE, edges=["01", [1, 2], [0, 2]])),
        ("duality", dict(_TRIANGLE, edges=[[True, 2], [1, 2], [0, 2]])),
        ("duality", dict(_TRIANGLE, edges=[[1.9, 2], [1, 2], [0, 2]])),
        ("duality", dict(_TRIANGLE, vertices=True, edges=[[0]])),
        ("duality", dict(_TRIANGLE, vertices=-1, edges=[])),
        ("pierce", dict(_INTERVAL, dim=True)),
    ],
    ids=["string-edge", "bool-vertex", "float-vertex", "bool-count", "negative-count", "bool-dim"],
)
def test_documents_with_non_integer_counts_or_indices_exit_four(capsys, tmp_path, command, doc):
    code, report, _ = invoke(capsys, command, "--input", _write_json(tmp_path, "doc.json", doc))
    assert code == report["exit_code"] == 4
    assert "integer" in report["results"]["error"]  # refused by the reader


def test_budget_exhaustion_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("HELLYKIT_MAX_RAINBOW_TUPLES", "1")
    code, report, _ = invoke(
        capsys, "check-ch", "--input", str(FIXTURES / "family_ch_d2.json")
    )
    assert code == 3
    assert report["budgets"]["max_rainbow_tuples"] == 1
    assert "budget" in json.dumps(report["results"])


def test_pretty_output_keeps_stdout_json(capsys):
    code, report, err = invoke(
        capsys,
        "pierce",
        "--input",
        str(FIXTURES / "corpus" / "single_triangle.json"),
        "--pretty",
    )
    assert code == 0
    assert report["results"]["piercing_number"] == 1
    assert err.strip(), "--pretty should print a summary table to stderr"


def test_stdin_input(capsys, monkeypatch):
    doc = load_fixture("corpus/two_disjoint_boxes.json")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, report, _ = invoke(capsys, "pierce", "--input", "-")
    assert code == 0
    assert report["results"]["piercing_number"] == 2


def test_svg_rendering_is_planar_only(capsys, tmp_path):
    target = tmp_path / "family.svg"
    code, report, _ = invoke(
        capsys, "generate", "planar", "--f", "1", "--svg", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("<svg")

    code, report, _ = invoke(
        capsys, "generate", "figure1", "--svg", str(tmp_path / "nope.svg")
    )
    assert code == 4


def test_relint_check_runs_in_the_plane(capsys):
    code, report, _ = invoke(capsys, "relint-check", "--d", "2", "--f", "1")
    assert code == 0
    assert report["results"]["holds"] is True


def test_generic_line_crosses_a_class(capsys, tmp_path):
    from hellykit.instances import random_ch_pair
    from hellykit.serialize import family_to_doc

    doc = family_to_doc(random_ch_pair(0))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, report, _ = invoke(capsys, "generic-line", "--input", str(path))
    assert code == 0
    assert "line" in report["results"]


def test_fractional_two_color_threshold(capsys, tmp_path):
    from hellykit.instances import random_fractional_instance
    from hellykit.colorful import ColoredFamily
    from hellykit.serialize import family_to_doc

    a_sets, b_sets, alpha = random_fractional_instance(1)
    doc = family_to_doc(ColoredFamily(2, (tuple(a_sets), tuple(b_sets))), ["A", "B"])
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    code, report, _ = invoke(
        capsys, "fractional-two-color", "--input", str(path), "--alpha", str(alpha)
    )
    assert code == 0


# -- recheck across subcommands, error reports and tampered certificates ------


def _write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _split_pair(tmp_path) -> str:
    """Two boxes with no common point (x <= 0, x >= 1) against a bar that
    meets both, so `two-color` answers with the hyperplane x = 0."""
    from hellykit.colorful import ColoredFamily
    from hellykit.geometry import Polyhedron
    from hellykit.serialize import family_to_doc

    a = (Polyhedron.box((-5, -5), (0, 5)), Polyhedron.box((1, -5), (5, 5)))
    b = (Polyhedron.box((-5, -1), (5, 1)),)
    doc = family_to_doc(ColoredFamily(2, (a, b)), ["A", "B"])
    return _write_json(tmp_path, "split.json", doc)


def _fractional_args(tmp_path) -> list:
    from hellykit.colorful import ColoredFamily
    from hellykit.instances import random_fractional_instance
    from hellykit.serialize import family_to_doc

    a_sets, b_sets, alpha = random_fractional_instance(1)
    doc = family_to_doc(ColoredFamily(2, (tuple(a_sets), tuple(b_sets))), ["A", "B"])
    return ["--input", _write_json(tmp_path, "frac.json", doc), "--alpha", str(alpha)]


def _ch_pair(tmp_path) -> str:
    from hellykit.instances import random_ch_pair
    from hellykit.serialize import family_to_doc

    return _write_json(tmp_path, "pair.json", family_to_doc(random_ch_pair(0)))


SUBCOMMAND_ARGS = {
    "check-ch": lambda tmp: ["--input", str(FIXTURES / "family_ch_d2.json")],
    "intersecting-class": lambda tmp: ["--input", str(FIXTURES / "family_ch_d2.json")],
    "pierce": lambda tmp: ["--input", str(FIXTURES / "corpus" / "single_triangle.json")],
    "line-cover": lambda tmp: [
        "--input",
        str(FIXTURES / "corpus" / "three_collinear_boxes.json"),
    ],
    "two-color": lambda tmp: ["--input", _split_pair(tmp)],
    "d2-dichotomy": lambda tmp: ["--input", _ch_pair(tmp)],
    "fractional-two-color": _fractional_args,
    "duality": lambda tmp: [
        "--input",
        str(FIXTURES / "hypergraph_triangle.json"),
        "--b",
        "2",
    ],
    "generate": lambda tmp: ["planar", "--f", "1"],
    "verify-lower-bound": lambda tmp: ["figure1"],
    "relint-check": lambda tmp: ["--d", "2"],
    "generic-line": lambda tmp: ["--input", _ch_pair(tmp)],
}


def test_d2_dichotomy_sweeps_the_cross_pairs_once(capsys, tmp_path, monkeypatch):
    from hellykit import colorful

    path = _ch_pair(tmp_path)
    sweeps = []
    check_ch = colorful.check_ch

    def counted(fam, *args):
        sweeps.append(fam)
        return check_ch(fam, *args)

    monkeypatch.setattr(colorful, "check_ch", counted)
    code, report, _ = invoke(capsys, "d2-dichotomy", "--input", path)
    assert code == report["exit_code"] == 0
    assert report["results"]["outcome"] == "lines"
    assert len(sweeps) == 1


def test_every_subcommand_has_a_recheck_case():
    from hellykit.cli import _COMMANDS

    assert set(SUBCOMMAND_ARGS) == set(_COMMANDS) - {"recheck"}


def test_only_construction_commands_and_recheck_go_unchecked():
    # `recheck` vouches for these by re-running alone, so a new command that
    # ships a certificate must come with its checker
    from hellykit.cli import _COMMANDS

    unchecked = {name for name, command in _COMMANDS.items() if command.check is None}
    assert unchecked == {"generate", "verify-lower-bound", "relint-check", "recheck"}


def test_one_input_parse_per_request_and_two_per_recheck(capsys, tmp_path, monkeypatch):
    from hellykit import serialize

    parses = []
    for name in ("ColoredFamily", "Hypergraph"):
        built = getattr(serialize, name)
        monkeypatch.setattr(
            serialize, name, lambda *a, built=built, **k: parses.append(a) or built(*a, **k)
        )
    for argv in (
        ("check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")),
        ("two-color", "--input", _split_pair(tmp_path)),
        ("duality", "--input", str(FIXTURES / "hypergraph_triangle.json")),
    ):
        parses.clear()
        _, report, _ = invoke(capsys, *argv)
        assert len(parses) == 1
        parses.clear()
        code, verdict, _ = _recheck(capsys, tmp_path, report)
        assert code == 0 and verdict["results"]["agrees"] is True
        assert len(parses) == 2


def test_report_bytes_are_pinned(capsys, tmp_path):
    # every SUBCOMMAND_ARGS report, a refutation and two error reports, with
    # the wall time zeroed: a change to the dispatch must not move a byte
    bad_schema = {**load_fixture("family_ch_d2.json"), "schema_version": 99}
    cases = [[command, *SUBCOMMAND_ARGS[command](tmp_path)] for command in sorted(SUBCOMMAND_ARGS)]
    cases += [
        ["check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")],
        ["check-ch", "--input", _write_json(tmp_path, "bad.json", bad_schema)],
        ["generate", "simplex", "--d", "5"],
    ]
    reports = []
    for argv in cases:
        _, report, _ = invoke(capsys, *argv)
        reports.append({**report, "wall_time_ms": 0})
    assert [r["exit_code"] for r in reports[-3:]] == [2, 4, 4]
    blob = json.dumps(reports).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "68b6b115f70df11c58b08db36812b7159ce4fc8f67465f9ce969ffc52bc9d1dc"
    )


def test_malformed_budget_variable_gives_a_json_report(capsys, monkeypatch):
    monkeypatch.setenv("HELLYKIT_MAX_TAU_VERTICES", "abc")
    code, report, _ = invoke(
        capsys, "duality", "--input", str(FIXTURES / "hypergraph_triangle.json")
    )
    assert code == report["exit_code"] == 4
    assert report["results"]["error"] == (
        "HELLYKIT_MAX_TAU_VERTICES must be an integer, got 'abc'"
    )


def test_duality_searches_tau_under_the_request_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HELLYKIT_MAX_TAU_VERTICES", "1")
    fano = str(FIXTURES / "hypergraph_fano.json")
    code, report, _ = invoke(capsys, "duality", "--input", fano)
    assert code == report["exit_code"] == 0
    res = report["results"]
    assert report["budgets"]["max_tau_vertices"] == 1
    assert res["tau"] is None and res["tau_witness"] is None
    assert "max_tau_vertices" in res["scale_note"]
    monkeypatch.delenv("HELLYKIT_MAX_TAU_VERTICES")
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["results"]["agrees"] is True


def _recheck(capsys, tmp_path, report):
    stored = _write_json(tmp_path, "report.json", report)
    return invoke(capsys, "recheck", "--input", stored)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_every_subcommand_report_rechecks(capsys, tmp_path, command):
    code, report, _ = invoke(capsys, command, *SUBCOMMAND_ARGS[command](tmp_path))
    assert code == report["exit_code"] == 0
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["results"]["agrees"] is True


def _shift(value: str) -> str:
    return str(rat(value) + 1000)


def _tamper_point(res):
    res["point"][0] = _shift(res["point"][0])


def _tamper_line(res):
    res["lines"][0]["base"] = [_shift(x) for x in res["lines"][0]["base"]]


def _tamper_hyperplane(res):
    res["hyperplanes"][0]["offset"] = _shift(res["hyperplanes"][0]["offset"])


def _tamper_multiplier(res):
    res["farkas"][0]["multiplier"] = _shift(res["farkas"][0]["multiplier"])


def _tamper_weight(res):
    res["tau_star_weights"][0] = "0"


def _tamper_packing_weight(res):
    res["nu_star_weights"][0] = _shift(res["nu_star_weights"][0])


@pytest.mark.parametrize(
    "argv, tamper",
    [
        (("intersecting-class", "--input", str(FIXTURES / "family_ch_d2.json")), _tamper_point),
        (
            ("line-cover", "--input", str(FIXTURES / "corpus" / "three_collinear_boxes.json")),
            _tamper_line,
        ),
        (("two-color", None), _tamper_hyperplane),
        (("check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")), _tamper_multiplier),
        (("duality", "--input", str(FIXTURES / "hypergraph_triangle.json")), _tamper_weight),
        (
            ("duality", "--input", str(FIXTURES / "hypergraph_triangle.json")),
            _tamper_packing_weight,
        ),
    ],
    ids=["point", "line", "hyperplane", "farkas-multiplier", "tau-star-weight", "nu-star-weight"],
)
def test_tampered_certificate_is_refuted(capsys, tmp_path, argv, tamper):
    if argv[1] is None:
        argv = (argv[0], "--input", _split_pair(tmp_path))
    _, report, _ = invoke(capsys, *argv)
    tamper(report["results"])
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 2
    assert verdict["results"]["refuted"] is True
    assert verdict["results"]["error"].startswith("stored ")


def _tamper_fractional_point(res):
    side = res["point_side"]
    side["point"] = [_shift(x) for x in side["point"]]


def _tamper_fractional_hyperplane(res):
    hyperplane = res["hyperplane_side"]["hyperplane"]
    hyperplane["offset"] = _shift(hyperplane["offset"])


def _tamper_fractional_index(res):
    res["hyperplane_side"]["covered"].append(99)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_tamper_fractional_point, "stored point side witness rejected"),
        (_tamper_fractional_hyperplane, "stored hyperplane side witness rejected"),
        (
            _tamper_fractional_index,
            "stored hyperplane side covered indices are not distinct indices of the class",
        ),
    ],
    ids=["point", "hyperplane", "covered-index"],
)
def test_tampered_fractional_witness_is_refuted(capsys, tmp_path, tamper, message):
    code, report, _ = invoke(capsys, "fractional-two-color", *_fractional_args(tmp_path))
    assert code == 0
    res = report["results"]
    assert res["point_side"]["covered"] and res["hyperplane_side"]["covered"]
    tamper(res)
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 2
    assert verdict["results"]["refuted"] is True
    assert verdict["results"]["error"] == message


def test_fractional_recheck_logs_its_certificate_check(capsys, tmp_path):
    _, report, _ = invoke(capsys, "fractional-two-color", *_fractional_args(tmp_path))
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["verification"] == [
        "fractional dichotomy witnesses re-verified",
        "re-run reproduced the stored results exactly",
    ]


def _drop_farkas(res):
    del res["farkas"]


def _scalar_lines(res):
    res["lines"] = 7


def _scalar_covered(res):
    res["point_side"]["covered"] = 7


@pytest.mark.parametrize(
    "argv, damage",
    [
        (("check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")), _drop_farkas),
        (
            ("line-cover", "--input", str(FIXTURES / "corpus" / "three_collinear_boxes.json")),
            _scalar_lines,
        ),
        (("fractional-two-color", None), _scalar_covered),
    ],
)
def test_malformed_certificate_gives_a_json_verdict(capsys, tmp_path, argv, damage):
    if argv[1] is None:
        argv = (argv[0], *_fractional_args(tmp_path))
    _, report, _ = invoke(capsys, *argv)
    damage(report["results"])
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 4
    assert "malformed stored certificate" in verdict["results"]["error"]


@pytest.mark.parametrize("field", ["set", "row"])
@pytest.mark.parametrize("value", [1.9, True, "0", -1], ids=["float", "bool", "string", "negative"])
def test_forged_farkas_indices_exit_four(capsys, tmp_path, field, value):
    _, report, _ = invoke(
        capsys, "check-ch", "--input", str(FIXTURES / "family_disjoint_boxes.json")
    )
    report["results"]["farkas"][0][field] = value
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == verdict["exit_code"] == 4
    assert "integers >= 0" in verdict["results"]["error"]


@pytest.mark.parametrize("command", ["intersecting-class", "two-color", "generic-line"])
def test_error_reports_recheck_cleanly(capsys, tmp_path, command):
    code, report, _ = invoke(
        capsys, command, "--input", str(FIXTURES / "family_disjoint_boxes.json")
    )
    assert code == 4
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["results"]["agrees"] is True


def test_precondition_witness_reaches_the_report(capsys):
    code, report, _ = invoke(
        capsys, "two-color", "--input", str(FIXTURES / "family_disjoint_boxes.json")
    )
    assert code == 4
    assert report["results"]["witness"] == [0, 0]


def test_svg_reports_recheck_without_writing(capsys, tmp_path):
    target = tmp_path / "nope.svg"
    code, report, _ = invoke(capsys, "generate", "figure1", "--svg", str(target))
    assert code == 4
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["results"]["agrees"] is True

    target = tmp_path / "planar.svg"
    code, report, _ = invoke(capsys, "generate", "planar", "--svg", str(target))
    assert code == 0
    target.unlink()
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["results"]["agrees"] is True
    assert not target.exists()


def test_recheck_reruns_under_the_stored_budgets(capsys, tmp_path, monkeypatch):
    clusters = str(FIXTURES / "corpus" / "two_clusters.json")
    monkeypatch.setenv("HELLYKIT_MAX_SUBFAMILY_SETS", "2")
    code, report, _ = invoke(capsys, "pierce", "--input", clusters)
    assert code == 3
    monkeypatch.delenv("HELLYKIT_MAX_SUBFAMILY_SETS")
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 0
    assert verdict["results"]["agrees"] is True
    assert verdict["results"]["exit_code_recomputed"] == 3


@pytest.mark.parametrize(
    "budgets",
    [{"max_pivots": 10}, {"max_subfamily_sets": "2"}, {"max_subfamily_sets": 2.0}, []],
    ids=["unknown-field", "string", "float", "not-a-dict"],
)
def test_malformed_stored_budgets_exit_four(capsys, tmp_path, budgets):
    _, report, _ = invoke(
        capsys, "pierce", "--input", str(FIXTURES / "corpus" / "single_triangle.json")
    )
    report["budgets"] = budgets
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 4
    assert verdict["results"]["error"].startswith("malformed stored budgets")


@pytest.mark.parametrize(
    "weights, message",
    [
        (["-1", "2", "2"], "stored tau* weights must be nonnegative"),
        (["1", "1", "1", "0"], "stored tau* weight count differs from the vertex count"),
    ],
    ids=["negative", "extra-vertex"],
)
def test_fake_fractional_transversal_is_refuted(capsys, tmp_path, weights, message):
    _, report, _ = invoke(
        capsys, "duality", "--input", str(FIXTURES / "hypergraph_triangle.json")
    )
    report["results"]["tau_star_weights"] = weights
    report["results"]["tau_star"] = "3"
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 2
    assert verdict["results"]["error"] == message


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"nu_star_weights": ["1/2"] * 4}, "nu* weight count differs from the edge count"),
        ({"nu_star_weights": ["-1", "1", "3/2"]}, "nu* weights must be nonnegative"),
        ({"nu_star_weights": ["1", "1", "0"]}, "nu* weights overload a vertex"),
        ({"nu_star_weights": ["1/2", "1/2", "0"]}, "nu* value mismatch"),
        ({"nu_star_weights": ["1/2", "1/2", "0"], "nu_star": "1"}, "nu* differs from tau*"),
        ({"nu_b": 4}, "nu_b exceeds b * nu*"),
        ({"tau_witness": [0, 0]}, "tau witness is not tau distinct vertices"),
        ({"tau_witness": [0, 7]}, "tau witness is not tau distinct vertices"),
        ({"tau": 1, "tau_witness": [0]}, "tau witness not a transversal"),
    ],
    ids=[
        "nu-count",
        "nu-negative",
        "nu-overload",
        "nu-value",
        "nu-tau-gap",
        "nu-b",
        "tau-repeat",
        "tau-range",
        "tau-miss",
    ],
)
def test_fake_packing_side_is_refuted(capsys, tmp_path, edits, message):
    _, report, _ = invoke(
        capsys, "duality", "--input", str(FIXTURES / "hypergraph_triangle.json")
    )
    report["results"].update(edits)
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 2
    assert verdict["results"]["error"] == f"stored {message}"


@pytest.mark.parametrize(
    "argv, field",
    [
        (("generate", "figure1"), "kind"),
        (("fractional-two-color", None), "input"),
        (("pierce", "--input", str(FIXTURES / "corpus" / "single_triangle.json")), "input"),
    ],
    ids=["generate-kind", "fractional-input", "pierce-input"],
)
def test_malformed_stored_request_gives_a_json_verdict(capsys, tmp_path, argv, field):
    if argv[1] is None:
        argv = (argv[0], *_fractional_args(tmp_path))
    code, report, _ = invoke(capsys, *argv)
    assert code == 0
    del report["request"][field]
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 4
    assert "malformed stored request" in verdict["results"]["error"]
    assert field in verdict["results"]["error"]


@pytest.mark.parametrize(
    "argv, field, genuine, forged",
    [
        (("generate", "figure1", "--d", "2"), "n", 1, 2),
        (("verify-lower-bound", "planar"), "f", 2, 1),
    ],
    ids=["generate-n", "verify-lower-bound-f"],
)
def test_forged_request_parameter_is_refuted(capsys, tmp_path, argv, field, genuine, forged):
    # the forged report holds the results a run with the forged value gives,
    # so only the digested copy of the parameter tells it apart
    _, report, _ = invoke(capsys, *argv, f"--{field}", str(genuine))
    code, forged_report, _ = invoke(capsys, *argv, f"--{field}", str(forged))
    assert code == report["exit_code"] == 0
    report["request"][field] = forged
    report["results"] = forged_report["results"]
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 2
    assert verdict["results"]["agrees"] is False
    assert verdict["results"]["parameters"] == [field]


def test_request_missing_a_digested_parameter_is_malformed(capsys, tmp_path):
    code, report, _ = invoke(capsys, "relint-check", "--d", "2", "--f", "1")
    assert code == 0
    del report["request"]["seed"]
    code, verdict, _ = _recheck(capsys, tmp_path, report)
    assert code == 4
    assert verdict["results"]["error"] == "malformed stored request: missing ['seed']"
