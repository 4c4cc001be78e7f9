"""The four benchmark workloads and their seeded job lists.

Each workload function takes the seed and returns the fixed list of jobs
that one pass runs.  Inputs come only from the seeded generators in
`hellykit.instances` and `hellykit.constructions`, and from the fixtures
shipped under `tests/fixtures`.  Jobs call the library through module
attributes at call time, so the traced run sees the wrapped functions.

`quick` shrinks every job list to a few cheap jobs for the smoke test.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import CheckFailed, require
from hellykit import colorful as K
from hellykit import constructions as C
from hellykit import hypergraphs as H
from hellykit import instances as I
from hellykit.colorful import ColoredFamily
from hellykit.serialize import (
    family_from_doc,
    family_to_doc,
    hypergraph_from_doc,
    hypergraph_to_doc,
    hyperplane_from_json,
    line_from_json,
    vec_from_json,
)


@dataclass
class Job:
    """`run` is timed; `check` verifies an answer and returns its canonical form.

    `key` reduces an answer to what must repeat exactly when the job runs
    again on the same input; a repeat is compared by key, not checked again.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    key: Callable[[object], object] = lambda out: out


@dataclass
class Workload:
    jobs: list
    in_process: bool = True
    cli_records: list = field(default_factory=list)


def _sub_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


# -- queries: small interactive questions, 1-80 ms each ------------------------


def queries(seed: int, quick: bool, root: Path) -> Workload:
    # Jobs that would share an input (b = 1, 2, 3; pierce and line cover)
    # get one each, so that one costly input does not weigh on several jobs.
    jobs = []
    for r in range(1 if quick else 24):
        s = _sub_seed(seed, r)
        for b in (1, 2, 3):
            h = I.random_hypergraph(4 * s + b)
            jobs.append(
                Job(
                    "duality",
                    lambda h=h, b=b: H.duality_report(h, b),
                    lambda out, h=h, b=b: checks.check_duality(h, b, out),
                )
            )
        for d in (2, 3):
            a, bs = I.random_two_colored(s, d)
            jobs.append(
                Job(
                    f"two_color_d{d}",
                    lambda a=a, bs=bs: K.two_color_lemma(a, bs),
                    lambda out, a=a, bs=bs, d=d: checks.check_dichotomy(out, (a, bs), d),
                )
            )
        pair = I.random_ch_pair(s)
        jobs.append(
            Job(
                "main_d2",
                lambda f=pair: K.theorem_main_d2(f),
                lambda out, f=pair: checks.check_dichotomy(out, f.classes, 4),
            )
        )
        for d in (2, 3):
            fam = I.random_ch_family(s, d)
            first = ColoredFamily(d, fam.classes[:d])
            jobs.append(
                Job(
                    f"intersecting_d{d}",
                    lambda f=fam: K.intersecting_class(f),
                    lambda out, f=fam: checks.check_class_point(f, out),
                )
            )
            jobs.append(
                Job(
                    f"generic_line_d{d}",
                    lambda f=first, s=s: K.generic_line_class(f, seed=s),
                    lambda out, f=first: checks.check_class_line(f, out),
                )
            )
        polys = I.random_polygon_family(2 * s)
        jobs.append(
            Job(
                "pierce",
                lambda p=polys: H.piercing_number(p),
                lambda out, p=polys: checks.check_pierce(p, out),
            )
        )
        polys = I.random_polygon_family(2 * s + 1)
        jobs.append(
            Job(
                "line_cover_small",
                lambda p=polys: H.line_cover_number(p),
                lambda out, p=polys: checks.check_small_line_cover(p, out),
            )
        )
    return Workload(jobs)


# -- sweeps: certified constructions and exhaustive sweeps, 0.1-2 s each -------
#
# A round holds two steady `planar_f3` jobs, three jobs cheaper than them
# and three dearer ones, ordered so a partial pass stays balanced.
# `fractional` costs 0.3-2 s depending on the instance, so the median job is
# a `planar_f3` or a job of about its cost whichever side `fractional`
# falls on, and the 90th percentile lies among the seed-independent
# `facets_crossed_d4` jobs.  `check_ch` runs inside every simplex job.


def _build_and_audit(d: int, s: int):
    c = C.generate_simplex_family(d, 1, s)
    return c, C.verify_relint_property(c)


def _simplex_job(d: int, s: int) -> Job:
    return Job(
        f"simplex_d{d}",
        lambda: _build_and_audit(d, s),
        lambda out: checks.check_simplex(d, 1, out[0], out[1]),
    )


def _planar_job(f: int, s: int) -> Job:
    return Job(f"planar_f{f}", lambda: C.generate_planar(f, s), lambda out: checks.check_planar(f, out))


def _facets_job(d: int) -> Job:
    return Job(
        f"facets_crossed_d{d}",
        lambda: C.max_simplex_facets_crossed(d),
        lambda out: checks.check_facets_crossed(d, out),
    )


def sweeps(seed: int, quick: bool, root: Path) -> Workload:
    d = 2 if quick else 3
    fractional = [I.random_fractional_instance(_sub_seed(seed, r)) for r in range(1 if quick else 3)]
    jobs = []
    for r, (a, b, alpha) in enumerate(fractional):
        s = _sub_seed(seed, r)
        jobs += [
            _planar_job(d - 1 if quick else 3, s),
            _simplex_job(2, s),
            _planar_job(d - 1 if quick else 2, s),
            _simplex_job(d, s),
            _facets_job(d),
            Job(
                "fractional",
                lambda a=a, b=b, alpha=alpha: K.fractional_two_color_search(a, b, alpha),
                lambda out, a=a, b=b: checks.check_fractional(a, b, out),
            ),
            _planar_job(d - 1 if quick else 3, _sub_seed(seed, 500 + r)),
            _facets_job(d + 1),
        ]
    return Workload(jobs)


# -- covers: line covers drawn from construction families, 0.1-0.8 s each ------
#
# A whole 24-set planar family or 12-set simplex family takes 2-11 s to
# cover, too few jobs for a steady run, so most jobs cover seeded 12-set
# subfamilies of the planar family; three jobs per pass cover the simplex
# family's cone classes and facet copies in R^3.


def covers(seed: int, quick: bool, root: Path) -> Workload:
    s = _sub_seed(seed, 0)
    rng = random.Random(f"bench-covers:{seed}")
    planar = C.generate_planar(1 if quick else 3, s)
    pool = list(planar.triangles + planar.segments)
    simplex = C.generate_simplex_family(2 if quick else 3, 1, s)
    spatial = [(f"simplex_cones{k}", list(cls)) for k, cls in enumerate(simplex.cone_classes)]
    spatial.append(("simplex_facets", list(simplex.family.classes[-1])))
    families = []
    for i in range(4 if quick else 12):
        families.append(("planar_sub", [pool[j] for j in sorted(rng.sample(range(len(pool)), 6 if quick else 12))]))
        if i % 4 == 3 and spatial:
            families.append(spatial.pop(0))
    families += spatial
    jobs = [
        Job(
            name,
            lambda fam=fam: H.line_cover_number(fam),
            lambda out, fam=fam: checks.check_line_cover(fam, out),
        )
        for name, fam in families
    ]
    return Workload(jobs)


# -- cli: one subprocess per request, then a recheck of the report -------------


class CliRunner:
    """Runs `python -m hellykit.cli` requests against the checkout's sources."""

    TIMEOUT_S = 60

    def __init__(self, root: Path, workdir: Path, records: list):
        self.root = root
        self.workdir = workdir
        self.records = records
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONSTARTUP", None)

    def python(self, args: list) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=self.TIMEOUT_S,
        )
        return time.perf_counter() - t0, proc

    def request(self, argv: tuple):
        wall, proc = self.python(["-m", "hellykit.cli", *argv])
        if proc.returncode != 0:
            raise CheckFailed(f"{argv[0]} exited {proc.returncode}: {proc.stdout[-300:]}")
        report = json.loads(proc.stdout)
        self.records.append({"wall_s": wall, "compute_ms": report["wall_time_ms"]})
        return report

    def check(self, argv: tuple, doc, report: dict) -> dict:
        """Verify a report's certificate, then recheck it through the CLI."""
        results = report["results"]
        require(report.get("exit_code") == 0, f"{argv[0]} report exit code")
        _check_cli_certificate(argv[0], doc, results)
        path = self.workdir / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        wall, proc = self.python(["-m", "hellykit.cli", "recheck", "--input", str(path)])
        require(proc.returncode == 0, f"recheck of {argv[0]} exited {proc.returncode}")
        self.records[-1]["recheck_s"] = wall
        return results


def _check_cli_certificate(command: str, doc, results: dict) -> None:
    """Re-verify the certificate a CLI report carries against its input."""
    if command == "duality":
        h = hypergraph_from_doc(doc)
        witness = set(results["tau_witness"])
        require(results["sandwich_ok"] is True, "duality sandwich not reported")
        require(all(e & witness for e in h.edges), "tau witness misses an edge")
        return
    fam, _ = family_from_doc(doc)
    if command == "check-ch":
        require(results["holds"] is True, "check-ch does not hold")
        for w in results["witnesses"]:
            sets = [fam.classes[k][i] for k, i in enumerate(w["rainbow"])]
            checks.require_point_in(vec_from_json(w["point"]), sets, "rainbow witness")
    elif command == "intersecting-class":
        k = results["class_index"]
        checks.require_point_in(vec_from_json(results["point"]), fam.classes[k], "class point")
    elif command == "pierce":
        points = [vec_from_json(p) for p in results["points"]]
        require(len(points) == results["piercing_number"], "piercing point count")
        for s in fam.all_sets():
            require(any(s.contains(p) for p in points), "a set is not pierced")
    elif command == "line-cover":
        lines = [line_from_json(x) for x in results["lines"]]
        require(len(lines) == results["size"], "line count")
        checks.require_lines_cover(lines, fam.all_sets(), "cli line cover")
    elif command == "two-color":
        a_sets, b_sets = fam.classes
        if results["outcome"] == "pierced":
            checks.require_point_in(vec_from_json(results["points"][0]), a_sets, "two-color point")
        else:
            hs = [hyperplane_from_json(h) for h in results["hyperplanes"]]
            require(len(hs) <= fam.dim, "too many hyperplanes")
            for s in b_sets:
                require(any(checks.hyperplane_meets(h, s) for h in hs), "uncrossed set")
    else:
        raise CheckFailed(f"no certificate check for {command}")


def cli(seed: int, quick: bool, root: Path) -> Workload:
    fixtures = root / "tests" / "fixtures"
    workdir = root / ".bench_out" / f"cli-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"bench-cli:{seed}")

    def write(name: str, doc) -> tuple[str, object]:
        path = workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path), doc

    def fixture(path: Path) -> tuple[str, object]:
        return str(path), json.loads(path.read_text(encoding="utf-8"))

    requests = []  # (argv, input document)
    hyper = [fixture(fixtures / n) for n in ("hypergraph_triangle.json", "hypergraph_fano.json")]
    colored = [fixture(fixtures / n) for n in ("family_ch_d2.json", "family_ch_d3.json")]
    corpus = sorted((fixtures / "corpus").glob("*.json"))
    flat = [fixture(p) for p in rng.sample(corpus, 2 if quick else 4)]
    pairs = []
    for r in range(1 if quick else 2):
        s = _sub_seed(seed, r)
        hyper.append(write(f"hypergraph-{r}.json", hypergraph_to_doc(I.random_hypergraph(s))))
        for d in (2, 3):
            colored.append(write(f"ch-d{d}-{r}.json", family_to_doc(I.random_ch_family(s, d))))
        polys = I.random_polygon_family(s)
        flat.append(write(f"polygons-{r}.json", family_to_doc(ColoredFamily(2, (tuple(polys),)))))
        a, b = I.random_two_colored(s, 2 + r % 2)
        two = ColoredFamily(a[0].dim, (tuple(a), tuple(b)))
        pairs.append(write(f"two-colored-{r}.json", family_to_doc(two)))
    for path, doc in hyper:
        requests.append((("duality", "--input", path, "--b", str(rng.randint(1, 3))), doc))
    for path, doc in colored:
        requests.append((("check-ch", "--input", path), doc))
        requests.append((("intersecting-class", "--input", path), doc))
    for i, (path, doc) in enumerate(flat):
        requests.append((("pierce" if i % 2 == 0 else "line-cover", "--input", path), doc))
    for path, doc in pairs:
        requests.append((("two-color", "--input", path), doc))
    if quick:
        requests = requests[::3]

    wl = Workload([], in_process=False)
    runner = CliRunner(root, workdir, wl.cli_records)
    wl.jobs = [
        Job(
            argv[0],
            lambda argv=argv: runner.request(argv),
            lambda report, argv=argv, doc=doc: runner.check(argv, doc, report),
            lambda report: json.dumps(report["results"], sort_keys=True),
        )
        for argv, doc in requests
    ]
    return wl


WORKLOADS = {"queries": queries, "sweeps": sweeps, "covers": covers, "cli": cli}
