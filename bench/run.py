"""hellykit benchmark: one closed-loop client, one process, one job at a time.

    python3 bench/run.py --workload queries --seed 1 --seconds 20 --trace 0

`--trace 0` sets the workload up (several times, median reported), then
runs its seeded job list in a cycle until `--seconds` have passed and at
least one whole pass is done, checking every answer outside the timed
span.  It prints the end-to-end metrics.  `--trace 1` sets up once under
tracing, runs each job of one pass twice, untraced and traced, and prints
the per-layer metrics.  The last stdout line is the JSON result; the line
before it records the environment, the sample counts and the answer
digest, and both are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("queries", "sweeps", "covers", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (module.function, extra stats) for each traced function; every one also
# reports `calls` and `self_s`.
LAYERS = (
    ("rationals.normalize_row", ()),
    ("rationals.solve_linear", ()),
    ("rationals.nullspace", ()),
    ("lp.lp_solve", ("us_per_call", "rows_mean", "infeasible_ratio")),
    ("geometry.flat_crosses", ("hit_ratio",)),
    ("geometry.line_through", ()),
    ("geometry.vertices_of", ()),
    ("geometry.hyperplane_crosses", ("hit_ratio",)),
    ("geometry.polyhedra_intersect", ("feasible_ratio",)),
    ("geometry.polytope_from_vertices", ()),
    ("projection.affine_project", ()),
    ("hypergraphs.tau", ()),
    ("hypergraphs.tau_star", ()),
    ("hypergraphs.nu_b", ()),
    ("hypergraphs.maximal_intersecting_subfamilies", ()),
    ("hypergraphs.candidate_lines", ("lines",)),
    ("hypergraphs.build_cover_hypergraph", ()),
    ("colorful.check_ch", ("rainbows",)),
    ("colorful.two_color_lemma", ()),
    ("colorful.theorem_main_d2", ()),
    ("colorful.intersecting_class", ()),
    ("colorful.generic_line_class", ()),
    ("colorful.fractional_two_color_search", ()),
    ("constructions.generate_simplex_family", ()),
    ("constructions.generate_planar", ()),
    ("constructions.verify_relint_property", ()),
    ("constructions.max_simplex_facets_crossed", ()),
)
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "us_per_call": ("us", "lower"),
    "rows_mean": ("rows", "lower"),
    "infeasible_ratio": ("ratio", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "feasible_ratio": ("ratio", "higher"),
    "lines": ("count", "lower"),
    "rainbows": ("count", "lower"),
}
# Per-call stats: the stat named here, summed by `tracer.HOOKS`, over calls.
PER_CALL = {
    "rows_mean": "rows",
    "infeasible_ratio": "infeasible",
    "hit_ratio": "hits",
    "feasible_ratio": "feasible",
}
OTHER_LAYER_METRICS = (
    ("instances.self_s", "s", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.compute_ms", "ms", "lower"),
    ("cli.other_ms", "ms", "lower"),
    ("cli.recheck_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    spec = []
    for qual, extras in LAYERS:
        for stat in ("calls", "self_s", *extras):
            spec.append((f"{qual}.{stat}", *STAT_UNITS[stat]))
    spec.extend(OTHER_LAYER_METRICS)
    return spec


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program() -> float:
    """Put the checkout's sources on the path and time `import hellykit`."""
    src = ROOT / "src"
    if not (src / "hellykit" / "__init__.py").is_file():
        fail(f"no hellykit sources under {src}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        fail("tests/oracles.py is missing; the answer checks need it")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    t0 = time.perf_counter()
    import hellykit

    import_s = time.perf_counter() - t0
    if not Path(hellykit.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported hellykit from {hellykit.__file__}, not from {src}")
    return import_s


class Loop:
    """Closed-loop runner: one job at a time, answers checked untimed."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.verified: dict[int, object] = {}
        self.answers: list = [None] * len(jobs)
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []

    def step(self, k: int, tracer=None) -> float:
        """Run job k once, timed (traced if a tracer is given), then check it."""
        job = self.jobs[k]
        if tracer is not None:
            tracer.install()
            tracer.job_id = k + 1
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a job that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
        if error is None:
            error = self._check(k, job, out)
        if error is not None:
            self.failures.append(f"{job.kind}#{k}: {error}"[:300])
        self.latencies.append(elapsed)
        self.kinds.append(job.kind)
        return elapsed

    def run(self, seconds: float) -> None:
        """Cycle through the jobs until `seconds` have passed and one pass is done."""
        start = time.perf_counter()
        i = 0
        while i < len(self.jobs) or time.perf_counter() - start < seconds:
            self.step(i % len(self.jobs))
            i += 1

    def _check(self, k: int, job, out):
        from checks import CheckFailed

        try:
            key = job.key(out)
            if k in self.verified:
                if key != self.verified[k]:
                    return "answer differs from the verified answer of this job"
                return None
            self.answers[k] = {"job": job.kind, "answer": job.check(out)}
            self.verified[k] = key
        except CheckFailed as exc:
            return f"check failed: {exc}"
        except Exception as exc:  # a malformed answer is a failed job too
            return f"check raised {type(exc).__name__}: {exc}"
        return None

    def digest(self) -> str:
        from hellykit.serialize import canonical_dumps

        return hashlib.sha256(canonical_dumps(self.answers).encode()).hexdigest()


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, quick: bool, import_s: float):
    from workloads import WORKLOADS

    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = WORKLOADS[name](seed, quick, ROOT)
        setup_runs.append(time.perf_counter() - t0)
    loop = Loop(wl.jobs)
    loop.run(seconds)
    lat = loop.latencies
    metrics = {
        "setup_s": import_s + statistics.median(setup_runs),
        "jobs_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * percentile(lat, 90),
        "peak_rss_mb": peak_rss_mb(wl.in_process),
    }
    record = {
        "jobs_timed": len(lat),
        "jobs_beyond_p90": sum(1 for x in lat if 1000 * x > metrics["latency_p90_ms"]),
        "pass_jobs": len(wl.jobs),
        "median_ms_by_kind": {
            kind: round(1000 * statistics.median(x for x, k in zip(lat, loop.kinds) if k == kind), 3)
            for kind in sorted(set(loop.kinds))
        },
        "import_s": import_s,
        "setup_runs_s": setup_runs,
    }
    units = dict(END_TO_END)
    return loop, {k: (v, units[k]) for k, v in metrics.items()}, record


def _python_ms(runner, code: str, repeats: int = 5) -> float:
    return 1000 * statistics.median(runner.python(["-c", code])[0] for _ in range(repeats))


def trace(name: str, seed: int, quick: bool):
    from tracer import Tracer
    from workloads import WORKLOADS, CliRunner

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    wl = WORKLOADS[name](seed, quick, ROOT)
    tracer.enabled = False
    tracer.uninstall()
    # Each job runs once untraced and once traced, back to back in
    # alternating order, so drift in host speed cancels from the overhead.
    loop = Loop(wl.jobs)
    plain, traced = [], []
    for k in range(len(wl.jobs)):
        for t in (None, tracer) if k % 2 == 0 else (tracer, None):
            (plain if t is None else traced).append(loop.step(k, t))
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.csv")

    jobs = tracer.summary(jobs=True)
    setup = tracer.summary(jobs=False)
    metrics = {}
    units = {n: u for n, u, _ in per_layer_spec()}
    for qual, extras in LAYERS:
        rec = jobs[qual]
        calls = rec["calls"]
        values = {"calls": calls, "self_s": rec["self_s"]}
        for stat in extras:
            if stat == "us_per_call":
                values[stat] = 1e6 * rec["total_s"] / calls if calls else 0.0
            elif stat in PER_CALL:
                values[stat] = rec[PER_CALL[stat]] / calls if calls else 0.0
            else:
                values[stat] = rec[stat]
        for stat, v in values.items():
            metrics[f"{qual}.{stat}"] = v
    metrics["instances.self_s"] = sum(
        rec["self_s"] for q, rec in setup.items() if q.startswith("instances.")
    )
    cli_values = dict.fromkeys(("interpreter_ms", "import_ms", "compute_ms", "other_ms", "recheck_ms"), 0.0)
    if not wl.in_process:
        runner = CliRunner(ROOT, OUT, [])
        interp = _python_ms(runner, "pass")
        imported = _python_ms(runner, "import hellykit") - interp
        compute = statistics.fmean(r["compute_ms"] for r in wl.cli_records)
        wall = 1000 * statistics.fmean(r["wall_s"] for r in wl.cli_records)
        rechecks = [r["recheck_s"] for r in wl.cli_records if "recheck_s" in r]
        cli_values.update(
            interpreter_ms=interp,
            import_ms=imported,
            compute_ms=compute,
            other_ms=wall - interp - imported - compute,
            recheck_ms=1000 * statistics.fmean(rechecks) if rechecks else 0.0,
        )
    for k, v in cli_values.items():
        metrics[f"cli.{k}"] = v
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    shares = sorted(
        ((rec["self_s"], q) for q, rec in jobs.items()), reverse=True
    )
    total = sum(traced)
    record = {
        "pass_jobs": len(wl.jobs),
        "spans": len(tracer.span_start),
        "self_time_share_top": {q: round(s / total, 4) for s, q in shares[:6]},
    }
    return loop, {k: (v, units[k]) for k, v in metrics.items()}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny job lists (smoke test)")
    args = parser.parse_args(argv)
    import_s = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hellykit.rationals import RATIONAL_BACKEND

    if args.trace:
        loop, metrics, record = trace(args.workload, args.seed, args.quick)
    else:
        loop, metrics, record = measure(
            args.workload, args.seed, args.seconds, args.quick, import_s
        )
    attempted, failed = len(loop.latencies), len(loop.failures)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "rational_backend": RATIONAL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "failed_ratio": failed / attempted,
        "failures": loop.failures[:10],
        "answers_digest": loop.digest(),
        **record,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
