"""Benchmark of macoh: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload z-ladder --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory and nowhere else.  A run sets up its inputs
(fresh import of the package, seeded complexes, CLI input files) a few
times before the first pass and once after every pass, and reports the
median as ``setup_s``; spreading the set-ups over the run exposes them
to the same host conditions as the passes.  The jobs run in passes,
an untimed warm-up pass first, until ``--seconds`` would be exceeded,
and every output of every pass is checked.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
mean pass time (``wall_ref_s``), the largest per-job mean
(``slowest_job_ref_s``), peak RSS and set-up time.  Job times are taken
at the reference speed of ``yardstick``: each is scaled by the time of
a fixed kernel run right before and after the job, so that the speed of
a shared host, which changes by up to a third every few seconds and
drifts over minutes, largely cancels out.  The raw times go to stderr
and to the result file.  Times are means over the passes of a run.

With ``--trace 1`` part of the time runs untraced and the rest with the
tracer's wrappers installed; the last line holds the per-layer metrics,
per traced pass, and ``trace.overhead_frac``.  Human-readable lines go
to stderr.  Each run also writes
``perfbench/out/result-<workload>-seed<n>-trace<t>.json`` (read by
``report.py``) and, when traced, ``perfbench/out/spans-<workload>.csv``.

The exit code is 0 when every job of every pass ran and matched its
check, 1 when one did not, and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import LAYERS, Tracer
import yardstick
from workloads import WORKLOADS, build_jobs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("complexes", "linalg", "homology", "hochster", "koszul", "cli")
SETUP_REPEATS = 3  # before the first pass; one more follows every untraced pass
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, for the overhead baseline

END_TO_END = {"wall_ref_s": "s", "slowest_job_ref_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def _span(name, *stats, span=None):
    """Metrics of one span name: calls and self time per pass."""
    span = span or name
    units = {"calls": ("count", "calls"), "self_s": ("s", "self"), "s": ("s", "total")}
    return {f"{name}.{stat}": (units[stat][0], units[stat][1], span) for stat in stats}


# metric -> (unit, statistic, source); every value is per traced pass except
# maxima and ratios.  The statistics are read off the tracer by layer_metrics.
PER_LAYER = {
    **_span("complexes.faces_within", "calls", "self_s"),
    **_span("complexes.predicates", "self_s"),
    **_span("homology.reduced_complex", "calls", "self_s"),
    **_span("homology.cohomology", "calls", "self_s"),
    **_span("homology.induced_map", "calls", "self_s"),
    **_span("homology.field_cohomology", "calls", "self_s"),
    **_span("linalg.smith_normal_form", "calls", "self_s"),
    "linalg.smith_normal_form.cells": ("count", "count", "linalg.smith_normal_form.cells"),
    "linalg.smith_normal_form.max_dim": ("count", "max", "linalg.smith_normal_form.max_dim"),
    "linalg.smith_normal_form.nnz_frac":
        ("ratio", "ratio", ("linalg.smith_normal_form.nnz", "linalg.smith_normal_form.cells")),
    "linalg.smith_normal_form.max_entry_bits":
        ("bits", "max", "linalg.smith_normal_form.max_entry_bits"),
    "linalg.smith_normal_form.zero_input_frac":
        ("ratio", "ratio", ("linalg.smith_normal_form.zero_input",
                            "linalg.smith_normal_form.inputs")),
    **_span("linalg.homology_of_pair", "calls", "self_s"),
    **_span("linalg.solve", "calls"),
    **_span("linalg.matmul", "calls", "self_s"),
    "linalg.matmul.cells": ("count", "count", "linalg.matmul.cells"),
    **_span("linalg.mulvec", "calls"),
    **_span("linalg.rref", "calls", "self_s"),
    "linalg.rref.cells": ("count", "count", "linalg.rref.cells"),
    **_span("hochster.sweep", "s"),
    "hochster.subsets": ("count", "count", "hochster.subsets"),
    "hochster.repeat_subcomplex_frac": ("ratio", "repeat", None),
    **_span("hochster.d_prime", "s"),
    "hochster.d_prime.blocks": ("count", "count", "hochster.d_prime.blocks"),
    "hochster.d_prime.max_dim": ("count", "max", "hochster.d_prime.max_dim"),
    "hochster.d_prime.nnz_frac":
        ("ratio", "ratio", ("hochster.d_prime.nnz", "hochster.d_prime.cells")),
    **_span("hochster.double", "s"),
    **_span("hochster.field_double", "s"),
    **_span("koszul.rcomplex", "s"),
    "koszul.monomials": ("count", "count", "koszul.monomials"),
    "koszul.max_block": ("count", "max", "koszul.max_block"),
    **_span("koszul.check_identities", "s"),
    **_span("koszul.cohomology", "s"),
    **_span("koszul.hh", "s"),
    **_span("koszul.iso", "s"),
    **_span("koszul.field_algebra", "s"),
    **_span("koszul.hh_product", "calls"),
    **_span("cli.main", "calls"),
    **_span("cli", "self_s", span="cli.main"),
    **{f"layer.{layer}.self_s": ("s", "layer", layer) for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "overhead", None),
}


def setup(workload, seed):
    """Fresh import of the package, seeded inputs, CLI input files."""
    for name in [n for n in sys.modules if n == "macoh" or n.startswith("macoh.")]:
        del sys.modules[name]
    importlib.import_module("macoh")
    mods = SimpleNamespace(**{n: importlib.import_module(f"macoh.{n}") for n in MODULES})
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    return mods, build_jobs(mods, workload, seed, reference, OUT)


def timed_setup(workload, seed):
    """Time one more set-up, then put the first import back in place so
    that jobs and tracer keep using the same module objects."""
    first = {n: m for n, m in sys.modules.items() if n == "macoh" or n.startswith("macoh.")}
    start = perf_counter()
    setup(workload, seed)
    elapsed = perf_counter() - start
    sys.modules.update(first)
    return elapsed


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Runner:
    """Runs passes over a job list and keeps every time, hash and failure.

    While ``warm_up`` is set, passes are checked, but no time is kept.
    After that, job times are kept both as measured and scaled to the
    reference speed of ``yardstick``."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.warm_up = True
        self.times = {job.name: [] for job in jobs}  # at the reference speed
        self.raw_times = {job.name: [] for job in jobs}
        self.raw_passes = []
        self.hashes = {}
        self.attempted = 0
        self.failures = []

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def run_pass(self, tracer=None):
        """One pass over every job; returns the summed job time at the
        reference speed.  The yardstick's kernel runs before every job
        and once after the last, outside any span."""
        values = {}
        total = raw_total = 0.0
        before = yardstick.measure()
        for job in self.jobs:
            self.attempted += 1
            run = job.run
            if tracer is not None:
                tracer.job += 1
                run = tracer.span("job", job.run)
            try:
                start = perf_counter()
                raw = run()
                elapsed = perf_counter() - start
                value = job.canon(raw)
            except Exception:  # a failing job is reported and the run goes on
                self.fail(f"{job.name}: raised\n{traceback.format_exc()}")
                before = yardstick.measure()
                continue
            after = yardstick.measure()
            if not self.warm_up:
                scaled = yardstick.scale(elapsed, before, after)
                total += scaled
                raw_total += elapsed
                self.times[job.name].append(scaled)
                self.raw_times[job.name].append(elapsed)
            before = after
            try:
                problem = job.check(value, values)
            except Exception:
                problem = f"check raised\n{traceback.format_exc()}"
            values[job.name] = value
            h = digest(value)
            if self.hashes.setdefault(job.name, h) != h:
                problem = problem or "output differs from an earlier pass"
            if problem:
                self.fail(f"{job.name}: {problem}")
        if not self.warm_up:
            self.raw_passes.append(raw_total)
        return total

    def measure(self, seconds, tracer=None, between=None):
        """Passes until the next one would end after `seconds`; at least
        one.  `between` runs after each pass, and its time counts toward
        `seconds` but not toward the pass."""
        walls, durations = [], []
        start = perf_counter()
        while True:
            begin = perf_counter()
            walls.append(self.run_pass(tracer))
            durations.append(perf_counter() - begin)
            if between is not None:
                between()
            if perf_counter() - start + statistics.median(durations) > seconds:
                return walls


def layer_metrics(tracer, passes, mods, overhead):
    """Per-layer metrics from a traced phase of `passes` passes."""
    layer_self = tracer.layer_self_time()
    out = {}
    for name, (unit, stat, source) in PER_LAYER.items():
        if stat == "calls":
            value = tracer.calls.get(source, 0) / passes
        elif stat == "self":
            value = tracer.self_time.get(source, 0.0) / passes
        elif stat == "total":
            value = tracer.total_time.get(source, 0.0) / passes
        elif stat == "count":
            value = tracer.counts.get(source, 0) / passes
        elif stat == "max":
            value = tracer.maxima.get(source, 0)
        elif stat == "ratio":
            part, whole = (tracer.counts.get(key, 0) for key in source)
            value = part / whole if whole else 0.0
        elif stat == "layer":
            value = layer_self[source] / passes
        elif stat == "repeat":
            value = tracer.repeat_subcomplex_frac(mods.complexes)
        else:
            value = overhead
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def log(line):
    print(line, file=sys.stderr)


def end_to_end(runner, seconds, setup_times, workload, seed):
    """Untraced passes; returns (metrics, pass times, job times)."""
    walls = runner.measure(
        seconds, between=lambda: setup_times.append(timed_setup(workload, seed)))
    log(f"{len(walls)} passes; mean raw pass time {statistics.mean(runner.raw_passes):.6g} s")
    values = {
        "wall_ref_s": statistics.mean(walls),
        "slowest_job_ref_s": max(statistics.mean(t) for t in runner.times.values() if t),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}
    return metrics, walls, runner.times


def per_layer(runner, seconds, mods, workload):
    """Untraced then traced passes; returns (metrics, untraced pass times,
    untraced job times, dominant layer) and writes the spans."""
    untraced = runner.measure(seconds * UNTRACED_SHARE)
    times = {name: list(t) for name, t in runner.times.items()}
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = runner.measure(seconds * (1 - UNTRACED_SHARE), tracer)
    finally:
        tracer.uninstall()
    overhead = statistics.mean(traced) / statistics.mean(untraced) - 1
    metrics = layer_metrics(tracer, len(traced), mods, overhead)
    layer_self = tracer.layer_self_time()
    dominant = max(layer_self, key=layer_self.get)
    share = layer_self[dominant] / (sum(layer_self.values()) or 1.0)
    log(f"{len(untraced)} untraced and {len(traced)} traced passes")
    log(f"dominant self-time layer: {dominant} ({share:.1%} of layer self time)")
    top = sorted(tracer.self_time, key=tracer.self_time.get, reverse=True)[:3]
    log("largest self-time spans: " + ", ".join(
        f"{name} {tracer.self_time[name] / len(traced):.3g} s/pass" for name in top))
    tracer.write_spans(OUT / f"spans-{workload}.csv")
    return metrics, untraced, times, dominant


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "macoh" / "__init__.py").is_file():
        print(f"error: no macoh package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        mods, jobs = setup(args.workload, args.seed)
        setup_times.append(perf_counter() - start)
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: macoh was imported from {mods.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    runner = Runner(jobs)
    log(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs")
    # The warm-up pass is checked but not timed; its time counts toward --seconds.
    start = perf_counter()
    runner.run_pass()
    runner.warm_up = False
    seconds = max(args.seconds - (perf_counter() - start), 0.0)
    if args.trace:
        metrics, walls, times, dominant = per_layer(runner, seconds, mods, args.workload)
    else:
        metrics, walls, times = end_to_end(runner, seconds, setup_times,
                                           args.workload, args.seed)
        dominant = None

    failed = len(runner.failures)
    for name, metric in metrics.items():
        log(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    log(f"  fail_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} jobs)")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pass_s": walls, "raw_pass_s": runner.raw_passes, "setup_s": setup_times,
        "dominant_layer": dominant,
        "jobs": {job.name: {"complex": job.complex, "kind": job.kind,
                            "mean_s": statistics.mean(times[job.name]) if times[job.name] else None,
                            "times_s": times[job.name], "raw_times_s": runner.raw_times[job.name],
                            "hash": runner.hashes.get(job.name)}
                 for job in jobs},
        "failures": runner.failures, **result,
    }
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
