"""Tests of the benchmark itself: seed handling, output checks, tracing
and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from tracer import Tracer
import yardstick
from workloads import LABELLINGS, WORKLOADS, euler_check, table

sys.path.insert(0, str(run.SRC))


def _inputs(jobs):
    return [(job.name, job.k.to_json()) for job in jobs]


def _cheap(jobs):
    return [job for job in jobs if job.k.m <= 6]


def test_same_seed_gives_same_jobs_and_hashes():
    for workload in WORKLOADS:
        _, first = run.setup(workload, 5)
        _, second = run.setup(workload, 5)
        assert _inputs(first) == _inputs(second)
    _, first = run.setup("verify-fuzz", 5)
    _, second = run.setup("verify-fuzz", 5)
    hashes = []
    for jobs in (_cheap(first), _cheap(second)):
        runner = run.Runner(jobs)
        runner.run_pass()
        assert runner.failures == []
        hashes.append(runner.hashes)
    assert hashes[0] == hashes[1]


def test_other_seed_relabels_but_keeps_named_invariants():
    _, first = run.setup("verify-fuzz", 1)
    _, second = run.setup("verify-fuzz", 2)
    named = [i for i, job in enumerate(first) if not job.complex.startswith("random")]
    assert [first[i].k for i in named] != [second[i].k for i in named]
    for jobs in (first, second):
        runner = run.Runner([jobs[i] for i in named if jobs[i].k.m <= 6])
        runner.run_pass()
        assert runner.failures == []


def test_named_jobs_take_a_new_labelling_each_pass_with_the_same_output():
    _, jobs = run.setup("verify-fuzz", 4)
    jobs = [job for job in jobs if job.complex == "two_squares"]
    for job in jobs:
        assert len(job.ks) == LABELLINGS
        assert len({k.to_json() for k in job.ks}) > 1
    runner = run.Runner(jobs)
    for _ in range(3):
        runner.run_pass()
    assert [job.calls for job in jobs] == [3] * len(jobs)
    assert runner.failures == []


def test_warm_up_pass_is_untimed_and_later_passes_keep_both_times():
    _, jobs = run.setup("verify-fuzz", 3)
    runner = run.Runner([job for job in jobs if job.complex == "two_squares"])
    assert runner.run_pass() == 0.0
    assert all(times == [] for times in runner.times.values())
    runner.warm_up = False
    assert runner.run_pass() > 0
    for name, times in runner.times.items():
        assert len(times) == len(runner.raw_times[name]) == 1
        assert times[0] > 0
    assert runner.failures == []


def test_yardstick_scales_to_the_reference_speed():
    assert yardstick.measure() > 0
    assert yardstick.scale(1.0, yardstick.REF_S, yardstick.REF_S) == 1.0
    assert yardstick.scale(1.0, 2 * yardstick.REF_S, 2 * yardstick.REF_S) == 0.5


def test_corrupted_reference_fails_the_job():
    mods, _ = run.setup("z-ladder", 1)
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    reference["rp2"]["HH(Z)"]["HH"][1][2] += 1
    jobs = [job for job in run.build_jobs(mods, "z-ladder", 1, reference, run.OUT)
            if job.complex == "rp2"]
    runner = run.Runner(jobs)
    runner.run_pass()
    assert len(runner.failures) == 1
    assert "rp2 HH(Z) differs from the stored reference" in runner.failures[0]


def test_euler_check_catches_a_wrong_rank():
    mods, _ = run.setup("z-ladder", 1)
    k = mods.complexes.rp2_minimal()
    rows = table(mods.hochster.hochster_cohomology(k).invariants())
    assert euler_check(k, rows) is None
    rows[1][2] += 1
    assert euler_check(k, rows) is not None


def test_tracer_sees_calls_bound_by_from_import_and_restores_them():
    mods, _ = run.setup("z-ladder", 1)
    original = mods.hochster.homology_of_pair
    tracer = Tracer()
    tracer.install(mods)
    try:
        mods.hochster.double_cohomology(mods.complexes.cycle(5))
    finally:
        tracer.uninstall()
    assert mods.hochster.homology_of_pair is original
    names = tracer.names
    parents = {}
    for sid, nid in enumerate(tracer.span_name):
        parent = tracer.span_parent[sid]
        if parent >= 0:
            parents.setdefault(names[nid], set()).add(names[tracer.span_name[parent]])
    assert "hochster.double" in parents["linalg.homology_of_pair"]
    assert "homology.cohomology" in parents["linalg.homology_of_pair"]
    assert "linalg.homology_of_pair" in parents["linalg.smith_normal_form"]
    for name, self_time in tracer.self_time.items():
        assert 0 <= self_time <= tracer.total_time[name] + 1e-9


def test_tracer_sees_the_entry_point_of_every_job_kind():
    mods, jobs = run.setup("verify-fuzz", 1)
    jobs = [job for job in jobs if job.complex == "random6-1"]
    tracer = Tracer()
    tracer.install(mods)
    try:
        for job in jobs:
            job.run()
    finally:
        tracer.uninstall()
    for name in ("koszul.check_identities", "hochster.double", "koszul.hh", "koszul.iso"):
        assert tracer.calls.get(name, 0) == 1, name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "z-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
