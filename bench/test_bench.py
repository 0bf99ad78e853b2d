"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import workloads
from oracle import Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import abspres  # noqa: E402
from tracing import Tracer  # noqa: E402


def _digest_in_subprocess(workload: str, seed: int, hashseed: str) -> str:
    code = f"import workloads; print(workloads.corpus_digest(workloads.make_corpus({workload!r}, {seed})))"
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_corpus_is_the_same_from_run_to_run():
    for workload in workloads.WHY:
        first = _digest_in_subprocess(workload, 7, "1")
        assert first == _digest_in_subprocess(workload, 7, "2")
        assert first == workloads.corpus_digest(workloads.make_corpus(workload, 7))
        assert first != workloads.corpus_digest(workloads.make_corpus(workload, 8))


def test_oracle_accepts_library_answers_and_rejects_wrong_ones():
    corpus = workloads.make_corpus("sp-closure", 3)
    jobs = workloads.build_jobs(abspres, corpus)
    oracle = Oracle(corpus)
    job = next(j for j in jobs if j.kind == "sp_partition" and j.arg == "L1")
    entry = corpus["jobs"][job.id]
    answer = job.summarize(job.call())
    assert len(answer) > 1
    assert oracle.check(entry, answer) is None
    # Merging the first two blocks gives a coarser, wrong partition.
    wrong = [answer[0] | answer[1]] + answer[2:]
    assert "is not L1" in oracle.check(entry, wrong)


def test_oracle_rejects_a_wrong_or_incomplete_relation_search():
    corpus = workloads.make_corpus("relation-search", 1)
    job = next(j for j in workloads.build_jobs(abspres, corpus)
               if corpus["models"][corpus["jobs"][j.id][1]] == workloads.TRAFFIC_LIGHT)
    entry = corpus["jobs"][job.id]
    hits = job.summarize(job.call())
    blocks = entry[3]
    cycle = [(blocks[i], blocks[(i + 1) % 4]) for i in range(4)]
    everything = [(a, b) for a in blocks for b in blocks]
    oracle = Oracle(corpus)
    assert sorted(cycle) in hits and sorted(everything) not in hits
    assert oracle.check(entry, hits) is None
    assert "missing" in oracle.check(entry, hits[1:])
    assert "not strongly preserving" in oracle.check(entry, hits + [everything])


def _job(job_id, call):
    return workloads.Job(job_id, "test", "", call, lambda result: result)


def _spin():
    while True:
        pass


def test_timeout_records_a_failure_and_the_run_goes_on(monkeypatch):
    monkeypatch.setattr(harness, "JOB_TIMEOUT_S", 0.2)
    jobs = [_job(0, _spin), _job(1, lambda: 42)]
    m = harness.measure(lambda: jobs, passes=1)
    assert m.failures == [(0, "timeout")]
    assert m.answers == {1: 42}
    assert m.attempted == 2


def test_set_ups_and_probes_are_spread_over_a_fixed_number_of_passes():
    calls = []
    jobs = [_job(i, lambda i=i: calls.append(i)) for i in range(4)]
    m = harness.measure(lambda: calls.append("set-up") or jobs, passes=2, setups=5,
                        probe=lambda: calls.append("probe"), probes=2)
    assert m.passes == 2 and len(m.setup_s) == 5 and len(m.probe_s) == 2
    assert calls == ["set-up", 0, "set-up", 1, "probe", 2, 3,
                     "set-up", "set-up", 0, 1, "set-up", "probe", 2, 3]
    assert workloads.passes("refine", 30) == workloads.passes("refine", 30.4) == 7


def test_schedule_runs_every_job_and_the_b3_searches_again():
    corpus = workloads.make_corpus("relation-search", 1)
    order = workloads.schedule(corpus)
    assert sorted(set(order)) == list(range(len(corpus["jobs"])))
    assert len(order) == len(corpus["jobs"]) + (workloads.SEARCH_REPEATS - 1) * workloads.SEARCH_MODELS


def test_tracer_restores_every_attribute():
    lib = abspres
    apply_operator = lib.languages.apply_operator
    pre = lib.KripkeModel.pre
    tracer = Tracer(lib)
    tracer.install()
    try:
        assert lib.shells.apply_operator is lib.languages.apply_operator
        assert lib.abstraction.apply_operator is not apply_operator
        assert lib.KripkeModel.pre is not pre
    finally:
        tracer.uninstall()
    assert lib.shells.apply_operator is apply_operator
    assert lib.abstraction.apply_operator is apply_operator
    assert lib.KripkeModel.pre is pre


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_output_names_every_metric_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "refine", "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "refine", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
