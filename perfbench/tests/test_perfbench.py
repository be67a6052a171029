"""Tests of the benchmark's own code: input generation, span arithmetic,
output checks and the metric lists in BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Region  # noqa: E402

from rhomax import certify as ct  # noqa: E402
from rhomax import tsubenum  # noqa: E402
from rhomax.graphs import d_step_sequence  # noqa: E402


# -- inputs ---------------------------------------------------------------


def test_sampler_is_deterministic_per_seed():
    a = workloads.stratified_sample(130, 7)
    assert a == workloads.stratified_sample(130, 7)
    assert a != workloads.stratified_sample(130, 8)
    assert workloads.query_grid(7) == workloads.query_grid(7)
    assert workloads.query_grid(7) != workloads.query_grid(8)


def test_sample_members_are_in_S_star_130():
    skip = {(130,), d_step_sequence(130).steps}
    for seed in range(3):
        sample = workloads.stratified_sample(130, seed)
        assert len(sample) == workloads.SAMPLE_SIZE
        assert len(set(sample)) == len(sample)
        assert sample == sorted(sample, reverse=True)
        for steps in sample:
            assert sum(steps) == 130
            assert steps[-1] > 0
            assert all(a > b for a, b in zip(steps, steps[1:]))
            assert steps not in skip
        for first in (60, 40, 30):
            block = {s.steps for s in tsubenum.enumerate_block(130, first)}
            assert {s for s in sample if s[0] == first} <= block


def test_sample_draws_once_from_each_equal_slice():
    e, n = 29, workloads.SAMPLE_SIZE
    q = workloads.distinct_counts(e)
    ranked = [workloads.unrank_all(q, e, r) for r in range(q[e][e])]
    for seed in range(3):
        sample = workloads.stratified_sample(e, seed)
        assert set(sample) <= set(workloads.all_candidates(e))
        ranks = [ranked.index(s) for s in sample]
        assert [r * n // len(ranked) for r in ranks] == list(range(n))


def test_unranking_reproduces_rhomax_enumeration():
    for e in (4, 5, 7, 9, 12, 20, 29, 40):
        ours = workloads.all_candidates(e)
        assert ours == [s.steps for s in tsubenum.enumerate_S_star(e)]


# -- spans ----------------------------------------------------------------


def test_self_time_of_a_fixed_nested_trace():
    # root [0,100] holds a [10,40] and b [50,90]; a holds c [20,30]
    trace = [(0, 0, 100, -1), (1, 10, 40, 0), (1, 50, 90, 0), (2, 20, 30, 1)]
    assert spans.self_times(trace) == [30, 20, 40, 10]
    totals = spans.totals(["root", "a", "c"], trace)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(60e-9)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_sums_to_at_most_wall_time():
    ns = types.SimpleNamespace()

    def leaf():
        _busy(0.002)

    def mid():
        _busy(0.001)
        ns.leaf()
        ns.leaf()

    def gen():
        for _ in range(3):
            ns.mid()
            yield 1

    ns.leaf, ns.mid, ns.gen = leaf, mid, gen
    tracer = spans.Tracer("synthetic")
    for name in ("leaf", "mid", "gen"):
        tracer.wrap(ns, name, f"t.{name}")
    t0 = time.perf_counter_ns()
    root = tracer.begin("root")
    assert list(ns.gen()) == [1, 1, 1]
    _busy(0.001)
    tracer.end(root)
    wall = time.perf_counter_ns() - t0
    tracer.restore()

    assert ns.leaf is leaf and ns.gen is gen
    selfs = spans.self_times(tracer.spans)
    assert all(s >= 0 for s in selfs)
    _, start, end, _ = tracer.spans[root]
    assert sum(selfs) == end - start <= wall
    totals = tracer.totals()
    assert totals["t.leaf"]["calls"] == 6
    assert totals["t.mid"]["calls"] == 3
    assert totals["t.gen"]["calls"] == 4  # three items, then StopIteration
    assert tracer.yields["t.gen"] == 3
    assert totals["t.leaf"]["self_s"] >= 0.012


# -- checks ---------------------------------------------------------------


def test_certificate_checks_count_each_wrong_output():
    e = 9
    expected = workloads.all_candidates(e)
    certs = [c.to_dict() for c in ct.certify_all(e)]
    assert workloads.check_certificates(certs, e, expected) == (0, [])

    split = next(i for i, c in enumerate(certs) if c["coverage"] == "Split")
    gap = json.loads(json.dumps(certs))
    gap[split]["n_U"]["lo"] = "0/1"  # an integer order now escapes both
    assert workloads.check_certificates(gap, e, expected)[0] == 1
    cover = json.loads(json.dumps(certs))
    cover[0]["coverage"] = "Partial"
    assert workloads.check_certificates(cover, e, expected)[0] == 1
    assert workloads.check_certificates(certs[1:], e, expected)[0] == len(expected)
    assert workloads.check_certificates([None] + certs[1:], e, expected)[0] == 1


def test_verdict_checks_follow_the_crossover():
    omegas = {10: (60, 60), 4: (24, 25)}
    grid = [(60, 10), (59, 10), (61, 10), (20, 4), (30, 4)]
    good = ["Tie", "D_unique", "V_unique", "D_unique", "V_unique"]
    assert workloads.check_verdicts(grid, good, omegas) == (0, [])
    bad = list(good)
    bad[0] = "D_unique"
    assert workloads.check_verdicts(grid, bad, omegas)[0] == 1


def test_injected_wrong_output_raises_failed_frac(monkeypatch):
    sample = workloads.stratified_sample(130, 0)[-3:]
    original = ct.certify_candidate

    def corrupt_second(e, steps, *args):
        cert = original(e, steps, *args)
        if steps.steps == sample[1]:
            cert = dataclasses.replace(cert, coverage="Bogus")
        return cert

    clean = workloads.rep_certify_sample(sample, Region(), calib.Calibrator())
    assert clean["failed"] == 0
    monkeypatch.setattr(ct, "certify_candidate", corrupt_second)
    rep = workloads.rep_certify_sample(sample, Region(), calib.Calibrator())
    assert (rep["attempted"], rep["failed"]) == (3, 1)
    m = {"setup_s": 0.1, "wall_s": rep["wall_s"], "work_per_s": 1.0,
         "op_ms_p50": 1.0, "op_ms_p90": 1.0, "peak_rss_mb": 1.0}
    named = run.named_metrics("certify-e130-sample", m, [rep])
    assert named["failed_frac"][0] == 1 / 3
    clean_named = run.named_metrics("certify-e130-sample", m, [clean])
    assert clean_named["failed_frac"][0] == 0


# -- the benchmark's contract ----------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER


def test_times_scale_to_reference_speed():
    # slices at twice the nominal time: the host ran at half speed
    slow = [2 * calib.NOMINAL_NS] * 3
    assert calib.factor(slow) == 0.5
    rep = {"wall_s": 4.0, "work_s": 2.0, "work": 10, "op_ms": [1.0, 3.0],
           "peak_rss_mb": 7.0, "slice_ns": slow,
           "info": {"table_s": 1.0, "brute_ms": [8.0]}}
    scaled = run.at_reference(rep)
    assert (scaled["wall_s"], scaled["work_s"], scaled["op_ms"]) == (2.0, 1.0, [0.5, 1.5])
    assert scaled["info"] == {"table_s": 0.5, "brute_ms": [4.0]}
    assert rep["info"]["table_s"] == 1.0  # the raw repetition is kept
    m = run.pooled([scaled], [0.3])
    assert (m["wall_s"], m["work_per_s"], m["peak_rss_mb"]) == (2.0, 10.0, 7.0)


def test_calibrator_times_a_slice_only_when_due():
    cal = calib.Calibrator()
    assert cal.maybe() is None
    cal._last -= calib.INTERVAL_NS
    assert cal.maybe() > 0
    assert cal.maybe() is None and len(cal.samples) == 1


def test_percentile_interpolates():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([0, 10], 90) == 9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query-oracle",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
