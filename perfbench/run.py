"""rhomax benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; rhomax is imported from src/.
Every repetition runs in its own fresh interpreter (worker.py), so no
exact arithmetic cache is warm when it starts, until the next
repetition would end more than half a repetition past --seconds.
Set-up is timed in at least SETUP_REPEATS more fresh interpreters,
spread between the repetitions.
Outputs are checked in every repetition.

--trace 0 prints the end-to-end metrics, with times at the reference
host speed of calib.py; the raw times are in the summary and the
result file.  --trace 1 runs the workload
once untraced and once with the layer boundaries wrapped, and prints the
per-layer metrics, with the tracing overhead as trace.overhead_pct.

A summary goes to stdout, the full result (environment, seed, every
repetition) to perfbench/results/, and the last line of stdout is the
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from layers import PARENT_SIDE, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 12
SETUP_PER_GAP = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END = [  # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
]
# what one unit of work and one operation are, per workload
UNITS = {
    "certify-e40-jobs2": ("certificate", "certify_candidate call, in the pool worker"),
    "certify-e130-sample": ("certificate", "certify_candidate call"),
    "query-oracle": ("classify query", "classify call"),
}
# single-threaded BLAS: eigvalsh timings drift with free BLAS threads
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.child_env = {**os.environ, **CHILD_ENV}
        # (wall s less the calibration slices, factor to reference speed)
        self.setups: list[tuple[float, float]] = []
        self.env: dict = {}  # versions reported by the last set-up

    def spawn(self, *args: str) -> tuple[float, dict]:
        """Run worker.py in a fresh interpreter; (wall seconds, its JSON)."""
        cmd = [sys.executable, str(HERE / "worker.py"), *args,
               "--workload", self.workload, "--seed", str(self.seed)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.child_env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool
            proc.communicate()
            raise BenchError(f"worker timed out: {' '.join(args)}")
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
        return wall, json.loads(out.strip().splitlines()[-1])

    def setup(self, times: int) -> None:
        """Time `times` set-ups; they go to self.setups."""
        for _ in range(times):
            wall, self.env = self.spawn("setup")
            slices = self.env.pop("slice_ns")
            self.setups.append((wall - sum(slices) / 1e9, calib.factor(slices)))

    def rep(self, jobs: int) -> dict:
        return self.spawn("rep", "--jobs", str(jobs))[1]

    def traced_rep(self, jobs: int, side: str, spans_out: str) -> dict:
        return self.spawn("rep", "--jobs", str(jobs), "--trace", side,
                          "--spans-out", spans_out)[1]


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics over repetitions filling about `seconds`:
    another repetition starts while it is expected to end less than half
    a repetition past `seconds` (there is always at least one).

    Times are pooled over the repetitions: the mean wall time, work over
    total time, percentiles over every operation.  A run holds only a few
    repetitions, and on this host the pooled figures spread less from
    run to run than medians over so few values.

    Set-up is timed SETUP_PER_GAP times before each repetition and after
    the last, SETUP_REPEATS times at least, and setup_s is the median:
    spread over the run, the set-ups see the same host speed as the
    repetitions rather than that of one moment.

    Each repetition and set-up is scaled to reference speed by its own
    calibration slices; the raw metrics are returned as well.
    """
    jobs = WORKLOADS[runner.workload]
    reps, busy = [], 0.0
    while True:
        runner.setup(SETUP_PER_GAP)
        t0 = time.monotonic()
        reps.append(runner.rep(jobs))
        last = time.monotonic() - t0
        busy += last
        if busy + last / 2 > seconds:  # another would overshoot by over half of one
            break
    runner.setup(max(SETUP_PER_GAP, SETUP_REPEATS - len(runner.setups)))
    scaled = [at_reference(r) for r in reps]
    metrics = pooled(scaled, [wall * f for wall, f in runner.setups])
    raw = pooled(reps, [wall for wall, _ in runner.setups])
    return {"metrics": metrics, "raw": raw,
            "named": named_metrics(runner.workload, metrics, scaled),
            "factors": [r["factor"] for r in scaled], "env": runner.env}, reps


def at_reference(rep: dict) -> dict:
    """A repetition's times scaled by its calibration factor."""
    f = calib.factor(rep["slice_ns"])
    info = dict(rep["info"])
    for key in ("table_s", "classify_s", "brute_s"):
        if key in info:
            info[key] *= f
    if "brute_ms" in info:
        info["brute_ms"] = [x * f for x in info["brute_ms"]]
    return {**rep, "factor": f, "wall_s": rep["wall_s"] * f,
            "work_s": rep["work_s"] * f, "op_ms": [x * f for x in rep["op_ms"]],
            "info": info}


def pooled(reps: list[dict], setups: list[float]) -> dict:
    ops = [x for r in reps for x in r["op_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(r["wall_s"] for r in reps),
        "work_per_s": sum(r["work"] for r in reps) / sum(r["work_s"] for r in reps),
        "op_ms_p50": percentile(ops, 50),
        "op_ms_p90": percentile(ops, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def named_metrics(workload: str, m: dict, reps: list[dict]) -> dict:
    """The end-to-end metrics under their workload-specific names."""
    out = {"setup_s": (m["setup_s"], "s"), "wall_s": (m["wall_s"], "s")}
    if workload.startswith("certify"):
        out["cands_per_s"] = (m["work_per_s"], "1/s")
        out["cand_ms_p50"] = (m["op_ms_p50"], "ms")
        out["cand_ms_p90"] = (m["op_ms_p90"], "ms")
    else:
        out["queries_per_s"] = (m["work_per_s"], "1/s")
        out["query_ms_p50"] = (m["op_ms_p50"], "ms")
        out["query_ms_p90"] = (m["op_ms_p90"], "ms")
        ops = [x for r in reps for x in r["op_ms"]]
        out["query_ms_p99"] = (percentile(ops, 99), "ms")
        out["table_s"] = (statistics.mean(r["info"]["table_s"] for r in reps), "s")
        out["subsets_per_s"] = (sum(r["info"]["subsets"] for r in reps)
                                / sum(r["info"]["brute_s"] for r in reps), "1/s")
        brute = [x for r in reps for x in r["info"]["brute_ms"]]
        out["brute_ms_p50"] = (percentile(brute, 50), "ms")
    out["peak_rss_mb"] = (m["peak_rss_mb"], "MiB")
    attempted = sum(r["attempted"] for r in reps)
    out["failed_frac"] = (sum(r["failed"] for r in reps) / attempted, "1")
    return out


def trace(runner: Runner, stamp: str) -> tuple[dict, list[dict]]:
    """Per-layer metrics from traced repetitions, and the overhead of
    tracing against an untraced repetition of the same configuration.
    Self times are raw; the two wall times are at reference speed.

    Spans in pool workers do not reach the parent, so the kernel split
    is traced at jobs=1; for the jobs=2 workload a second traced run
    wraps only the parent side (pool wait, enumeration, serialisation).
    """
    jobs = WORKLOADS[runner.workload]
    runner.setup(1)

    def spans_file(side):
        return str(HERE / "results" / f"spans_{runner.workload}_seed{runner.seed}_{side}_{stamp}.json.gz")

    plain = runner.rep(1)
    kernel = runner.traced_rep(1, "kernel", spans_file("kernel"))
    layers = dict(kernel["layers"])
    reps = [plain, kernel]
    if jobs > 1:
        parent = runner.traced_rep(jobs, "parent", spans_file("parent"))
        layers.update({k: parent["layers"][k] for k in PARENT_SIDE})
        reps.append(parent)
    # at reference speed, so host drift between the two does not read as
    # tracing overhead
    plain_s, traced_s = (at_reference(r)["wall_s"] for r in (plain, kernel))
    layers["trace.untraced_wall_s"] = plain_s
    layers["trace.traced_wall_s"] = traced_s
    layers["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    return {"metrics": layers, "env": runner.env}, reps


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rhomax" / "__init__.py").is_file():
        print(f"error: no rhomax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "results").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            result, reps = trace(runner, stamp)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            result, reps = measure(runner, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    env = {**result["env"], "nproc": os.cpu_count(), "git_rev": git_rev(),
           "jobs": WORKLOADS[args.workload], "blas_threads": CHILD_ENV}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "units_of_work": UNITS[args.workload],
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "named_metrics": result.get("named"),
        "raw_metrics": result.get("raw"),
        "calibration_factors": result.get("factors"),
        "setups_s_factor": runner.setups,
        "reps": [{k: v for k, v in r.items() if k != "op_ms"} for r in reps],
    }
    path = HERE / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  jobs {env['jobs']}  "
          f"reps {len(reps)}  trace {args.trace}")
    shown = result.get("named") or {k: (m["value"], m["unit"]) for k, m in metrics.items()}
    for name, (value, unit) in shown.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    if "raw" in result:
        print("  raw, at the host's speed (factor to reference "
              + ", ".join(f"{f:.3f}" for f in result["factors"]) + "):")
        for name, value in result["raw"].items():
            print(f"    {name:<50} {value:>16.6g}")
    for r in reps:
        for p in r["problems"]:
            print(f"  FAILED: {p}")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
