"""One step of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py rep --workload W --seed S --jobs J \\
        [--trace kernel|parent --spans-out FILE]

`setup` imports rhomax, generates the inputs, times SETUP_SLICES
calibration slices and reports them with the versions; run.py times it
from the outside.  `rep` runs one repetition and reports its timings,
calibration slices and checks.  Either prints one JSON object as its
last line.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (after the path set-up)
from calib import Calibrator  # noqa: E402

SETUP_SLICES = 5


class Region:
    """Times the measured code of a repetition."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.t0


class TracedRegion(Region):
    """Wraps the layer boundaries for the measured code only, under one
    root span, so the checks that follow it are not traced."""

    def __init__(self, workload: str, side: str):
        from spans import Tracer
        self.tracer = Tracer(workload)
        self.side = side

    def __enter__(self):
        from layers import Instruments
        self.instruments = Instruments(self.tracer, self.side)
        self._root = self.tracer.begin("bench.rep")
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.tracer.end(self._root)
        self.tracer.restore()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child
    (the pool workers of a jobs=2 run), in MiB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=["setup", "rep"])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", choices=["off", "kernel", "parent"], default="off")
    ap.add_argument("--spans-out", help="span file; required with --trace")
    args = ap.parse_args(argv)
    if (args.trace == "off") != (args.spans_out is None):
        ap.error("--spans-out goes with --trace kernel|parent, and only with it")

    import numpy
    import rhomax

    inputs = workloads.make_inputs(args.workload, args.seed)
    cal = Calibrator()
    if args.step == "setup":
        for _ in range(SETUP_SLICES):
            cal.run()
        out = {"python": platform.python_version(), "numpy": numpy.__version__,
               "rhomax": rhomax.__version__, "inputs": len(inputs),
               "slice_ns": cal.samples}
    else:
        workdir = HERE / "_work"  # certificate directories, removed after use
        workdir.mkdir(exist_ok=True)
        if args.trace == "off":
            region = Region()
        else:
            region = TracedRegion(args.workload, args.trace)
        out = workloads.run_rep(args.workload, inputs, args.jobs,
                                str(workdir), region, cal)
        out["peak_rss_mb"] = peak_rss_mb()
        if args.trace != "off":
            totals = region.tracer.totals()
            out["layers"] = region.instruments.metrics(totals, out)
            out["spans"] = len(region.tracer.spans)
            region.tracer.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
