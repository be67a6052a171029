"""Workloads of the rhomax benchmark: inputs, one repetition, checks.

Inputs come from the workload seed and are generated here, not by
rhomax.  A repetition drives the public entry points (``cli.main``,
``certify_candidate``, ``classify``, ``brute_force_max``) and returns
its timings together with the outcome of the output checks.  Each
repetition runs in a fresh interpreter (see worker.py), so the exact
arithmetic caches start cold, as they do for an operator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from fractions import Fraction
from math import comb

E_CLI = 40
E_SAMPLE = 130
SAMPLE_SIZE = 120
QUERY_E = (4, 130)
QUERY_PLACES = 12
QUERY_PER_E = 40
ORACLE_CASES = ((7, 5), (7, 6))

# name -> worker processes of the measured configuration
WORKLOADS = {
    "certify-e40-jobs2": 2,
    "certify-e130-sample": 1,
    "query-oracle": 1,
}

# Outputs recorded from the seed-independent inputs.  The e=40 branch
# histogram counts d_branch.v_branch over all 1111 certificates; the
# table digest is the sha256 of `rhomax table --e 4..130 --places 12`.
E40_BRANCHES = {"NegativeLeadingWithBound.SmallRoot": 799,
                "PositiveLeading.Unused": 312}
TABLE_SHA256 = "c5bc2862b0daa878a61c16648dafb2d5cb0a998130ba742bd0005765a15a10df"

COVERAGES = ("AllN", "Split")


# -- inputs ---------------------------------------------------------------


def distinct_counts(e: int) -> list[list[int]]:
    """q[r][m] = number of partitions of r into distinct parts <= m."""
    q = [[1] * (e + 1)] + [[0] * (e + 1) for _ in range(e)]
    for r in range(1, e + 1):
        for m in range(1, e + 1):
            q[r][m] = q[r][m - 1] + (q[r - m][m - 1] if r >= m else 0)
    return q


def unrank(q, e: int, first: int, rank: int) -> tuple[int, ...]:
    """The rank-th step sequence of surplus e with the given first part,
    counting in lexicographically decreasing order, which is the order
    rhomax enumerates in."""
    parts = [first]
    r, m = e - first, first - 1
    while r > 0:
        take = q[r - m][m - 1] if r >= m else 0
        if rank < take:
            parts.append(m)
            r -= m
        else:
            rank -= take
        m -= 1
    return tuple(parts)


def extremal(e: int) -> set[tuple[int, ...]]:
    """The two extremal T-subgraphs, which S*_e leaves out."""
    from rhomax.graphs import d_step_sequence
    return {(e,), d_step_sequence(e).steps}


def unrank_all(q, e: int, rank: int) -> tuple[int, ...]:
    """The rank-th partition of e into distinct parts, over all first
    parts, in rhomax's enumeration order."""
    for first in range(e, 0, -1):
        size = q[e - first][first - 1]
        if rank < size:
            return unrank(q, e, first, rank)
        rank -= size
    raise IndexError(rank)


def all_candidates(e: int) -> list[tuple[int, ...]]:
    """S*_e in enumeration order, from the counting table."""
    q, skip = distinct_counts(e), extremal(e)
    return [s for s in (unrank_all(q, e, r) for r in range(q[e][e]))
            if s not in skip]


def stratified_sample(e: int, seed: int) -> list[tuple[int, ...]]:
    """SAMPLE_SIZE members of S*_e in enumeration order, one uniform draw
    from each of SAMPLE_SIZE equal slices of the enumeration.

    Every member is about equally likely, so a first-part block gets draws in
    proportion to its size and the sample's cost per candidate estimates
    that of the whole of S*_e.  The slices follow the enumeration, which
    is grouped by first part, so a sample's mix of first parts hardly
    varies from seed to seed."""
    rng = random.Random(seed)
    q, skip = distinct_counts(e), extremal(e)
    total = q[e][e]
    # slice i holds the ranks r with r * SAMPLE_SIZE // total == i
    bounds = [-(-i * total // SAMPLE_SIZE) for i in range(SAMPLE_SIZE + 1)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        steps = unrank_all(q, e, rng.randrange(lo, hi))
        while steps in skip:
            steps = unrank_all(q, e, rng.randrange(lo, hi))
        out.append(steps)
    return out


def query_grid(seed: int) -> list[tuple[int, int]]:
    """QUERY_PER_E orders n for every surplus, uniform from the smallest
    admissible order to a little past the crossover, so both families
    win somewhere and exact crossovers can tie."""
    from rhomax.graphs import edge_params
    rng = random.Random(seed)
    grid = []
    for e in range(QUERY_E[0], QUERY_E[1] + 1):
        lo = edge_params(e).b
        hi = e + 2 + 13 * math.isqrt(e) + 13
        grid.extend((rng.randint(lo, hi), e) for _ in range(QUERY_PER_E))
    return grid


def make_inputs(workload: str, seed: int):
    if workload == "certify-e40-jobs2":
        return all_candidates(E_CLI)
    if workload == "certify-e130-sample":
        return stratified_sample(E_SAMPLE, seed)
    if workload == "query-oracle":
        return query_grid(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- checks ---------------------------------------------------------------


def certificate_ok(cert: dict, e: int, steps: tuple[int, ...]) -> bool:
    """One certificate is for the expected candidate, has a known
    coverage, and a Split leaves no integer order in [n_U.lo, n_L.hi]."""
    if cert["e"] != e or tuple(cert["steps"]) != steps:
        return False
    if cert["coverage"] not in COVERAGES:
        return False
    if cert["coverage"] == "Split":
        if cert["n_U"] is None or cert["n_L"] is None:
            return False
        lo, hi = Fraction(cert["n_U"]["lo"]), Fraction(cert["n_L"]["hi"])
        return math.ceil(lo) > hi
    return True


def branches(certs: list[dict]) -> dict[str, int]:
    return dict(Counter(f"{c['d_branch']}.{c['v_branch']}" for c in certs))


def check_certificates(certs: list[dict], e: int,
                       expected: list[tuple[int, ...]]) -> tuple[int, list[str]]:
    """Failed certificates among the expected ones, and what went wrong.
    None stands for a candidate whose certification raised.  A missing or
    extra certificate fails the whole set."""
    if len(certs) != len(expected):
        return len(expected), [f"{len(certs)} certificates, expected {len(expected)}"]
    bad = [s for c, s in zip(certs, expected)
           if c is None or not certificate_ok(c, e, s)]
    return len(bad), [f"bad certificate for {list(s)}" for s in bad[:5]]


def omega_bounds(row: dict) -> tuple[Fraction, Fraction]:
    """Crossover from a table row: exact "p/q" or enclosure "[lo, hi]"."""
    text = row["omega"]
    if text.startswith("["):
        lo, hi = text[1:-1].split(",")
        return Fraction(lo.strip()), Fraction(hi.strip())
    return Fraction(text), Fraction(text)


def expected_verdict(n: int, lo: Fraction, hi: Fraction):
    """The verdict at order n implied by a crossover in [lo, hi], or None
    when n lies inside an inexact enclosure."""
    if n < lo:
        return "D_unique"
    if n > hi:
        return "V_unique"
    return "Tie" if lo == hi else None


def check_verdicts(grid, verdicts, omegas) -> tuple[int, list[str]]:
    """Each classify verdict must agree with the table's crossover."""
    if len(verdicts) != len(grid):
        return len(grid), ["verdict count mismatch"]
    bad = [(n, e, v) for (n, e), v in zip(grid, verdicts)
           if v != expected_verdict(n, *omegas[e])]
    return len(bad), [f"classify({n}, {e}) = {v}" for n, e, v in bad[:5]]


# -- repetitions ----------------------------------------------------------


def _ms(ns_list) -> list[float]:
    return [ns / 1e6 for ns in ns_list]


def attach_candidate_timer(ct, cal) -> tuple[list[int], list[int], callable]:
    """Time every certify_candidate call, also inside pool workers, and
    time calibration slices between the calls.

    Forked workers inherit the wrapped module attribute; each worker
    stores the times on the certificate object, which travels back in its
    pickle, and the wrapped certify_all collects them in the parent.  The
    certificate's fields and its serialised form are unchanged."""
    inner, outer = ct.certify_candidate, ct.certify_all
    times: list[int] = []
    slices: list[int] = []

    def certify_candidate(*args, **kwargs):
        slice_ns = cal.maybe()
        t0 = time.perf_counter_ns()
        cert = inner(*args, **kwargs)
        object.__setattr__(cert, "_bench_ns", time.perf_counter_ns() - t0)
        object.__setattr__(cert, "_bench_slice_ns", slice_ns)
        return cert

    def certify_all(*args, **kwargs):
        for cert in outer(*args, **kwargs):
            times.append(cert.__dict__.get("_bench_ns"))
            if cert.__dict__.get("_bench_slice_ns") is not None:
                slices.append(cert.__dict__["_bench_slice_ns"])
            yield cert

    ct.certify_candidate, ct.certify_all = certify_candidate, certify_all

    def restore():
        ct.certify_candidate, ct.certify_all = inner, outer

    return times, slices, restore


def rep_certify_cli(expected, jobs: int, workdir: str, region, cal) -> dict:
    """`rhomax certify --e 40 --jobs <jobs> --out <tmp>` through cli.main."""
    from rhomax import certify as ct
    from rhomax import cli

    e = E_CLI
    times, slices, restore = attach_candidate_timer(ct, cal)
    out = tempfile.mkdtemp(prefix="certify-", dir=workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), region:
            rc = cli.main(["certify", "--e", str(e), "--jobs", str(jobs),
                           "--out", out])
        wall = region.wall_s
        problems = []
        with open(os.path.join(out, "index.json")) as fh:
            index = json.load(fh)
        entry = index["entries"][0]
        if rc != 0 or not index["all_pass"] or entry.get("status") != "pass":
            problems.append(f"exit {rc}, index {entry}")
            certs = []
        else:
            with open(os.path.join(out, entry["file"])) as fh:
                payload = json.load(fh)
            certs = payload["certificates"]
            if payload["count"] != len(expected):
                problems.append(f"count {payload['count']} != {len(expected)}")
        bytes_written = sum(os.path.getsize(os.path.join(out, f))
                            for f in os.listdir(out))
    finally:
        restore()
        shutil.rmtree(out, ignore_errors=True)
    if not problems and (None in times or len(times) != len(certs)):
        raise RuntimeError("certify_candidate times did not come back from "
                           "the pool workers (are they still forked?)")
    failed, why = check_certificates(certs, e, expected)
    hist = branches(certs)
    if hist != E40_BRANCHES:
        problems.append(f"branch histogram {hist}")
    if problems:
        failed = len(expected)
    return {"wall_s": wall, "work": len(certs), "work_s": wall,
            "op_ms": _ms(times), "slice_ns": slices,
            "attempted": len(expected), "failed": failed,
            "problems": problems + why,
            "info": {"e": e, "jobs": jobs, "branches": hist,
                     "bytes_written": bytes_written}}


def rep_certify_sample(sample, region, cal) -> dict:
    """certify_candidate on each sampled e=130 candidate, serially."""
    from rhomax import certify as ct
    from rhomax.errors import RhomaxError
    from rhomax.graphs import StepSequence

    e = E_SAMPLE
    seqs = [StepSequence(s) for s in sample]
    certs, times, errors = [], [], []
    with region:
        for seq in seqs:
            cal.maybe()
            c0 = time.perf_counter_ns()
            try:
                cert = ct.certify_candidate(e, seq)
            except RhomaxError as exc:
                cert = None
                errors.append(f"{list(seq.steps)}: {exc!r}")
            times.append(time.perf_counter_ns() - c0)
            certs.append(cert)
    wall = region.wall_s
    dicts = [c.to_dict() if c is not None else None for c in certs]
    failed, why = check_certificates(dicts, e, sample)
    done = [d for d in dicts if d is not None]
    return {"wall_s": wall, "work": len(done), "work_s": wall,
            "op_ms": _ms(times), "slice_ns": cal.samples,
            "attempted": len(sample),
            "failed": failed, "problems": errors[:5] + why,
            "info": {"e": e, "jobs": 1, "branches": branches(done)}}


def rep_query_oracle(grid, region, cal) -> dict:
    """`rhomax table --e 4..130 --places 12`, classify over the grid, then
    brute_force_max over every edge subset at each of ORACLE_CASES."""
    from rhomax import cli
    from rhomax import compare as cp
    from rhomax import oracle as orc

    buf = io.StringIO()
    verdicts, times, brutes, brute_ns = [], [], [], []
    with contextlib.redirect_stdout(buf), region:
        t0 = time.perf_counter()
        rc = cli.main(["table", "--e", f"{QUERY_E[0]}..{QUERY_E[1]}",
                       "--places", str(QUERY_PLACES)])
        t1 = time.perf_counter()
        for n, e in grid:
            cal.maybe()
            c0 = time.perf_counter_ns()
            verdicts.append(cp.classify(n, e).verdict)
            times.append(time.perf_counter_ns() - c0)
        t2 = time.perf_counter()
        for n, e in ORACLE_CASES:
            cal.maybe()
            c0 = time.perf_counter_ns()
            brutes.append(orc.brute_force_max(n, e))
            brute_ns.append(time.perf_counter_ns() - c0)
        t3 = time.perf_counter()
    table_s, classify_s, brute_s = t1 - t0, t2 - t1, t3 - t2

    # the grid, the table, two fixed checks, the brute-force searches
    attempted = len(grid) + 3 + len(ORACLE_CASES)
    problems = []
    text = buf.getvalue()
    if rc != 0 or hashlib.sha256(text.encode()).hexdigest() != TABLE_SHA256:
        problems.append(f"table exit {rc} or digest mismatch")
    if cp.omega_value(10).exact != 60:
        problems.append("omega_value(10) != 60")
    if cp.classify(60, 10).verdict != "Tie":
        problems.append("classify(60, 10) != Tie")
    if problems:
        failed = len(grid) + 3
    else:
        omegas = {r["e"]: omega_bounds(r) for r in json.loads(text)}
        failed, problems = check_verdicts(grid, verdicts, omegas)
    wrong = [f"brute_force_max({r.n}, {r.e}): {r.to_dict()}"
             for r in brutes if not (r.is_D and r.argmax_unique_iso)]
    subsets = sum(comb(comb(n, 2), n - 1 + e) for n, e in ORACLE_CASES)
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    return {"wall_s": region.wall_s, "work": len(grid), "work_s": classify_s,
            "op_ms": _ms(times), "slice_ns": cal.samples,
            "attempted": attempted, "failed": failed + len(wrong), "problems": problems + wrong,
            "info": {"table_s": table_s, "classify_s": classify_s,
                     "brute_s": brute_s, "brute_ms": _ms(brute_ns),
                     "subsets": subsets,
                     "verdicts": dict(Counter(verdicts)),
                     "verdict_sha256": digest}}


def run_rep(workload: str, inputs, jobs: int, workdir: str, region, cal) -> dict:
    """One repetition.  region is a context manager around the measured
    code that sets region.wall_s on exit (worker.py installs the tracing
    wrappers in it for a traced repetition); cal is the calib.Calibrator
    whose slices run between the measured operations."""
    if workload == "certify-e40-jobs2":
        return rep_certify_cli(inputs, jobs, workdir, region, cal)
    if workload == "certify-e130-sample":
        return rep_certify_sample(inputs, region, cal)
    return rep_query_oracle(inputs, region, cal)
