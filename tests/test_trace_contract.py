"""The names perfbench's per-layer trace wraps exist in the package.

perfbench (outside the package) swaps module attributes for timing
wrappers and counts step-7 rounds by the identity of the near-clique link
numerator.  Building its kernel-side instruments here makes a renamed or
dropped attribute, or a per-e cache that stopped caching, fail this suite
instead of the next traced run.
"""

import importlib.util
from fractions import Fraction
from itertools import islice
from pathlib import Path

from rhomax import certify as ct
from rhomax import compare as cp
from rhomax import graphs as gr
from rhomax import tsubenum as te

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_e40():
    """Step-7 rounds and metrics of 30 traced e = 40 candidates, all Split."""
    spans, layers = _load("spans"), _load("layers")
    candidates = list(islice(te.enumerate_S_star(40), 30))
    original = ct.certify_candidate
    tracer = spans.Tracer("trace-contract")
    try:
        instruments = layers.Instruments(tracer, "kernel")
        assert ct.certify_candidate is not original
        certs = [ct.certify_candidate(40, s) for s in candidates]
    finally:
        tracer.restore()
    assert ct.certify_candidate is original
    assert all(c.coverage == ct.COVER_SPLIT for c in certs)
    metrics = instruments.metrics(tracer.totals(), {"info": {}, "wall_s": 0.0})
    assert metrics["certify.certify_candidate.calls"] == len(candidates)
    return instruments.rounds, metrics


def test_kernel_trace_counts_no_step7_round_on_the_sign_test():
    # every Split certificate at e = 40 is settled by step 7's sign test
    rounds, metrics = _traced_e40()
    assert rounds == 0
    assert metrics["certify.step7_rounds_per_cand"] == 0.0


def test_kernel_trace_counts_one_step7_round_per_fallback(monkeypatch):
    # with the sign test unable to settle the gap, each of these Split
    # certificates takes exactly one refinement round
    constant = ct.step7_constant
    monkeypatch.setattr(ct, "step7_constant",
                        lambda e: (constant(e)[0], Fraction(e + 1)))
    rounds, metrics = _traced_e40()
    assert rounds == 30
    assert metrics["certify.step7_rounds_per_cand"] == 1.0


def test_compare_trace_counts_one_psi_per_surplus_and_fallback():
    spans, layers = _load("spans"), _load("layers")
    for fn in (cp.psi_value, cp.omega_value, cp._omega_enclosure):
        fn.cache_clear()
    # every order from the least one to past the largest crossover, 80
    grid = [(n, e) for e in range(4, 11)
            for n in range(gr.edge_params(e).b, 90)]
    original = cp.classify
    tracer = spans.Tracer("trace-contract")
    try:
        instruments = layers.Instruments(tracer, "kernel")
        assert cp.classify is not original
        verdicts = [cp.classify(n, e).verdict for n, e in grid]
    finally:
        tracer.restore()
    assert cp.classify is original
    assert verdicts[grid.index((60, 10))] == cp.TIE  # a fallback
    surpluses = len({e for _, e in grid})
    fallbacks = sum(1 for n, e in grid
                    if cp._omega_enclosure(e).lo <= n <= cp._omega_enclosure(e).hi)
    metrics = instruments.metrics(tracer.totals(), {"info": {}, "wall_s": 0.0})
    assert metrics["compare.classify.calls"] == len(grid)
    assert metrics["compare.omega_value.calls"] <= surpluses
    assert metrics["compare.psi_value.calls"] <= surpluses + fallbacks
