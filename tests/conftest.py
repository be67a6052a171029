"""Shared pytest plumbing.

BLAS runs single-threaded, as in the benchmark: the oracle's many small
eigensolves only slow down when OpenBLAS spreads them over busy cores.
This must be set before anything imports numpy.

A test that monkeypatches may have filled certify's or compare's per-e
caches from the patched code; they are cleared after it, so later tests
never see them.

The acceptance tests append one human-readable pass/fail line per
criterion to ACCEPTANCE_LINES; this hook prints them at the end of the
run so they are visible even when pytest captures stdout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from rhomax import certify, compare

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _clear_per_e_caches(request):
    yield
    # autouse fixtures are set up first, so this runs after monkeypatch
    # has put the original functions back
    if "monkeypatch" in request.fixturenames:
        for module in (certify, compare):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
