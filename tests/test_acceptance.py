"""Acceptance gate: the ten end-to-end criteria, one pass/fail line each.

Each test appends its verdict line to the shared report printed at the end
of the pytest run (see conftest.py).  A test that raises before reporting
records a FAIL line via the `criterion` helper.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

import paper_links
from conftest import ACCEPTANCE_LINES
from rhomax import certify as ct
from rhomax import compare as cp
from rhomax import exactpoly as xp
from rhomax import graphs as gr
from rhomax import oracle as orc
from rhomax import tsubenum as te
from rhomax.exactpoly import IntPoly, X


@contextmanager
def criterion(num: int, title: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {num} ({title}): FAIL")
        raise
    ACCEPTANCE_LINES.append(
        f"criterion {num} ({title}): PASS ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_certification_desk_scale():
    with criterion(1, "certification e=4..30, zero failures"):
        total = 0
        branches = Counter()
        for e in range(4, 31):
            if gr.edge_params(e).t == 0:
                continue
            certs = list(ct.certify_all(e))
            assert len(certs) == max(0, te.count_S(e) - 2)
            total += len(certs)
            branches.update(f"{c.d_branch}/{c.v_branch}" for c in certs)
        assert total > 1500  # sanity: the search space was actually walked
        # a kernel change that flips any candidate's branch fails here
        assert branches == {
            "NegativeLeadingWithBound/SmallRoot": 1015,
            "PositiveLeading/Unused": 631,
            "NegativeLeadingWithBound/BoundAtNL": 1,
        }


def test_criterion_2_omega_bell_coincidence():
    with criterion(2, "omega equals closed-form crossover at t=0, exact"):
        checked = 0
        for e in range(4, 131):
            p = gr.edge_params(e)
            if p.t != 0 or p.k < 4:
                continue
            omega = cp.omega_value(e)
            assert omega.exact is not None, f"e={e}: omega not exact"
            assert omega.exact == cp.bell_f(p.k), f"e={e}"
            checked += 1
        assert checked >= 10


def test_criterion_3_crossover_e4():
    with criterion(3, "crossover verdicts at e=4 match numerics"):
        assert cp.classify(24, 4).verdict == cp.D_UNIQUE
        assert cp.classify(25, 4).verdict == cp.V_UNIQUE
        for n, expect_d in ((24, True), (25, False)):
            rho_d = orc.spectral_radius(gr.adjacency(gr.build_D(n, 4))).rho
            rho_v = orc.spectral_radius(gr.adjacency(gr.build_V(n, 4))).rho
            margin = rho_d - rho_v if expect_d else rho_v - rho_d
            assert margin > 1e-9


@pytest.mark.parametrize("n,e", [(5, 4), (6, 4), (6, 5), (7, 4), (7, 5),
                                 (7, 6), (8, 4), (8, 5)])
def test_criterion_4_brute_force(n, e):
    with criterion(4, f"brute force (n={n}, e={e}): unique max is near-clique"):
        res = orc.brute_force_max(n, e)
        assert res.is_D, f"maximizer not the near-clique family at {(n, e)}"
        assert res.argmax_unique_iso, f"maximizer not unique at {(n, e)}"


def test_criterion_5_exact_vs_numeric_rho():
    with criterion(5, "exact vs numeric spectral radius, e<=10"):
        for e in range(1, 11):
            for steps in te.enumerate_S(e):
                for n in range(steps[0] + 2, e + 7):
                    exact = ct.rho_of_threshold(steps, n)
                    exact = exact.refined(Fraction(1, 10**9))
                    numeric = orc.spectral_radius(
                        gr.adjacency(gr.ThresholdGraph(n, steps))).rho
                    assert abs(float(exact.interval.mid) - numeric) <= 1e-7, \
                        f"e={e} steps={steps.steps} n={n}"


def test_criterion_6_lemma_suite():
    with criterion(6, "comparison-cubic lemma suite, 4<=e<=60, exact"):
        for e in range(4, 61):
            p = gr.edge_params(e)
            poly = cp.psi_poly(e)
            assert poly.degree == 3 and poly.leading > 0, f"e={e}"
            assert xp.sign_at(poly, p.k + 1) == -1, f"e={e}"
            psi = cp.psi_value(e)
            assert xp.compare_with_rational(psi, p.k + 1) > 0, f"e={e}"
            omega = cp.omega_value(e)
            if omega.exact is not None:
                assert omega.exact > e + 2, f"e={e}"
            else:
                assert omega.enclose(Fraction(1, 1000)).lo > e + 2, f"e={e}"
            structure = cp.psi_root_structure(e)
            if e <= 27:
                assert structure == cp.THREE_DISTINCT_ONE_ABOVE_K, f"e={e}"
            else:
                assert structure == cp.MONOTONE_ABOVE_K, f"e={e}"


def test_criterion_7_perron_ratios():
    with criterion(7, "Perron-ratio closed forms within 1e-7"):
        for e in (5, 7, 8, 12):
            p = gr.edge_params(e)
            k, t = p.k, p.t
            for n in (p.b, p.b + 3):
                g = orc.spectral_radius(gr.adjacency(gr.build_D(n, e))).rho
                den = (g * (g + 1) * (g - k + t + 1)
                       - t * (g * (g + 2) - k + t + 1))
                expect = ((g * (g + 2) - k + t + 1) / den,
                          g * (g + 1) / den,
                          (g + 1) * (g - k + t + 1) / den)
                got = orc.perron_ratios_D(n, e)
                for a, b in zip(got, expect):
                    assert abs(a - b) < 1e-7, f"e={e} n={n}"


def test_criterion_8_corollary_range():
    with criterion(8, "large-surplus range check 86..350, exact"):
        t0 = time.monotonic()
        report = cp.corollary_range_check(86, 350)
        assert report.all_pass
        statuses = {x.status for x in report.entries}
        assert statuses <= {"pass", "skipped_t0"}
        assert time.monotonic() - t0 <= 60


def test_criterion_9_link_function_law():
    with criterion(9, "link-function monotonicity and closed-form identity"):
        rng = random.Random(42)
        # 50 random candidates: R vanishes at the top cone root and is
        # strictly increasing above it (exact sign tests at rational points)
        for _ in range(50):
            e = rng.randint(2, 20)
            steps = rng.choice(list(te.enumerate_S(e)))
            num, den = ct.generic_r_poly(steps)
            p_t1 = ct.tsub_charpolys(steps.steps)[1].expand()
            rho1 = xp.kth_largest_root(p_t1, 1)
            # R(rho(T1)) = 0: numerator = x * P_T1 vanishes there,
            # denominator does not
            assert xp.sign_at_root(num, rho1) == 0
            assert xp.sign_at_root(den, rho1) != 0
            # strictly increasing: sample increasing rationals above rho1
            hi = rho1.refined(Fraction(1, 4)).hi
            points = [hi + Fraction(i, 7) for i in range(21)]
            values = [Fraction(num(q), den(q)) for q in points]
            assert all(a < b for a, b in zip(values, values[1:]))
        # the paper's closed forms are the links the creation sequence
        # gives the two families: V's coefficient for coefficient, D's as
        # rational functions, and coefficient for coefficient unless
        # t = k - 1, where the closed form keeps one common factor x
        for e in range(4, 131):
            num_cf, den_cf = paper_links.r_V(e)
            num_g, den_g = ct.generic_r_poly(gr.StepSequence((e,)))
            assert (num_g, den_g) == (num_cf, den_cf), f"V identity e={e}"
            assert ct.r_V_closed_form(e) == (num_g, den_g)
            p = gr.edge_params(e)
            if p.t == 0:
                continue
            num_cf, den_cf = paper_links.r_D(e)
            num_g, den_g = ct.generic_r_poly(gr.d_step_sequence(e))
            assert num_g * den_cf == num_cf * den_g, f"D identity e={e}"
            assert ct.r_D_closed_form(e) == (num_g, den_g)
            if p.t == p.k - 1:
                assert (num_cf, den_cf) == (X * num_g, X * den_g), f"D e={e}"
            else:
                assert (num_g, den_g) == (num_cf, den_cf), f"D e={e}"


def test_criterion_10_crossover_numerics():
    with criterion(10, "crossover verdicts 4<=e<=130 match numerics"):
        checked = 0
        for e in range(4, 131):
            omega = cp.omega_value(e)
            if omega.exact is not None and omega.exact.denominator == 1:
                continue  # omega_e is an integer order, where the two tie
            eps = Fraction(1, 1024)
            while math.floor((iv := omega.enclose(eps)).lo) != math.floor(iv.hi):
                eps /= 1024
            for n in (math.floor(iv.lo), math.ceil(iv.hi)):
                rho_d = orc.spectral_radius(gr.adjacency(gr.build_D(n, e))).rho
                rho_v = orc.spectral_radius(gr.adjacency(gr.build_V(n, e))).rho
                # far above round-off, so the float sign decides nothing
                assert abs(rho_d - rho_v) > 1e-9, f"e={e} n={n}"
                expect = cp.D_UNIQUE if rho_d > rho_v else cp.V_UNIQUE
                assert cp.classify(n, e).verdict == expect, f"e={e} n={n}"
                checked += 1
        assert checked == 248
