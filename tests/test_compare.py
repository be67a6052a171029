"""Crossover machinery: the comparison cubic, its largest root, the
crossover order, the closed-form regime, and the large-surplus bounds."""

import math
from fractions import Fraction

import pytest

from rhomax import certify as ct
from rhomax import compare as cp
from rhomax import exactpoly as xp
from rhomax import graphs as gr
from rhomax import oracle as orc
from rhomax.errors import (
    InvalidRegime,
    OrderTooSmall,
    OutOfProvenRange,
    PoleAt3,
)
from rhomax.exactpoly import AlgebraicReal, IntPoly


class TestPsiPoly:
    def test_e4(self):
        assert cp.psi_poly(4) == IntPoly([16, -48, -32, 8])

    def test_e10(self):
        assert cp.psi_poly(10) == IntPoly([0, -960, -840, 120])

    def test_positive_leading_up_to_130(self):
        for e in range(4, 131):
            assert cp.psi_poly(e).leading > 0


class TestPsiValue:
    def test_e10_exactly_8(self):
        assert xp.compare(cp.psi_value(10), AlgebraicReal.from_rational(8)) == 0

    def test_e15_exactly_25_3(self):
        v = cp.psi_value(15)
        assert xp.compare_with_rational(v, Fraction(25, 3)) == 0

    def test_e4_in_5_to_5p2(self):
        v = cp.psi_value(4).refined(Fraction(1, 100))
        assert Fraction(5) < v.interval.lo and v.interval.hi < Fraction(26, 5)

    def test_psi_above_k_plus_1(self):
        for e in range(4, 61):
            p = gr.edge_params(e)
            assert xp.sign_at(cp.psi_poly(e), p.k + 1) == -1
            assert xp.compare_with_rational(cp.psi_value(e), p.k + 1) > 0


    def test_is_largest_root_of_the_family_comparison(self):
        # compare's hand-expanded cubic and certify's links agree: psi is
        # where the near-clique and star-like families swap
        for e in range(4, 131):
            q = ct.q_poly(gr.d_step_sequence(e), gr.StepSequence((e,)))
            root = xp.kth_largest_root(q, 1)
            assert xp.compare(cp.psi_value(e), root) == 0, f"e={e}"


class TestOmegaValue:
    def test_e10_is_60(self):
        assert cp.omega_value(10).exact == 60

    def test_e4_enclosure(self):
        omega = cp.omega_value(4)
        iv = omega.enclose(Fraction(1, 10**6))
        assert iv.width <= Fraction(1, 10**6)
        assert 24 < iv.lo and iv.hi < 25

    def test_omega_above_e_plus_2(self):
        for e in range(4, 61):
            omega = cp.omega_value(e)
            if omega.exact is not None:
                assert omega.exact > e + 2
            else:
                iv = omega.enclose(Fraction(1, 1000))
                assert iv.lo > e + 2


class TestClassify:
    def test_tie_at_60_10(self):
        assert cp.classify(60, 10).verdict == cp.TIE

    def test_crossover_e4(self):
        assert cp.classify(24, 4).verdict == cp.D_UNIQUE
        assert cp.classify(25, 4).verdict == cp.V_UNIQUE

    def test_small_n(self):
        assert cp.classify(5, 4).verdict == cp.D_UNIQUE

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            cp.classify(4, 4)

    def test_out_of_range(self):
        with pytest.raises(OutOfProvenRange):
            cp.classify(100, 131)
        cp.classify(100, 131, unsafe_extrapolate=True)

    def test_consistency_with_numerics(self):
        for e in range(4, 13):
            p = gr.edge_params(e)
            for n in range(p.b, e + 14):
                verdict = cp.classify(n, e).verdict
                assert verdict == cp._sign_verdict(n, e)
                rho_d = orc.spectral_radius(gr.adjacency(gr.build_D(n, e))).rho
                if n < e + 2:
                    assert verdict == cp.D_UNIQUE
                    continue
                rho_v = orc.spectral_radius(gr.adjacency(gr.build_V(n, e))).rho
                if verdict == cp.D_UNIQUE:
                    assert rho_d > rho_v + 1e-9
                elif verdict == cp.V_UNIQUE:
                    assert rho_v > rho_d + 1e-9
                else:
                    assert abs(rho_d - rho_v) < 1e-9


class TestClassifyRoutes:
    """classify decides against a cached enclosure of omega and falls back
    to the exact sign test at psi only inside it; both routes agree."""

    def test_routes_agree_around_omega(self):
        for e in range(4, cp.PROVEN_E_MAX + 1):
            iv = cp._omega_enclosure(e)
            assert iv.width < 1
            for n in range(math.floor(iv.lo) - 3, math.ceil(iv.hi) + 4):
                assert cp.classify(n, e).verdict == cp._sign_verdict(n, e), \
                    f"(n, e) = ({n}, {e})"

    def test_tie_is_reached_through_the_sign_test(self, monkeypatch):
        calls = []
        sign_verdict = cp._sign_verdict

        def spy(n, e):
            calls.append((n, e))
            return sign_verdict(n, e)

        monkeypatch.setattr(cp, "_sign_verdict", spy)
        assert cp.classify(59, 10).verdict == cp.D_UNIQUE
        assert cp.classify(61, 10).verdict == cp.V_UNIQUE
        assert calls == []
        assert cp.classify(60, 10).verdict == cp.TIE
        assert calls == [(60, 10)]


class TestBellF:
    def test_values(self):
        assert cp.bell_f(5) == 60
        # 25 + 7 + 32 + 16; cross-checked against the exact crossover at the
        # surplus where k = 4 and t = 0 (e = 6), which is also exactly 80
        assert cp.bell_f(4) == 80
        assert cp.omega_value(6).exact == 80
        assert cp.bell_f(17) == Fraction(18 * 23, 2) + 7 + Fraction(32, 14) \
            + Fraction(16, 196)

    def test_pole(self):
        with pytest.raises(PoleAt3):
            cp.bell_f(3)

    def test_omega_coincides_with_bell_at_t0(self):
        for e in range(4, 131):
            p = gr.edge_params(e)
            if p.t != 0 or p.k < 4:
                continue
            omega = cp.omega_value(e)
            assert omega.exact is not None
            assert omega.exact == cp.bell_f(p.k)


class TestRootStructure:
    def test_small_range(self):
        assert cp.psi_root_structure(4) == cp.THREE_DISTINCT_ONE_ABOVE_K
        assert cp.psi_root_structure(27) == cp.THREE_DISTINCT_ONE_ABOVE_K

    def test_large_range(self):
        assert cp.psi_root_structure(30) == cp.MONOTONE_ABOVE_K
        assert cp.psi_root_structure(60) == cp.MONOTONE_ABOVE_K


class TestEllBound:
    def test_e5(self):
        ell, bound = cp.ell_bound(5)
        assert ell == 15
        assert bound == 7 + Fraction(2400, 11)

    def test_e131(self):
        ell, _ = cp.ell_bound(131)
        assert ell == Fraction(1048, 57)

    def test_ell_above_k_plus_1(self):
        for e in range(5, 401):
            p = gr.edge_params(e)
            if p.t == 0:
                continue
            ell, _ = cp.ell_bound(e)
            assert ell > p.k + 1

    def test_t0_rejected(self):
        with pytest.raises(InvalidRegime):
            cp.ell_bound(10)


class TestCorollaryRange:
    def test_single(self):
        report = cp.corollary_range_check(86, 86)
        assert report.all_pass
        assert report.entries[0].status == "pass"

    def test_e92_certified_at_integer_granularity(self):
        # the real-valued inequality fails by ~0.16 at e=92; the integer
        # fallback certifies the statement the order threshold needs
        report = cp.corollary_range_check(92, 92)
        assert report.all_pass
        assert report.entries[0].mode == "integer"

    def test_t0_skipped(self):
        report = cp.corollary_range_check(86, 120)
        skipped = [x.e for x in report.entries if x.status == "skipped_t0"]
        for e in skipped:
            assert gr.edge_params(e).t == 0
        assert any(skipped)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            cp.corollary_range_check(50, 90)


class TestEigenEquationResiduals:
    def test_d_family_quintic_residual(self):
        # gamma of the near-clique family satisfies the factored closed form
        for e, n in ((5, 8), (7, 10), (8, 9)):
            p = gr.edge_params(e)
            num, den = ct.r_D_closed_form(e)
            gamma = orc.spectral_radius(gr.adjacency(gr.build_D(n, e))).rho
            val = _evalf(num, gamma) - (n - p.k - 2) * _evalf(den, gamma)
            scale = max(1.0, gamma) ** num.degree
            assert abs(val) / scale < 1e-7

    def test_v_family_residual(self):
        for e, n in ((4, 8), (6, 10), (10, 14)):
            chi = orc.spectral_radius(gr.adjacency(gr.build_V(n, e))).rho
            val = (chi * (chi + 1) * (chi**2 - chi - 2 * e)
                   - (n - e - 2) * (chi**2 - e))
            assert abs(val) / max(1.0, chi) ** 4 < 1e-7


def _evalf(p, x: float) -> float:
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc
