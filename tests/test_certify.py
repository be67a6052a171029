"""The per-candidate elimination algorithm and its building blocks."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rhomax import certify as ct
from rhomax import exactpoly as xp
from rhomax import graphs as gr
from rhomax import oracle as orc
from rhomax import tsubenum as te
from rhomax.errors import (
    Degenerate,
    InvalidRegime,
    OrderTooSmall,
    StructureViolation,
    VerificationFailed,
)
from rhomax.exactpoly import IntPoly, RationalInterval, X
from rhomax.graphs import StepSequence

import paper_links


class TestQPoly:
    def test_identical_inputs_vanish(self):
        s = StepSequence((4, 1))
        assert ct.q_poly(s, s).is_zero

    def test_antisymmetry(self):
        a, b = StepSequence((4, 1)), StepSequence((3, 2))
        assert ct.q_poly(a, b) == -ct.q_poly(b, a)

    def test_e5_vs_star_positive_leading(self):
        q = ct.q_poly(StepSequence((4, 1)), StepSequence((5,)))
        assert not q.is_zero
        assert q.leading > 0


class TestClosedForms:
    """The family links and bounds come from the creation sequence; the
    paper's closed forms (tests/paper_links.py) are the reference."""

    def test_r_d_e5(self):
        # t = k - 1: the paper's form carries one more common factor x
        num, den = ct.r_D_closed_form(5)
        assert num == X * (X + 1) * IntPoly([-6, -2, 1])
        assert den == IntPoly([-4, -1, 1])
        num_cf, den_cf = paper_links.r_D(5)
        assert (num_cf, den_cf) == (X * num, X * den)

    def test_d_cubic_e7(self):
        cubic = IntPoly([4, -6, -3, 1])
        assert paper_links.d_cubic(7) == cubic
        assert ct.r_D_closed_form(7) == paper_links.r_D(7)
        root = xp.kth_largest_root(cubic, 1)
        assert xp.compare(ct.family_bounds(7)[0], root) == 0

    def test_r_d_degree_bookkeeping(self):
        # num/den ~ lambda^2 at large argument
        for e in (5, 7, 8, 12):
            num, den = ct.r_D_closed_form(e)
            assert num.degree - den.degree == 2
            big = Fraction(10**6)
            ratio = num(big) / den(big)
            assert abs(ratio / big**2 - 1) < Fraction(1, 100)

    def test_r_d_t0_matches_numeric(self):
        # the link needs no t >= 1 guard: at e = 10 the T-subgraph is K_5
        num, den = ct.r_D_closed_form(10)
        b = gr.edge_params(10).b
        for n in (b, b + 3):
            r = xp.kth_largest_root(num - (n - b) * den, 1)
            r = r.refined(Fraction(1, 10**9))
            rho = orc.spectral_radius(gr.adjacency(gr.build_D(n, 10))).rho
            assert abs(float(r.interval.mid) - rho) < 1e-8

    def test_r_v_e4_root_matches_numeric(self):
        # largest root of x^2 - x - 8 is (1+sqrt(33))/2 = rho(K_2 join 4K_1)
        r = ct.family_bounds(4)[1]
        numeric = orc.spectral_radius(gr.adjacency(gr.build_V(6, 4))).rho
        r = r.refined(Fraction(1, 10**9))
        assert abs(float(r.interval.mid) - numeric) < 1e-8
        assert abs(numeric - (1 + 33**0.5) / 2) < 1e-9

    def test_r_v_e10_at_8(self):
        num, den = ct.r_V_closed_form(10)
        assert num(8) / den(8) == 48
        assert num(0) == 0

    def test_family_bounds_are_the_paper_roots(self):
        for e in range(4, 131):
            rho_t1d, rho_t1v = ct.family_bounds(e)
            v = xp.kth_largest_root(paper_links.v_quadratic(e), 1)
            assert xp.compare(rho_t1v, v) == 0, f"e={e}"
            if gr.edge_params(e).t >= 1:
                d = xp.kth_largest_root(paper_links.d_cubic(e), 1)
                assert xp.compare(rho_t1d, d) == 0, f"e={e}"


class TestRhoOfThreshold:
    def test_matches_numeric_v(self):
        r = ct.rho_of_threshold(StepSequence((4,)), 10).refined(Fraction(1, 10**9))
        num = orc.spectral_radius(gr.adjacency(gr.build_V(10, 4))).rho
        assert abs(float(r.interval.mid) - num) < 1e-8

    def test_matches_numeric_d(self):
        r = ct.rho_of_threshold(StepSequence((3, 1)), 6).refined(Fraction(1, 10**9))
        num = orc.spectral_radius(gr.adjacency(gr.build_D(6, 4))).rho
        assert abs(float(r.interval.mid) - num) < 1e-8

    def test_minimal_order_star(self):
        # n = s1 + 2 makes the pendant term vanish; rho is the root of the
        # cone polynomial itself
        e = 5
        r = ct.rho_of_threshold(StepSequence((e,)), e + 2)
        s = xp.kth_largest_root(paper_links.v_quadratic(e), 1)
        assert xp.compare(r, s) == 0

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            ct.rho_of_threshold(StepSequence((4,)), 5)


def _dense(a):
    return xp.charpoly(a.astype(int).tolist())


def _twin_class_charpoly(a):
    """Reference: the factored charpoly of a stepwise matrix from its twin
    classes and the dense charpoly of their quotient matrix.

    Twin vertices of a stepwise matrix (identical rows off the two
    diagonal positions) are consecutive; a class of size s is a clique or
    an independent set and contributes s-1 eigenvalues -1 or 0."""
    n = a.shape[0]
    m = a.astype(np.int64)
    i = np.arange(n - 1)
    differ = m[:-1] != m[1:]
    differ[i, i] = differ[i, i + 1] = False
    starts = [0] + [int(j) + 1 for j in np.flatnonzero(differ.any(axis=1))]
    link = np.diagonal(m, 1)
    zeros = minus_ones = 0
    for lo, hi in zip(starts, starts[1:] + [n]):
        if hi - lo < 2:
            continue
        assert len(set(link[lo:hi - 1].tolist())) == 1, "mixed twin class"
        if link[lo]:
            minus_ones += hi - lo - 1
        else:
            zeros += hi - lo - 1
    r = xp.charpoly(np.add.reduceat(m[starts], starts, axis=1).tolist())
    return ct.FactoredPoly(zeros, minus_ones, r)


def _graph_sequence(g):
    """Creation sequence of a whole threshold graph: its T-subgraph, then
    the pendants, then the dominating vertex 0."""
    return ct.creation_sequence(g.steps) + [False] * (g.n - g.steps[0] - 2) + [True]


def _charpoly_cases():
    """Every step sequence with e <= 30, and seeded members of S*_40 and
    of S_130."""
    cases = [s for e in range(1, 31) for s in te.enumerate_S(e)]
    rng = random.Random(7)
    cases += rng.sample(list(te.enumerate_S_star(40)), 40)
    cases += [_random_member(rng, 130, rng.randint(16, 129)) for _ in range(12)]
    return cases


class TestCharpolyViaModules:
    def test_creation_sequence_of_a_star(self):
        # K_1,4: four isolated vertices, then the centre
        assert ct.creation_sequence(StepSequence((4,))) == [False] * 4 + [True]

    def test_matches_twin_class_reference(self):
        for steps in _charpoly_cases():
            a = gr.tsub_adjacency(steps)
            p_t, p_t1 = ct.tsub_charpolys(steps.steps)
            assert p_t == _twin_class_charpoly(a), steps.steps
            assert p_t1 == _twin_class_charpoly(gr.cone(a)), steps.steps

    def test_agrees_with_dense_on_threshold_graphs(self):
        rng = random.Random(11)
        for _ in range(15):
            e = rng.randint(1, 12)
            steps = rng.choice(list(te.enumerate_S(e)))
            n = steps[0] + 2 + rng.randint(0, 3)
            g = gr.ThresholdGraph(n, steps)
            a = gr.adjacency(g).a
            f = ct.charpoly_via_modules(_graph_sequence(g))
            assert f == _twin_class_charpoly(a), (n, steps.steps)
            assert f.expand() == _dense(a), (n, steps.steps)

    def test_tsub_and_cone_agree_with_dense(self):
        for e in range(1, 11):
            for steps in te.enumerate_S(e):
                a = gr.tsub_adjacency(steps)
                p_t, p_t1 = ct.tsub_charpolys(steps.steps)
                assert p_t.expand() == _dense(a), steps.steps
                assert p_t1.expand() == _dense(gr.cone(a)), steps.steps

    def test_factors_are_the_trivial_eigenvalues(self):
        # K_1,4 has eigenvalue 0 three times; K_5 has -1 four times
        star = ct.charpoly_via_modules(ct.creation_sequence(StepSequence((4,))))
        assert star.a == 3 and star.b == 0 and star.r == IntPoly([-4, 0, 1])
        clique = ct.charpoly_via_modules(ct.creation_sequence(StepSequence((4, 3, 2, 1))))
        assert clique.a == 0 and clique.b == 4 and clique.r == IntPoly([-4, 1])


def _full_q(g1, g2):
    """The comparison polynomial from the expanded charpolys."""
    p1_t, p1_t1 = (f.expand() for f in ct.tsub_charpolys(g1.steps))
    p2_t, p2_t1 = (f.expand() for f in ct.tsub_charpolys(g2.steps))
    return X * (p1_t1 * p2_t - p2_t1 * p1_t) + (g1[0] - g2[0]) * (p1_t * p2_t)


def _random_member(rng, e, first):
    """A member of S_e with the given first part, parts drawn at random
    among those that leave a feasible remainder."""
    parts, rest = [first], e - first
    while rest:
        hi = min(rest, parts[-1] - 1)
        lo = next(p for p in range(1, hi + 1) if rest - p <= p * (p - 1) // 2)
        parts.append(rng.randint(lo, hi))
        rest -= parts[-1]
    return StepSequence(parts)


def _reduced_q_cases():
    """Every member of S*_e for 5 <= e <= 20 (t >= 1), and seeded draws at
    e = 40 and e = 130."""
    cases = [(e, s) for e in range(5, 21) if gr.edge_params(e).t
             for s in te.enumerate_S_star(e)]
    rng = random.Random(2024)
    cases += [(40, s) for s in rng.sample(list(te.enumerate_S_star(40)), 12)]
    cases += [(130, _random_member(rng, 130, first))
              for first in (17, 20, 30, 45, 70, 100, 125)]
    return cases


class TestReducedQPoly:
    """q_poly equals the full comparison polynomial divided by x^a (x+1)^b."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for e, steps in _reduced_q_cases():
            for rival in (gr.d_step_sequence(e), StepSequence((e,))):
                out.append((steps, rival))
        return out

    def test_full_is_trivial_factor_times_reduced(self, cases):
        for steps, rival in cases:
            full, red = _full_q(steps, rival), ct.q_poly(steps, rival)
            if full.is_zero:
                assert red.is_zero
                continue
            cof = xp.divexact(full, red).coeffs
            alpha = next(i for i, c in enumerate(cof) if c)
            beta = len(cof) - 1 - alpha
            assert cof[alpha:] == tuple(comb(beta, i) for i in range(beta + 1)), \
                (steps.steps, rival.steps)

    def test_largest_root_unchanged(self, cases):
        # every third case for e <= 20, all of the e = 40 and e = 130 draws
        for i, (steps, rival) in enumerate(cases):
            if steps.e <= 20 and i % 3:
                continue
            full, red = _full_q(steps, rival), ct.q_poly(steps, rival)
            if full.is_zero:
                continue
            r_full = xp.kth_largest_root(full, 1)
            r_red = xp.kth_largest_root(red, 1)
            if r_full is not None and xp.compare_with_rational(r_full, 0) > 0:
                assert xp.compare(r_full, r_red) == 0, (steps.steps, rival.steps)
            else:
                assert r_red is None or xp.compare_with_rational(r_red, 0) <= 0


class TestCertifyCandidate:
    def test_e5_certificate(self):
        cert = ct.certify_candidate(5, StepSequence((4, 1)))
        assert cert.coverage in (ct.COVER_ALL_N, ct.COVER_SPLIT)

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            ct.certify_candidate(5, StepSequence((5,)))
        with pytest.raises(Degenerate):
            ct.certify_candidate(5, StepSequence((3, 2)))

    def test_t0_rejected(self):
        with pytest.raises(InvalidRegime):
            ct.certify_candidate(10, StepSequence((5, 4, 1)))

    @pytest.mark.parametrize("e,steps,n_range", [
        (5, (4, 1), range(7, 13)),
        (7, (4, 3), range(8, 15)),
    ])
    def test_oracle_consistency(self, e, steps, n_range):
        # every certified candidate is numerically below the best family
        ct.certify_candidate(e, StepSequence(steps))
        for n in n_range:
            rho_c = orc.spectral_radius(
                gr.adjacency(gr.ThresholdGraph(n, StepSequence(steps)))).rho
            rho_d = orc.spectral_radius(gr.adjacency(gr.build_D(n, e))).rho
            best = rho_d
            if n >= e + 2:
                best = max(best, orc.spectral_radius(
                    gr.adjacency(gr.build_V(n, e))).rho)
            assert rho_c < best - 1e-9


class TestStep7:
    def test_undecided_gap_fails_at_step_7(self, monkeypatch):
        cert = ct.certify_candidate(7, StepSequence((6, 1)))
        assert cert.coverage == ct.COVER_SPLIT
        monkeypatch.setattr(ct, "_no_integer_between", lambda lo, hi: False)
        with pytest.raises(VerificationFailed) as exc:
            ct.certify_candidate(7, StepSequence((6, 1)))
        assert exc.value.step == 7

    def test_exact_enclosures_end_the_loop(self, monkeypatch):
        # a narrower eps cannot change an exact enclosure: fail, not loop
        calls = []

        def exact(num, den, x, eps):
            calls.append(eps)
            if len(calls) > 10:
                raise AssertionError("step 7 kept refining exact values")
            return RationalInterval(Fraction(1), Fraction(1))

        monkeypatch.setattr(ct, "_no_integer_between", lambda lo, hi: False)
        monkeypatch.setattr(xp, "eval_ratfun", exact)
        with pytest.raises(VerificationFailed) as exc:
            ct.certify_candidate(7, StepSequence((6, 1)))
        assert exc.value.step == 7
        assert len(calls) == 1


SIGN_TEST_SURPLUSES = [e for e in [*range(5, 31), 40] if gr.edge_params(e).t >= 1]


@pytest.fixture(scope="module")
def certified():
    """Every certificate of the surpluses above, by e."""
    return {e: list(ct.certify_all(e)) for e in SIGN_TEST_SURPLUSES}


def _force_the_loop(monkeypatch, c_e=None):
    """Make step 7's sign test unable to settle any gap: its n_U.lo is
    e + 1, or its sign is taken at c_e instead of the per-e constant."""
    constant = ct.step7_constant
    monkeypatch.setattr(ct, "step7_constant", lambda e: (
        (constant(e)[0], Fraction(e + 1)) if c_e is None
        else (c_e, constant(e)[1])))


class TestStep7SignTest:
    @pytest.mark.parametrize("e", SIGN_TEST_SURPLUSES)
    def test_matches_the_loop(self, e, certified, monkeypatch):
        _force_the_loop(monkeypatch)
        loop = list(ct.certify_all(e))
        assert len(loop) == len(certified[e])
        for fast, slow in zip(certified[e], loop):
            assert (fast.steps, fast.d_branch, fast.v_branch, fast.coverage,
                    fast.n_L) == (slow.steps, slow.d_branch, slow.v_branch,
                                  slow.coverage, slow.n_L)
            if slow.n_U is None:
                assert fast.n_U is None
            else:
                assert fast.n_U.lo <= slow.n_U.lo <= slow.n_U.hi <= fast.n_U.hi

    def test_no_fallback(self, certified):
        # a SmallRoot Split took the sign test exactly when its n_U.lo is
        # the per-e constant
        splits = fallbacks = 0
        for e, certs in certified.items():
            n_u_lo = ct.step7_constant(e)[1]
            for cert in certs:
                if cert.v_branch == ct.V_SMALL_ROOT and cert.coverage == ct.COVER_SPLIT:
                    splits += 1
                    fallbacks += cert.n_U.lo != n_u_lo
        assert splits == 1814
        assert fallbacks == 0

    def test_constant_every_e(self):
        for e in range(5, 131):
            p = gr.edge_params(e)
            if p.t == 0:
                continue
            c_e, n_u_lo = ct.step7_constant(e)
            num, den = ct.r_D_closed_form(e)
            sigma = ct.rho_of_threshold(gr.d_step_sequence(e), e + 1)
            assert xp.compare_with_rational(ct.family_bounds(e)[0], c_e) <= 0
            assert xp.compare_with_rational(sigma, c_e) < 0
            assert xp.compare_with_rational(sigma, c_e - Fraction(1, 2**64)) >= 0
            assert e + 1 < n_u_lo <= p.b + Fraction(num(c_e)) / den(c_e)
            # the least j with e + 1 + 2^-j in range
            j = (n_u_lo.denominator).bit_length() - 1
            assert n_u_lo == e + 1 + Fraction(1, 2**j)
            assert e + 1 + Fraction(1, 2**(j - 1)) > p.b + Fraction(num(c_e)) / den(c_e)

    def test_nonpositive_sign_falls_back(self, monkeypatch):
        # far above every root q_D is negative: the loop decides instead
        e, steps = 7, StepSequence((6, 1))
        n_u_lo = ct.step7_constant(e)[1]
        assert ct.certify_candidate(e, steps).n_U.lo == n_u_lo
        _force_the_loop(monkeypatch, c_e=Fraction(10**6))
        cert = ct.certify_candidate(e, steps)
        assert cert.coverage == ct.COVER_SPLIT and cert.v_branch == ct.V_SMALL_ROOT
        assert cert.n_U.lo != n_u_lo and cert.n_U.width <= Fraction(1, 16)

    @pytest.mark.parametrize("patch,message", [
        ("sigma_is_one", "below the family bound"),
        ("sigma_is_rho_t1d", "n_U <= e \\+ 1"),
        ("link_decreasing", "not increasing"),
    ])
    def test_constant_checks_raise(self, patch, message, monkeypatch):
        e = 40
        rho_t1d = ct.family_bounds(e)[0]
        ct.step7_constant.cache_clear()
        if patch == "link_decreasing":
            monkeypatch.setattr(ct, "r_D_closed_form",
                                lambda e: (-X, IntPoly([1])))
        else:
            sigma = (xp.AlgebraicReal.from_rational(1) if patch == "sigma_is_one"
                     else rho_t1d)
            monkeypatch.setattr(ct, "rho_of_threshold", lambda steps, n: sigma)
        with pytest.raises(StructureViolation, match=message):
            ct.step7_constant(e)


class TestCertifyAll:
    def test_e4_vacuous(self):
        assert list(ct.certify_all(4)) == []

    def test_e5_one(self):
        assert len(list(ct.certify_all(5))) == 1

    def test_e12_thirteen(self):
        assert len(list(ct.certify_all(12))) == 13

    def test_certificates_sample_verified_numerically(self):
        # sample orders inside each claimed region and confirm the claim
        rng = random.Random(5)
        for cert in ct.certify_all(8):
            if cert.coverage == ct.COVER_ALL_N:
                ns = [6, 8, 11, 15, 25]
            else:
                lo = int(cert.n_U.lo) + 1
                ns = sorted({max(6, lo - 7), lo - 1, lo, lo + 3, lo + 12})
            for n in ns:
                if n < cert.steps[0] + 2:
                    continue
                rho_c = orc.spectral_radius(
                    gr.adjacency(gr.ThresholdGraph(n, cert.steps))).rho
                rho_d = orc.spectral_radius(gr.adjacency(gr.build_D(n, 8))).rho
                best = rho_d
                if n >= 10:
                    best = max(best, orc.spectral_radius(
                        gr.adjacency(gr.build_V(n, 8))).rho)
                assert rho_c < best - 1e-9

    def test_parallel_matches_serial(self):
        serial = [c.to_dict() for c in ct.certify_all(13)]
        parallel = [c.to_dict() for c in ct.certify_all(13, jobs=2)]
        assert serial == parallel

    def test_resume(self):
        certs = list(ct.certify_all(13))
        mid = certs[len(certs) // 2]
        rest = list(ct.certify_all(13, resume_after=mid.steps.steps))
        assert [c.to_dict() for c in rest] == \
            [c.to_dict() for c in certs[len(certs) // 2 + 1:]]


class TestInverseLinkFunction:
    def test_rho_of_shifted_polynomial_is_inverse_image(self):
        # largest root of x*P_T1 - alpha*P_T maps back to alpha under the
        # link function
        rng = random.Random(3)
        for alpha in (Fraction(0), Fraction(1), Fraction(5), Fraction(17, 2)):
            e = rng.randint(4, 12)
            steps = rng.choice(list(te.enumerate_S(e)))
            num, den = ct.generic_r_poly(steps)
            poly = (num * alpha.denominator
                    - alpha.numerator * den)
            root = xp.kth_largest_root(poly, 1)
            assert root is not None
            iv = xp.eval_ratfun(num, den, root, Fraction(1, 10**6))
            assert iv.lo <= alpha <= iv.hi
