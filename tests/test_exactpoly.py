"""Exact polynomial algebra, Sturm machinery, and algebraic reals."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomax import exactpoly as xp
from rhomax import graphs as gr
from rhomax import oracle as orc
from rhomax.errors import RefinementBudgetExceeded
from rhomax.exactpoly import AlgebraicReal, IntPoly, RationalInterval, X

small_polys = st.lists(st.integers(min_value=-9, max_value=9),
                       min_size=0, max_size=6).map(IntPoly)


def as_lists(g: gr.DenseGraph) -> list[list[int]]:
    return g.a.astype(int).tolist()


def from_roots(roots) -> IntPoly:
    """The monic integer polynomial with the given integer roots."""
    p = IntPoly([1])
    for r in roots:
        p = p * IntPoly([-r, 1])
    return p


class TestIntPoly:
    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0]).is_zero

    def test_arith(self):
        p = IntPoly([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero
        assert (p + 2).coeffs == (3, 1)
        assert (3 * p).coeffs == (3, 3)
        assert p.derivative().coeffs == (1,)

    def test_call(self):
        p = IntPoly([-2, 0, 1])
        assert p(2) == 2
        assert p(Fraction(3, 2)) == Fraction(1, 4)

    @given(small_polys, small_polys, st.integers(min_value=-5, max_value=5))
    def test_ring_laws_at_points(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)
        assert (a - b)(x) == a(x) - b(x)


class TestCharpoly:
    def test_triangle(self):
        a = gr.adjacency(gr.ThresholdGraph(3, gr.StepSequence((1,))))
        assert xp.charpoly(as_lists(a)) == IntPoly([-2, -3, 0, 1])

    def test_star_k14(self):
        a = gr.adjacency(gr.build_V(5, 0))
        assert xp.charpoly(as_lists(a)) == IntPoly([0, 0, 0, -4, 0, 1])

    def test_k2_join_4k1(self):
        # matches the closed-form factorization x^3 (x+1)(x^2 - x - 8)
        a = gr.adjacency(gr.build_V(6, 4))
        expect = IntPoly([0, 0, 0, 1]) * IntPoly([1, 1]) * IntPoly([-8, -1, 1])
        assert xp.charpoly(as_lists(a)) == expect

    def test_monic_and_coeffsum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = (rng.integers(0, 2, (n, n)))
            m = np.triu(m, 1)
            m = (m + m.T).astype(int)
            p = xp.charpoly(m.tolist())
            assert p.degree == n and p.leading == 1
            # p(1) = det(I - A)
            assert p(1) == round(float(np.linalg.det(np.eye(n) - m)))

    def test_vanishes_at_numeric_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e = int(rng.integers(1, 9))
            seqs = [s for s in _all_steps(e)]
            steps = seqs[int(rng.integers(0, len(seqs)))]
            n = steps[0] + 2 + int(rng.integers(0, 3))
            a = gr.adjacency(gr.ThresholdGraph(n, steps))
            p = xp.charpoly(as_lists(a))
            for lam in np.linalg.eigvalsh(a.a.astype(float)):
                scale = max(1.0, abs(lam)) ** p.degree
                assert abs(float(p(Fraction(lam).limit_denominator(10**12)))) / scale < 1e-6


def _all_steps(e):
    from rhomax.tsubenum import enumerate_S
    return list(enumerate_S(e))


class TestSturm:
    def test_count_examples(self):
        p = IntPoly([-2, 0, 1])
        assert xp.sturm_count(p, RationalInterval(Fraction(0), Fraction(2))) == 1
        assert xp.sturm_count(p, RationalInterval(Fraction(-2), Fraction(2))) == 2

    def test_psi4_one_root_above_3(self):
        psi4 = IntPoly([16, -48, -32, 8])
        b = xp.cauchy_bound(psi4)
        assert xp.sturm_count(psi4, RationalInterval(Fraction(3), b)) == 1

    @given(small_polys, small_polys)
    @settings(max_examples=60)
    def test_squarefree_preserves_roots(self, a, b):
        p = a * a * b
        if p.is_zero:
            return
        bnd = xp.cauchy_bound(p)
        iv = RationalInterval(-bnd, bnd)
        assert xp.sturm_count(p, iv) == xp.sturm_count(xp.squarefree_part(p), iv)


class TestRootIsolation:
    def test_largest_root_of_quadratic(self):
        r = xp.kth_largest_root(IntPoly([-4, 0, 1]), 1)
        assert xp.compare_with_rational(r, 2) == 0
        r2 = xp.kth_largest_root(IntPoly([-4, 0, 1]), 2)
        assert xp.compare_with_rational(r2, -2) == 0

    def test_no_real_root(self):
        assert xp.kth_largest_root(IntPoly([1, 0, 1]), 1) is None

    def test_isolating_interval_has_one_root(self):
        for coeffs in ([16, -48, -32, 8], [-2, 0, 1], [0, -6, 0, 1], [6, -5, -2, 1]):
            p = IntPoly(coeffs)
            for k in range(1, len(list(xp.real_roots_desc(p))) + 1):
                r = xp.kth_largest_root(p, k)
                assert xp.sturm_count(xp.squarefree_part(p), r.interval) == 1

    def test_refinement_width(self):
        r = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        r = r.refined(Fraction(1, 10**12))
        assert r.interval.width <= Fraction(1, 10**12)
        assert abs(float(r.interval.mid) - 2**0.5) < 1e-11

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2,
                    max_size=5, unique=True))
    @settings(max_examples=50)
    def test_roots_of_split_polynomials(self, roots):
        p = from_roots(roots)
        found = [xp.kth_largest_root(p, k) for k in range(1, len(roots) + 1)]
        for f, r in zip(found, sorted(roots, reverse=True)):
            assert xp.compare_with_rational(f, r) == 0


class TestNarrowing:
    def test_self_then_each_bisection_then_budget(self):
        sqrt2 = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        seen = []
        with pytest.raises(RefinementBudgetExceeded):
            for cur in sqrt2.narrowing():
                seen.append(cur)
        # self and 256 bisections
        assert len(seen) == 257
        assert seen[0] == sqrt2
        for a, b in zip(seen, seen[1:]):
            assert b == a.bisected()

    def test_refined_is_the_first_narrow_enough(self):
        sqrt2 = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        width = Fraction(1, 10**12)
        first = next(c for c in sqrt2.narrowing() if c.hi - c.lo <= width)
        assert sqrt2.refined(width) == first

    def test_unreachable_width_raises(self):
        sqrt2 = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        with pytest.raises(RefinementBudgetExceeded):
            sqrt2.refined(Fraction(0))
        with pytest.raises(RefinementBudgetExceeded):
            xp.eval_ratfun(X, IntPoly([1]), sqrt2, Fraction(0))


def _bound(kind_and_value):
    """A rational bound, or sqrt(m) (an exact integer when m is a square)
    as the largest root of x^2 - m."""
    kind, v = kind_and_value
    if kind == "rational":
        return AlgebraicReal.from_rational(v)
    return xp.kth_largest_root(IntPoly([-v, 0, 1]), 1)


def _at_or_above(r: int, kind_and_value) -> bool:
    kind, v = kind_and_value
    if kind == "rational":
        return r >= v
    return r >= 0 and r * r >= v  # r >= sqrt(v)


bounds = st.one_of(
    st.tuples(st.just("rational"), st.fractions(min_value=-7, max_value=7,
                                                max_denominator=6)),
    st.tuples(st.just("sqrt"), st.integers(min_value=1, max_value=40)))


class TestRootsAtOrAbove:
    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1,
                    max_size=5, unique=True), bounds)
    @settings(max_examples=100)
    def test_yields_exactly_the_roots_at_or_above(self, roots, bound):
        p = from_roots(roots)
        found = list(xp.roots_at_or_above(p, _bound(bound)))
        expect = [r for r in sorted(roots, reverse=True) if _at_or_above(r, bound)]
        assert len(found) == len(expect)
        for i, (f, r) in enumerate(zip(found, expect), start=1):
            assert xp.compare_with_rational(f, r) == 0
            assert f == xp.kth_largest_root(p, i)

    def test_bound_that_is_a_root_is_yielded(self):
        found = list(xp.roots_at_or_above(from_roots([3, 1, -2]),
                                          AlgebraicReal.from_rational(1)))
        assert [xp.compare_with_rational(r, q) for r, q in zip(found, (3, 1))] == [0, 0]
        assert len(found) == 2
        sqrt2 = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        found = list(xp.roots_at_or_above(IntPoly([-2, 0, 1]) * from_roots([3]), sqrt2))
        assert len(found) == 2
        assert xp.compare_with_rational(found[0], 3) == 0
        assert xp.compare(found[1], sqrt2) == 0

    def test_stops_at_the_first_root_below(self, monkeypatch):
        pulled = []
        walk = xp.real_roots_desc

        def counting(p):
            for r in walk(p):
                pulled.append(r)
                yield r

        monkeypatch.setattr(xp, "real_roots_desc", counting)
        p = from_roots([2, 1, -1, -3, -5])
        assert next(xp.roots_at_or_above(p, AlgebraicReal.from_rational(5)), None) is None
        assert len(pulled) == 1
        pulled.clear()
        assert len(list(xp.roots_at_or_above(p, AlgebraicReal.from_rational(0)))) == 2
        assert len(pulled) == 3


class TestCompare:
    def test_sqrt2_lt_sqrt3(self):
        a = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        b = xp.kth_largest_root(IntPoly([-3, 0, 1]), 1)
        assert xp.compare(a, b) < 0
        assert xp.compare(b, a) > 0

    def test_equal_across_defining_polys(self):
        a = AlgebraicReal.from_rational(5)
        b = xp.kth_largest_root(IntPoly([-25, 0, 1]), 1)
        assert xp.compare(a, b) == 0

    def test_psi10_equals_8(self):
        from rhomax.compare import psi_value
        assert xp.compare(psi_value(10), AlgebraicReal.from_rational(8)) == 0

    def test_total_order_consistency(self):
        vals = [xp.kth_largest_root(IntPoly([-n, 0, 1]), 1) for n in (2, 3, 5, 7)]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                c = xp.compare(a, b)
                assert c == (0 if i == j else (-1 if i < j else 1))

    def test_equal_symmetric_transitive(self):
        a = AlgebraicReal.from_rational(Fraction(3, 2))
        b = xp.kth_largest_root(IntPoly([-9, 0, 4]), 1)  # 3/2
        c = xp.kth_largest_root(IntPoly([3, -8, 4]), 1)  # (8+sqrt(16))/8 = 3/2
        assert xp.compare(a, b) == 0 == xp.compare(b, a)
        assert xp.compare(b, c) == 0 and xp.compare(a, c) == 0


class TestSignAt:
    def test_examples(self):
        p = IntPoly([-2, 0, 1])
        assert xp.sign_at(p, 1) == -1
        assert xp.sign_at(p, 2) == 1
        psi4 = IntPoly([16, -48, -32, 8])
        assert xp.sign_at(psi4, 4) == -1

    @given(small_polys, st.fractions(max_denominator=50))
    @settings(max_examples=200)
    def test_agrees_with_fraction_horner(self, p, x):
        v = Fraction(0)
        for c in reversed(p.coeffs):
            v = v * x + c
        assert xp.sign_at(p, x) == (v > 0) - (v < 0)
        if x.denominator == 1:
            assert xp.sign_at(p, int(x)) == xp.sign_at(p, x)


class TestDivexact:
    @given(small_polys, small_polys)
    @settings(max_examples=100)
    def test_round_trip(self, a, b):
        if b.is_zero:
            return
        assert xp.divexact(a * b, b) == a

    def test_not_exact(self):
        with pytest.raises(ValueError, match="not exact"):
            xp.divexact(IntPoly([1, 0, 1]), X)
        with pytest.raises(ValueError, match="not exact"):
            xp.divexact(IntPoly([1, 0, 2]), IntPoly([0, 2]))
        with pytest.raises(ValueError, match="not exact"):
            xp.divexact(IntPoly([3]), X)
        # a leading coefficient that 2 does not divide, and a remainder
        with pytest.raises(ValueError, match="not exact"):
            xp.divexact(IntPoly([1, 0, 1]), IntPoly([1, 2]))

    def test_not_integral(self):
        # x / (2x) = 1/2 is exact over the rationals
        with pytest.raises(ValueError, match="not integral"):
            xp.divexact(X, IntPoly([0, 2]))
        with pytest.raises(ValueError, match="not integral"):
            xp.divexact(IntPoly([1, 3, 2]), IntPoly([2, 2]))

    def test_zero_divisor(self):
        from rhomax.errors import ZeroPolynomial
        with pytest.raises(ZeroPolynomial):
            xp.divexact(X, IntPoly())


def test_library_checks_survive_optimize():
    """`python -O` strips assert statements, so the certified modules
    and the selfcheck suites check with explicit raises instead."""
    import ast
    import inspect

    from rhomax import certify, cli
    for mod in (xp, certify, cli):
        tree = ast.parse(inspect.getsource(mod))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{mod.__name__}: assert at lines {lines}"


class TestEvalInterval:
    @given(small_polys, st.fractions(max_denominator=64),
           st.fractions(min_value=0, max_value=3, max_denominator=64))
    @settings(max_examples=200)
    def test_agrees_with_fraction_interval_horner(self, p, lo, width):
        hi = lo + width
        a, b = Fraction(0), Fraction(0)
        for c in reversed(p.coeffs):
            prods = (a * lo, a * hi, b * lo, b * hi)
            a, b = min(prods) + c, max(prods) + c
        assert xp.eval_interval(p, lo, hi) == (a, b)

    def test_encloses_values(self):
        p = IntPoly([-2, 0, 1])
        mn, mx = xp.eval_interval(p, Fraction(1), Fraction(3, 2))
        assert mn <= -1 and mx >= Fraction(1, 4)


class TestEvalRatfun:
    def test_sqrt2_identity(self):
        x = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        iv = xp.eval_ratfun(X, IntPoly([1]), x, Fraction(1, 10**9))
        assert iv.width <= Fraction(1, 10**9)
        assert abs(float(iv.mid) - 2**0.5) < 1e-9

    def test_v_link_function_at_8(self):
        # e = 10: 8*9*(64-8-20)/(64-10) = 48
        num = X * (X + 1) * IntPoly([-20, -1, 1])
        den = IntPoly([-10, 0, 1])
        x = AlgebraicReal.from_rational(8)
        iv = xp.eval_ratfun(num, den, x, Fraction(1, 1000))
        assert iv.lo <= 48 <= iv.hi

    def test_pole_detected(self):
        from rhomax.errors import PoleAtPoint
        x = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        with pytest.raises(PoleAtPoint):
            xp.eval_ratfun(X, IntPoly([-2, 0, 1]), x, Fraction(1, 10))

    def test_nearby_pole_separated_by_refinement(self):
        # denominator root 1.41425 close to sqrt(2) but not equal
        x = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        den = IntPoly([-56570, 40000])  # root 1.41425
        iv = xp.eval_ratfun(X, den, x, Fraction(1, 100))
        assert iv.width <= Fraction(1, 100)


class TestSerialization:
    def test_algebraic_real_dict(self):
        r = xp.kth_largest_root(IntPoly([-2, 0, 1]), 1)
        d = r.to_dict()
        assert d["defpoly"] == [-2, 0, 1]
        assert isinstance(d["lo"], str) and "/" in d["lo"]

    def test_interval_dict(self):
        d = RationalInterval(Fraction(1, 3), Fraction(1, 2)).to_dict()
        assert d == {"lo": "1/3", "hi": "1/2"}
