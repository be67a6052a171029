"""Exact univariate polynomial algebra over the integers.

Everything here is certified arithmetic: integer polynomials, Sturm root
counting, isolation of real roots as (defining polynomial, rational
interval) pairs, exact comparison of such algebraic numbers, and interval
evaluation of rational functions at them.  No floating point enters any
decision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm
from typing import Iterator, Optional, Sequence

from .errors import (
    PoleAtPoint,
    RefinementBudgetExceeded,
    StructureViolation,
    ZeroPolynomial,
)

# bisections narrowing() makes before it raises RefinementBudgetExceeded
# rather than deciding
_BISECTION_BUDGET = 256


class IntPoly:
    """Dense univariate polynomial with big-integer coefficients.

    Coefficients are stored in ascending degree order with the leading
    coefficient nonzero (the zero polynomial has an empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __setattr__(self, *a):  # immutable
        raise AttributeError("IntPoly is immutable")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly([other])
        return self + (-other)

    def __rsub__(self, other: int) -> "IntPoly":
        return IntPoly([other]) - self

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPoly()
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Exact Horner evaluation at an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- integer normalization -------------------------------------------

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = _int_gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the content; sign of the leading coefficient is kept."""
        if self.is_zero:
            return self
        g = self.content()
        return IntPoly([c // g for c in self.coeffs])

    def monic_sign(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        p = self.primitive()
        return p if p.is_zero or p.leading > 0 else -p


X = IntPoly([0, 1])
ONE = IntPoly([1])


# -- exact division and gcd ---------------------------------------------


def divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient a/b where b is known to divide a over the integers.

    Integer long division; raises ValueError if b does not divide a over
    the rationals ("not exact") or the quotient has a non-integer
    coefficient ("not integral").
    """
    if b.is_zero:
        raise ZeroPolynomial("division by zero polynomial")
    d = b.degree
    lb = b.leading
    low = b.coeffs[:-1]
    rem = list(a.coeffs)
    q = [0] * max(1, len(rem) - d)
    for k in range(len(rem) - 1 - d, -1, -1):
        top = rem[k + d]
        if not top:
            continue
        f, r = divmod(top, lb)
        if r:
            exact = _pseudo_rem(a, b)[0].is_zero
            raise ValueError("quotient is not integral" if exact
                             else "division is not exact")
        q[k] = f
        for i, c in enumerate(low):
            rem[k + i] -= f * c
        rem[k + d] = 0
    if any(rem):
        raise ValueError("division is not exact")
    return IntPoly(q)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> tuple[IntPoly, int]:
    """Return (lead(b)^(δ+1) * a mod b, sign of that multiplier)."""
    d = b.degree
    lb = b.leading
    delta = a.degree - d
    r = list(a.coeffs)
    bc = b.coeffs
    for i in range(delta, -1, -1):
        r = [lb * c for c in r]
        top = r[d + i]
        if top:
            for j, c in enumerate(bc):
                r[j + i] -= (top // lb) * c  # top is divisible by lb after scaling
        # degree d+i coefficient is now zero by construction
        r[d + i] = 0
    sgn = 1 if (lb > 0 or (delta + 1) % 2 == 0) else -1
    return IntPoly(r), sgn


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over the integers (positive leading coefficient)."""
    a = a.monic_sign() if not a.is_zero else a
    b = b.monic_sign() if not b.is_zero else b
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r, _ = _pseudo_rem(a, b)
        a, b = b, (r.monic_sign() if not r.is_zero else r)
    return a.monic_sign()


@functools.lru_cache(maxsize=4096)
def squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'); same distinct real roots, all simple."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of zero polynomial")
    if p.degree == 0:
        return ONE
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic_sign()
    return divexact(p.monic_sign(), g).monic_sign()


# -- Sturm machinery ----------------------------------------------------


@functools.lru_cache(maxsize=2048)
def sturm_chain(p: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm chain of p, each member primitive (positive scaling only)."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r, sgn = _pseudo_rem(chain[-2], chain[-1])
        if r.is_zero:
            break
        nxt = (-r if sgn > 0 else r).primitive()
        chain.append(nxt)
    return tuple(chain)


def _variations(chain: Sequence[IntPoly], x: Fraction) -> int:
    signs = [s for s in (sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_dict(self) -> dict:
        return {"lo": f"{self.lo.numerator}/{self.lo.denominator}",
                "hi": f"{self.hi.numerator}/{self.hi.denominator}"}


def sturm_count(p: IntPoly, iv: RationalInterval) -> int:
    """Number of distinct real roots of p in (lo, hi]."""
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    return _variations(chain, iv.lo) - _variations(chain, iv.hi)


def cauchy_bound(p: IntPoly) -> Fraction:
    """Rational B with every real root of p in (-B, B)."""
    if p.is_zero:
        raise ZeroPolynomial("no root bound for zero polynomial")
    lead = abs(p.leading)
    m = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return 1 + Fraction(m, lead) + 1


def sign_at(p: IntPoly, x: Fraction | int) -> int:
    """Exact sign of p(x) at a rational point.

    Horner on the homogenised form den^deg * p(num/den), which has the
    same sign because den > 0, so every step is an integer operation.
    """
    num, den = x.numerator, x.denominator
    acc, den_pow = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * num + c * den_pow
        den_pow *= den
    return (acc > 0) - (acc < 0)


# -- algebraic reals ----------------------------------------------------


@dataclass(frozen=True)
class AlgebraicReal:
    """A real algebraic number: square-free defining polynomial plus an
    isolating interval.

    Either lo == hi (the number is the rational endpoint itself) or
    defpoly changes sign on [lo, hi] and the open interval contains exactly
    one root of defpoly.
    """

    defpoly: IntPoly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))

    @staticmethod
    def from_rational(q: Fraction | int) -> "AlgebraicReal":
        q = Fraction(q)
        p = IntPoly([-q.numerator, q.denominator]).monic_sign()
        return AlgebraicReal(p, q, q)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def as_rational(self) -> Optional[Fraction]:
        if self.is_exact:
            return self.lo
        if self.defpoly.degree == 1:
            c0, c1 = self.defpoly.coeffs
            return Fraction(-c0, c1)
        return None

    @property
    def interval(self) -> RationalInterval:
        return RationalInterval(self.lo, self.hi)

    def bisected(self) -> "AlgebraicReal":
        """One bisection step; returns a new number with half the width."""
        if self.is_exact:
            return self
        p = self.defpoly
        lo, hi = self.lo, self.hi
        s_lo = sign_at(p, lo)
        mid = (lo + hi) / 2
        s_mid = sign_at(p, mid)
        if s_mid == 0:
            # the root is exactly mid; collapse, keeping the original
            # defpoly for gcd-based tests
            return AlgebraicReal(p, mid, mid)
        if s_mid == s_lo:
            return AlgebraicReal(p, mid, hi)
        return AlgebraicReal(p, lo, mid)

    def narrowing(self) -> Iterator["AlgebraicReal"]:
        """self, then each bisection of it in turn.  Every refinement loop
        iterates over this; once the bisection budget is spent without the
        caller having stopped, it raises RefinementBudgetExceeded."""
        cur = self
        yield cur
        for _ in range(_BISECTION_BUDGET):
            cur = cur.bisected()
            yield cur
        raise RefinementBudgetExceeded(
            f"no decision in {_BISECTION_BUDGET} bisections")

    def refined(self, width: Fraction) -> "AlgebraicReal":
        for cur in self.narrowing():
            if cur.is_exact or cur.hi - cur.lo <= width:
                return cur

    def to_dict(self) -> dict:
        return {
            "defpoly": list(self.defpoly.coeffs),
            "lo": f"{self.lo.numerator}/{self.lo.denominator}",
            "hi": f"{self.hi.numerator}/{self.hi.denominator}",
        }


def _pick_nonroot(p: IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of p."""
    for d in (2, 3, 5, 7, 11, 13):
        for i in range(1, d):
            x = lo + (hi - lo) * Fraction(i, d)
            if sign_at(p, x) != 0:
                return x
    raise RuntimeError("could not find a non-root split point")  # pragma: no cover


def real_roots_desc(p: IntPoly) -> Iterator[AlgebraicReal]:
    """Lazily yield isolating intervals for the distinct real roots of p,
    largest root first."""
    if p.is_zero:
        raise ZeroPolynomial("root isolation of zero polynomial")
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return
    chain = sturm_chain(sf)
    bound = cauchy_bound(sf)
    while sign_at(sf, bound) == 0:
        bound += 1
    lo0 = -bound
    while sign_at(sf, lo0) == 0:
        lo0 -= 1

    var_cache: dict[Fraction, int] = {}

    def var(x: Fraction) -> int:
        if x not in var_cache:
            var_cache[x] = _variations(chain, x)
        return var_cache[x]

    def walk(lo: Fraction, hi: Fraction, cnt: int) -> Iterator[AlgebraicReal]:
        if cnt == 0:
            return
        if cnt == 1:
            yield AlgebraicReal(sf, lo, hi)
            return
        mid = _pick_nonroot(sf, lo, hi)
        right = var(mid) - var(hi)
        yield from walk(mid, hi, right)
        yield from walk(lo, mid, cnt - right)

    total = var(lo0) - var(bound)
    yield from walk(lo0, bound, total)


def kth_largest_root(p: IntPoly, k: int) -> Optional[AlgebraicReal]:
    """k-th largest distinct real root of p, or None if there is no such
    root (the -infinity convention)."""
    if p.is_zero:
        raise ZeroPolynomial("kth_largest_root of zero polynomial")
    if k < 1:
        raise ValueError("k must be >= 1")
    for i, r in enumerate(real_roots_desc(p), start=1):
        if i == k:
            return r
    return None


def roots_at_or_above(p: IntPoly, bound: AlgebraicReal) -> Iterator[AlgebraicReal]:
    """Lazily yield the distinct real roots of p that are >= bound,
    largest first, from one real_roots_desc walk.  The walk stops at the
    first root below bound, so roots further down are never isolated."""
    for r in real_roots_desc(p):
        if compare(r, bound) < 0:
            return
        yield r


# -- comparison ---------------------------------------------------------


def _roots_in(p: IntPoly, lo: Fraction, hi: Fraction) -> int:
    if lo > hi:
        return 0
    n = sturm_count(p, RationalInterval(lo, hi)) if lo < hi else 0
    # sturm_count covers (lo, hi]; add a root exactly at lo if present
    if sign_at(p, lo) == 0:
        n += 1
    return n


def sign_at_root(p: IntPoly, x: AlgebraicReal) -> int:
    """Exact sign of p evaluated at the algebraic number x."""
    if p.is_zero:
        return 0
    q = x.as_rational()
    if q is not None:
        return sign_at(p, q)
    g = poly_gcd(p, x.defpoly)
    if g.degree >= 1 and _roots_in(g, x.lo, x.hi) >= 1:
        # the unique root of defpoly in the interval is also a root of p
        return 0
    for cur in x.narrowing():
        mn, mx = eval_interval(p, cur.lo, cur.hi)
        if mn > 0:
            return 1
        if mx < 0:
            return -1


def compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """Exact trichotomy: -1, 0, +1 as a <, =, > b.

    Equality is decided by a common-root test on gcd(defpoly_a, defpoly_b),
    never by interval coincidence.
    """
    qa, qb = a.as_rational(), b.as_rational()
    if qa is not None and qb is not None:
        return (qa > qb) - (qa < qb)
    if qa is not None:
        return -sign_at_root(IntPoly([-qa.numerator, qa.denominator]), b)
    if qb is not None:
        return sign_at_root(IntPoly([-qb.numerator, qb.denominator]), a)
    ilo, ihi = max(a.lo, b.lo), min(a.hi, b.hi)
    if ilo <= ihi:
        g = poly_gcd(a.defpoly, b.defpoly)
        if g.degree >= 1 and _roots_in(g, ilo, ihi) >= 1:
            return 0
    for ca, cb in zip(a.narrowing(), b.narrowing()):
        if ca.hi < cb.lo:
            return -1
        if cb.hi < ca.lo:
            return 1


def compare_with_rational(a: AlgebraicReal, q: Fraction | int) -> int:
    return compare(a, AlgebraicReal.from_rational(q))


# -- interval evaluation ------------------------------------------------


def eval_interval(p: IntPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of {p(x) : lo <= x <= hi} by interval Horner.

    Runs on the numerators of lo and hi over their common denominator
    den: after j steps both accumulators carry the factor den^j, so every
    step is integer arithmetic and the result equals interval Horner in
    Fractions.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    den = lcm(lo.denominator, hi.denominator)
    l = lo.numerator * (den // lo.denominator)
    h = hi.numerator * (den // hi.denominator)
    a = b = 0
    den_pow = 1
    for c in reversed(p.coeffs):
        prods = (a * l, a * h, b * l, b * h)
        a, b = min(prods) + c * den_pow, max(prods) + c * den_pow
        den_pow *= den
    scale = den ** max(p.degree, 0)
    return Fraction(a, scale), Fraction(b, scale)


def eval_ratfun(num: IntPoly, den: IntPoly, x: AlgebraicReal,
                eps: Fraction) -> RationalInterval:
    """Certified enclosure of num(x)/den(x) of width <= eps."""
    q = x.as_rational()
    if q is not None:
        dv = den(q)
        if dv == 0:
            raise PoleAtPoint("denominator vanishes at the evaluation point")
        v = Fraction(num(q)) / dv
        return RationalInterval(v, v)
    if sign_at_root(den, x) == 0:
        raise PoleAtPoint("denominator vanishes at the evaluation point")
    for cur in x.narrowing():
        nlo, nhi = eval_interval(num, cur.lo, cur.hi)
        dlo, dhi = eval_interval(den, cur.lo, cur.hi)
        if dlo > 0 or dhi < 0:
            cands = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
            lo, hi = min(cands), max(cands)
            if hi - lo <= eps:
                return RationalInterval(lo, hi)


# -- characteristic polynomial ------------------------------------------


def charpoly(a: Sequence[Sequence[int]]) -> IntPoly:
    """det(lambda*I - A) for a square integer matrix, exactly.

    Faddeev-LeVerrier recurrence; all divisions are exact over the
    integers.  It costs O(n^4) and serves as the independent dense
    reference for the threshold charpolys of certify.
    """
    A = [[int(x) for x in row] for row in a]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    M = [[0] * n for _ in range(n)]
    coeffs = [0] * n + [1]
    c = 1
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += c
        cols = list(zip(*M))
        M = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A]
        tr = sum(M[i][i] for i in range(n))
        if tr % k:
            raise StructureViolation(
                f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        c = -tr // k
        coeffs[n - k] = c
    return IntPoly(coeffs)
