"""Crossover between the two extremal families.

The cubic built from the surplus parameters has a largest root psi; the
induced crossover order omega decides, for every admissible order, which
family attains the maximum spectral radius.  All verdicts here are exact:
signs of integer polynomials at algebraic points, rational arithmetic for
the closed-form regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import exactpoly as xp
from .certify import r_V_closed_form
from .errors import (
    InvalidRegime,
    OrderTooSmall,
    OutOfProvenRange,
    PoleAt3,
    StructureViolation,
)
from .exactpoly import AlgebraicReal, IntPoly, RationalInterval
from .graphs import edge_params

D_UNIQUE = "D_unique"
TIE = "Tie"
V_UNIQUE = "V_unique"

THREE_DISTINCT_ONE_ABOVE_K = "ThreeDistinctOneAboveK"
MONOTONE_ABOVE_K = "MonotoneAboveK"

PROVEN_E_MAX = 130


def psi_poly(e: int) -> IntPoly:
    """The comparison cubic, by direct substitution of (k, t)."""
    if e < 4:
        raise ValueError("e must be >= 4")
    p = edge_params(e)
    k, t = p.k, p.t
    c3 = (k - 1) * (k - 2) * (k * k - 3 * k + 4 * t)
    c2 = -(k**5 - 6 * k**4 + k**3 * (4 * t + 15) - k**2 * (20 * t + 18)
           + k * (8 * t * t + 24 * t + 8) - (4 * t * t + 12 * t))
    c1 = -(k * k - k + 2 * t) * (k**3 + k * k * (t - 4) - k * (3 * t - 5)
                                 + (4 * t * t - 2 * t - 2))
    c0 = t * (k - t - 1) * (k * k - 3 * k + 2 * t) * (k * k - k + 2 * t)
    return IntPoly([c0, c1, c2, c3])


def psi_value(e: int) -> AlgebraicReal:
    """Largest real root of the comparison cubic.

    When t = 0 the cubic factors and the root is the exact rational
    (k-1)^2/(k-3); this is verified, not assumed.
    """
    p = edge_params(e)
    poly = psi_poly(e)
    if p.t == 0:
        r = Fraction((p.k - 1) ** 2, p.k - 3)
        if xp.sign_at(poly, r) != 0:
            raise StructureViolation("t=0 closed-form root does not vanish")
        b = xp.cauchy_bound(poly)
        if xp.sturm_count(poly, RationalInterval(r, b)) != 0:
            raise StructureViolation("t=0 closed-form root is not the largest")
        return AlgebraicReal.from_rational(r)
    root = xp.kth_largest_root(poly, 1)
    if root is None:
        raise StructureViolation("comparison cubic has no real root")
    return root


@dataclass(frozen=True)
class OmegaValue:
    """Crossover order: exact rational when psi is rational, otherwise a
    symbolic value refinable to any enclosure width."""

    e: int
    psi: AlgebraicReal
    exact: Optional[Fraction]

    def enclose(self, eps: Fraction) -> RationalInterval:
        if self.exact is not None:
            return RationalInterval(self.exact, self.exact)
        num, den = r_V_closed_form(self.e)
        iv = xp.eval_ratfun(num, den, self.psi, eps)
        return RationalInterval(self.e + 2 + iv.lo, self.e + 2 + iv.hi)

    def __float__(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        iv = self.enclose(Fraction(1, 10**12))
        return float(iv.mid)


def omega_value(e: int) -> OmegaValue:
    psi = psi_value(e)
    r = psi.as_rational()
    exact = None
    if r is not None:
        num, den = r_V_closed_form(e)
        exact = e + 2 + Fraction(num(r), den(r))
    return OmegaValue(e, psi, exact)


@dataclass(frozen=True)
class Classification:
    verdict: str


def classify(n: int, e: int, unsafe_extrapolate: bool = False) -> Classification:
    """Which family wins at order n: strictly below the crossover the
    near-clique family, strictly above it the star-like family, a tie at
    exact equality."""
    if e < 4:
        raise ValueError("e must be >= 4")
    if e > PROVEN_E_MAX and not unsafe_extrapolate:
        raise OutOfProvenRange(f"certified range ends at e = {PROVEN_E_MAX}")
    p = edge_params(e)
    if n < p.b:
        raise OrderTooSmall(f"order {n} < minimum {p.b}")
    psi = psi_value(e)
    # sign of the order-n star-family polynomial at psi equals the sign of
    # omega - n, because psi exceeds sqrt(e)
    num, den = r_V_closed_form(e)
    h = num - (n - e - 2) * den
    s = xp.sign_at_root(h, psi)
    if s > 0:
        return Classification(D_UNIQUE)
    if s == 0:
        return Classification(TIE)
    return Classification(V_UNIQUE)


def bell_f(lam: Fraction | int) -> Fraction:
    """Closed-form crossover for the t = 0 regime."""
    lam = Fraction(lam)
    if lam == 3:
        raise PoleAt3("crossover function undefined at 3")
    if lam < 3:
        raise ValueError("argument must exceed 3")
    return (Fraction(1, 2) * (lam + 1) * (lam + 6) + 7
            + Fraction(32) / (lam - 3) + Fraction(16) / (lam - 3) ** 2)


def psi_root_structure(e: int) -> str:
    """Certified root layout of the comparison cubic: a Sturm count of
    all its real roots and the roots at or above k."""
    if e < 4:
        raise ValueError("e must be >= 4")
    p = edge_params(e)
    poly = psi_poly(e)
    sf = xp.squarefree_part(poly)
    b = xp.cauchy_bound(poly)
    total = xp.sturm_count(poly, RationalInterval(-b, b))
    k = AlgebraicReal.from_rational(p.k)
    at_least_k = len(list(xp.roots_at_or_above(poly, k)))
    if 4 <= e <= 27:
        if sf.degree == 3 and total == 3 and at_least_k == 1:
            return THREE_DISTINCT_ONE_ABOVE_K
        raise StructureViolation(
            f"e={e}: expected three distinct roots with one above k")
    if at_least_k == 1:
        return MONOTONE_ABOVE_K
    raise StructureViolation(f"e={e}: expected exactly one root above k")


def ell_bound(e: int) -> tuple[Fraction, Fraction]:
    """The rational overshoot parameter and the induced order bound above
    which the star-like family certainly wins."""
    if e < 5:
        raise ValueError("e must be >= 5")
    p = edge_params(e)
    if p.t == 0:
        raise InvalidRegime("the t = 0 regime is covered by the closed form")
    ell = Fraction(e * p.k, e - p.k - 1)
    num, den = r_V_closed_form(e)
    bound = e + 2 + Fraction(num(ell), den(ell))
    return ell, bound


@dataclass(frozen=True)
class RangeCheckEntry:
    e: int
    status: str  # "pass" | "fail" | "skipped_t0"
    mode: str = "real"  # "real": bound < e+2+13*sqrt(e) as reals;
    # "integer": the real inequality fails by a sliver, but every integer
    # order n >= e+2+13*sqrt(e) still exceeds the bound, which is all the
    # order-threshold statement needs


@dataclass(frozen=True)
class RangeCheckReport:
    entries: tuple[RangeCheckEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(x.status != "fail" for x in self.entries)


def corollary_range_check(e_lo: int, e_hi: int) -> RangeCheckReport:
    """Exact check that the order bound stays below e + 2 + 13*sqrt(e) for
    every surplus in the range with t >= 1 (t = 0 entries skipped: they
    are handled analytically by the closed-form crossover).

    The comparison is done in exact rational arithmetic by squaring out
    the square root.  If the real-valued inequality fails (it does, by
    about 0.16, at e = 92), the check falls back to the integer-order
    formulation, which is what the order-threshold statement actually
    quantifies over; the entry records which mode certified it."""
    if not 86 <= e_lo <= e_hi <= 350:
        raise ValueError("supported range is within [86, 350]")
    entries = []
    for e in range(e_lo, e_hi + 1):
        p = edge_params(e)
        if p.t == 0:
            entries.append(RangeCheckEntry(e, "skipped_t0"))
            continue
        _, bound = ell_bound(e)
        r = bound - (e + 2)  # must be < 13*sqrt(e)
        if r < 0 or r * r < 169 * e:  # both sides nonnegative: square exactly
            entries.append(RangeCheckEntry(e, "pass", "real"))
            continue
        # real-valued inequality fails; certify the integer-order version:
        # the smallest integer n with n >= e + 2 + 13*sqrt(e) must still
        # exceed the bound
        s = math.isqrt(169 * e)
        ceil_13_sqrt_e = s if s * s == 169 * e else s + 1
        n0 = e + 2 + ceil_13_sqrt_e
        ok = bound < n0
        entries.append(RangeCheckEntry(e, "pass" if ok else "fail", "integer"))
    return RangeCheckReport(tuple(entries))
