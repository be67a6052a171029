"""The per-candidate elimination algorithm.

For each candidate T-subgraph we build the comparison polynomial against
each extremal family, locate its top roots exactly, and certify that the
near-clique family wins for every order below some bound while the
star-like family wins above it, with no integer order left uncovered.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import exactpoly as xp
from .errors import (
    Degenerate,
    InvalidRegime,
    OrderTooSmall,
    StructureViolation,
    VerificationFailed,
)
from .exactpoly import X, AlgebraicReal, IntPoly, RationalInterval
from .graphs import (
    StepSequence,
    cone,
    d_step_sequence,
    edge_params,
    tsub_adjacency,
)
from .tsubenum import enumerate_S_star

# branch / coverage labels used in certificates
POSITIVE_LEADING = "PositiveLeading"
NEGATIVE_LEADING_WITH_BOUND = "NegativeLeadingWithBound"
D_SKIPPED = "Skipped"
V_SMALL_ROOT = "SmallRoot"
V_BOUND_AT_NL = "BoundAtNL"
V_UNUSED = "Unused"
COVER_ALL_N = "AllN"
COVER_SPLIT = "Split"


# -- characteristic polynomials of threshold graphs ----------------------


class FactoredPoly(NamedTuple):
    """x^a (x+1)^b r, the form in which threshold charpolys are carried.

    Every root the elimination compares lies above a family bound
    greater than k > 0, so the trivial eigenvalues 0 and -1 are counted
    in a and b and only multiplied back in by expand().
    """

    a: int
    b: int
    r: IntPoly

    def expand(self) -> IntPoly:
        binom = [comb(self.b, i) for i in range(self.b + 1)]
        return IntPoly([0] * self.a + binom) * self.r


def charpoly_via_modules(a: np.ndarray) -> FactoredPoly:
    """Exact charpoly of a stepwise matrix, factored by its twin classes.

    In a stepwise matrix twin vertices (identical rows off the two
    diagonal positions) are consecutive, so one pass over neighbouring
    rows finds the classes.  A class of size s is a clique or an
    independent set and contributes s-1 eigenvalues -1 or 0; the
    quotient matrix of the classes supplies the rest.
    """
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
        if len(set(link[lo:hi - 1].tolist())) != 1:
            raise StructureViolation(
                f"twin class {lo}..{hi - 1} is neither a clique nor independent")
        if link[lo]:
            minus_ones += hi - lo - 1
        else:
            zeros += hi - lo - 1
    quotient = np.add.reduceat(m[starts], starts, axis=1)
    r = xp.charpoly(quotient.tolist())
    if zeros + minus_ones + r.degree != n:
        raise StructureViolation(f"factored charpoly has degree != {n}")
    return FactoredPoly(zeros, minus_ones, r)


@functools.lru_cache(maxsize=100_000)
def tsub_charpolys(steps: tuple[int, ...]) -> tuple[FactoredPoly, FactoredPoly]:
    """(charpoly of T, charpoly of T joined with one vertex), factored."""
    seq = StepSequence(steps)
    a = tsub_adjacency(seq)
    return charpoly_via_modules(a), charpoly_via_modules(cone(a))


def _product(c: int, x_power: int, f: FactoredPoly, g: FactoredPoly) -> FactoredPoly:
    """c * x^x_power * f * g."""
    return FactoredPoly(x_power + f.a + g.a, f.b + g.b, c * (f.r * g.r))


def _divide_common(*fs: FactoredPoly) -> list[IntPoly]:
    """Each of fs divided by the largest x^alpha (x+1)^beta that divides
    all of them.  The quotients have the same roots as fs above 0."""
    live = [f for f in fs if not f.r.is_zero]
    if not live:
        return [IntPoly() for _ in fs]
    alpha = min(f.a for f in live)
    beta = min(f.b for f in live)
    return [FactoredPoly(f.a - alpha, f.b - beta, f.r).expand()
            if not f.r.is_zero else IntPoly() for f in fs]


def generic_r_poly(steps: StepSequence) -> tuple[IntPoly, IntPoly]:
    """Numerator and denominator of the order-to-spectral-radius link
    function x * P_T1 / P_T, with their common factors x and x+1
    cancelled."""
    p_t, p_t1 = tsub_charpolys(steps.steps)
    num, den = _divide_common(FactoredPoly(p_t1.a + 1, p_t1.b, p_t1.r), p_t)
    return num, den


def rho_of_threshold(steps: StepSequence, n: int) -> AlgebraicReal:
    """Exact spectral radius of the threshold graph with the given
    T-subgraph and order n."""
    n_prime = steps[0] + 2
    if n < n_prime:
        raise OrderTooSmall(f"order {n} < {n_prime}")
    num, den = generic_r_poly(steps)
    root = xp.kth_largest_root(num - (n - n_prime) * den, 1)
    if root is None:
        raise StructureViolation(f"no spectral radius for {steps.steps} at order {n}")
    return root


# -- comparison polynomial and closed forms ------------------------------


def q_poly(g1_steps: StepSequence, g2_steps: StepSequence) -> IntPoly:
    """Polynomial whose sign at the rival's spectral radius decides the
    comparison between two threshold graphs with equal surplus.

    This is x (P1_T1 P2_T - P2_T1 P1_T) + (order1 - order2) P1_T P2_T
    divided by the x^alpha (x+1)^beta common to its three terms, built
    from the factored charpolys without forming the full ones.  Above 0
    it has the same roots as the full polynomial.
    """
    p1_t, p1_t1 = tsub_charpolys(g1_steps.steps)
    p2_t, p2_t1 = tsub_charpolys(g2_steps.steps)
    terms = _divide_common(_product(1, 1, p1_t1, p2_t),
                           _product(-1, 1, p2_t1, p1_t),
                           _product(g1_steps[0] - g2_steps[0], 0, p1_t, p2_t))
    return terms[0] + terms[1] + terms[2]


def d_cubic(e: int) -> IntPoly:
    """Cubic whose largest root is the spectral radius of the cone over
    the near-clique T-subgraph."""
    p = edge_params(e)
    k, t = p.k, p.t
    return IntPoly([(t + 1) * (k - t - 1), -(k + t + 1), -(k - 1), 1])


def r_D_closed_form(e: int) -> tuple[IntPoly, IntPoly]:
    """Closed-form numerator/denominator of the link function for the
    near-clique family (valid for t >= 1)."""
    p = edge_params(e)
    if p.t == 0:
        raise InvalidRegime("closed form requires t >= 1")
    k, t = p.k, p.t
    num = X * (X + 1) * d_cubic(e)
    den = IntPoly([t * (k - t - 1), -(k + t - 1), -(k - 2), 1])
    return num, den


def v_quadratic(e: int) -> IntPoly:
    return IntPoly([-2 * e, -1, 1])


@functools.lru_cache(maxsize=256)
def family_bounds(e: int) -> tuple[AlgebraicReal, AlgebraicReal]:
    """(rho_t1d, rho_t1v): the spectral radii of the cones over the
    near-clique and the star T-subgraph.  Every candidate with surplus e
    compares its roots against these two, so they are isolated once per e."""
    rho_t1d = xp.kth_largest_root(d_cubic(e), 1)
    if rho_t1d is None:
        raise StructureViolation(f"near-clique cone cubic has no real root at e={e}")
    rho_t1v = xp.kth_largest_root(v_quadratic(e), 1)
    if rho_t1v is None:
        raise StructureViolation(f"star cone quadratic has no real root at e={e}")
    return rho_t1d, rho_t1v


def r_V_closed_form(e: int) -> tuple[IntPoly, IntPoly]:
    """Closed-form link function for the star-like family."""
    if e < 1:
        raise ValueError("e must be >= 1")
    num = X * (X + 1) * v_quadratic(e)
    den = IntPoly([-e, 0, 1])
    return num, den


# -- certificates --------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    e: int
    steps: StepSequence
    d_branch: str
    v_branch: str
    n_U: Optional[RationalInterval]
    n_L: Optional[RationalInterval]
    coverage: str
    wall_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "steps": list(self.steps.steps),
            "d_branch": self.d_branch,
            "v_branch": self.v_branch,
            "n_U": self.n_U.to_dict() if self.n_U else None,
            "n_L": self.n_L.to_dict() if self.n_L else None,
            "coverage": self.coverage,
            "wall_ms": self.wall_ms,
        }


def _no_integer_between(lo: Fraction, hi: Fraction) -> bool:
    """True if [lo, hi] contains no integer (or is empty)."""
    if lo > hi:
        return True
    first = -((-lo.numerator) // lo.denominator)  # ceil(lo)
    return first > hi


def certify_candidate(e: int, steps: StepSequence) -> Certificate:
    """Run the elimination procedure on one candidate T-subgraph.

    Raises VerificationFailed if any certified inequality does not hold,
    mirroring the failure semantics of the published search.
    """
    p = edge_params(e)
    if e < 4 or p.t == 0:
        raise InvalidRegime("certification requires e >= 4 and t >= 1")
    d_steps = d_step_sequence(e)
    if steps.steps in ((e,), d_steps.steps):
        raise Degenerate("candidate coincides with an extremal T-subgraph")
    if steps.e != e:
        raise ValueError("step sequence surplus mismatch")

    # D side -------------------------------------------------------------
    qd = q_poly(steps, d_steps)
    if qd.is_zero:
        raise VerificationFailed(2, f"comparison polynomial vs D vanishes for {steps.steps}")
    rho_t1d, rho_t1v = family_bounds(e)
    above = list(islice(xp.roots_at_or_above(qd, rho_t1d), 2))
    if qd.leading > 0:
        if not above:
            return Certificate(e, steps, POSITIVE_LEADING, V_UNUSED,
                               None, None, COVER_ALL_N)
        raise VerificationFailed(
            3, f"positive-leading comparison root not below the family bound for {steps.steps}")
    if not above or xp.compare(above[0], rho_t1d) == 0:
        raise VerificationFailed(
            4, f"largest comparison root not above the family bound for {steps.steps}")
    if len(above) > 1:
        raise VerificationFailed(
            4, f"second comparison root not below the family bound for {steps.steps}")
    d_branch = NEGATIVE_LEADING_WITH_BOUND
    n_u_root = above[0]

    # V side -------------------------------------------------------------
    qv = q_poly(steps, StepSequence((e,)))
    if qv.is_zero or qv.leading < 0:
        raise VerificationFailed(
            5, f"comparison polynomial vs V not positive-leading for {steps.steps}")
    n_l_root = next(xp.roots_at_or_above(qv, rho_t1v), None)
    v_branch = V_SMALL_ROOT if n_l_root is None else V_BOUND_AT_NL

    # step (7): no integer order escapes both certified regions ----------
    num_d, den_d = r_D_closed_form(e)
    num_v, den_v = r_V_closed_form(e)
    eps = Fraction(1, 16)
    for _ in range(xp.DEFAULT_REFINE_BUDGET):
        ivu = xp.eval_ratfun(num_d, den_d, n_u_root, eps)
        n_u = RationalInterval(p.b + ivu.lo, p.b + ivu.hi)
        if n_l_root is None:
            # the star family wins for every order where it exists
            n_l = RationalInterval(Fraction(e + 1), Fraction(e + 1))
        else:
            ivl = xp.eval_ratfun(num_v, den_v, n_l_root, eps)
            n_l = RationalInterval(e + 2 + ivl.lo, e + 2 + ivl.hi)
        if _no_integer_between(n_u.lo, n_l.hi):
            return Certificate(e, steps, d_branch, v_branch, n_u, n_l, COVER_SPLIT)
        eps /= 16
    raise VerificationFailed(
        7, f"could not certify a gap between the two bounds for {steps.steps}")


def certify_all(e: int, resume_after=None, jobs: int = 1) -> Iterator[Certificate]:
    """Certificates for every member of S*_e, in enumeration order."""
    p = edge_params(e)
    if e < 4 or p.t == 0:
        raise InvalidRegime("certification requires e >= 4 and t >= 1")
    candidates = enumerate_S_star(e, resume_after)
    if jobs <= 1:
        for steps in candidates:
            yield certify_candidate(e, steps)
    else:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            args = ((e, s) for s in candidates)
            for cert in pool.map(_certify_star, args, chunksize=8):
                yield cert


def _certify_star(args) -> Certificate:
    return certify_candidate(*args)
