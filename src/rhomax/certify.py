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
from itertools import groupby, islice
from math import ceil, comb
from typing import Iterator, NamedTuple, Optional

from . import exactpoly as xp
from .errors import (
    Degenerate,
    InvalidRegime,
    OrderTooSmall,
    RefinementBudgetExceeded,
    StructureViolation,
    VerificationFailed,
)
from .exactpoly import AlgebraicReal, IntPoly, RationalInterval
from .graphs import StepSequence, d_step_sequence, edge_params
# not used here: the benchmark's per-layer trace wraps these two names
from .graphs import cone, tsub_adjacency
from .tsubenum import enumerate_S_star

# branch / coverage labels used in certificates
POSITIVE_LEADING = "PositiveLeading"
NEGATIVE_LEADING_WITH_BOUND = "NegativeLeadingWithBound"
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


def creation_sequence(steps: StepSequence) -> list[bool]:
    """The T-subgraph built one vertex at a time, each added isolated
    (False) or dominating (True).

    Row ends i + s_{i+1} never increase, so of the remaining vertices the
    lowest is dominating if its row reaches the highest, and otherwise the
    highest is isolated.  Peeling them off gives the sequence in reverse;
    its first vertex takes the kind of the next, so it joins that run.
    """
    if not steps.steps:
        raise Degenerate("empty step sequence has no T-subgraph")
    lo, hi = 0, steps[0]
    peeled = []
    while lo < hi:
        dominating = lo < len(steps) and lo + steps[lo] >= hi
        peeled.append(dominating)
        if dominating:
            lo += 1
        else:
            hi -= 1
    return [peeled[-1]] + peeled[::-1]


def charpoly_via_modules(sequence: list[bool]) -> FactoredPoly:
    """Exact charpoly of the threshold graph with this creation sequence,
    factored by its twin classes, which are the maximal runs.

    A run of s isolated (dominating) vertices adds s-1 eigenvalues 0 (-1);
    the rest is folded in run by run as a pair (P, Q) with
    Q/P = 1^T (xI - A)^-1 1, starting from (1, 0).  The fold runs on
    ascending coefficient lists, where len(P) = len(Q) + 1 throughout.
    """
    p, q = [1], []
    zeros = minus_ones = 0
    for dominating, run in groupby(sequence):
        s = len(list(run))
        if dominating:
            p, q = _x_plus(1 - s, p, -s, q), _x_plus(s + 1, q, s, p)
            minus_ones += s - 1
        else:
            p, q = [0] + p, _x_plus(0, q, s, p)
            zeros += s - 1
    r = IntPoly(p)
    if zeros + minus_ones + r.degree != len(sequence):
        raise StructureViolation(f"factored charpoly has degree != {len(sequence)}")
    return FactoredPoly(zeros, minus_ones, r)


def _x_plus(c: int, f: list[int], d: int, g: list[int]) -> list[int]:
    """(x + c) f + d g on ascending coefficient lists, len(g) <= len(f) + 1."""
    out = [c * lo + hi for lo, hi in zip(f + [0], [0] + f)]
    for i, gi in enumerate(g):
        out[i] += d * gi
    return out


@functools.lru_cache(maxsize=100_000)
def tsub_charpolys(steps: tuple[int, ...]) -> tuple[FactoredPoly, FactoredPoly]:
    """(charpoly of T, charpoly of T joined with one vertex), factored."""
    sequence = creation_sequence(StepSequence(steps))
    return charpoly_via_modules(sequence), charpoly_via_modules(sequence + [True])


def _product(c: int, x_power: int, f: FactoredPoly, g: FactoredPoly) -> FactoredPoly:
    """c * x^x_power * f * g."""
    return FactoredPoly(x_power + f.a + g.a, f.b + g.b, c * (f.r * g.r))


def _divide_common(*fs: FactoredPoly) -> list[IntPoly]:
    """Each of fs divided by the largest x^alpha (x+1)^beta that divides
    all of them.  The quotients have the same roots as fs above 0."""
    live = [f for f in fs if not f.r.is_zero]
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


# -- comparison polynomial and family links ------------------------------


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


@functools.lru_cache(maxsize=256)
def r_D_closed_form(e: int) -> tuple[IntPoly, IntPoly]:
    """Link function of the near-clique family: generic_r_poly of its
    T-subgraph, built once per e."""
    return generic_r_poly(d_step_sequence(e))


@functools.lru_cache(maxsize=256)
def r_V_closed_form(e: int) -> tuple[IntPoly, IntPoly]:
    """Link function of the star-like family: generic_r_poly of its
    T-subgraph, built once per e."""
    return generic_r_poly(StepSequence((e,)))


@functools.lru_cache(maxsize=256)
def family_bounds(e: int) -> tuple[AlgebraicReal, AlgebraicReal]:
    """(rho_t1d, rho_t1v): the spectral radii of the cones over the
    near-clique and the star T-subgraph, the family graphs of least order.
    Every candidate with surplus e compares its roots against these two,
    so they are isolated once per e."""
    return tuple(rho_of_threshold(s, s[0] + 2)
                 for s in (d_step_sequence(e), StepSequence((e,))))


@functools.lru_cache(maxsize=256)
def step7_constant(e: int) -> tuple[Fraction, Fraction]:
    """(c_e, n_u_lo): the rational the SmallRoot gap test of step 7 signs
    the comparison polynomial at, and the lower end of n_U it certifies.

    c_e lies at most 2^-64 above sigma_e = rho(D(e+1, e)), and the
    near-clique link is strictly increasing from c_e on, so a root rho_U
    above c_e has n_U = b + r_D(rho_U) > b + r_D(c_e) >= n_u_lo > e + 1.
    n_u_lo is e + 1 + 2^-j with the least such j.
    """
    rho_t1d, _ = family_bounds(e)
    num_d, den_d = r_D_closed_form(e)
    c_e = rho_of_threshold(d_step_sequence(e), e + 1).refined(Fraction(1, 2**64)).hi
    if xp.compare_with_rational(rho_t1d, c_e) > 0:
        raise StructureViolation(f"step-7 constant below the family bound at e = {e}")
    # num/den increases where its derivative's numerator W is positive,
    # and W and den keep their signs above their largest roots
    w = num_d.derivative() * den_d - num_d * den_d.derivative()
    at_c = AlgebraicReal.from_rational(c_e)
    if (w.leading < 0 or next(xp.roots_at_or_above(w, at_c), None)
            or next(xp.roots_at_or_above(den_d, at_c), None)):
        raise StructureViolation(f"near-clique link not increasing above c_e at e = {e}")
    slack = edge_params(e).b + Fraction(num_d(c_e)) / den_d(c_e) - (e + 1)
    if slack <= 0:
        raise StructureViolation(f"step-7 constant gives n_U <= e + 1 at e = {e}")
    j = 0
    while Fraction(1, 2**j) > slack:
        j += 1
    return c_e, e + 1 + Fraction(1, 2**j)


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

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "steps": list(self.steps.steps),
            "d_branch": self.d_branch,
            "v_branch": self.v_branch,
            "n_U": self.n_U.to_dict() if self.n_U else None,
            "n_L": self.n_L.to_dict() if self.n_L else None,
            "coverage": self.coverage,
            # kept until the shard format, so certificate bytes change once
            "wall_ms": 0,
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
    if n_l_root is None:
        # the star family wins for every order where it exists
        n_l = RationalInterval(Fraction(e + 1), Fraction(e + 1))
        c_e, n_u_lo = step7_constant(e)
        # q_D is negative-leading and n_u_root is its only root >= rho_t1d,
        # so q_D(c_e) > 0 puts that root above c_e >= rho_t1d; the link
        # increases, so n_U lies between b + r_D(c_e) and b + r_D(B)
        if xp.sign_at(qd, c_e) > 0:
            bound = xp.cauchy_bound(qd)
            n_u = RationalInterval(
                n_u_lo, ceil(p.b + Fraction(num_d(bound)) / den_d(bound)))
            if _no_integer_between(n_u.lo, n_l.hi):
                return Certificate(e, steps, d_branch, v_branch, n_u, n_l, COVER_SPLIT)
    # each round asks for enclosures 16 times narrower, until the gap is
    # certified, both are exact, or eval_ratfun spends its bisection budget
    eps = Fraction(1, 16)
    try:
        while True:
            ivu = xp.eval_ratfun(num_d, den_d, n_u_root, eps)
            n_u = RationalInterval(p.b + ivu.lo, p.b + ivu.hi)
            if n_l_root is not None:
                ivl = xp.eval_ratfun(num_v, den_v, n_l_root, eps)
                n_l = RationalInterval(e + 2 + ivl.lo, e + 2 + ivl.hi)
            if _no_integer_between(n_u.lo, n_l.hi):
                return Certificate(e, steps, d_branch, v_branch, n_u, n_l, COVER_SPLIT)
            if n_u.width == n_l.width == 0:
                break
            eps /= 16
    except RefinementBudgetExceeded:
        pass
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
