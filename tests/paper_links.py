"""The paper's closed forms of the two family links.

A threshold graph with T-subgraph steps s and spectral radius rho has
order n = s1 + 2 + num(rho)/den(rho).  The package builds the links of
the near-clique (D) and star-like (V) families from the creation
sequence (`certify.generic_r_poly`); these hand-written forms in (k, t)
are the reference the tests check that construction against.
"""

from rhomax.exactpoly import X, IntPoly
from rhomax.graphs import edge_params


def d_cubic(e: int) -> IntPoly:
    """Cubic whose largest root is the spectral radius of the cone over
    the near-clique T-subgraph (t >= 1)."""
    p = edge_params(e)
    k, t = p.k, p.t
    return IntPoly([(t + 1) * (k - t - 1), -(k + t + 1), -(k - 1), 1])


def r_D(e: int) -> tuple[IntPoly, IntPoly]:
    """Link of the near-clique family (t >= 1)."""
    p = edge_params(e)
    k, t = p.k, p.t
    return (X * (X + 1) * d_cubic(e),
            IntPoly([t * (k - t - 1), -(k + t - 1), -(k - 2), 1]))


def v_quadratic(e: int) -> IntPoly:
    """Quadratic whose largest root is the spectral radius of the cone
    over the star T-subgraph, K_2 joined with e isolated vertices."""
    return IntPoly([-2 * e, -1, 1])


def r_V(e: int) -> tuple[IntPoly, IntPoly]:
    """Link of the star-like family."""
    return X * (X + 1) * v_quadratic(e), IntPoly([-e, 0, 1])
