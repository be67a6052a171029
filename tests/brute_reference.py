"""The exhaustive search over every edge subset.

`oracle.brute_force_max` searches only the degree-ordered labelings of
each graph and counts the labeled maximizers as n!/|Aut| per class; this
search eigensolves all C(C(n, 2), n - 1 + e) edge subsets and counts the
maximizers it meets.  It is the reference the tests check the faster
search against, at orders where visiting every subset is cheap.
"""

import itertools
from math import comb

import numpy as np

from rhomax.graphs import DenseGraph, adjacency, build_D, build_V, graph6
from rhomax.oracle import CHUNK, BruteResult, _is_connected, is_isomorphic, spectral_radius


def all_subsets_max(n: int, e: int) -> BruteResult:
    """brute_force_max(n, e), computed over every edge subset."""
    m = n - 1 + e
    npairs = comb(n, 2)
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)

    # a known member of the class seeds the pruning threshold
    seed = spectral_radius(adjacency(build_D(n, e))).rho
    margin = 1e-7
    best = seed - margin
    survivors: list[tuple[float, np.ndarray]] = []

    it = itertools.combinations(range(npairs), m)
    while True:
        block = list(itertools.islice(it, CHUNK))
        if not block:
            break
        idx = np.array(block, dtype=np.int64)
        nb = idx.shape[0]
        mats = np.zeros((nb, n, n), dtype=np.float64)
        rows = np.arange(nb)[:, None]
        u, v = pairs[idx, 0], pairs[idx, 1]
        mats[rows, u, v] = 1.0
        mats[rows, v, u] = 1.0
        top = np.linalg.eigvalsh(mats)[:, -1]
        for i in np.nonzero(top >= best)[0]:
            a8 = mats[i].astype(np.int8)
            if _is_connected(a8):
                rho = float(top[i])
                survivors.append((rho, a8))
                if rho - margin > best:
                    best = rho - margin

    max_rho = max(r for r, _ in survivors)
    argmax = [(r, a) for r, a in survivors if r >= max_rho - 1e-9]
    witness = DenseGraph(n, argmax[0][1])
    is_d = is_isomorphic(witness, adjacency(build_D(n, e)))
    is_v = False
    if n >= e + 2:
        is_v = is_isomorphic(witness, adjacency(build_V(n, e)))
    unique = all(is_isomorphic(DenseGraph(n, a), witness) for _, a in argmax[1:])
    return BruteResult(n, e, max_rho, graph6(witness), is_d, is_v,
                       len(argmax), unique)
