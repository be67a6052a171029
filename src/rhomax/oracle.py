"""Independent numeric and brute-force ground truth.

Nothing here feeds the certified pipeline; it exists to cross-check it:
spectral radii and Perron vectors from LAPACK's dense symmetric
eigensolver, and exhaustive maximization over every connected graph at
tiny orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetExceeded, NotConnected
from .graphs import DenseGraph, adjacency, build_D, build_V, edge_params, graph6


@dataclass(frozen=True)
class PerronData:
    rho: float
    vector: np.ndarray


def _is_connected(a: np.ndarray) -> bool:
    n = a.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(a[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def spectral_radius(g: DenseGraph) -> PerronData:
    """Largest adjacency eigenvalue and its unit eigenvector, with the
    sign fixed so that the Perron vector is positive."""
    if not _is_connected(g.a):
        raise NotConnected("spectral_radius requires a connected graph")
    w, v = np.linalg.eigh(g.a.astype(np.float64))
    y = v[:, -1]
    return PerronData(float(w[-1]), y if y.sum() > 0 else -y)


def perron_ratios_D(n: int, e: int) -> tuple[float, float, float]:
    """Perron-entry ratios (second, clique-top, bridge vertices over the
    dominating vertex) for the near-clique family."""
    p = edge_params(e)
    if p.t == 0:
        raise ValueError("requires t >= 1")
    pd = spectral_radius(adjacency(build_D(n, e)))
    y = pd.vector
    return (float(y[1] / y[0]), float(y[p.k] / y[0]), float(y[p.k + 1] / y[0]))


# -- canonical forms and isomorphism at tiny scale -----------------------


def _iso_backtrack(a: np.ndarray, b: np.ndarray) -> bool:
    """Degree-pruned backtracking search for a vertex bijection."""
    n = a.shape[0]
    deg_a = a.sum(axis=0)
    deg_b = b.sum(axis=0)
    order = sorted(range(n), key=lambda u: -deg_a[u])
    used = [False] * n
    mapping = [-1] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        u = order[pos]
        for w in range(n):
            if used[w] or deg_a[u] != deg_b[w]:
                continue
            ok = True
            for q in range(pos):
                uq = order[q]
                if a[u, uq] != b[w, mapping[uq]]:
                    ok = False
                    break
            if ok:
                used[w] = True
                mapping[u] = w
                if extend(pos + 1):
                    return True
                used[w] = False
                mapping[u] = -1
        return False

    return extend(0)


def is_isomorphic(g1: DenseGraph, g2: DenseGraph) -> bool:
    if g1.n != g2.n or g1.size != g2.size:
        return False
    if sorted(g1.degree_sequence()) != sorted(g2.degree_sequence()):
        return False
    return _iso_backtrack(g1.a, g2.a)


# edge subsets a brute-force search may visit, and per eigvalsh batch
BUDGET = 40_000_000
CHUNK = 200_000


@dataclass(frozen=True)
class BruteResult:
    n: int
    e: int
    max_rho: float
    argmax_iso_class: str  # graph6 of one maximizer
    is_D: bool
    is_V: bool
    n_argmax_labeled: int
    argmax_unique_iso: bool

    def to_dict(self) -> dict:
        return {"n": self.n, "e": self.e, "max_rho": self.max_rho,
                "argmax_iso_class": self.argmax_iso_class,
                "is_D": self.is_D, "is_V": self.is_V,
                "n_argmax_labeled": self.n_argmax_labeled,
                "argmax_unique_iso": self.argmax_unique_iso}


def brute_force_max(n: int, e: int) -> BruteResult:
    """Exhaustive spectral-radius maximization over all connected graphs
    of order n and size n - 1 + e.

    Streams edge subsets, computes the top adjacency eigenvalue for each
    in vectorized batches, and checks connectivity only for subsets that
    can still beat the best connected graph seen so far.
    """
    if n > 9:
        raise ValueError("brute force limited to n <= 9")
    m = n - 1 + e
    npairs = comb(n, 2)
    total = comb(npairs, m)
    if total > BUDGET:
        raise BudgetExceeded(f"{total} subsets exceed budget {BUDGET}")
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

    if not survivors:
        raise RuntimeError("search found no connected graph; seed inconsistent")
    max_rho = max(r for r, _ in survivors)
    argmax = [(r, a) for r, a in survivors if r >= max_rho - 1e-9]
    witness = DenseGraph(n, argmax[0][1])
    d_graph = adjacency(build_D(n, e))
    is_d = is_isomorphic(witness, d_graph)
    is_v = False
    if n >= e + 2:
        is_v = is_isomorphic(witness, adjacency(build_V(n, e)))
    unique = all(is_isomorphic(DenseGraph(n, a), witness) for _, a in argmax[1:])
    return BruteResult(n, e, max_rho, graph6(witness), is_d, is_v,
                       len(argmax), unique)
