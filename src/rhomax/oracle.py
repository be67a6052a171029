"""Independent numeric and brute-force ground truth.

Nothing here feeds the certified pipeline; it exists to cross-check it:
spectral radii and Perron vectors from LAPACK's dense symmetric
eigensolver, and exhaustive maximization over every connected graph at
tiny orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

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


def _isomorphisms(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Every vertex bijection carrying a onto b, found by degree-pruned
    backtracking, as the tuple whose entry u is the image of vertex u."""
    n = a.shape[0]
    deg_a = a.sum(axis=0)
    deg_b = b.sum(axis=0)
    order = sorted(range(n), key=lambda u: -deg_a[u])
    used = [False] * n
    mapping = [-1] * n

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(mapping)
            return
        u = order[pos]
        for w in range(n):
            if used[w] or deg_a[u] != deg_b[w]:
                continue
            if all(a[u, uq] == b[w, mapping[uq]] for uq in order[:pos]):
                used[w] = True
                mapping[u] = w
                yield from extend(pos + 1)
                used[w] = False
                mapping[u] = -1

    return extend(0)


def is_isomorphic(g1: DenseGraph, g2: DenseGraph) -> bool:
    if g1.n != g2.n or g1.size != g2.size:
        return False
    if sorted(g1.degree_sequence()) != sorted(g2.degree_sequence()):
        return False
    return next(_isomorphisms(g1.a, g2.a), None) is not None


def _labelings(g: DenseGraph) -> int:
    """Number of labeled graphs isomorphic to g: n! / |Aut(g)|."""
    return factorial(g.n) // sum(1 for _ in _isomorphisms(g.a, g.a))


# -- exhaustive search at tiny orders ------------------------------------


def _degree_sequences(n: int, total: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing sequences of n integers in 1..hi that sum to total."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for d in range(min(hi, total - (n - 1)), 0, -1):
        if d * n < total:
            break
        for rest in _degree_sequences(n - 1, total - d, d):
            yield (d,) + rest


def degree_ordered_graphs(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Every labeled graph of order n and size m whose degrees are all at
    least 1 and do not increase with the vertex index, once each, as its
    increasing tuple of indices into itertools.combinations(range(n), 2).

    Every graph without isolated vertices has such a labeling.  For each
    degree sequence, vertex i picks its remaining neighbours among the
    later vertices that still need degree.
    """
    # index of the pair (i, j), i < j, is row[i] + j
    row = [i * (n - 1) - i * (i - 1) // 2 - i - 1 for i in range(n)]

    def attach(i: int, need: list[int],
               edges: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield edges
            return
        later = [j for j in range(i + 1, n) if need[j]]
        for nbrs in itertools.combinations(later, need[i]):
            for j in nbrs:
                need[j] -= 1
            yield from attach(i + 1, need,
                              edges + tuple(row[i] + j for j in nbrs))
            for j in nbrs:
                need[j] += 1

    for degrees in _degree_sequences(n, 2 * m, n - 1):
        yield from attach(0, list(degrees), ())


# brute_force_max refuses an (n, e) with more edge subsets of size
# n - 1 + e than this, though it visits far fewer; graphs per eigvalsh batch
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

    Searches only the labelings whose degrees do not increase with the
    vertex index (degree_ordered_graphs).  Every graph has one, so the
    maximizing isomorphism classes are those of all edge subsets.
    Computes the top adjacency eigenvalue of each graph in vectorized
    batches, and checks connectivity only for graphs that can still beat
    the best connected graph seen so far.  n_argmax_labeled counts the
    maximizers among all edge subsets: n!/|Aut| per maximizing class.
    """
    if n > 9:
        raise ValueError("brute force limited to n <= 9")
    m = n - 1 + e
    total = comb(comb(n, 2), m)
    if total > BUDGET:
        raise BudgetExceeded(f"{total} subsets exceed budget {BUDGET}")
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)

    # a known member of the class seeds the pruning threshold
    seed = spectral_radius(adjacency(build_D(n, e))).rho
    margin = 1e-7
    best = seed - margin
    survivors: list[tuple[float, tuple[int, ...], np.ndarray]] = []

    it = degree_ordered_graphs(n, m)
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
                survivors.append((rho, block[i], a8))
                if rho - margin > best:
                    best = rho - margin

    if not survivors:
        raise RuntimeError("search found no connected graph; seed inconsistent")
    max_rho = max(r for r, _, _ in survivors)
    # the witness is the maximizer with the lexicographically least edges
    argmax = sorted(((edges, a) for r, edges, a in survivors
                     if r >= max_rho - 1e-9), key=lambda x: x[0])
    classes: list[DenseGraph] = []
    for _, a in argmax:
        g = DenseGraph(n, a)
        if not any(is_isomorphic(g, c) for c in classes):
            classes.append(g)
    witness = classes[0]
    is_d = is_isomorphic(witness, adjacency(build_D(n, e)))
    is_v = False
    if n >= e + 2:
        is_v = is_isomorphic(witness, adjacency(build_V(n, e)))
    return BruteResult(n, e, max_rho, graph6(witness), is_d, is_v,
                       sum(_labelings(c) for c in classes), len(classes) == 1)
