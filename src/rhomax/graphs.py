"""Threshold graphs, the two extremal families, and step-sequence codecs.

Vertex 0 is always the dominating vertex.  A threshold graph is identified
by its order n together with the step sequence of its T-subgraph: a
strictly decreasing list of positive integers summing to the edge surplus
e.  The T-subgraph occupies vertices 1 .. s_1 + 1; the remaining
n - s_1 - 2 vertices are pendants on vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Degenerate, OrderTooSmall


@dataclass(frozen=True)
class EdgeParams:
    """Derived parameters of an edge surplus e."""

    e: int
    k: int  # largest k with C(k,2) <= e
    t: int  # e - C(k,2)
    b: int  # minimum order of a connected graph with surplus e


def edge_params(e: int) -> EdgeParams:
    if e < 0:
        raise ValueError("edge surplus must be nonnegative")
    k = 1
    while (k + 1) * k // 2 <= e:
        k += 1
    t = e - k * (k - 1) // 2
    if e == 0:
        b = 1
    elif t == 0:
        b = k + 1
    else:
        b = k + 2
    return EdgeParams(e, k, t, b)


@dataclass(frozen=True)
class StepSequence:
    """Strictly decreasing positive integers; sum is the edge surplus."""

    steps: tuple[int, ...]

    def __init__(self, steps: Sequence[int] = ()):
        steps = tuple(int(s) for s in steps)
        if any(s <= 0 for s in steps):
            raise ValueError("steps must be positive")
        if any(a <= b for a, b in zip(steps, steps[1:])):
            raise ValueError("steps must be strictly decreasing")
        object.__setattr__(self, "steps", steps)

    @property
    def e(self) -> int:
        return sum(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, i):
        return self.steps[i]


@dataclass(frozen=True)
class ThresholdGraph:
    n: int
    steps: StepSequence

    def __post_init__(self):
        if self.steps.steps:
            if self.n < self.steps[0] + 2:
                raise OrderTooSmall(
                    f"order {self.n} < {self.steps[0] + 2} required by T-subgraph")
        elif self.n < 1:
            raise OrderTooSmall("order must be positive")

    @property
    def e(self) -> int:
        return self.steps.e

    @property
    def size(self) -> int:
        return self.n - 1 + self.e if self.n >= 2 else 0


@dataclass(frozen=True)
class DenseGraph:
    """Symmetric 0/1 adjacency matrix with zero diagonal."""

    n: int
    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.int8)
        if a.shape != (self.n, self.n):
            raise ValueError("adjacency shape mismatch")
        if np.any(a != a.T) or np.any(np.diag(a) != 0):
            raise ValueError("adjacency must be symmetric with zero diagonal")
        object.__setattr__(self, "a", a)

    @property
    def size(self) -> int:
        return int(self.a.sum()) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self.a.sum(axis=0))


# -- constructions ------------------------------------------------------


def d_step_sequence(e: int) -> StepSequence:
    """Step sequence of the near-clique family's T-subgraph."""
    p = edge_params(e)
    k, t = p.k, p.t
    if e == 0:
        return StepSequence(())
    if t == 0:
        return StepSequence(range(k - 1, 0, -1))
    steps = list(range(k, k - t, -1)) + list(range(k - t - 1, 0, -1))
    return StepSequence(steps)


def build_D(n: int, e: int) -> ThresholdGraph:
    """Near-clique extremal graph of order n and size n - 1 + e."""
    p = edge_params(e)
    if n < p.b:
        raise OrderTooSmall(f"order {n} < minimum {p.b} for surplus {e}")
    return ThresholdGraph(n, d_step_sequence(e))


def build_V(n: int, e: int) -> ThresholdGraph:
    """Star-plus-dominating-vertex extremal graph of order n, size n-1+e."""
    if n < e + 2:
        raise OrderTooSmall(f"order {n} < {e + 2} required")
    steps = StepSequence((e,)) if e >= 1 else StepSequence(())
    return ThresholdGraph(n, steps)


def tsub_adjacency(steps: StepSequence) -> np.ndarray:
    """Stepwise adjacency of the T-subgraph itself (order s_1 + 1)."""
    if not steps.steps:
        raise Degenerate("empty step sequence has no T-subgraph")
    m = steps[0] + 1
    a = np.zeros((m, m), dtype=np.int8)
    for i, s in enumerate(steps):
        a[i, i + 1:i + s + 1] = 1
        a[i + 1:i + s + 1, i] = 1
    return a


def cone(a: np.ndarray) -> np.ndarray:
    """Join a new dominating vertex (index 0) to every vertex of a."""
    m = a.shape[0]
    out = np.zeros((m + 1, m + 1), dtype=np.int8)
    out[0, 1:] = 1
    out[1:, 0] = 1
    out[1:, 1:] = a
    return out


def adjacency(g: ThresholdGraph) -> DenseGraph:
    n = g.n
    a = np.zeros((n, n), dtype=np.int8)
    if n >= 2:
        a[0, 1:] = 1
        a[1:, 0] = 1
    if g.steps.steps:
        t = tsub_adjacency(g.steps)
        m = t.shape[0]
        a[1:1 + m, 1:1 + m] = t
    return DenseGraph(n, a)


# -- graph6 --------------------------------------------------------------


def graph6(g: DenseGraph) -> str:
    """Standard graph6 encoding (n < 63 is all we ever need)."""
    n = g.n
    if n > 62:
        raise ValueError("graph6 encoder limited to n <= 62 here")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(int(g.a[i, j]))
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i:i + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return "".join(chars)
