"""Enumeration of candidate T-subgraphs.

A T-subgraph with surplus e corresponds to a partition of e into distinct
parts, written as a strictly decreasing sequence.  Enumeration order is
lexicographically decreasing (largest first part first), which makes
certificate files deterministic and runs resumable from the last emitted
sequence.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import InvalidRegime
from .graphs import StepSequence, d_step_sequence, edge_params


def count_S(e: int) -> int:
    """Number of partitions of e into distinct parts, by DP (independent
    of the streaming enumerator)."""
    if e < 1:
        raise ValueError("e must be >= 1")
    ways = [0] * (e + 1)
    ways[0] = 1
    for part in range(1, e + 1):
        for total in range(e, part - 1, -1):
            ways[total] += ways[total - part]
    return ways[e]


def _gen(rem: int, maxpart: int, prefix: tuple[int, ...],
         cursor: Optional[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    if rem == 0:
        yield prefix
        return
    hi = min(rem, maxpart)
    if cursor:
        hi = min(hi, cursor[0])
    for m in range(hi, 0, -1):
        if rem - m > m * (m - 1) // 2:
            continue
        sub_cursor = None
        if cursor and m == cursor[0]:
            sub_cursor = cursor[1:] or None
            if sub_cursor is None and rem - m == 0:
                continue  # the cursor itself; emit strictly after it
        yield from _gen(rem - m, m - 1, prefix + (m,), sub_cursor)


def enumerate_S(e: int, resume_after: Optional[Sequence[int]] = None
                ) -> Iterator[StepSequence]:
    """All step sequences with surplus e, lexicographically decreasing.

    With resume_after set, emits only the sequences strictly after it in
    enumeration order.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    cursor = tuple(resume_after) if resume_after is not None else None
    for seq in _gen(e, e, (), cursor):
        yield StepSequence(seq)


def enumerate_block(e: int, first_part: int) -> Iterator[StepSequence]:
    """Sub-stream of enumerate_S restricted to a fixed first part; blocks
    for distinct first parts are disjoint, so workers can split on them."""
    if not 1 <= first_part <= e:
        return
    if e - first_part > first_part * (first_part - 1) // 2:
        return
    for seq in _gen(e - first_part, first_part - 1, (first_part,), None):
        yield StepSequence(seq)


def enumerate_S_star(e: int, resume_after: Optional[Sequence[int]] = None
                     ) -> Iterator[StepSequence]:
    """enumerate_S minus the two extremal T-subgraphs."""
    p = edge_params(e)
    if e < 4:
        raise ValueError("e must be >= 4")
    if p.t == 0:
        raise InvalidRegime("t = 0 is covered by the closed-form crossover")
    excluded = {(e,), d_step_sequence(e).steps}
    for seq in enumerate_S(e, resume_after):
        if seq.steps not in excluded:
            yield seq
