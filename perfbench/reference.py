"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared host the same code runs up to half again slower for stretches
of a second to a minute.  The benchmark therefore times this loop every
half second of a pass and divides each op's latency by the loop's median
time in the seconds around the op: a slow stretch slows both alike.  The
loop uses only builtins, so no change to nashrand moves it.  It does what
the library's hot loops do: fraction-free Gaussian elimination on small
and on big integers.
"""

from __future__ import annotations

import time


def _bareiss(rows: list[list[int]]) -> int:
    m = [row[:] for row in rows]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mik = m[i], m[i][k]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return m[-1][-1]


def _matrix(seed: int, scale: int) -> list[list[int]]:
    # diagonally dominant, so every pivot is nonzero
    return [[((i * 7 + j * 13 + seed * 5) % 19 - 9) * scale + (i == j) * 40 * scale
             for j in range(7)] for i in range(7)]


MATRICES = ([_matrix(s, 1) for s in range(300)]
            + [_matrix(s, 3 ** 60) for s in range(200)])


def run_once() -> float:
    """Seconds taken by one pass of the loop (about 25 ms on a 2-core host)."""
    t0 = time.perf_counter()
    for m in MATRICES:
        _bareiss(m)
    return time.perf_counter() - t0
