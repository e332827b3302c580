"""A fixed reference computation that gauges the host's speed.

The benchmark runs on a few cores of a shared host, whose speed for
pure-Python work swings by up to a factor of two for seconds to minutes at a
time, with other tenants' load.  Every worker times ``kernel()`` next to each
call into graphdim, and run.py scales that call's time by
``NOMINAL_S / (time of the kernels around it)``: the result is the call's
time on a host that runs the kernel in exactly ``NOMINAL_S``.  On a steady
host that is the raw time times a constant; when the host slows down, the
kernel slows down with the call and the scaled time stays put.

The kernel imports nothing from graphdim and does the kinds of work the
program does: an exhaustive search over vertex subsets with bitset degree
counts (as in dimension and coloring) and a graph6 decode (as in core).
Over 150 s in which the host's speed swung with a coefficient of variation
of 0.25, the ratio of graphdim's calls to this kernel varied by 0.03 to 0.06.
The kernel must never change: a different kernel rescales every number.
"""

from __future__ import annotations

import time

# The kernel's typical time, in seconds, on the 2-core x86-64 VM under
# CPython 3.11 where the benchmark was written.  Scaled times are seconds at
# that speed.
NOMINAL_S = 0.0015


def _adjacency(n: int, stride: int) -> list[int]:
    """A fixed graph: u ~ v when (u * v + u + v) % stride < stride // 2."""
    adj = [0] * n
    for u in range(n):
        for v in range(u):
            if (u * v + u + v) % stride < stride // 2:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def _graph6(adj: list[int]) -> bytes:
    n = len(adj)
    out = bytearray([n + 63])
    acc = filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc = filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return bytes(out)


_SMALL = _adjacency(9, 7)
_TEXT = _graph6(_adjacency(48, 5))


def _delta(adj: list[int], mask: int) -> int:
    return max(((adj[v] & mask).bit_count() for v in range(len(adj)) if mask >> v & 1),
               default=0)


def _search(adj: list[int]) -> int:
    """max over hosts S of min over |T| = |S| // 2 + 1 of Delta(T)."""
    full = 1 << len(adj)
    table = [_delta(adj, m) for m in range(full)]
    best = 0
    for host in range(1, full):
        if table[host] <= best:
            continue
        s = host.bit_count() // 2 + 1
        low = table[host]
        t = host
        while t and low > best:
            if t.bit_count() == s and table[t] < low:
                low = table[t]
            t = (t - 1) & host
        best = max(best, low)
    return best


def _decode(data: bytes) -> int:
    n = data[0] - 63
    body = data[1:]
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return sum(a.bit_count() for a in adj)


def kernel() -> int:
    """Deterministic work of about NOMINAL_S seconds; returns a checksum."""
    return _search(_SMALL) + _decode(_TEXT)


def timed() -> float:
    """Seconds one kernel() call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
