"""Machine speed, measured next to the timed work with a frozen kernel.

The benchmark runs on cores shared with other tenants.  Their speed moves
by 20-40% within seconds, and every pure-Python query moves with it: a
query repeated in one process spread by 28% (interquartile range over
median), and its own CPU time spread just as much, so it is not time spent
waiting for the CPU.  The kernel below, timed right after the query,
moved with it (correlation 0.64), and the ratio of the two spread by 13%
per sample and by 4% over medians of ten.

The kernel is a frozen copy of exact canonical labelling by branch and
bound, on fixed graphs.  It lives here, not in the package, so that no
change to the package changes it.  ``Ticker`` runs it from a timer signal
while queries run, so speed is measured during each query, not only next
to it.  ``to_nominal`` turns a time measured at the speed of the kernel
into the time the same work takes when one unit takes ``NOMINAL_UNIT_S``.
"""

from __future__ import annotations

import bisect
import signal
import time

# A fixed scale: close to the median time of one unit on the 2-vCPU
# machine where the baseline in README.md was taken (CPython 3.11.7),
# whose runs had medians from 3.1 to 4.9 ms.
NOMINAL_UNIT_S = 0.0045

# Fixed inputs: (vertex count, edges).  Cycles with chords and a dog-like
# graph, 7-8 vertices, so the search branches as it does on closure members.
_GRAPHS = (
    (8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4))),
    (8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (1, 5), (2, 6))),
    (7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0))),
    (8, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3))),
)


def _minimal_bits(n: int, masks: list[int]) -> int:
    best = None
    cols = [0] * n
    chosen: list[int] = []

    def extend(depth: int, used: int, tied: bool) -> None:
        nonlocal best
        if depth == n:
            if best is None or chosen < best:
                best = chosen.copy()
            return
        min_col = 1 << 60
        for u in range(n):
            if not (used >> u) & 1 and cols[u] < min_col:
                min_col = cols[u]
        next_tied = tied
        if tied and best is not None:
            ref = best[depth]
            if min_col > ref:
                return
            next_tied = min_col == ref
        for u in range(n):
            if (used >> u) & 1 or cols[u] != min_col:
                continue
            new_used = used | (1 << u)
            mu = masks[u]
            for w in range(n):
                if not (new_used >> w) & 1:
                    cols[w] = (cols[w] << 1) | ((mu >> w) & 1)
            chosen.append(min_col)
            extend(depth + 1, new_used, next_tied)
            chosen.pop()
            for w in range(n):
                if not (new_used >> w) & 1:
                    cols[w] >>= 1

    extend(0, 0, True)
    bits = 0
    for j, col in enumerate(best):
        bits = (bits << j) | col
    return bits


def _one_unit() -> tuple:
    forms = {}
    for n, edges in _GRAPHS:
        edge_set = frozenset(edges)
        masks = [0] * n
        for u, v in edge_set:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        forms[edge_set] = (n, _minimal_bits(n, masks))
    return tuple(sorted(forms.values()))


_EXPECTED = _one_unit()


def unit_seconds(count: int) -> float:
    """Run ``count`` units; return the seconds one of them took."""
    start = time.perf_counter()
    for _ in range(count):
        if _one_unit() != _EXPECTED:
            raise AssertionError("reference kernel gave a different result")
    return (time.perf_counter() - start) / count


def to_nominal(seconds: float, unit_s: float) -> float:
    return seconds * NOMINAL_UNIT_S / unit_s


def _start(tick: tuple[float, float, float]) -> float:
    return tick[0]


class Ticker:
    """Times ``units`` kernel units every ``interval`` seconds of wall
    clock, from a SIGALRM handler, while it is running.

    The handler runs in the main thread between bytecodes, so a tick lies
    wholly inside or wholly outside any span the main thread times.
    """

    def __init__(self, interval: float, units: int) -> None:
        self.interval = interval
        self.units = units
        # (start, end, seconds per unit), in time order.
        self.ticks: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        unit_s = unit_seconds(self.units)
        self.ticks.append((start, time.perf_counter(), unit_s))

    def __enter__(self) -> "Ticker":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # A closing tick, so that the last span has one after it.
        self._tick(None, None)

    def inside(self, start: float, end: float) -> tuple[float, float]:
        """For a span from ``start`` to ``end``: the seconds its ticks took,
        and the mean time of one unit over its ticks and the nearest tick
        on either side."""
        lo = bisect.bisect_left(self.ticks, start, key=_start)
        hi = bisect.bisect_right(self.ticks, end, key=_start)
        within = self.ticks[lo:hi]
        near = self.ticks[max(lo - 1, 0):hi + 1]
        spent = sum(e - s for s, e, _ in within)
        return spent, sum(u for _, _, u in near) / len(near)
