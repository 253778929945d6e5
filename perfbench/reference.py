"""A fixed pure-Python reference loop that measures how fast the host is now.

The host's speed drifts by tens of percent over minutes (shared
hardware), which moves every wall-clock figure by the same factor.  The
benchmark runs one short slice of this loop right before each timed unit
and divides the unit's time by it: a unit that took 1.5 reference slices
reads the same on a fast minute and a slow one.  Reported times are then
scaled back to seconds by :data:`NOMINAL_SLICE_S`, the slice's time on
the reference host (2-vCPU VM, Python 3.11.7), so they read as the
seconds that host would take at its usual speed.

The loop does the work the walk engines do — random draws into neighbour
tuples of a 26,000-node graph, dict and frozenset caching, list appends —
and imports nothing from ``repro``, so a change to the program never
changes the yardstick.
"""

from __future__ import annotations

import random
import time

#: One slice's wall time on the reference host at its usual speed.
NOMINAL_SLICE_S = 0.005

_NODES = 26_000
_STEPS = 2_000


class ReferenceLoop:
    """Holds the loop's fixed graph; :meth:`slice` times one pass."""

    def __init__(self) -> None:
        rng = random.Random(20130408)
        self._adjacency = {
            node: tuple(rng.randrange(_NODES) for _ in range(rng.randrange(2, 20)))
            for node in range(_NODES)
        }
        self._walk()  # the first pass in a process runs cold

    def _walk(self) -> int:
        adjacency = self._adjacency
        draw = random.Random(0).randrange
        cache = {}
        visited = []
        current = 0
        for _ in range(_STEPS):
            row = adjacency[current]
            current = row[draw(len(row))]
            seen = cache.get(current)
            if seen is None:
                seen = cache[current] = frozenset(adjacency[current])
            visited.append((current, len(seen)))
        return len(visited)

    def slice(self) -> float:
        """Seconds one fixed pass of the loop takes right now."""
        started = time.perf_counter()
        self._walk()
        return time.perf_counter() - started
