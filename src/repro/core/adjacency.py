"""Numpy-backed compact adjacency: the walk engines' array substrate.

The dict-of-dicts adjacency in :mod:`repro.graph.adjacency` is the right
*authority* — O(1) membership, insertion-ordered iteration, cheap set-view
intersections for the MTO removal criterion — but every per-step structure
the walk engines touch through it is a Python object: neighbor tuples of
hashable ids, per-id hashing on every draw, one attribute chase per
degree.  This module provides the flat mirror that the hot paths index
instead:

* **Id interning** (:class:`NodeInterner`): every node id maps to a dense
  ``int32`` index in first-seen order; all adjacency structure below the
  interner is integer arrays.
* **Arena rows** (:class:`CompactAdjacency`): each node's neighbor row
  lives in one shared ``int32`` buffer with capacity-doubling relocation,
  so appends are amortized O(1) and *every* row is addressable by
  ``(start, degree)``.  Insertion order is preserved exactly, removals
  shift-left — bit-for-bit the ordering semantics of the
  insertion-ordered dict rows, because **the ordering is the draw
  determinism**: a seeded walk draws ``seq[rng.randrange(len(seq))]``
  and any reordering changes every subsequent sample.
* **Seeded draws** (:meth:`CompactAdjacency.draw`): one
  ``rng.randrange(degree)`` indexed straight into the arena — the same
  Mersenne consumption as the dict draw, without the tuple/hash traffic.
* **Batched membership** (:meth:`CompactAdjacency.row_mask`): live-row
  membership for a whole frontier in one call — what
  ``OverlayGraph.ensure_known_many`` runs on.

The store deliberately has no removal-of-identity: interned ids stay
interned (other rows may reference them); a node's *row* can be dropped
and later recreated.  ``degree == -1`` is the "no row" sentinel.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Node = Hashable

_NO_ROW = -1


class NodeInterner:
    """Dense first-seen ``id -> int32 index`` interning.

    Example:
        >>> interner = NodeInterner()
        >>> interner.intern("alice"), interner.intern("bob"), interner.intern("alice")
        (0, 1, 0)
        >>> interner.node(1)
        'bob'
    """

    def __init__(self) -> None:
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def intern(self, node: Node) -> int:
        """The index for ``node``, assigning the next dense one if new."""
        idx = self._index.get(node)
        if idx is None:
            idx = len(self._nodes)
            self._index[node] = idx
            self._nodes.append(node)
        return idx

    def index(self, node: Node) -> Optional[int]:
        """The index for ``node``, or ``None`` if never interned."""
        return self._index.get(node)

    def node(self, idx: int) -> Node:
        """The node id at ``idx`` (inverse of :meth:`intern`)."""
        return self._nodes[idx]

    def nodes(self) -> Tuple[Node, ...]:
        """All interned ids, in index order."""
        return tuple(self._nodes)


class CompactAdjacency:
    """Arena-backed int32 adjacency rows with dict-identical ordering.

    Rows grow by relocation: when a node's row overflows its slot, the row
    is copied to the end of the arena with doubled capacity and the old
    slot becomes dead space (bounded at ~half the arena).  All per-node
    bookkeeping — row start, live degree, slot capacity — is flat int64
    arrays, so a batched membership lookup is a single fancy-index read.

    Not thread-safe; mirrors exactly one authoritative dict structure
    (``Graph._adj`` or ``OverlayGraph._known``) and must be mutated in
    lockstep with it.
    """

    def __init__(self) -> None:
        self._interner = NodeInterner()
        self._flat = np.empty(1024, dtype=np.int32)
        self._used = 0  # arena high-water mark
        n0 = 16
        self._start = np.zeros(n0, dtype=np.int64)
        self._deg = np.full(n0, _NO_ROW, dtype=np.int64)
        self._cap = np.zeros(n0, dtype=np.int64)
        # node index -> cached id-tuple of its row (the ``neighbors_seq``
        # the engines hand to ``randrange`` draws); dropped on mutation.
        self._seq_cache: Dict[int, Tuple[Node, ...]] = {}

    # ------------------------------------------------------------------
    # growth plumbing
    # ------------------------------------------------------------------
    def _grow_meta(self, need: int) -> None:
        size = len(self._deg)
        if need <= size:
            return
        new = max(need, size * 2)
        self._start = np.resize(self._start, new)
        self._start[size:] = 0
        self._deg = np.resize(self._deg, new)
        self._deg[size:] = _NO_ROW
        self._cap = np.resize(self._cap, new)
        self._cap[size:] = 0

    def _grow_flat(self, need: int) -> None:
        if need <= len(self._flat):
            return
        new = np.empty(max(need, len(self._flat) * 2), dtype=np.int32)
        new[: self._used] = self._flat[: self._used]
        self._flat = new

    def _alloc_slot(self, capacity: int) -> int:
        start = self._used
        self._grow_flat(start + capacity)
        self._used = start + capacity
        return start

    def _intern(self, node: Node) -> int:
        idx = self._interner.intern(node)
        self._grow_meta(idx + 1)
        return idx

    # ------------------------------------------------------------------
    # mutation (lockstep with the authoritative dict)
    # ------------------------------------------------------------------
    def ensure_row(self, node: Node) -> int:
        """Intern ``node`` and give it an (empty) row if it has none."""
        idx = self._intern(node)
        if self._deg[idx] == _NO_ROW:
            self._deg[idx] = 0
        return idx

    def append(self, u: Node, v: Node) -> None:
        """Append ``v`` to ``u``'s row (caller guarantees ``v`` is new).

        Mirrors ``adj[u][v] = None`` on a key known absent: insertion
        order is append order.  ``u`` gains a row if it had none; ``v``
        is interned but gains no row.
        """
        ui = self.ensure_row(u)
        vi = self._intern(v)
        deg = self._deg[ui]
        if deg == self._cap[ui]:
            new_cap = int(max(4, deg * 2))
            start = self._alloc_slot(new_cap)
            if deg:
                old = self._start[ui]
                self._flat[start : start + deg] = self._flat[old : old + deg]
            self._start[ui] = start
            self._cap[ui] = new_cap
        self._flat[self._start[ui] + deg] = vi
        self._deg[ui] = deg + 1
        self._seq_cache.pop(ui, None)

    def remove(self, u: Node, v: Node) -> None:
        """Remove ``v`` from ``u``'s row, shifting survivors left.

        Mirrors ``del adj[u][v]``: remaining insertion order is
        preserved.  No-op if ``v`` is not in the row.
        """
        ui = self._interner.index(u)
        vi = self._interner.index(v)
        if ui is None or vi is None or self._deg[ui] <= 0:
            return
        start, deg = int(self._start[ui]), int(self._deg[ui])
        row = self._flat[start : start + deg]
        hits = np.nonzero(row == vi)[0]
        if not len(hits):
            return
        pos = int(hits[0])
        row[pos : deg - 1] = row[pos + 1 : deg]
        self._deg[ui] = deg - 1
        self._seq_cache.pop(ui, None)

    def set_row(self, node: Node, neighbors: Iterable[Node]) -> None:
        """Replace ``node``'s row with ``neighbors`` in the given order."""
        idx = self._intern(node)
        ids = [self._intern(v) for v in neighbors]
        deg = len(ids)
        if deg > self._cap[idx]:
            new_cap = int(max(4, deg * 2))
            self._start[idx] = self._alloc_slot(new_cap)
            self._cap[idx] = new_cap
        start = self._start[idx]
        self._flat[start : start + deg] = np.asarray(ids, dtype=np.int32)
        self._deg[idx] = deg
        self._seq_cache.pop(idx, None)

    def drop_row(self, node: Node) -> None:
        """Forget ``node``'s row (the id stays interned)."""
        idx = self._interner.index(node)
        if idx is None:
            return
        self._deg[idx] = _NO_ROW
        self._seq_cache.pop(idx, None)

    def clear(self) -> None:
        """Drop every row and all interned ids."""
        self.__init__()

    # ------------------------------------------------------------------
    # scalar reads
    # ------------------------------------------------------------------
    def has_row(self, node: Node) -> bool:
        """Whether ``node`` has a live row (isolated-with-row counts)."""
        idx = self._interner.index(node)
        return idx is not None and self._deg[idx] != _NO_ROW

    def degree(self, node: Node) -> Optional[int]:
        """Row length, or ``None`` when ``node`` has no live row."""
        idx = self._interner.index(node)
        if idx is None:
            return None
        deg = int(self._deg[idx])
        return None if deg == _NO_ROW else deg

    def seq(self, node: Node) -> Tuple[Node, ...]:
        """The row as a stable id-tuple (cached until the row mutates).

        Raises:
            KeyError: If ``node`` has no live row.
        """
        idx = self._interner.index(node)
        if idx is None or self._deg[idx] == _NO_ROW:
            raise KeyError(node)
        seq = self._seq_cache.get(idx)
        if seq is None:
            start, deg = int(self._start[idx]), int(self._deg[idx])
            nodes = self._interner._nodes
            seq = tuple([nodes[i] for i in self._flat[start : start + deg].tolist()])
            self._seq_cache[idx] = seq
        return seq

    def draw(self, node: Node, rng: random.Random) -> Optional[Node]:
        """Uniform draw from ``node``'s row — dict-draw compatible.

        Consumes exactly one ``rng.randrange(degree)`` and indexes the
        arena directly; ``None`` for an empty row *without* consuming
        RNG, matching ``Graph.random_neighbor``.

        Raises:
            KeyError: If ``node`` has no live row.
        """
        idx = self._interner.index(node)
        if idx is None or self._deg[idx] == _NO_ROW:
            raise KeyError(node)
        deg = int(self._deg[idx])
        if not deg:
            return None
        j = rng.randrange(deg)
        return self._interner.node(int(self._flat[self._start[idx] + j]))

    # ------------------------------------------------------------------
    # batched reads
    # ------------------------------------------------------------------
    def row_mask(self, nodes: Sequence[Node]) -> np.ndarray:
        """Boolean live-row membership for a whole batch, one call."""
        index = self._interner.index
        idxs = np.fromiter(
            ((i if (i := index(n)) is not None else -1) for n in nodes),
            dtype=np.int64,
            count=len(nodes),
        )
        mask = idxs >= 0
        mask[mask] = self._deg[idxs[mask]] != _NO_ROW
        return mask
