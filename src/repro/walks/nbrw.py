"""Non-backtracking random walk (Lee, Xu & Eun — the paper's ref. [14]).

"Why you should not backtrack for unbiased graph sampling": from node
``v``, choose uniformly among the neighbors *excluding the one just came
from* (falling back to backtracking only at degree-1 nodes).  The chain on
directed edges is doubly stochastic, so the node-marginal stationary
distribution remains degree-proportional — SRW's ``1/k`` weights still
apply — while the diffusion is faster because immediate reversals are
eliminated.  The paper cites this line of work as motivation that walk
*dynamics* (not just topology) can be improved; MTO attacks the topology
instead, and the two compose.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.walks.base import RandomWalkSampler

Node = Hashable


class NonBacktrackingWalk(RandomWalkSampler):
    """SRW variant that never immediately reverses an edge.

    Same constructor as :class:`~repro.walks.srw.SimpleRandomWalk`.
    """

    _previous: Optional[Node] = None

    def step(self) -> Node:
        """Hop to a uniform accessible neighbor other than the predecessor.

        On private-free networks with the default degree trace the step
        runs on the fast cached-step lane — the same predecessor filter
        over the same stable sequence, the same single ``randrange``, the
        same query log and billing as the full path.
        """
        if self._uses_default_trace and not self._api.may_have_private:
            seq = self._current_neighbor_seq()
            neighbors: Sequence[Node] = seq
            if self._previous is not None and len(neighbors) > 1:
                neighbors = [v for v in neighbors if v != self._previous]
            if not neighbors:  # only possible when seq itself is empty
                self._stay_fast(0)
                return self._current
            nxt = neighbors[self._rng.randrange(len(neighbors))]
            nxt_seq = self._api.fetch_seq(nxt)
            self._previous = self._current
            self._advance_fast(nxt, len(nxt_seq), seq=nxt_seq)
            return nxt
        resp = self._query_current()
        neighbors: Sequence[Node] = resp.neighbor_seq
        if self._previous is not None and len(neighbors) > 1:
            neighbors = [v for v in neighbors if v != self._previous]
        drawn = self._draw_accessible(neighbors)
        if drawn is None:
            # Everything (except possibly the predecessor) is private:
            # allow the backtrack rather than dying.
            fallback = self._draw_accessible(resp.neighbor_seq)
            if fallback is None:
                self._stay()
                return self.current
            drawn = fallback
        nxt, nxt_resp = drawn
        self._previous = self.current
        self._advance(nxt, nxt_resp)
        return nxt

    def predict_next_fetch(self, max_steps: int = 64) -> Optional[Node]:
        """Replay the predecessor-exclusion draw to the next fetch.

        NBRW is SRW with the just-departed node filtered out of the draw
        (at degree > 1), so the replay threads a *simulated* predecessor
        alongside the cloned RNG: filter, ``randrange`` over what
        remains, advance, repeat — until the drawn node's neighborhood is
        not cached, which is the fetch the live walk will pay for.

        Returns ``None`` on networks with private users (the exclusion
        fallback re-draws with data-dependent counts), at dead ends, or
        when the whole horizon is cached.
        """
        if self._api.may_have_private:
            return None
        cache = self._api.cache
        rng = self._replay_rng_clone()
        cur = self._current
        prev = self._previous
        seq = self._replay_seq_of(cache, cur)
        for _ in range(max_steps):
            if not seq:
                return None
            neighbors: Sequence[Node] = seq
            if prev is not None and len(neighbors) > 1:
                neighbors = [v for v in neighbors if v != prev]
            nxt = neighbors[rng.randrange(len(neighbors))]
            nxt_seq = cache.peek_seq(nxt)
            if nxt_seq is None:
                return nxt
            prev, cur, seq = cur, nxt, nxt_seq
        return None

    def weight(self, node: Node) -> float:
        """``1/k_node`` — the node marginal stays degree-proportional."""
        degree = self._api.cached_degree(node)
        if degree is None:  # pragma: no cover - visited nodes are cached
            degree = self._query(node).degree
        return 1.0 / degree

    def state_dict(self) -> dict:
        """Base walk state plus the non-backtracking predecessor."""
        state = super().state_dict()
        state["previous"] = self._previous
        return state

    def load_state(self, state: dict) -> None:
        """Restore base walk state plus the predecessor."""
        super().load_state(state)
        self._previous = state["previous"]
