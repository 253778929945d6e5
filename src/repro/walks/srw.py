"""Simple random walk — the paper's baseline sampler (Definition 1).

From the current node ``v``, hop to a uniformly random neighbor.  The
stationary distribution is ``π(v) = k_v / 2|E|``, so uniform-target
importance weights are ``1 / k_v``.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.walks.base import RandomWalkSampler

Node = Hashable


class SimpleRandomWalk(RandomWalkSampler):
    """SRW sampler: one query per step, degree-proportional stationary.

    Example:
        >>> from repro.graph import Graph
        >>> from repro.interface import RestrictedSocialAPI
        >>> api = RestrictedSocialAPI(Graph([(0, 1), (1, 2), (2, 0)]))
        >>> walk = SimpleRandomWalk(api, start=0, seed=1)
        >>> walk.step() in (1, 2)
        True
    """

    def step(self) -> Node:
        """Hop to a uniform accessible neighbor of the current node.

        Private neighbors are redrawn around; when the entire
        neighborhood is private the walk holds in place (a
        self-transition) rather than dying.

        On private-free networks with the default degree trace the step
        runs on the fast cached-step lane: one ``randrange`` draw into
        the memoized neighbor tuple plus one :meth:`~repro.interface.api.
        RestrictedSocialAPI.fetch_seq` — same RNG consumption, same query
        log, same billing as the full path, bit for bit.
        """
        if self._uses_default_trace and not self._api.may_have_private:
            seq = self._current_neighbor_seq()
            if not seq:
                self._stay_fast(0)
                return self._current
            nxt = seq[self._rng.randrange(len(seq))]
            try:
                nxt_seq = self._api.fetch_seq(nxt)
            except BaseException:
                self._replay_path = None  # a draw was spent, no step taken
                raise
            self._advance_fast(nxt, len(nxt_seq), seq=nxt_seq)
            return nxt
        resp = self._query_current()
        try:
            drawn = self._draw_accessible(resp.neighbor_seq)
        except BaseException:
            self._replay_path = None  # a draw was spent, no step taken
            raise
        if drawn is None:
            self._stay()
            return self.current
        nxt, nxt_resp = drawn
        self._advance(nxt, nxt_resp)
        return nxt

    def predict_next_fetch(self, max_steps: int = 64) -> Optional[Node]:
        """Replay the walk's RNG through cached territory to its next fetch.

        SRW consumes exactly one ``randrange`` per step on networks
        without private users, so a clone of the Mersenne state walks the
        *actual* future path for free: follow the draws while every
        visited neighborhood is cached, and the first uncached node hit
        is precisely the neighborhood the walk will pay a provider round
        trip for.  The live RNG is untouched and no queries are issued.

        The replay is kept between calls (:meth:`_replay_resume`): while
        the live walk follows the recorded path, a call re-checks the
        recorded steps still ahead of it against the cache — each
        neighborhood it drew from must still read the same, each node it
        reached must still be cached — and then draws on from where the
        last call stopped.  A neighborhood that no longer reads the same
        (evicted or expired) starts the replay over from a fresh clone,
        so every answer is the one a fresh full replay would give.

        Returns ``None`` when the future path cannot be simulated: the
        network has private users (the redraw loop consumes a
        data-dependent number of draws), the walk is parked on a dead end
        or an evicted neighborhood, or everything within ``max_steps``
        is already known (nothing to prefetch).
        """
        if self._api.may_have_private:
            return None
        cache = self._api.cache
        seq_of = self._replay_seq_of
        has = cache.has
        rng = self._replay_resume()
        path, seqs, step = self._replay_path, self._replay_seqs, 0
        while step < len(seqs):  # the recorded steps still ahead
            if step == max_steps:
                return None
            seq = seq_of(cache, path[step])
            if seq is not seqs[step] and seq != seqs[step]:
                rng = self._replay_reset()
                path, seqs, step = self._replay_path, self._replay_seqs, 0
                break
            step += 1
            if not has(path[step]):
                return path[step]
        cur = path[-1]
        while step < max_steps:
            seq = seq_of(cache, cur)
            if not seq:
                return None
            cur = seq[rng.randrange(len(seq))]
            path.append(cur)
            seqs.append(seq)
            step += 1
            if not has(cur):
                return cur
        return None

    def weight(self, node: Node) -> float:
        """``1 / k_node`` — corrects the degree-proportional stationary.

        The degree is read from the local cache (the node was just
        visited), so the weight is free.
        """
        degree = self._api.cached_degree(node)
        if degree is None:  # pragma: no cover - visited nodes are cached
            degree = self._query(node).degree
        return 1.0 / degree
