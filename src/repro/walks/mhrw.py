"""Metropolis–Hastings random walk with a uniform target distribution.

The standard OSN-sampling MHRW (Gjoka et al.): from ``u``, propose a
uniform neighbor ``v`` and accept with probability ``min(1, k_u / k_v)``;
otherwise stay.  The stationary distribution is uniform, so samples need no
re-weighting — but evaluating the acceptance ratio requires querying the
*proposal*, so rejected proposals still cost queries, which is exactly why
the paper finds MHRW 1.5–8× slower than SRW in query cost.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.walks.base import RandomWalkSampler

Node = Hashable


class MetropolisHastingsWalk(RandomWalkSampler):
    """Uniform-target MH walk sampler."""

    def step(self) -> Node:
        """Propose a uniform accessible neighbor; accept ``min(1, k_u/k_v)``.

        A private proposal counts as a rejection (the walk holds), which
        preserves the uniform stationary distribution on the accessible
        subgraph.

        On private-free networks with the default degree trace the step
        runs on the fast cached-step lane — same draws (one ``randrange``
        then one ``random``), same acceptance arithmetic on the same
        degrees, same query log and billing as the full path.
        """
        if self._uses_default_trace and not self._api.may_have_private:
            seq = self._current_neighbor_seq()
            if not seq:
                self._stay_fast(0)
                return self._current
            deg_u = len(seq)
            proposal = seq[self._rng.randrange(deg_u)]
            prop_seq = self._api.fetch_seq(proposal)
            deg_v = len(prop_seq)
            if self._rng.random() < min(1.0, deg_u / deg_v):
                self._advance_fast(proposal, deg_v, seq=prop_seq)
            else:
                self._stay_fast(deg_u)
            return self._current
        resp = self._query_current()
        drawn = self._draw_accessible(resp.neighbor_seq)
        if drawn is None:
            self._stay()
            return self.current
        proposal, prop_resp = drawn
        accept = min(1.0, resp.degree / prop_resp.degree)
        if self._rng.random() < accept:
            self._advance(proposal, prop_resp)
        else:
            self._stay()
        return self.current

    def predict_next_fetch(self, max_steps: int = 64) -> Optional[Node]:
        """Replay proposal draws *and* acceptance tests to the next fetch.

        MHRW queries every proposal before the accept coin lands, so the
        next fetch is simply the first *uncached* proposal the replayed
        ``randrange`` produces.  Walking past a cached proposal requires
        resolving the accept branch, which is exactly one ``random()``
        against ``min(1, k_u / k_v)`` — both degrees readable from the
        cache — so the replay continues through accepted moves and
        rejected holds alike, bit-for-bit with the live step.

        Returns ``None`` on networks with private users (the redraw loop
        has data-dependent draw counts), at dead ends, or when everything
        within ``max_steps`` proposals is already cached.
        """
        if self._api.may_have_private:
            return None
        cache = self._api.cache
        rng = self._replay_rng_clone()
        cur = self._current
        cur_seq = self._replay_seq_of(cache, cur)
        for _ in range(max_steps):
            if not cur_seq:
                return None
            deg_u = len(cur_seq)
            proposal = cur_seq[rng.randrange(deg_u)]
            prop_seq = cache.peek_seq(proposal)
            if prop_seq is None:
                return proposal
            deg_v = len(prop_seq)
            if not deg_v:  # degree-0 proposal: the live accept would fault
                return None
            if rng.random() < min(1.0, deg_u / deg_v):
                cur, cur_seq = proposal, prop_seq
            # rejected proposals hold in place: same node, same sequence
        return None

    def weight(self, node: Node) -> float:
        """1.0 — the MH stationary distribution is already uniform."""
        return 1.0
