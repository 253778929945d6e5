"""Base machinery shared by all walk-based samplers.

A sampler advances node-by-node through the restrictive interface,
maintains the attribute trace the convergence monitor watches (degree by
default), and collects weighted samples once converged.  Each collected
:class:`WalkSample` records the billed query cost at collection time, so
experiment drivers can compute estimate-vs-cost curves from a single run
(the paper's Figures 7 and 11).
"""

from __future__ import annotations

import abc
import dataclasses
import random
from typing import Callable, Hashable, List, Optional, Sequence

from repro.convergence.monitors import ConvergenceMonitor
from repro.datastore.snapshot import register_codec
from repro.errors import DeadEndError, PrivateUserError
from repro.interface.api import QueryResponse, RestrictedSocialAPI
from repro.utils.rng import RngLike, ensure_rng

Node = Hashable


@dataclasses.dataclass(frozen=True)
class WalkSample:
    """One collected sample.

    Attributes:
        node: Sampled user id.
        weight: Importance weight ∝ target(π) / walk-stationary(τ) at the
            node; multiplying by it re-targets estimates to the uniform
            distribution over users.
        query_cost: Billed queries spent up to (and including) collecting
            this sample.
        step: Walk step index at collection.
    """

    node: Node
    weight: float
    query_cost: int
    step: int


# Snapshot codec so collected samples can live inside checkpointed state
# (the event-driven scheduler persists its partially filled merged list).
register_codec(
    "x:walk-sample",
    WalkSample,
    lambda s: (s.node, s.weight, s.query_cost, s.step),
    lambda fields: WalkSample(*fields),
)


@dataclasses.dataclass
class SamplingRun:
    """Everything one sampling run produced.

    Attributes:
        samples: Collected samples, in collection order.
        burn_in_steps: Steps spent before the monitor declared convergence.
        total_steps: All walk steps taken.
        query_cost: Final billed query count.
        converged: Whether the monitor fired (``False`` if the step budget
            ran out first).
    """

    samples: List[WalkSample]
    burn_in_steps: int
    total_steps: int
    query_cost: int
    converged: bool

    def nodes(self) -> List[Node]:
        """Sampled node ids, in order."""
        return [s.node for s in self.samples]


class RandomWalkSampler(abc.ABC):
    """Abstract walk-based sampler over a restrictive interface.

    Subclasses implement one :meth:`step` (and the stationary-correcting
    :meth:`weight`); burn-in, convergence monitoring, thinning, and sample
    collection are shared here.

    Args:
        api: The restrictive interface to sample through.
        start: Start node.  The interface exposes no node list, so callers
            must supply one (the paper starts "from an arbitrary user").
        seed: Randomness.
        trace_attribute: Per-node value watched by convergence monitors;
            defaults to the node's (original-graph) degree, the attribute
            the paper uses because it exists in every network.
    """

    def __init__(
        self,
        api: RestrictedSocialAPI,
        start: Node,
        seed: RngLike = None,
        trace_attribute: Optional[Callable[[QueryResponse], float]] = None,
    ) -> None:
        self._api = api
        self._rng = ensure_rng(seed)
        # A stream passed in by the caller may be drawn from elsewhere, so
        # only an owned stream lets a prediction continue from its last
        # replay (see _replay_resume).
        self._owns_rng = not isinstance(seed, random.Random)
        self._uses_default_trace = trace_attribute is None
        self._trace_fn = (
            trace_attribute if trace_attribute is not None else (lambda resp: float(resp.degree))
        )
        self._current = start
        self._steps = 0
        self._trace: List[float] = []
        self._checkpoint_fn: Optional[Callable[["RandomWalkSampler"], None]] = None
        self._checkpoint_every = 0
        resp = self._api.query(start)  # materialize the start node
        self._current_resp: Optional[QueryResponse] = resp
        # Seq memo for the fast cached-step lane: the current node's stable
        # neighbor tuple, or None when it must be re-read through the
        # interface (after load_state, or a commit that didn't carry it).
        self._current_seq: Optional[tuple] = resp.neighbor_seq
        self._record_trace(resp)

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def step(self) -> Node:
        """Advance one step; returns the new current node.

        Implementations must go through ``self._api`` for all topology
        knowledge and call ``self._advance(node, response)`` to commit the
        move.
        """

    @abc.abstractmethod
    def weight(self, node: Node) -> float:
        """Importance weight for ``node`` targeting the uniform distribution.

        Must only use knowledge already paid for (the node was just
        visited).
        """

    # ------------------------------------------------------------------
    # shared walk state
    # ------------------------------------------------------------------
    @property
    def current(self) -> Node:
        """The node the walk is at."""
        return self._current

    @property
    def steps(self) -> int:
        """Number of committed steps."""
        return self._steps

    @property
    def trace(self) -> Sequence[float]:
        """Attribute trace (one entry per visited node incl. the start)."""
        return tuple(self._trace)

    @property
    def api(self) -> RestrictedSocialAPI:
        """The interface this sampler spends queries through."""
        return self._api

    @property
    def query_cost(self) -> int:
        """Billed queries so far."""
        return self._api.query_cost

    @property
    def rng(self):
        """The sampler's random stream (shared with subclasses)."""
        return self._rng

    def _record_trace(self, response: QueryResponse) -> None:
        self._trace.append(self._trace_fn(response))

    def _advance(self, node: Node, response: QueryResponse) -> None:
        """Commit a move to ``node`` whose query returned ``response``."""
        self._current = node
        self._current_resp = response
        self._current_seq = response.neighbor_seq
        self._steps += 1
        self._record_trace(response)
        self._after_commit()

    def _advance_fast(self, node: Node, degree: int, seq: Optional[tuple] = None) -> None:
        """Commit a move using already-paid-for degree knowledge.

        Skips rebuilding a cached :class:`QueryResponse` when only the
        default degree trace is recorded — the walk engines' hot path.
        Callers must only use it when ``self._uses_default_trace`` holds.

        Args:
            node: The node moved to.
            degree: Its (already paid for) degree, recorded in the trace.
            seq: Its stable neighbor tuple, when the caller already holds
                it (the fast cached-step lane); keeps the seq memo warm so
                the next step is draw-only.  Omitted → memo invalidated.
        """
        self._current = node
        self._current_resp = None
        self._current_seq = seq
        self._steps += 1
        self._trace.append(float(degree))
        self._after_commit()

    def _stay(self) -> None:
        """Commit a self-transition (MH rejection / lazy hold)."""
        resp = self._query_current()  # memoized or cached — free
        self._steps += 1
        self._record_trace(resp)
        self._after_commit()

    def _stay_fast(self, degree: int) -> None:
        """Commit a self-transition with already-known degree.

        The fast-lane twin of :meth:`_stay`: no response lookup, just the
        trace append and commit bookkeeping.  Callers must only use it
        when ``self._uses_default_trace`` holds and ``degree`` is the
        current node's degree.
        """
        self._steps += 1
        self._trace.append(float(degree))
        self._after_commit()

    # ------------------------------------------------------------------
    # checkpoint hook
    # ------------------------------------------------------------------
    def set_checkpoint(self, fn: Callable[["RandomWalkSampler"], None], every: int) -> None:
        """Invoke ``fn(self)`` after every ``every``-th committed step.

        The hook fires at *commit points* — after a move, fast move, or
        self-transition lands — which in every walk engine is the last
        RNG-consuming action of a step.  Capturing state there (e.g.
        ``SamplingSession.save``) therefore snapshots a resumable
        boundary: the next step replays identically from the stored RNG
        state.  Firing is driver-agnostic: ``run``, ``run_to_coverage``,
        parallel lock-stepping, and hand-rolled ``step()`` loops all hit
        it.

        Args:
            fn: Callback receiving this sampler.
            every: Positive step period.

        Raises:
            ValueError: If ``every`` is not positive.
        """
        if every < 1:
            raise ValueError("checkpoint period must be positive")
        self._checkpoint_fn = fn
        self._checkpoint_every = every

    def clear_checkpoint(self) -> None:
        """Remove any installed checkpoint hook."""
        self._checkpoint_fn = None
        self._checkpoint_every = 0

    def _after_commit(self) -> None:
        if self._checkpoint_fn is not None and self._steps % self._checkpoint_every == 0:
            self._checkpoint_fn(self)

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable mutable walk state.

        Position, step count, attribute trace, and the full Mersenne
        Twister state — everything needed for a fresh process to continue
        with the *same draws* (and, with the interface state restored
        alongside, the same §II-B billing).  Constructor configuration
        (trace function, engine options) is not captured: the restoring
        process rebuilds the sampler with the same arguments and loads
        this state on top.  Subclasses with extra per-step state override
        and extend this dict.
        """
        return {
            "current": self._current,
            "steps": self._steps,
            "trace": tuple(self._trace),
            "rng": self._rng.getstate(),
        }

    def load_state(self, state: dict) -> None:
        """Restore position/steps/trace/RNG captured by :meth:`state_dict`.

        The response memo is invalidated; the next ``step()`` re-reads the
        current node from the (restored) cache, which is free.

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._current = state["current"]
        self._steps = int(state["steps"])
        self._trace = [float(x) for x in state["trace"]]
        self._rng.setstate(state["rng"])
        self._current_resp = None
        self._current_seq = None
        self._replay_path = None

    # ------------------------------------------------------------------
    # planning support
    # ------------------------------------------------------------------

    #: Scratch RNG reused across predictions (lazily created): seeding a
    #: fresh ``random.Random`` from the OS per call costs more than the
    #: replay itself.
    _replay_rng: Optional[random.Random] = None

    #: The path the last replay walked, for engines that continue it
    #: (:meth:`_replay_resume`): ``_replay_path[i]`` is where the walk
    #: stands after ``i`` one-draw steps from live step ``_replay_base``,
    #: ``_replay_seqs[i]`` the neighborhood step ``i`` drew from, and
    #: ``_replay_rng`` sits just past the last recorded draw.  ``None``
    #: until the first prediction and after :meth:`load_state`.
    _replay_path: Optional[List[Node]] = None
    _replay_seqs: List[tuple]
    _replay_base = 0

    def _replay_rng_clone(self) -> random.Random:
        """A scratch RNG carrying a copy of the live Mersenne state.

        Predictors draw from the clone exactly as the live step would, so
        the replayed path *is* the future path — without consuming any
        live state.
        """
        rng = self._replay_rng
        if rng is None:
            rng = self._replay_rng = random.Random()
        rng.setstate(self._rng.getstate())
        return rng

    def _replay_reset(self) -> random.Random:
        """Start a fresh recorded replay at the live position."""
        self._replay_path = [self._current]
        self._replay_seqs = []
        self._replay_base = self._steps
        return self._replay_rng_clone()

    def _replay_resume(self) -> random.Random:
        """The replay RNG, with the recorded path starting at the live step.

        For engines whose every step spends exactly one draw from a
        non-empty neighborhood and moves to the drawn node.  While the
        live walk has only taken steps the last replay recorded, its RNG
        has made exactly the draws the replay made, so the replay RNG and
        the rest of the path are still its future: the prefix already
        walked is dropped and the replay continues from there.  Anything
        else — no replay yet, a live position off the recorded path
        (a dead-end hold, a step past the recorded end),
        :meth:`load_state`, or an RNG stream the caller shares — starts
        over from a fresh clone of the live state.
        """
        path = self._replay_path
        done = self._steps - self._replay_base
        if (
            path is None
            or not self._owns_rng
            or not 0 <= done < len(path)
            or path[done] != self._current
        ):
            return self._replay_reset()
        if done:
            del path[:done]
            del self._replay_seqs[:done]
            self._replay_base = self._steps
        return self._replay_rng

    def _replay_seq_of(self, cache, node: Node) -> Optional[tuple]:
        """``node``'s stable neighbor tuple as a replay would see it.

        Reads the shared cache without touching it (no LRU refresh, no
        hit/miss count), falling back to the step memos when the walk's
        own current node has been evicted from a bounded cache — the
        memo is what the real step will draw from.  Returns ``None`` for
        genuinely unknown neighborhoods.
        """
        seq = cache.peek_seq(node)
        if seq is None and node == self._current:
            if self._current_seq is not None:
                return self._current_seq
            if self._current_resp is not None:
                return self._current_resp.neighbor_seq
        return seq

    def predict_next_fetch(self, max_steps: int = 64):
        """The node this walk will *fetch* next, or ``None`` if unknown.

        Engines whose per-step randomness can be replayed against cached
        neighborhoods override this to clone their RNG
        (:meth:`_replay_rng_clone`) and walk forward through known
        territory until the first uncached node — the fetch a
        history-aware planner can issue early, into an open burst's
        spare slot.  All four walk engines now implement the protocol:
        SRW replays its uniform draw, MHRW replays the
        proposal-then-accept pair over cached degrees, NBRW threads the
        simulated predecessor through the exclusion filter, and MTO
        replays the overlay draw / removal / replacement branches against
        G* (returning ``None`` at the first branch that would mutate the
        overlay or depends on an unknown neighborhood).  The prediction
        must consume **no** live RNG state, issue **no** queries, and
        leave the cache untouched (pure reads only, so a bounded cache
        evicts exactly as it would have).  The default answers ``None``:
        unpredictable engines simply get no prefetch.

        Args:
            max_steps: Simulation horizon — how far through cached
                territory to look before giving up.
        """
        return None

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def run(
        self,
        num_samples: int,
        monitor: Optional[ConvergenceMonitor] = None,
        thinning: int = 1,
        check_every: int = 25,
        max_steps: int = 1_000_000,
    ) -> SamplingRun:
        """Burn in until ``monitor`` fires, then collect weighted samples.

        Args:
            num_samples: Samples to collect after convergence.
            monitor: Convergence monitor; ``None`` skips burn-in entirely
                (samples start immediately — useful for cost-curve
                experiments where the estimate itself reveals convergence).
            thinning: Keep every ``thinning``-th post-burn-in node.
            check_every: Base interval between monitor evaluations; the
                interval grows geometrically with the trace (a check scans
                the whole trace, so fixed-interval checking would cost
                O(steps²) on slow-mixing chains).
            max_steps: Hard step budget; the run returns unconverged
                rather than looping forever.

        Returns:
            The :class:`SamplingRun`.

        Raises:
            ValueError: On non-positive ``num_samples``/``thinning``.
            WalkError: If the walk dead-ends.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if thinning <= 0:
            raise ValueError("thinning must be positive")
        converged = monitor is None
        burn_in_steps = 0
        if monitor is not None:
            monitor.reset()
            next_check = self._steps
            while self._steps < max_steps:
                if self._steps >= next_check:
                    if monitor.converged(self._trace):
                        converged = True
                        break
                    # Geometric back-off keeps total check cost O(n log n).
                    next_check = self._steps + max(check_every, self._steps // 5)
                self.step()
            burn_in_steps = self._steps

        samples: List[WalkSample] = []
        since_last = thinning  # collect the first post-burn-in node
        while len(samples) < num_samples and self._steps < max_steps + num_samples * thinning:
            if since_last >= thinning:
                samples.append(
                    WalkSample(
                        node=self._current,
                        weight=self.weight(self._current),
                        query_cost=self._api.query_cost,
                        step=self._steps,
                    )
                )
                since_last = 0
                if len(samples) >= num_samples:
                    break
            self.step()
            since_last += 1
        return SamplingRun(
            samples=samples,
            burn_in_steps=burn_in_steps,
            total_steps=self._steps,
            query_cost=self._api.query_cost,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _pick_uniform(self, items: Sequence[Node]) -> Node:
        if not items:
            raise DeadEndError(self._current)
        return items[self._rng.randrange(len(items))]

    def _query(self, node: Node) -> QueryResponse:
        return self._api.query(node)

    def _query_current(self) -> QueryResponse:
        """The current node's response, memoized across the step boundary.

        Every step starts by re-reading the node the walk already stands
        on; the memo turns that from a (free but not costless) cache hit
        into a field read.  The memo is validated against ``current`` so
        any committed move refreshes it.
        """
        resp = self._current_resp
        if resp is None or resp.user != self._current:
            resp = self._api.query(self._current)
            self._current_resp = resp
        return resp

    def _current_neighbor_seq(self) -> tuple:
        """The current node's stable neighbor tuple, memoized.

        The fast cached-step lane's opening read: a field access when the
        memo is warm (every committed fast step re-warms it), otherwise
        one re-read through the response memo — exactly what the slow
        path's ``_query_current`` would have cost, so query-log parity
        between the lanes is preserved.
        """
        seq = self._current_seq
        if seq is None:
            seq = self._query_current().neighbor_seq
            self._current_seq = seq
        return seq

    def _draw_accessible(
        self, neighbors: Sequence[Node]
    ) -> Optional[tuple]:
        """Uniformly draw an accessible neighbor and its query response.

        On networks without private users (``api.may_have_private`` is
        false) this is a single O(1) index into the stable neighbor
        sequence — the walk engines' hot path.  Otherwise private users
        (our failure-injection surface — real crawls hit them constantly)
        are redrawn around; the first refusal per user is billed by the
        interface, later ones are cached.

        Returns:
            ``(node, response)`` or ``None`` when every neighbor is
            private.
        """
        if not neighbors:
            return None
        if not self._api.may_have_private:
            candidate = neighbors[self._rng.randrange(len(neighbors))]
            return candidate, self._api.query(candidate)
        pool = [v for v in neighbors if not self._api.is_known_private(v)]
        while pool:
            idx = self._rng.randrange(len(pool))
            candidate = pool.pop(idx)
            try:
                return candidate, self._api.query(candidate)
            except PrivateUserError:
                continue
        return None
