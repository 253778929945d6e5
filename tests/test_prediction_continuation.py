"""SRW prediction continuation and the pure-read prediction contract.

``SimpleRandomWalk.predict_next_fetch`` keeps its replay between calls:
while the live walk follows the recorded path it continues drawing from
where the last call stopped instead of re-cloning the live Mersenne
state.  The reference below is the full-clone replay the continuation
replaced — one fresh clone per call, walked from the live position.
Hypothesis drives a walk through steps, prefetches, degree reads, cache
evictions and expiries, failed steps and ``load_state`` rewinds, and at
every call the continuation must answer exactly what the reference
answers, without moving the live RNG.

The second family checks that a prediction leaves the cache as it found
it, for every engine: no LRU refresh (a bounded store must evict the
same key next) and no hit/miss counts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mto import MTOSampler
from repro.datastore.kv import KeyValueStore
from repro.errors import ProviderTimeoutError
from repro.graph import Graph
from repro.interface.api import RestrictedSocialAPI
from repro.interface.cache import NeighborhoodCache
from repro.interface.providers import InMemoryGraphProvider
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.nbrw import NonBacktrackingWalk
from repro.walks.srw import SimpleRandomWalk


def full_clone_replay(walk, max_steps):
    """The reference SRW predictor: a fresh clone of the live RNG per call."""
    if walk.api.may_have_private:
        return None
    cache = walk.api.cache
    rng = random.Random()
    rng.setstate(walk.rng.getstate())
    cur = walk.current
    for _ in range(max_steps):
        seq = walk._replay_seq_of(cache, cur)
        if not seq:
            return None
        cur = seq[rng.randrange(len(seq))]
        if not cache.has(cur):
            return cur
    return None


class _FailOnDemand(InMemoryGraphProvider):
    """Times out the next fetch after ``fail_next`` is set, once."""

    fail_next = False

    def fetch(self, user):
        if self.fail_next:
            self.fail_next = False
            raise ProviderTimeoutError(user, attempts=1)
        return super().fetch(user)


@st.composite
def graphs(draw, min_nodes=4, max_nodes=14):
    """A connected random graph plus one isolated node (a dead end)."""
    n = draw(st.integers(min_nodes, max_nodes))
    g = Graph()
    g.add_nodes(range(n + 1))
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    g.add_edges(draw(st.lists(pairs, max_size=2 * n)))
    return g


OPS = st.one_of(
    st.tuples(st.just("predict"), st.integers(0, 64)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("prefetch"), st.integers(0, 10_000)),
    st.tuples(st.just("prefetch_predicted"), st.integers(1, 64)),
    st.tuples(st.just("degree"), st.integers(0, 10_000)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0])),
    st.tuples(st.just("fail"), st.just(0)),
    st.tuples(st.just("save"), st.just(0)),
    st.tuples(st.just("load"), st.just(0)),
)


def _cache_for(kind, capacity):
    if kind == "lru":
        return NeighborhoodCache(KeyValueStore(capacity=capacity))
    if kind == "ttl":
        return NeighborhoodCache(KeyValueStore(), ttl=4.0)
    return NeighborhoodCache()


class TestContinuationMatchesFullReplay:
    @given(
        graph=graphs(),
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 10_000),
        cache_kind=st.sampled_from(["unbounded", "lru", "ttl"]),
        capacity=st.integers(3, 30),
        ops=st.lists(OPS, min_size=1, max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_call_matches_a_fresh_clone(self, graph, seed, start, cache_kind, capacity, ops):
        nodes = sorted(graph.nodes())
        provider = _FailOnDemand(graph)
        cache = _cache_for(cache_kind, capacity)
        api = RestrictedSocialAPI(provider, cache=cache)
        walk = SimpleRandomWalk(api, start=nodes[start % len(nodes)], seed=seed)
        saved = walk.state_dict()
        for kind, arg in ops:
            if kind == "predict":
                state = walk.rng.getstate()
                expected = full_clone_replay(walk, arg)
                assert walk.predict_next_fetch(max_steps=arg) == expected
                assert walk.rng.getstate() == state
            elif kind == "step":
                for _ in range(arg):
                    walk.step()
            elif kind == "prefetch":
                api.query(nodes[arg % len(nodes)])
            elif kind == "prefetch_predicted":
                # What a planner does: issue the predicted fetch early.
                target = walk.predict_next_fetch(max_steps=arg)
                if target is not None:
                    api.query(target)
            elif kind == "degree":
                # A degree read refreshes only the neighbor-set entry, so a
                # bounded store can evict a node's sequence before its set.
                api.cached_degree(nodes[arg % len(nodes)])
            elif kind == "advance":
                cache._store.advance(arg)
            elif kind == "fail":
                # The next fetch times out: a step that hits it has spent
                # its draw without moving.
                provider.fail_next = True
                try:
                    walk.step()
                except ProviderTimeoutError:
                    pass
                provider.fail_next = False
            elif kind == "save":
                saved = walk.state_dict()
            else:
                walk.load_state(saved)
        state = walk.rng.getstate()
        assert walk.predict_next_fetch(max_steps=64) == full_clone_replay(walk, 64)
        assert walk.rng.getstate() == state

    def test_continues_without_recloning(self, monkeypatch):
        """Along the recorded path, a call never clones the live state."""
        g = Graph()
        g.add_edges((v, (v + 1) % 40) for v in range(40))
        g.add_edges((v, (v + 7) % 40) for v in range(40))
        api = RestrictedSocialAPI(g)
        walk = SimpleRandomWalk(api, start=0, seed=5)
        target = walk.predict_next_fetch()
        clones = []
        real_clone = SimpleRandomWalk._replay_rng_clone
        monkeypatch.setattr(
            SimpleRandomWalk,
            "_replay_rng_clone",
            lambda self: clones.append(1) or real_clone(self),
        )
        for _ in range(30):
            assert walk.predict_next_fetch() == full_clone_replay(walk, 64)
            if target is not None:
                api.query(target)
            walk.step()
            target = walk.predict_next_fetch()
        assert clones == []
        walk.load_state(walk.state_dict())
        assert walk.predict_next_fetch() == full_clone_replay(walk, 64)
        assert clones == [1]

    def test_sequence_evicted_ahead_of_the_walk(self):
        """A recorded neighborhood that left the cache ends the replay there.

        The store holds two users.  A degree read refreshes node 1's
        neighbor set, so the next insert evicts node 1's *sequence* while
        its set stays: node 1 still reads as cached, but a replay can no
        longer draw from it.
        """
        g = Graph()
        g.add_edge(0, 1)
        g.add_edges((1, v) for v in range(2, 10))
        store = KeyValueStore(capacity=6)
        api = RestrictedSocialAPI(g, cache=NeighborhoodCache(store))
        api.query(1)
        walk = SimpleRandomWalk(api, start=0, seed=0)
        assert walk.predict_next_fetch() == 7  # 0 -> 1 -> 7, 7 uncached
        api.cached_degree(1)
        store.set("probe", 0)
        assert api.cache.has(1) and api.cache.peek_seq(1) is None
        assert full_clone_replay(walk, 64) is None
        assert walk.predict_next_fetch() is None

    def test_shared_stream_is_recloned_every_call(self):
        """A caller-owned RNG may be drawn elsewhere between calls."""
        g = Graph()
        g.add_edges((v, (v + 1) % 12) for v in range(12))
        g.add_edges((v, (v + 5) % 12) for v in range(12))
        api = RestrictedSocialAPI(g)
        for v in range(0, 12, 2):
            api.query(v)
        shared = random.Random(3)
        walk = SimpleRandomWalk(api, start=0, seed=shared)
        for _ in range(20):
            assert walk.predict_next_fetch() == full_clone_replay(walk, 64)
            shared.random()  # a draw the walk did not make


ENGINES = {
    "srw": SimpleRandomWalk,
    "mhrw": MetropolisHastingsWalk,
    "nbrw": NonBacktrackingWalk,
    "mto": MTOSampler,
}


class TestPredictionLeavesCacheUntouched:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_capacity_three_store_evicts_the_same_key(self, engine):
        """A prediction must not change which key the next insert evicts.

        The store holds one user's three entries.  Reading the
        neighborhood's attributes and neighbor set makes its ``seq`` entry
        the least recently used; a prediction that refreshed it through
        ``get`` would make the next insert evict a different key.
        """
        g = Graph()
        g.add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        store = KeyValueStore(capacity=3)
        api = RestrictedSocialAPI(g, cache=NeighborhoodCache(store))
        walk = ENGINES[engine](api, start=0, seed=1)
        cache = api.cache
        cache.neighbors(walk.current)
        cache.attributes(walk.current)
        order = list(store._data)
        assert order[0] == ("seq", walk.current)
        hits, misses = store.hits, store.misses
        walk.predict_next_fetch()
        assert list(store._data) == order
        assert (store.hits, store.misses) == (hits, misses)
        store.set("probe", 0)
        assert list(store._data) == order[1:] + ["probe"]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unbounded_cache_books_no_hits(self, engine):
        g = Graph()
        g.add_edges((v, (v + 1) % 10) for v in range(10))
        g.add_edges((v, (v + 3) % 10) for v in range(10))
        api = RestrictedSocialAPI(g)
        for v in range(0, 10, 2):
            api.query(v)
        walk = ENGINES[engine](api, start=0, seed=2)
        store = api.cache._store
        before = (store.hits, store.misses, list(store._data), store.version)
        walk.predict_next_fetch()
        assert (store.hits, store.misses, list(store._data), store.version) == before
