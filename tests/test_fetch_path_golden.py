"""Golden values for the per-fetch path: routing, latency, retries.

Every value below is a literal: what the plain path gives, keying each
user by ``_canonical(encode_value(user))`` and drawing its latency from a
fresh ``random.Random(seed)``.  The fast path must reproduce them bit for
bit, in any process: CI also runs this file under two ``PYTHONHASHSEED``
values, so a shortcut that comes to depend on Python's salted ``hash``
fails here instead of drifting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.snapshot import _canonical, canonical_key, encode_value
from repro.errors import ProviderTimeoutError
from repro.fleet import DisruptionSchedule, ShardedProvider, ShardRouter
from repro.graph.adjacency import Graph
from repro.interface import FlakyProvider, LatencyModelProvider

IDS = [0, 1, -5, 2**70, "alice", 'é\x00"', (1, "a"), True]


def _id_graph():
    graph = Graph()
    graph.add_nodes(IDS)
    return graph


class TestCanonicalKey:
    def test_fixed_ids_match_the_json_path(self):
        for user in IDS:
            assert canonical_key(user) == _canonical(encode_value(user))

    def test_bool_and_int_keys_stay_apart(self):
        assert canonical_key(True) == '["b",true]'
        assert canonical_key(1) == '["i",1]'

    @settings(max_examples=500, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.integers(min_value=-(2**200), max_value=2**200)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(st.characters(exclude_categories=()))  # surrogates included
            | st.binary(max_size=8),
            lambda children: st.tuples(children, children)
            | st.lists(children, max_size=3).map(tuple)
            | st.frozensets(children, max_size=3),
            max_leaves=8,
        )
    )
    def test_every_codec_id_matches_the_json_path(self, user):
        assert canonical_key(user) == _canonical(encode_value(user))


class TestRouting:
    def test_weighted_ring_golden(self):
        router = ShardRouter(4, seed=7, weights=(4, 1, 1, 1))
        assert [router.shard_of(u) for u in IDS] == [1, 2, 0, 0, 0, 3, 3, 0]


class TestLatency:
    GOLDEN = {
        "uniform": [
            "0x1.935cdc363717bp-1",
            "0x1.95120f91ab6bbp-1",
            "0x1.7fe2202e16d95p-1",
            "0x1.fa1e9a7673ea0p-3",
            "0x1.9ffc3807c97aep-2",
            "0x1.1319bf64a0c2ap-2",
            "0x1.390eafdc3fa50p-5",
            "0x1.84a790d7ebe84p-2",
        ],
        "heavy_tailed": [
            "0x1.67ced45f7cfe2p+0",
            "0x1.6ba0ff62fed1bp+0",
            "0x1.425809d145bbfp+0",
            "0x1.355539c73b8b1p-1",
            "0x1.6a61336b44622p-1",
            "0x1.3b5f71a53bdefp-1",
            "0x1.06bcaea1d465cp-1",
            "0x1.5fe950c856551p-1",
        ],
        "constant": ["0x1.0000000000000p-1"] * len(IDS),
    }

    def test_per_user_latency_golden(self):
        graph = _id_graph()
        for distribution, golden in self.GOLDEN.items():
            # A fresh provider per id: ``True == 1`` would share a memo entry.
            drawn = [
                LatencyModelProvider(graph, distribution, scale=0.5, seed=11).latency_of(u).hex()
                for u in IDS
            ]
            assert drawn == golden, distribution

    def test_one_provider_redraws_each_user_identically(self):
        graph = _id_graph()
        shared = LatencyModelProvider(graph, "heavy_tailed", scale=0.5, seed=11)
        drawn = [shared.latency_of(u).hex() for u in IDS[:-1]]
        assert drawn == self.GOLDEN["heavy_tailed"][:-1]


class TestRetries:
    # Per fetch: (latency, attempts, wasted latency), or the abandoned
    # fetch's wasted latency; three rounds over IDS[:7].
    FLEET_ROWS = [
        ("0x1.3600000000000p+5", 2, "0x1.8000000000000p+0"),
        ("abandoned", "0x1.8000000000000p+1"),
        ("abandoned", "0x1.8000000000000p+1"),
        ("0x1.2400000000000p+5", 2, "0x1.8000000000000p+0"),
        ("0x1.2000000000000p+1", 1, "0x0.0p+0"),
        ("abandoned", "0x1.8000000000000p+1"),
        ("0x1.2000000000000p+1", 2, "0x1.8000000000000p+0"),
        ("0x1.8000000000000p+0", 1, "0x0.0p+0"),
        ("0x1.8000000000000p+0", 1, "0x0.0p+0"),
        ("0x1.8000000000000p-1", 1, "0x0.0p+0"),
        ("abandoned", "0x1.8000000000000p+1"),
        ("0x1.2000000000000p+1", 1, "0x0.0p+0"),
        ("0x1.0000000000000p+1", 1, "0x0.0p+0"),
        ("0x1.8000000000000p-1", 1, "0x0.0p+0"),
        ("0x1.1200000000000p+5", 1, "0x0.0p+0"),
        ("0x1.8000000000000p+1", 2, "0x1.8000000000000p+0"),
        ("abandoned", "0x1.8000000000000p+1"),
        ("0x1.0000000000000p+5", 1, "0x0.0p+0"),
        ("0x1.2000000000000p+1", 1, "0x0.0p+0"),
        ("0x1.a000000000000p+2", 2, "0x1.8000000000000p+0"),
        ("abandoned", "0x1.8000000000000p+1"),
    ]

    def test_flaky_stack_attempts_golden(self):
        stack = FlakyProvider(
            LatencyModelProvider(_id_graph(), "uniform", scale=0.5, seed=11),
            failure_rate=0.5,
            seed=4,
            max_attempts=3,
            timeout_latency=2.0,
        )
        attempts = []
        for user in IDS[:7] * 2:
            try:
                attempts.append(stack.fetch(user).attempts)
            except ProviderTimeoutError:
                attempts.append(None)
        assert attempts == [None, None, 1, 1, 1, 2, None, 2, 1, 1, 1, 3, 1, 1]
        stats = stack.retry_stats
        assert (stats.fetches, stats.attempts, stats.timeouts, stats.abandoned) == (14, 24, 13, 3)

    def test_fleet_fetch_golden(self):
        """Latency model, retries, a disruption schedule and the RTT grid."""
        graph = Graph()
        for u, v in zip(IDS[:6], IDS[1:7]):
            graph.add_edge(u, v)
        graph.add_edge(0, (1, "a"))
        graph.add_edge("alice", 0)
        stacks = [
            FlakyProvider(
                LatencyModelProvider(graph, "heavy_tailed", scale=0.5, seed=11 + shard),
                failure_rate=0.4,
                seed=3 + shard,
                max_attempts=2,
                timeout_latency=1.5,
            )
            for shard in range(2)
        ]
        schedule = DisruptionSchedule(seed=9, window=2, degraded_rate=0.4, outage_rate=0.2)
        fleet = ShardedProvider(
            stacks, ShardRouter(2, seed=5), disruptions=[schedule, None], latency_quantum=0.25
        )
        rows = []
        for _ in range(3):
            for user in IDS[:7]:
                try:
                    got = fleet.fetch(user)
                except ProviderTimeoutError as exc:
                    rows.append(("abandoned", exc.wasted_latency.hex()))
                    continue
                assert got.user == user
                assert got.neighbor_seq == graph.neighbors_seq(user)
                rows.append((got.latency.hex(), got.attempts, got.wasted_latency.hex()))
        assert [fleet.shard_of(u) for u in IDS[:7]] == [0, 1, 1, 0, 0, 0, 1]
        assert rows == self.FLEET_ROWS
        books = [(s.queries, s.latency_spent.hex(), s.retries, s.disrupted) for s in fleet.stats]
        assert books == [(12, "0x1.3c80000000000p+7", 3, 9), (9, "0x1.0800000000000p+3", 2, 0)]

