"""Unit tests for the key-value store (Redis stand-in)."""

import pytest

from repro.datastore import KeyValueStore
from repro.errors import DataStoreError


class TestBasicOps:
    def test_set_get(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        assert kv.get("a") == 1

    def test_get_default(self):
        kv = KeyValueStore()
        assert kv.get("missing") is None
        assert kv.get("missing", 42) == 42

    def test_overwrite(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        kv.set("a", 2)
        assert kv.get("a") == 2
        assert len(kv) == 1

    def test_delete(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        assert kv.delete("a") is True
        assert kv.delete("a") is False
        assert kv.get("a") is None

    def test_contains(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        assert "a" in kv
        assert "b" not in kv

    def test_keys_and_len(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        kv.set("b", 2)
        assert sorted(kv.keys()) == ["a", "b"]
        assert len(kv) == 2

    def test_clear(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        kv.get("a")
        kv.clear()
        assert len(kv) == 0
        assert kv.hits == 0

    def test_tuple_keys(self):
        kv = KeyValueStore()
        kv.set(("nbrs", 7), frozenset({1, 2}))
        assert kv.get(("nbrs", 7)) == frozenset({1, 2})


class TestTtl:
    def test_expiry_on_logical_clock(self):
        kv = KeyValueStore()
        kv.set("a", 1, ttl=10.0)
        assert kv.get("a") == 1
        kv.advance(10.0)
        assert kv.get("a") is None

    def test_unexpired_before_deadline(self):
        kv = KeyValueStore()
        kv.set("a", 1, ttl=10.0)
        kv.advance(9.999)
        assert kv.get("a") == 1

    def test_reset_ttl_on_overwrite(self):
        kv = KeyValueStore()
        kv.set("a", 1, ttl=5.0)
        kv.advance(4.0)
        kv.set("a", 2)  # no ttl now
        kv.advance(100.0)
        assert kv.get("a") == 2

    def test_invalid_ttl(self):
        kv = KeyValueStore()
        with pytest.raises(DataStoreError):
            kv.set("a", 1, ttl=0)

    def test_negative_advance(self):
        kv = KeyValueStore()
        with pytest.raises(DataStoreError):
            kv.advance(-1)

    def test_injected_clock(self):
        t = [0.0]
        kv = KeyValueStore(clock=lambda: t[0])
        kv.set("a", 1, ttl=5.0)
        t[0] = 5.0
        assert "a" not in kv


class TestLru:
    def test_eviction_order(self):
        kv = KeyValueStore(capacity=2)
        kv.set("a", 1)
        kv.set("b", 2)
        kv.set("c", 3)  # evicts a
        assert kv.get("a") is None
        assert kv.get("b") == 2
        assert kv.evictions == 1

    def test_get_refreshes_recency(self):
        kv = KeyValueStore(capacity=2)
        kv.set("a", 1)
        kv.set("b", 2)
        kv.get("a")  # a is now most recent
        kv.set("c", 3)  # evicts b
        assert kv.get("a") == 1
        assert kv.get("b") is None

    def test_invalid_capacity(self):
        with pytest.raises(DataStoreError):
            KeyValueStore(capacity=0)


class TestCounters:
    def test_hits_and_misses(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        kv.get("a")
        kv.get("a")
        kv.get("zzz")
        assert kv.hits == 2
        assert kv.misses == 1


class TestTtlLruInteraction:
    def test_expired_keys_purged_before_live_evictions(self):
        # An expired entry still occupying a slot must not push a live
        # LRU entry out when capacity is hit.
        kv = KeyValueStore(capacity=2)
        kv.set("live", 1)
        kv.set("dead", 2, ttl=5.0)
        kv.advance(10.0)  # "dead" expired but not yet purged
        kv.set("new", 3)
        assert kv.get("live") == 1  # the live LRU key survived
        assert kv.get("dead") is None
        assert kv.get("new") == 3
        assert kv.evictions == 0  # purging a dead key is not an eviction

    def test_live_lru_still_evicted_when_all_live(self):
        kv = KeyValueStore(capacity=2)
        kv.set("a", 1)
        kv.set("b", 2)
        kv.set("c", 3)
        assert kv.get("a") is None
        assert kv.evictions == 1


class TestStatePersistence:
    def test_round_trip_preserves_entries_and_counters(self):
        kv = KeyValueStore()
        kv.set(("nbrs", 7), frozenset({1, 2}))
        kv.set("plain", [1, 2, 3])
        kv.get("plain")
        kv.get("missing")
        restored = KeyValueStore()
        restored.load_state(kv.state_dict())
        assert restored.hits == kv.hits
        assert restored.misses == kv.misses
        assert restored.get(("nbrs", 7)) == frozenset({1, 2})
        assert restored.get("plain") == [1, 2, 3]

    def test_expired_key_not_captured(self):
        kv = KeyValueStore()
        kv.set("dead", 1, ttl=5.0)
        kv.set("alive", 2)
        kv.advance(10.0)  # expired, never read → never purged
        state = kv.state_dict()
        assert [key for key, _, _ in state["entries"]] == ["alive"]

    def test_expired_key_not_resurrected_by_late_restore(self):
        # A snapshot captured while the key was live must still expire it
        # when the restoring store's clock has advanced past its TTL.
        kv = KeyValueStore()
        kv.set("a", 1, ttl=5.0)
        state = kv.state_dict()  # remaining TTL = 5.0
        state["entries"] = [(k, v, -1.0) for k, v, _ in state["entries"]]
        restored = KeyValueStore()
        restored.load_state(state)
        assert restored.get("a") is None
        assert len(restored) == 0

    def test_remaining_ttl_reanchored_to_restoring_clock(self):
        kv = KeyValueStore()
        kv.advance(100.0)  # capture-side clock far ahead
        kv.set("a", 1, ttl=8.0)
        kv.advance(3.0)  # 5.0 seconds of TTL left
        restored = KeyValueStore()  # fresh clock at 0.0
        restored.load_state(kv.state_dict())
        restored.advance(4.999)
        assert restored.get("a") == 1
        restored.advance(0.001)
        assert restored.get("a") is None

    def test_restore_preserves_lru_order(self):
        kv = KeyValueStore()
        for key in ("a", "b", "c"):
            kv.set(key, key)
        kv.get("a")  # a becomes most recent: order b, c, a
        restored = KeyValueStore(capacity=3)
        restored.load_state(kv.state_dict())
        restored.set("d", "d")  # evicts b, the restored LRU key
        assert restored.get("b") is None
        assert restored.get("c") == "c"
        assert restored.get("a") == "a"

    def test_restore_respects_capacity_bound(self):
        kv = KeyValueStore()
        for i in range(5):
            kv.set(i, i)
        restored = KeyValueStore(capacity=2)
        restored.load_state(kv.state_dict())
        assert len(restored) == 2
        assert restored.get(3) == 3
        assert restored.get(4) == 4

    def test_restore_replaces_existing_contents(self):
        kv = KeyValueStore()
        kv.set("new", 1)
        restored = KeyValueStore()
        restored.set("stale", 99, ttl=1.0)
        restored.load_state(kv.state_dict())
        assert restored.get("stale") is None
        assert restored.get("new") == 1
        restored.advance(100.0)  # stale's old TTL must not linger
        assert restored.get("new") == 1


class TestPeek:
    """``peek`` reads a live value and changes nothing."""

    def test_peek_returns_live_values(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        assert kv.peek("a") == 1
        assert kv.peek("missing") is None
        assert kv.peek("missing", 7) == 7

    def test_peek_books_no_hits_or_misses(self):
        kv = KeyValueStore()
        kv.set("a", 1)
        kv.peek("a")
        kv.peek("b")
        assert (kv.hits, kv.misses) == (0, 0)

    def test_peek_does_not_refresh_recency(self):
        kv = KeyValueStore(capacity=2)
        kv.set("a", 1)
        kv.set("b", 2)
        kv.peek("a")
        kv.set("c", 3)  # "a" is still the least recently used
        assert "a" not in kv
        assert "b" in kv

    def test_peek_hides_but_keeps_expired_keys(self):
        kv = KeyValueStore()
        kv.set("a", 1, ttl=5)
        kv.advance(5)
        version = kv.version
        assert kv.peek("a") is None
        assert kv.version == version  # no purge
        assert kv.get("a") is None
        assert kv.version == version + 1  # get purges


class TestTtlLessFastPath:
    """Without TTL'd keys, get/contains skip the expiry check — same answers."""

    def test_no_expiry_lookup_when_nothing_has_a_ttl(self, monkeypatch):
        kv = KeyValueStore()
        kv.set("a", 1)
        monkeypatch.setattr(kv, "_expired", lambda key: pytest.fail("expiry checked"))
        assert kv.get("a") == 1
        assert kv.contains("a")
        assert kv.get("b") is None
        assert not kv.contains("b")
        assert kv.peek("a") == 1

    def test_mixed_ttl_store_still_expires(self):
        kv = KeyValueStore()
        kv.set("forever", 1)
        kv.set("brief", 2, ttl=1)
        kv.advance(1)
        assert kv.get("forever") == 1
        assert kv.contains("forever")
        assert kv.get("brief") is None
        assert not kv.contains("brief")
        assert (kv.hits, kv.misses) == (1, 1)
