"""Unit tests for the document store (MongoDB stand-in)."""

import pytest

from repro.datastore import DocumentStore
from repro.errors import DataStoreError, DocumentNotFoundError
from repro.graph.adjacency import Graph
from repro.interface import InMemoryGraphProvider

FLAT_DOC = {"user_id": 1, "age": 31.5, "name": "alice", "active": True, "bio": None}
NESTED_DOC = {"user_id": 1, "tags": ["a", "b"]}

READERS = {
    "get_or_none": lambda store: store.get_or_none(1),
    "get": lambda store: store.get(1),
    "provider_fetch": lambda store: InMemoryGraphProvider(_one_node_graph(), store).fetch(1).attributes,
    "find": lambda store: store.find(user_id=1)[0],
    "find_where": lambda store: store.find_where(lambda d: True)[0],
}


def _one_node_graph():
    graph = Graph()
    graph.add_node(1)
    return graph


class TestCrud:
    def test_insert_get(self):
        store = DocumentStore()
        store.insert(1, {"name": "alice"})
        assert store.get(1) == {"name": "alice"}

    def test_insert_duplicate_raises(self):
        store = DocumentStore()
        store.insert(1, {})
        with pytest.raises(DataStoreError):
            store.insert(1, {})

    def test_upsert_overwrites(self):
        store = DocumentStore()
        store.upsert(1, {"v": 1})
        store.upsert(1, {"v": 2})
        assert store.get(1)["v"] == 2

    def test_update_merges(self):
        store = DocumentStore()
        store.insert(1, {"a": 1})
        store.update(1, {"b": 2})
        assert store.get(1) == {"a": 1, "b": 2}

    def test_update_missing_raises(self):
        with pytest.raises(DocumentNotFoundError):
            DocumentStore().update(1, {})

    def test_get_missing_raises(self):
        with pytest.raises(DocumentNotFoundError):
            DocumentStore().get(1)

    def test_get_or_none(self):
        store = DocumentStore()
        assert store.get_or_none(1) is None
        store.insert(1, {"x": 1})
        assert store.get_or_none(1) == {"x": 1}

    def test_delete(self):
        store = DocumentStore()
        store.insert(1, {})
        assert store.delete(1) is True
        assert store.delete(1) is False

    def test_contains_len_ids(self):
        store = DocumentStore()
        store.insert("u1", {})
        assert "u1" in store
        assert len(store) == 1
        assert list(store.ids()) == ["u1"]


class TestIsolation:
    def test_stored_copy_insulated_from_caller(self):
        doc = {"tags": ["a"]}
        store = DocumentStore()
        store.insert(1, doc)
        doc["tags"].append("b")
        assert store.get(1)["tags"] == ["a"]

    def test_returned_copy_insulated_from_store(self):
        store = DocumentStore()
        store.insert(1, {"tags": ["a"]})
        fetched = store.get(1)
        fetched["tags"].append("b")
        assert store.get(1)["tags"] == ["a"]

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("doc", [FLAT_DOC, NESTED_DOC], ids=["flat", "nested"])
    def test_every_read_is_isolated(self, reader, doc):
        store = DocumentStore()
        store.insert(1, doc)
        fetched = READERS[reader](store)
        assert fetched == doc
        assert fetched is not store._docs[1]
        if "tags" in doc:
            assert fetched["tags"] is not store._docs[1]["tags"]
            fetched["tags"].append("c")
        fetched["user_id"] = 2
        fetched["extra"] = 0
        del fetched["user_id"]
        assert store.get(1) == doc


class TestQueries:
    def _populated(self) -> DocumentStore:
        store = DocumentStore()
        store.insert(1, {"deg": 3, "active": True})
        store.insert(2, {"deg": 5, "active": False})
        store.insert(3, {"deg": 3, "active": False})
        return store

    def test_find_equality(self):
        store = self._populated()
        assert len(store.find(deg=3)) == 2
        assert len(store.find(deg=3, active=True)) == 1
        assert store.find(deg=99) == []

    def test_find_where(self):
        store = self._populated()
        assert len(store.find_where(lambda d: d["deg"] > 3)) == 1

    def test_count(self):
        store = self._populated()
        assert store.count() == 3
        assert store.count(lambda d: not d["active"]) == 2
