"""Tests for the object store."""

import pytest

from repro.database.store import ObjectStore
from repro.util.errors import DatabaseError


class TestDirectAccess:
    def test_put_get(self):
        store = ObjectStore()
        store.put("c", "k", {"v": 1})
        assert store.get("c", "k") == {"v": 1}

    def test_missing_raises(self):
        with pytest.raises(DatabaseError):
            ObjectStore().get("c", "k")

    def test_get_or_none(self):
        assert ObjectStore().get_or_none("c", "k") is None

    def test_keys_sorted(self):
        store = ObjectStore()
        for k in ("b", "a", "c"):
            store.put("c", k, k)
        assert store.keys("c") == ["a", "b", "c"]

    def test_collections_isolated(self):
        store = ObjectStore()
        store.put("a", "k", 1)
        assert not store.exists("b", "k")
