"""Tests for the object store and optimistic transactions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.database.store import ObjectStore, Transaction
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


class TestTransactions:
    def test_commit_applies_writes(self):
        store = ObjectStore()
        tx = Transaction(store)
        tx.put("c", "k", 1)
        tx.commit()
        assert store.get("c", "k") == 1

    def test_uncommitted_writes_invisible(self):
        store = ObjectStore()
        tx = Transaction(store)
        tx.put("c", "k", 1)
        assert not store.exists("c", "k")

    def test_read_your_own_writes(self):
        store = ObjectStore()
        tx = Transaction(store)
        tx.put("c", "k", 1)
        assert tx.get("c", "k") == 1

    def test_write_write_conflict_detected(self):
        store = ObjectStore()
        store.put("c", "k", 0)
        t1 = Transaction(store)
        t2 = Transaction(store)
        t1.put("c", "k", 1)
        t2.put("c", "k", 2)
        t1.commit()
        with pytest.raises(DatabaseError):
            t2.commit()
        assert store.get("c", "k") == 1
        assert store.conflicts == 1

    def test_read_write_conflict_detected(self):
        store = ObjectStore()
        store.put("c", "k", 0)
        t1 = Transaction(store)
        assert t1.get("c", "k") == 0
        store.put("c", "k", 99)   # concurrent writer
        t1.put("c", "other", 1)
        with pytest.raises(DatabaseError):
            t1.commit()

    def test_context_manager_commits(self):
        store = ObjectStore()
        with Transaction(store) as tx:
            tx.put("c", "k", 5)
        assert store.get("c", "k") == 5

    def test_context_manager_aborts_on_exception(self):
        store = ObjectStore()
        with pytest.raises(RuntimeError):
            with Transaction(store) as tx:
                tx.put("c", "k", 5)
                raise RuntimeError("boom")
        assert not store.exists("c", "k")

    def test_finished_transaction_unusable(self):
        store = ObjectStore()
        tx = Transaction(store)
        tx.commit()
        with pytest.raises(DatabaseError):
            tx.put("c", "k", 1)

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.integers(0, 100)), max_size=30))
    @settings(max_examples=30)
    def test_serial_transactions_apply_in_order(self, writes):
        """Property: serially committed transactions behave like direct
        writes applied in order."""
        store = ObjectStore()
        mirror = {}
        for key, value in writes:
            with Transaction(store) as tx:
                tx.put("c", key, value)
            mirror[key] = value
        for key, value in mirror.items():
            assert store.get("c", key) == value
