"""Object store with optimistic transactions.

The store holds named collections of records keyed by string id.
Transactions buffer writes and validate at commit against per-record
versions (optimistic concurrency control): if another transaction
committed a new version of anything this one read or wrote, commit
raises :class:`~repro.util.errors.DatabaseError` and the caller
retries.  That matches how the courseware database is used — many
readers, occasional authors updating a course (§3.2 "a courseware can
be updated in both the content and the scenario at anytime").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.util.errors import DatabaseError


@dataclass
class _Versioned:
    value: Any
    version: int


class ObjectStore:
    """Named collections of versioned records."""

    def __init__(self) -> None:
        self._collections: Dict[str, Dict[str, _Versioned]] = {}
        self._tx_counter = itertools.count(1)
        self.commits = 0
        self.conflicts = 0

    def collection(self, name: str) -> Dict[str, _Versioned]:
        return self._collections.setdefault(name, {})

    # -- direct (auto-commit) access ------------------------------------

    def put(self, collection: str, key: str, value: Any) -> None:
        coll = self.collection(collection)
        current = coll.get(key)
        version = current.version + 1 if current else 1
        coll[key] = _Versioned(value=value, version=version)

    def get(self, collection: str, key: str) -> Any:
        record = self.collection(collection).get(key)
        if record is None:
            raise DatabaseError(f"{collection}/{key} not found")
        return record.value

    def get_or_none(self, collection: str, key: str) -> Any:
        record = self.collection(collection).get(key)
        return record.value if record else None

    def exists(self, collection: str, key: str) -> bool:
        return key in self.collection(collection)

    def keys(self, collection: str) -> List[str]:
        return sorted(self.collection(collection))

    def items(self, collection: str) -> Iterator[Tuple[str, Any]]:
        for key in self.keys(collection):
            yield key, self.collection(collection)[key].value

    def count(self, collection: str) -> int:
        return len(self.collection(collection))

    def _version_of(self, collection: str, key: str) -> int:
        record = self.collection(collection).get(key)
        return record.version if record else 0


class Transaction:
    """Optimistic transaction: buffered writes, validated commit."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.tx_id = next(store._tx_counter)
        #: (collection, key) -> version observed at first read
        self._read_set: Dict[Tuple[str, str], int] = {}
        #: (collection, key) -> (collection, new value)
        self._writes: Dict[Tuple[str, str], Tuple[str, Any]] = {}
        self.committed = False
        self.aborted = False

    def _check_live(self) -> None:
        if self.committed or self.aborted:
            raise DatabaseError(f"transaction {self.tx_id} is finished")

    def get(self, collection: str, key: str) -> Any:
        self._check_live()
        ck = (collection, key)
        if ck in self._writes:
            return self._writes[ck][1]
        self._read_set.setdefault(ck, self.store._version_of(collection, key))
        return self.store.get(collection, key)

    def get_or_none(self, collection: str, key: str) -> Any:
        try:
            return self.get(collection, key)
        except DatabaseError:
            return None

    def put(self, collection: str, key: str, value: Any) -> None:
        self._check_live()
        ck = (collection, key)
        self._read_set.setdefault(ck, self.store._version_of(collection, key))
        self._writes[ck] = (collection, value)

    def commit(self) -> None:
        """Validate the read set and apply writes atomically."""
        self._check_live()
        for (collection, key), seen in self._read_set.items():
            if self.store._version_of(collection, key) != seen:
                self.aborted = True
                self.store.conflicts += 1
                raise DatabaseError(
                    f"transaction {self.tx_id}: conflict on "
                    f"{collection}/{key}")
        for (collection, key), (_, value) in self._writes.items():
            self.store.put(collection, key, value)
        self.committed = True
        self.store.commits += 1

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and not self.committed and not self.aborted:
            self.commit()
        elif exc_type is not None and not self.aborted and not self.committed:
            self.aborted = True
        return False
