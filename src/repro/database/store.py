"""Object store: named collections of records keyed by string id.

Every write is a direct ``put``: a request is served whole within one
simulator callback, so no two writes interleave.  A courseware
record carries its own version (``CoursewareRecord.version``), which
the database API bumps when an author republishes a course (§3.2 "a
courseware can be updated in both the content and the scenario at
anytime").
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from repro.util.errors import DatabaseError


class ObjectStore:
    """Named collections of records."""

    def __init__(self) -> None:
        self._collections: Dict[str, Dict[str, Any]] = {}

    def collection(self, name: str) -> Dict[str, Any]:
        return self._collections.setdefault(name, {})

    def put(self, collection: str, key: str, value: Any) -> None:
        self.collection(collection)[key] = value

    def get(self, collection: str, key: str) -> Any:
        try:
            return self.collection(collection)[key]
        except KeyError:
            raise DatabaseError(f"{collection}/{key} not found") from None

    def get_or_none(self, collection: str, key: str) -> Any:
        return self.collection(collection).get(key)

    def exists(self, collection: str, key: str) -> bool:
        return key in self.collection(collection)

    def keys(self, collection: str) -> List[str]:
        return sorted(self.collection(collection))

    def items(self, collection: str) -> Iterator[Tuple[str, Any]]:
        for key in self.keys(collection):
            yield key, self.collection(collection)[key]

    def count(self, collection: str) -> int:
        return len(self.collection(collection))
