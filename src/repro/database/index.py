"""Keyword tree and inverted index (§5.5).

The navigator's future APIs are named in the thesis: ``GetKeywordTree``
"to retrieve and display the keywords provided by the database" and
``GetDocByKeyword`` "to get the document list in the database by the
keyword provided".  Both are served from these structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.util.errors import DatabaseError


@dataclass
class KeywordNode:
    keyword: str
    children: Dict[str, "KeywordNode"] = field(default_factory=dict)

    def to_value(self) -> dict:
        return {"keyword": self.keyword,
                "children": [c.to_value()
                             for _, c in sorted(self.children.items())]}


class KeywordTree:
    """Hierarchical keyword taxonomy (e.g. networks / atm / cells)."""

    SEP = "/"

    def __init__(self) -> None:
        self._root = KeywordNode(keyword="")

    def add(self, path: str) -> None:
        """Insert a keyword path like ``"networks/atm/cells"``."""
        parts = [p for p in path.split(self.SEP) if p]
        if not parts:
            raise DatabaseError("empty keyword path")
        node = self._root
        for part in parts:
            node = node.children.setdefault(part, KeywordNode(keyword=part))

    def subtree(self, path: str = "") -> dict:
        """The tree (or a subtree) as a plain value for interchange."""
        node = self._root
        for part in [p for p in path.split(self.SEP) if p]:
            node = node.children.get(part)
            if node is None:
                raise DatabaseError(f"unknown keyword path {path!r}")
        return node.to_value()


class InvertedIndex:
    """keyword -> document ids, with conjunctive queries."""

    def __init__(self) -> None:
        self._postings: Dict[str, Set[str]] = {}

    def add(self, doc_id: str, keywords: Iterable[str]) -> None:
        for kw in keywords:
            kw = kw.strip().lower()
            if kw:
                self._postings.setdefault(kw, set()).add(doc_id)

    def remove(self, doc_id: str) -> None:
        for postings in self._postings.values():
            postings.discard(doc_id)

    def lookup(self, keyword: str) -> List[str]:
        return sorted(self._postings.get(keyword.strip().lower(), ()))

    def keywords(self) -> List[str]:
        return sorted(k for k, docs in self._postings.items() if docs)
