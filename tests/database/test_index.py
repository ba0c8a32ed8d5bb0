"""Tests for the keyword tree and inverted index."""

import pytest

from repro.database.index import InvertedIndex, KeywordTree
from repro.util.errors import DatabaseError


class TestKeywordTree:
    def test_add_and_contains(self):
        tree = KeywordTree()
        tree.add("networks/atm/cells")
        assert tree.subtree("networks")["keyword"] == "networks"
        assert tree.subtree("networks/atm/cells") == \
            {"keyword": "cells", "children": []}
        with pytest.raises(DatabaseError):
            tree.subtree("networks/ip")

    def test_subtree_value(self):
        tree = KeywordTree()
        tree.add("networks/atm")
        tree.add("networks/isdn")
        value = tree.subtree("networks")
        assert value["keyword"] == "networks"
        assert [c["keyword"] for c in value["children"]] == ["atm", "isdn"]

    def test_root_subtree(self):
        tree = KeywordTree()
        tree.add("a")
        tree.add("b")
        assert [c["keyword"] for c in tree.subtree()["children"]] == ["a", "b"]

    def test_unknown_path_raises(self):
        with pytest.raises(DatabaseError):
            KeywordTree().subtree("ghost")

    def test_empty_path_rejected(self):
        with pytest.raises(DatabaseError):
            KeywordTree().add("///")

    def test_leaves(self):
        tree = KeywordTree()
        tree.add("networks/atm/cells")
        tree.add("networks/atm/qos")
        tree.add("education")

        def leaves(node, prefix):
            path = f"{prefix}/{node['keyword']}" if prefix else node["keyword"]
            if not node["children"]:
                return [path]
            return [leaf for child in node["children"]
                    for leaf in leaves(child, path)]

        assert [leaf for child in tree.subtree()["children"]
                for leaf in leaves(child, "")] == \
            ["education", "networks/atm/cells", "networks/atm/qos"]


class TestInvertedIndex:
    def test_lookup(self):
        index = InvertedIndex()
        index.add("doc1", ["atm", "cells"])
        index.add("doc2", ["atm", "qos"])
        assert index.lookup("atm") == ["doc1", "doc2"]
        assert index.lookup("qos") == ["doc2"]
        assert index.lookup("none") == []

    def test_case_insensitive(self):
        index = InvertedIndex()
        index.add("doc1", ["ATM"])
        assert index.lookup("atm") == ["doc1"]

    def test_remove(self):
        index = InvertedIndex()
        index.add("doc1", ["atm"])
        index.remove("doc1")
        assert index.lookup("atm") == []

    def test_blank_keywords_ignored(self):
        index = InvertedIndex()
        index.add("doc1", ["", "  ", "real"])
        assert index.keywords() == ["real"]
