"""Tests for the SGML parser."""

import pytest

from repro.hytime.sgml import SgmlElement, SgmlParser
from repro.util.errors import DecodingError

parser = SgmlParser()


class TestParsing:
    def test_simple_document(self):
        root = parser.parse('<doc><title>Hello</title><p>World</p></doc>')
        assert root.name == "doc"
        assert [c.name for c in root.children] == ["title", "p"]
        assert root.children[0].text == "Hello"

    def test_attributes(self):
        root = parser.parse('<doc id="d1" lang="en"><p id="p1"/></doc>')
        assert root.attributes == {"id": "d1", "lang": "en"}
        assert root.children[0].attributes["id"] == "p1"

    def test_self_closing_and_nesting(self):
        root = parser.parse('<a><b><c/></b><b/></a>')
        assert len(root.children) == 2
        assert root.children[0].children[0].name == "c"

    def test_entities_decoded(self):
        root = parser.parse('<p a="x &amp; y">1 &lt; 2</p>')
        assert root.text == "1 < 2"
        assert root.attributes["a"] == "x & y"

    def test_comments_ignored(self):
        root = parser.parse('<doc><!-- note --><p/></doc>')
        assert [c.name for c in root.children] == ["p"]

    def test_cdata_preserved(self):
        root = parser.parse('<p><![CDATA[<raw & data>]]></p>')
        assert root.text == "<raw & data>"

    def test_doctype_skipped(self):
        root = parser.parse('<!DOCTYPE doc SYSTEM "doc.dtd"><doc/>')
        assert root.name == "doc"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(DecodingError):
            parser.parse("<a><b></a></b>")

    def test_unclosed_rejected(self):
        with pytest.raises(DecodingError):
            parser.parse("<a><b></b>")

    def test_multiple_roots_rejected(self):
        with pytest.raises(DecodingError):
            parser.parse("<a/><b/>")

    def test_text_outside_root_rejected(self):
        with pytest.raises(DecodingError):
            parser.parse("stray <a/>")
        with pytest.raises(DecodingError):
            parser.parse("<a/> stray")

    def test_empty_input_rejected(self):
        with pytest.raises(DecodingError):
            parser.parse("   ")


class TestTreeQueries:
    def test_find_all_descendants(self):
        root = parser.parse("<d><s><p/><p/></s><p/></d>")
        assert len(root.find_all("p")) == 3

    def test_full_text(self):
        root = parser.parse("<d>one <em>two</em></d>")
        assert "one" in root.full_text() and "two" in root.full_text()

    def test_path_coordinates(self):
        root = parser.parse("<d><a/><b><c/></b></d>")
        c = root.children[1].children[0]
        assert c.path() == [1, 0]
        assert root.path() == []
