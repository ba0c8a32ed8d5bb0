"""Tests for HyTime modules, addressing, scheduling, and the engine."""

import pytest

from repro.hytime import (
    Axis, CoordinateAddress, Event, FiniteCoordinateSpace, HyTimeEngine,
    HyTimeModule, NameSpaceAddress, SemanticAddress,
    resolve_address, validate_modules,
)
from repro.hytime.modules import dependency_closure
from repro.hytime.location import build_name_space
from repro.hytime.sgml import SgmlParser
from repro.util.errors import DecodingError

M = HyTimeModule


class TestModules:
    def test_closure_pulls_dependencies(self):
        closure = dependency_closure([M.RENDITION])
        assert closure == {M.BASE, M.MEASUREMENT, M.SCHEDULING, M.RENDITION}

    def test_base_always_included(self):
        assert dependency_closure([]) == {M.BASE}

    def test_valid_declaration(self):
        validate_modules([M.BASE, M.LOCATION, M.HYPERLINKS])

    def test_missing_dependency_rejected(self):
        with pytest.raises(DecodingError):
            validate_modules([M.BASE, M.HYPERLINKS])  # needs location

    def test_missing_base_rejected(self):
        with pytest.raises(DecodingError):
            validate_modules([M.LOCATION])


DOC = """
<doc modules="base location hyperlinks measurement scheduling" id="root">
  <section id="intro"><p id="p1">Welcome to <ref id="r1"/> ATM.</p></section>
  <section id="cells"><p id="p2">Cells are 53 bytes.</p></section>
  <clink anchor="r1" target="cells"/>
  <fcs id="show">
    <axis name="time" unit="second" extent="60"/>
    <event name="title" axis="time" start="0" length="5"/>
    <event name="video" axis="time" start="5" length="30"/>
  </fcs>
</doc>
"""


class TestAddressing:
    def setup_method(self):
        self.root = SgmlParser().parse(DOC)

    def test_name_space_address(self):
        el = resolve_address(NameSpaceAddress("p2"), self.root)
        assert el.text.startswith("Cells")

    def test_duplicate_ids_rejected(self):
        bad = SgmlParser().parse('<d><a id="x"/><b id="x"/></d>')
        with pytest.raises(DecodingError):
            build_name_space(bad)

    def test_coordinate_address(self):
        el = resolve_address(CoordinateAddress([1, 0]), self.root)
        assert el.attributes["id"] == "p2"

    def test_coordinate_out_of_tree(self):
        with pytest.raises(DecodingError):
            resolve_address(CoordinateAddress([9]), self.root)

    def test_semantic_address_with_resolver(self):
        def resolver(query, root):
            # "the paragraph mentioning X"
            for p in root.find_all("p"):
                if query in p.full_text():
                    return p
            return None
        el = resolve_address(SemanticAddress("53 bytes"), self.root,
                             semantic_resolver=resolver)
        assert el.attributes["id"] == "p2"

    def test_semantic_needs_resolver(self):
        with pytest.raises(DecodingError):
            resolve_address(SemanticAddress("anything"), self.root)


class TestScheduling:
    def _fcs(self):
        return FiniteCoordinateSpace("show", [
            Axis("time", "second", 60.0), Axis("x", "pixel", 640.0)])

    def test_schedule_and_query(self):
        fcs = self._fcs()
        fcs.schedule(Event("a", {"time": (0.0, 10.0)}))
        fcs.schedule(Event("b", {"time": (5.0, 10.0)}))
        assert [e.name for e in fcs.overlapping("time", 7.0)] == ["a", "b"]
        assert [e.name for e in fcs.overlapping("time", 12.0)] == ["b"]

    def test_extent_bounds_checked(self):
        fcs = self._fcs()
        with pytest.raises(DecodingError):
            fcs.schedule(Event("late", {"time": (55.0, 10.0)}))
        with pytest.raises(DecodingError):
            fcs.schedule(Event("alien", {"depth": (0.0, 1.0)}))

    def test_duplicate_event_rejected(self):
        fcs = self._fcs()
        fcs.schedule(Event("a", {"time": (0.0, 1.0)}))
        with pytest.raises(DecodingError):
            fcs.schedule(Event("a", {"time": (2.0, 1.0)}))

    def test_timeline_sorted(self):
        fcs = self._fcs()
        fcs.schedule(Event("b", {"time": (5.0, 2.0)}))
        fcs.schedule(Event("a", {"time": (0.0, 2.0)}))
        assert [n for (_, _, n) in fcs.timeline("time")] == ["a", "b"]


class TestEngine:
    def test_full_document_processing(self):
        doc = HyTimeEngine().process(DOC)
        assert M.HYPERLINKS in doc.modules
        assert doc.resolve("intro").name == "section"
        assert len(doc.hyperlinks) == 1
        assert doc.events_at("show", "time", 10.0) == ["video"]

    def test_links_from_anchor(self):
        doc = HyTimeEngine().process(DOC)
        links = doc.links_from("r1")
        assert len(links) == 1

    def test_undeclared_module_usage_rejected(self):
        bad = '<doc modules="base"><clink anchor="a" target="b"/></doc>'
        with pytest.raises(DecodingError):
            HyTimeEngine().process(bad)

    def test_dangling_link_rejected(self):
        bad = ('<doc modules="base location hyperlinks">'
               '<p id="a"/><clink anchor="a" target="ghost"/></doc>')
        with pytest.raises(DecodingError):
            HyTimeEngine().process(bad)

    def test_fcs_without_scheduling_module_rejected(self):
        bad = ('<doc modules="base"><fcs id="f">'
               '<axis name="t" extent="10"/></fcs></doc>')
        with pytest.raises(DecodingError):
            HyTimeEngine().process(bad)

    def test_documents_processed_counter(self):
        engine = HyTimeEngine()
        engine.process(DOC)
        engine.process(DOC)
        assert engine.documents_processed == 2
