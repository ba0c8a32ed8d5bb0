"""Tests for the document models, time-line, and behaviour structures."""

import pytest

from repro.authoring import (
    Behavior, HyperDocument, InteractiveDocument, NavigationLink, Page,
    PageItem, Scene, SceneObject, Section, Timeline, TimelineEntry,
)
from repro.authoring.behavior import (
    BehaviorAction, BehaviorCondition, BehaviorRule,
)
from repro.util.errors import AuthoringError


def page_with_items(name, *, choice_names=("next",)):
    items = [PageItem(name="body", kind="text", content_ref="txt-1")]
    for cn in choice_names:
        items.append(PageItem(name=cn, kind="choice", label=cn.title()))
    return Page(name=name, items=items)


class TestPageModel:
    def test_choice_needs_label(self):
        with pytest.raises(AuthoringError):
            PageItem(name="c", kind="choice")

    def test_media_needs_content_ref(self):
        with pytest.raises(AuthoringError):
            PageItem(name="v", kind="video")

    def test_unknown_kind(self):
        with pytest.raises(AuthoringError):
            PageItem(name="x", kind="hologram", content_ref="h")

    def test_duplicate_item_names(self):
        page = Page(name="p", items=[
            PageItem(name="a", kind="text", content_ref="t"),
            PageItem(name="a", kind="choice", label="A")])
        with pytest.raises(AuthoringError):
            page.validate()

    def test_choices_listed(self):
        page = page_with_items("p", choice_names=("next", "back"))
        assert [c.name for c in page.choices()] == ["next", "back"]


class TestHyperDocument:
    def make_doc(self):
        doc = HyperDocument("course")
        doc.add_page(page_with_items("start", choice_names=("next", "quiz")))
        doc.add_page(page_with_items("detail"))
        doc.add_page(page_with_items("question"))
        doc.add_link(NavigationLink("start", "next", "detail"))
        doc.add_link(NavigationLink("start", "quiz", "question"))
        doc.add_link(NavigationLink("detail", "next", "start"))
        doc.add_link(NavigationLink("question", "next", "start"))
        return doc

    def test_valid_document(self):
        self.make_doc().validate()

    def test_first_page_is_start(self):
        assert self.make_doc().start_page == "start"

    def test_duplicate_page_rejected(self):
        doc = self.make_doc()
        with pytest.raises(AuthoringError):
            doc.add_page(page_with_items("start"))

    def test_link_to_unknown_page_rejected(self):
        doc = self.make_doc()
        doc.add_link(NavigationLink("start", "next", "ghost"))
        with pytest.raises(AuthoringError):
            doc.validate()

    def test_link_condition_must_be_choice(self):
        doc = self.make_doc()
        doc.add_link(NavigationLink("start", "body", "detail"))
        with pytest.raises(AuthoringError):
            doc.validate()

    def test_unreachable_page_rejected(self):
        doc = self.make_doc()
        doc.add_page(page_with_items("island"))
        with pytest.raises(AuthoringError):
            doc.validate()

    def test_navigation_subset_view(self):
        doc = self.make_doc()
        subset = doc.navigation_subset("start")
        assert subset == {"next": ["detail"], "quiz": ["question"]}

    def test_reachable_pages(self):
        assert self.make_doc().reachable_pages() == [
            "detail", "question", "start"]


class TestTimeline:
    def test_entries_sorted_by_start(self):
        tl = Timeline()
        tl.add(TimelineEntry("b", 2.0, 1.0))
        tl.add(TimelineEntry("a", 0.0, 1.0))
        assert [e.object_name for e in tl.entries] == ["a", "b"]

    def test_duplicate_object_rejected(self):
        tl = Timeline()
        tl.add(TimelineEntry("a", 0.0, 1.0))
        with pytest.raises(AuthoringError):
            tl.add(TimelineEntry("a", 1.0, 1.0))

    def test_preemption_needs_both_fields(self):
        with pytest.raises(AuthoringError):
            TimelineEntry("a", 0.0, 1.0, preempted_by="c")

    def test_validate_against_known_objects(self):
        tl = Timeline()
        tl.add(TimelineEntry("a", 0.0, 1.0,
                             preempted_by="c", preempt_next="b"))
        tl.validate({"a", "b", "c"})
        with pytest.raises(AuthoringError):
            tl.validate({"a", "b"})

    def test_negative_start_rejected(self):
        with pytest.raises(AuthoringError):
            TimelineEntry("a", -1.0, 1.0)


class TestBehavior:
    def test_shorthands(self):
        b = Behavior()
        b.when_selected("stop-btn", ("stop", "audio1"), ("stop", "text1"))
        assert len(b.rules) == 1
        assert b.rules[0].trigger.event == "selected"
        assert len(b.rules[0].actions) == 2

    def test_rule_needs_actions(self):
        with pytest.raises(AuthoringError):
            BehaviorRule(trigger=BehaviorCondition("a", "selected"),
                         actions=[])

    def test_unknown_event_rejected(self):
        with pytest.raises(AuthoringError):
            BehaviorCondition("a", "exploded")

    def test_set_verbs_need_values(self):
        with pytest.raises(AuthoringError):
            BehaviorAction("set_value", "a")
        BehaviorAction("set_value", "a", value=5)

    def test_validate_object_names(self):
        b = Behavior()
        b.when_selected("ghost", ("run", "a"))
        with pytest.raises(AuthoringError):
            b.validate({"a"})


class TestInteractiveDocument:
    def make_scene(self, name="sc", duration=2.0):
        scene = Scene(name=name, objects=[
            SceneObject(name="v", kind="video", content_ref="vid-1"),
            SceneObject(name="c", kind="choice", label="Skip")])
        scene.timeline.add(TimelineEntry("v", 0.0, duration))
        return scene

    def test_valid_document(self):
        doc = InteractiveDocument("d")
        doc.add_section(Section(name="s", scenes=[self.make_scene()]))
        doc.validate()

    def test_section_cannot_mix_levels(self):
        section = Section(name="s", scenes=[self.make_scene()],
                          subsections=[Section(name="sub",
                                               scenes=[self.make_scene("x")])])
        with pytest.raises(AuthoringError):
            section.validate()

    def test_empty_section_rejected(self):
        with pytest.raises(AuthoringError):
            Section(name="s").validate()

    def test_unscheduled_object_rejected(self):
        scene = Scene(name="sc", objects=[
            SceneObject(name="v", kind="video", content_ref="vid")])
        doc = InteractiveDocument("d")
        doc.add_section(Section(name="s", scenes=[scene]))
        with pytest.raises(AuthoringError):
            doc.validate()

    def test_duplicate_scene_names_rejected(self):
        doc = InteractiveDocument("d")
        doc.add_section(Section(name="a", scenes=[self.make_scene("same")]))
        doc.add_section(Section(name="b", scenes=[self.make_scene("same")]))
        with pytest.raises(AuthoringError):
            doc.validate()

    def test_nested_sections_and_logical_view(self):
        doc = InteractiveDocument("d", title="Demo")
        doc.add_section(Section(name="part1", subsections=[
            Section(name="ch1", scenes=[self.make_scene("s1")]),
            Section(name="ch2", scenes=[self.make_scene("s2")])]))
        doc.validate()
        view = doc.logical_view()
        assert view["sections"][0]["subsections"][0]["scenes"][0]["name"] == "s1"
        assert [s.name for s in doc.all_scenes()] == ["s1", "s2"]
