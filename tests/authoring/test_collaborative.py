"""Tests for collaborative document editing (§6.2 future work)."""

import pytest

from repro.authoring import (
    CoursewareEditor, InteractiveDocument, SceneObject, TimelineEntry,
)
from repro.authoring.behavior import BehaviorAction, BehaviorCondition, BehaviorRule
from repro.authoring.collaborative import CollaborativeSession
from repro.util.errors import AuthoringError


def session():
    return CollaborativeSession(InteractiveDocument("joint-course"))


class TestMembership:
    def test_join_returns_log(self):
        s = session()
        s.join("alice")
        s.add_section("alice", "intro")
        log = s.join("bob")
        assert [op.kind for op in log] == ["add-section"]

    def test_double_join_rejected(self):
        s = session()
        s.join("alice")
        with pytest.raises(AuthoringError):
            s.join("alice")

    def test_leave_releases_locks(self):
        s = session()
        s.join("alice")
        s.add_section("alice", "intro")
        s.leave("alice")
        s.join("alice")
        with pytest.raises(AuthoringError):
            s.add_scene("alice", "intro", "sc1")

    def test_non_member_cannot_edit(self):
        s = session()
        with pytest.raises(AuthoringError):
            s.add_section("ghost", "intro")


class TestLocking:
    def test_edit_requires_lock(self):
        s = session()
        s.join("alice")
        s.join("bob")
        s.add_section("alice", "intro")
        s.add_scene("alice", "intro", "sc1")
        with pytest.raises(AuthoringError):
            s.add_scene("bob", "intro", "sc2")


class TestEditing:
    def build(self):
        s = session()
        s.join("alice")
        s.join("bob")
        s.add_section("alice", "intro")
        s.add_scene("alice", "intro", "sc1")
        s.add_object("alice", "intro", "sc1", SceneObject(
            name="clip", kind="video", content_ref="vid-1"))
        s.add_object("alice", "intro", "sc1", SceneObject(
            name="skip", kind="choice", label="Skip"))
        s.schedule("alice", "intro", "sc1",
                   TimelineEntry("clip", 0.0, 2.0))
        s.add_rule("alice", "intro", "sc1", BehaviorRule(
            trigger=BehaviorCondition("skip", "selected"),
            actions=[BehaviorAction("stop", "clip")]))
        return s

    def test_document_stays_compilable(self):
        s = self.build()
        s.document.validate()
        compiled = CoursewareEditor("joint").compile_imd(s.document)
        assert len(compiled.container.objects) > 3

    def test_operations_broadcast_to_others(self):
        s = session()
        seen_by_bob = []
        s.join("alice")
        s.join("bob", on_operation=seen_by_bob.append)
        s.add_section("alice", "intro")
        s.add_scene("alice", "intro", "sc1")
        assert [op.kind for op in seen_by_bob] == ["add-section",
                                                   "add-scene"]
        # the author does not hear their own operations back
        seen_by_alice = []
        s2 = session()
        s2.join("alice", on_operation=seen_by_alice.append)
        s2.add_section("alice", "x")
        assert seen_by_alice == []

    def test_log_sequence_monotone(self):
        s = self.build()
        seqs = [op.seq for op in s.log]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_duplicate_scene_rejected_across_sections(self):
        s = self.build()
        s.add_section("bob", "part2")
        with pytest.raises(AuthoringError):
            s.add_scene("bob", "part2", "sc1")

    def test_duplicate_object_rejected(self):
        s = self.build()
        with pytest.raises(AuthoringError):
            s.add_object("alice", "intro", "sc1", SceneObject(
                name="clip", kind="video", content_ref="vid-2"))

    def test_schedule_unknown_object_rejected(self):
        s = self.build()
        with pytest.raises(AuthoringError):
            s.schedule("alice", "intro", "sc1",
                       TimelineEntry("ghost", 0.0, 1.0))

    def test_rule_unknown_object_rejected(self):
        s = self.build()
        with pytest.raises(AuthoringError):
            s.add_rule("alice", "intro", "sc1", BehaviorRule(
                trigger=BehaviorCondition("ghost", "selected"),
                actions=[BehaviorAction("stop", "clip")]))

    def test_two_authors_in_parallel_sections(self):
        s = self.build()
        s.add_section("bob", "cases")
        s.add_scene("bob", "cases", "case-1")
        s.add_object("bob", "cases", "case-1", SceneObject(
            name="story", kind="text", content_ref="txt-1"))
        s.schedule("bob", "cases", "case-1",
                   TimelineEntry("story", 0.0, 1.0))
        s.document.validate()
        authors = {op.author for op in s.log}
        assert authors == {"alice", "bob"}
