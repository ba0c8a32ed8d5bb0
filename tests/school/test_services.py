"""Tests for the bulletin board, exercises, and discussion services."""

import pytest

from repro.school.bulletin import BulletinBoard
from repro.school.discussion import FACILITATOR, DiscussionService, Facilitator
from repro.school.exercise import (
    Exercise, ExerciseService, MultipleChoiceQuestion, NumericQuestion,
    TextQuestion,
)
from repro.util.errors import DatabaseError


def _clock():
    return 0.0


class TestBulletin:
    def test_default_groups(self):
        board = BulletinBoard(_clock)
        for group in BulletinBoard.DEFAULT_GROUPS:
            assert board.list_posts(group) == []

    def test_post_and_list(self):
        board = BulletinBoard(lambda: 1.0)
        board.post("school.courses", "prof", "New ATM course", "enrol now")
        posts = board.list_posts("school.courses")
        assert posts[0]["subject"] == "New ATM course"
        assert posts[0]["posted_at"] == 1.0

    def test_unknown_group_rejected(self):
        with pytest.raises(DatabaseError):
            BulletinBoard(_clock).post("ghost", "a", "s", "b")
        with pytest.raises(DatabaseError):
            BulletinBoard(_clock).list_posts("ghost")


class TestQuestions:
    def test_multiple_choice(self):
        q = MultipleChoiceQuestion("53 bytes?", ["yes", "no"], correct=0,
                                   points=2.0)
        assert q.grade(0) == 2.0
        assert q.grade(1) == 0.0
        with pytest.raises(ValueError):
            MultipleChoiceQuestion("x", ["a"], correct=5)

    def test_numeric_with_tolerance(self):
        q = NumericQuestion("cell size?", answer=53, tolerance=0.5)
        assert q.grade(53.2) == 1.0
        assert q.grade(52.0) == 0.0
        assert q.grade("53") == 1.0
        assert q.grade("not a number") == 0.0

    def test_text_partial_credit(self):
        q = TextQuestion("describe a cell", keywords=["header", "payload"],
                         points=2.0)
        assert q.grade("a header and a payload") == 2.0
        assert q.grade("just the header") == 1.0
        assert q.grade(42) == 0.0


class TestExerciseService:
    def make_service(self):
        service = ExerciseService()
        service.add(Exercise(
            exercise_id="ex1", course_code="ELG5376", title="Cells",
            questions=[
                MultipleChoiceQuestion("53 bytes?", ["yes", "no"], 0),
                NumericQuestion("payload size?", 48),
            ]))
        return service

    def test_submit_and_best_score(self):
        service = self.make_service()
        first = service.submit("ex1", "S1", [0, 40])
        assert first["score"] == 1.0
        second = service.submit("ex1", "S1", [0, 48])
        assert second["score"] == 2.0 and second["best"] == 2.0
        worse = service.submit("ex1", "S1", [1, 40])
        assert worse["best"] == 2.0  # best is sticky

    def test_wrong_answer_count_rejected(self):
        service = self.make_service()
        with pytest.raises(DatabaseError):
            service.submit("ex1", "S1", [0])

    def test_standings_ranked(self):
        service = self.make_service()
        service.submit("ex1", "S2", [0, 48])
        service.submit("ex1", "S1", [0, 40])
        rows = service.standings("ex1")
        assert rows[0]["student_number"] == "S2"
        assert rows[1]["student_number"] == "S1"

    def test_duplicate_and_empty_rejected(self):
        service = self.make_service()
        with pytest.raises(DatabaseError):
            service.add(Exercise(exercise_id="ex1", course_code="c",
                                 title="dup", questions=[
                                     NumericQuestion("x", 1)]))
        with pytest.raises(DatabaseError):
            service.add(Exercise(exercise_id="ex2", course_code="c",
                                 title="empty"))


class TestDiscussion:
    def test_mail_roundtrip_and_drain(self):
        d = DiscussionService()
        d.send_mail("ada", "facilitator", "help!", now=1.0)
        inbox = d.read_mail("facilitator")
        assert len(inbox) == 1 and inbox[0].sender == "ada"
        assert d.read_mail("facilitator") == []

    def test_conference_membership_enforced(self):
        d = DiscussionService()
        d.open_conference("atm-talk")
        d.join("atm-talk", "ada")
        d.say("atm-talk", "ada", "hello")
        with pytest.raises(DatabaseError):
            d.say("atm-talk", "stranger", "hi")

    def test_transcript_since(self):
        d = DiscussionService()
        d.open_conference("room")
        d.join("room", "a")
        first = d.say("room", "a", "one")
        d.say("room", "a", "two")
        assert [m.body for m in d.transcript("room")] == ["one", "two"]
        assert [m.body for m in d.transcript("room", first.message_id)] == \
            ["two"]

    def test_leave(self):
        d = DiscussionService()
        d.open_conference("room")
        d.join("room", "a")
        d.leave("room", "a")
        assert d.members("room") == []

    def test_unknown_conference(self):
        d = DiscussionService()
        with pytest.raises(DatabaseError):
            d.join("ghost", "a")


class TestFacilitator:
    def test_faq_match(self):
        f = Facilitator(DiscussionService(), _clock)
        f.teach(["atm", "cell"], "53 bytes")
        f.teach(["mheg", "object"], "coded multimedia unit")
        assert f.ask("S1", "How big is an ATM cell?") == "53 bytes"
        assert f.ask("S1", "What is an MHEG object?") == \
            "coded multimedia unit"

    def test_best_overlap_wins(self):
        f = Facilitator(DiscussionService(), _clock)
        f.teach(["atm"], "general ATM answer")
        f.teach(["atm", "cell", "header"], "header answer")
        assert f.ask("S1", "what is in the atm cell header") == \
            "header answer"

    def test_unmatched_queued(self):
        f = Facilitator(DiscussionService(), _clock)
        assert f.ask("S1", "what about quantum teleportation") is None
        assert f.pending == [("S1", "what about quantum teleportation")]

    def test_answer_pending(self):
        discussion = DiscussionService()
        f = Facilitator(discussion, lambda: 7.0)
        f.ask("S1", "hard question")
        out = f.answer_pending(lambda s, q: f"dear {s}: it depends")
        assert [m.summary() for m in discussion.read_mail("S1")] == \
            [m.summary() for m in out]
        assert out[0].sender == FACILITATOR
        assert out[0].body == "dear S1: it depends"
        assert out[0].sent_at == 7.0
        assert f.pending == []
        assert f.answered == 1
