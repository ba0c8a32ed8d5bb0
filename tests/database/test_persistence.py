"""Tests for database snapshot/restore."""

import pytest

from repro.database.api import CoursewareDatabase
from repro.database.persistence import restore, snapshot
from repro.database.schema import (
    ContentRecord, CourseRecord, CoursewareRecord, LibraryDocument,
)
from repro.util.errors import DatabaseError


def populated_db():
    db = CoursewareDatabase()
    db.store_content(ContentRecord(
        content_ref="vid-1", media_kind="video", coding_method="SMPG",
        data=b"\x00\x01" * 500, attributes={"frame_rate": 10.0}))
    db.store_courseware(CoursewareRecord(
        courseware_id="c1", title="Course One", program="net",
        container_blob=b"BLOB" * 50, keywords=["networks/atm"],
        introduction_ref="vid-1", author="prof"))
    db.store_courseware(CoursewareRecord(   # bump to version 2
        courseware_id="c1", title="Course One v2", program="net",
        container_blob=b"BLOB2" * 50, keywords=["networks/atm"]))
    db.add_course(CourseRecord(course_code="N1", name="Course One",
                               program="net", courseware_id="c1"))
    db.add_library_document(LibraryDocument(
        doc_id="d1", title="Doc", media_kind="video",
        content_ref="vid-1", keywords=["networks/atm"]))
    student = db.register_student("Ada", "1 Loop Rd", "a@e.org")
    db.register_for_course(student.student_number, "N1")
    student.resume_positions["c1"] = 12.5
    student.bookmarks["c1"] = ["net/3"]
    student.scores["ex1"] = 2.0
    db.update_student(student)
    return db, student.student_number


class TestSnapshotRestore:
    def test_statistics_identical(self):
        db, _ = populated_db()
        back = restore(snapshot(db))
        assert back.statistics() == db.statistics()

    def test_records_roundtrip(self):
        db, number = populated_db()
        back = restore(snapshot(db))
        record = back.get_courseware("c1")
        assert record.title == "Course One v2"
        assert record.version == 2
        assert record.container_blob == b"BLOB2" * 50
        assert back.content.get("vid-1").data == b"\x00\x01" * 500
        assert back.get_course("N1").courseware_id == "c1"
        assert back.get_library_document("d1").content_ref == "vid-1"

    def test_student_state_roundtrips(self):
        db, number = populated_db()
        back = restore(snapshot(db))
        student = back.get_student(number)
        assert student.name == "Ada"
        assert student.registered_courses == ["N1"]
        assert student.resume_positions["c1"] == 12.5
        assert student.bookmarks["c1"] == ["net/3"]
        assert student.scores["ex1"] == 2.0

    def test_indexes_rebuilt(self):
        db, _ = populated_db()
        back = restore(snapshot(db))
        assert set(back.docs_by_keyword("networks/atm")) == {"c1", "d1"}
        assert back.keyword_tree.subtree("networks/atm")["keyword"] == "atm"

    def test_student_numbering_continues(self):
        db, number = populated_db()
        back = restore(snapshot(db))
        fresh = back.register_student("Bob")
        assert fresh.student_number != number
        assert int(fresh.student_number[1:]) > int(number[1:])

    def test_snapshot_deterministic(self):
        db, _ = populated_db()
        assert snapshot(db) == snapshot(db)

    def test_bad_magic_rejected(self):
        with pytest.raises(DatabaseError):
            restore(b"XXXX\x00\x00\x00\x00")

    def test_truncation_rejected(self):
        db, _ = populated_db()
        data = snapshot(db)
        with pytest.raises(DatabaseError):
            restore(data[:-10])

    def test_empty_database_roundtrips(self):
        back = restore(snapshot(CoursewareDatabase()))
        assert back.statistics()["courseware"] == 0
