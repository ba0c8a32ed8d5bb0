"""Database facade and the client/server pair (Fig 3.5, §5.3.2).

:class:`CoursewareDatabase` is the in-process facade the database site
runs: courseware catalogue, content server, keyword indexes, student
records, courses, and library documents.

:class:`DatabaseServer` exposes it over the transport layer;
:class:`DatabaseClient` is the client module embedded in the navigator,
with the thesis's API names: ``Get_List_Doc``, ``Get_Selected_Doc``,
plus the future APIs §5.5 asks for — ``GetKeywordTree`` and
``GetDocByKeyword`` — and the administration calls the TeleSchool
screens need.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.database.contentserver import ContentServer
from repro.database.index import InvertedIndex, KeywordTree
from repro.database.schema import (
    ContentRecord, CourseRecord, CoursewareRecord, LibraryDocument,
    StudentRecord,
)
from repro.database.store import ObjectStore
from repro.transport.rpc import PendingCall, RpcClient, RpcServer, StreamReceiver
from repro.util.errors import DatabaseError

COURSEWARE = "courseware"
COURSES = "courses"
STUDENTS = "students"
LIBRARY = "library"

#: simulated seconds :func:`wait_for` runs before it gives up on a call:
#: past the longest an RPC can take to fail (five 2 s attempts plus
#: backoff with ``retry``, one 10 s attempt without)
WAIT_DEADLINE = 30.0


class CoursewareDatabase:
    """The database site's in-process service layer."""

    def __init__(self) -> None:
        self.store = ObjectStore()
        self.content = ContentServer(self.store)
        self.keyword_tree = KeywordTree()
        self.doc_index = InvertedIndex()
        self._student_numbers = itertools.count(1000)

    # -- courseware catalogue ------------------------------------------------

    def store_courseware(self, record: CoursewareRecord) -> None:
        existing = self.store.get_or_none(COURSEWARE, record.courseware_id)
        if existing is not None:
            record.version = existing.version + 1
        self.store.put(COURSEWARE, record.courseware_id, record)
        self.doc_index.remove(record.courseware_id)
        self.doc_index.add(record.courseware_id, record.keywords)
        for kw in record.keywords:
            self.keyword_tree.add(kw)

    def get_courseware(self, courseware_id: str) -> CoursewareRecord:
        record = self.store.get_or_none(COURSEWARE, courseware_id)
        if record is None:
            raise DatabaseError(f"no courseware {courseware_id!r}")
        return record

    def list_courseware(self, program: Optional[str] = None) -> List[Dict[str, Any]]:
        out = []
        for _, record in self.store.items(COURSEWARE):
            if program is None or record.program == program:
                out.append(record.summary())
        return out

    # -- content -----------------------------------------------------------------

    def store_content(self, record: ContentRecord) -> None:
        self.content.put(record)

    # -- courses and programs ------------------------------------------------------

    def add_course(self, course: CourseRecord) -> None:
        if not self.store.exists(COURSEWARE, course.courseware_id):
            raise DatabaseError(
                f"course {course.course_code}: courseware "
                f"{course.courseware_id!r} not stored")
        self.store.put(COURSES, course.course_code, course)

    def get_course(self, course_code: str) -> CourseRecord:
        course = self.store.get_or_none(COURSES, course_code)
        if course is None:
            raise DatabaseError(f"no course {course_code!r}")
        return course

    def list_courses(self, program: Optional[str] = None) -> List[CourseRecord]:
        return [c for _, c in self.store.items(COURSES)
                if program is None or c.program == program]

    def programs(self) -> List[str]:
        return sorted({c.program for _, c in self.store.items(COURSES)})

    # -- students -----------------------------------------------------------------

    def register_student(self, name: str, address: str = "",
                         email: str = "") -> StudentRecord:
        number = f"S{next(self._student_numbers)}"
        student = StudentRecord(student_number=number, name=name,
                                address=address, email=email)
        self.store.put(STUDENTS, number, student)
        return student

    def get_student(self, student_number: str) -> StudentRecord:
        student = self.store.get_or_none(STUDENTS, student_number)
        if student is None:
            raise DatabaseError(f"no student {student_number!r}")
        return student

    def update_student(self, student: StudentRecord) -> None:
        if not self.store.exists(STUDENTS, student.student_number):
            raise DatabaseError(f"no student {student.student_number!r}")
        self.store.put(STUDENTS, student.student_number, student)

    def register_for_course(self, student_number: str, course_code: str) -> None:
        student = self.get_student(student_number)
        self.get_course(course_code)  # must exist
        if course_code not in student.registered_courses:
            student.registered_courses.append(course_code)
            self.update_student(student)

    # -- library ---------------------------------------------------------------------

    def add_library_document(self, doc: LibraryDocument) -> None:
        if not self.content.exists(doc.content_ref):
            raise DatabaseError(
                f"library doc {doc.doc_id}: content {doc.content_ref!r} "
                "not stored")
        self.store.put(LIBRARY, doc.doc_id, doc)
        self.doc_index.add(doc.doc_id, doc.keywords)
        for kw in doc.keywords:
            self.keyword_tree.add(kw)

    def get_library_document(self, doc_id: str) -> LibraryDocument:
        doc = self.store.get_or_none(LIBRARY, doc_id)
        if doc is None:
            raise DatabaseError(f"no library document {doc_id!r}")
        return doc

    def list_library(self) -> List[Dict[str, Any]]:
        return [{"doc_id": d.doc_id, "title": d.title,
                 "media_kind": d.media_kind, "keywords": list(d.keywords)}
                for _, d in self.store.items(LIBRARY)]

    # -- queries ------------------------------------------------------------------------

    def docs_by_keyword(self, keyword: str) -> List[str]:
        return self.doc_index.lookup(keyword)

    def statistics(self) -> Dict[str, Any]:
        """School statistics (§5.2.1 Administration)."""
        registrations = sum(
            s.find_number_of_course()
            for _, s in self.store.items(STUDENTS))
        return {
            "courseware": self.store.count(COURSEWARE),
            "courses": self.store.count(COURSES),
            "students": self.store.count(STUDENTS),
            "library_documents": self.store.count(LIBRARY),
            "content_objects": len(self.content.refs()),
            "content_bytes": self.content.total_bytes(),
            "course_registrations": registrations,
        }


class DatabaseServer:
    """RPC surface of the courseware database.

    When a billing service is attached to :attr:`billing` (§5.2.1
    leaves "space for the billing services"), course registrations and
    classroom session time are metered automatically as their RPCs are
    served.
    """

    def __init__(self, db: CoursewareDatabase) -> None:
        self.db = db
        self.billing = None
        #: (student, courseware) -> position at last SaveResume, so the
        #: billed session time is the increment, not the total
        self._billed_positions: Dict[Any, float] = {}

    def attach(self, rpc: RpcServer) -> RpcServer:
        """Register every method on an RpcServer endpoint."""
        db = self.db
        rpc.register("Get_List_Doc",
                     lambda p: [s["courseware_id"]
                                for s in db.list_courseware()])
        rpc.register("Get_Selected_Doc",
                     lambda p: db.get_courseware(p["name"]).container_blob)
        rpc.register("GetKeywordTree",
                     lambda p: db.keyword_tree.subtree((p or {}).get("path", "")))
        rpc.register("GetDocByKeyword",
                     lambda p: db.docs_by_keyword(p["keyword"]))
        rpc.register("ListCourseware",
                     lambda p: db.list_courseware((p or {}).get("program")))
        rpc.register("ListPrograms", lambda p: db.programs())
        rpc.register("ListCourses",
                     lambda p: [{"course_code": c.course_code, "name": c.name,
                                 "program": c.program,
                                 "courseware_id": c.courseware_id,
                                 "description": c.description}
                                for c in db.list_courses(
                                    (p or {}).get("program"))])
        rpc.register("Register",
                     lambda p: db.register_student(
                         p["name"], p.get("address", ""),
                         p.get("email", "")).profile())
        rpc.register("GetStudent",
                     lambda p: db.get_student(p["student_number"]).profile())
        rpc.register("UpdateProfile", self._update_profile)
        rpc.register("RegisterForCourse", self._register_for_course)
        rpc.register("SaveResume", self._save_resume)
        rpc.register("GetResume",
                     lambda p: db.get_student(p["student_number"])
                     .resume_positions.get(p["courseware_id"], 0.0))
        rpc.register("AddBookmark", self._add_bookmark)
        rpc.register("GetBookmarks",
                     lambda p: db.get_student(p["student_number"])
                     .bookmarks.get(p["courseware_id"], []))
        rpc.register("ListLibrary", lambda p: db.list_library())
        rpc.register("GetLibraryDoc",
                     lambda p: {"doc_id": p["doc_id"],
                                "content_ref": db.get_library_document(
                                    p["doc_id"]).content_ref})
        rpc.register("Statistics", lambda p: db.statistics())
        rpc.register_stream("GetContent",
                            lambda p: db.content.chunks(p["content_ref"]))
        # upload surface used by the production center and author sites
        rpc.register("StoreContent", self._store_content)
        rpc.register("StoreCourseware", self._store_courseware)
        rpc.register("AddCourse", self._add_course)
        rpc.register("AddLibraryDoc", self._add_library_doc)
        return rpc

    def _update_profile(self, p: Dict[str, Any]) -> Dict[str, Any]:
        student = self.db.get_student(p["student_number"])
        for attr in ("name", "address", "email"):
            if attr in p:
                setattr(student, attr, p[attr])
        self.db.update_student(student)
        return student.profile()

    def _register_for_course(self, p: Dict[str, Any]) -> List[str]:
        student = self.db.get_student(p["student_number"])
        newly = p["course_code"] not in student.registered_courses
        self.db.register_for_course(p["student_number"], p["course_code"])
        if self.billing is not None and newly:
            self.billing.record_registration(
                p["student_number"], p["course_code"])
        return list(self.db.get_student(p["student_number"])
                    .registered_courses)

    def _save_resume(self, p: Dict[str, Any]) -> bool:
        student = self.db.get_student(p["student_number"])
        position = float(p["position"])
        student.resume_positions[p["courseware_id"]] = position
        self.db.update_student(student)
        if self.billing is not None:
            key = (p["student_number"], p["courseware_id"])
            previous = self._billed_positions.get(key, 0.0)
            increment = max(0.0, position - previous)
            self._billed_positions[key] = max(previous, position)
            if increment > 0:
                self.billing.record_session(
                    p["student_number"], p["courseware_id"], increment)
        return True

    def _store_content(self, p: Dict[str, Any]) -> bool:
        self.db.store_content(ContentRecord(
            content_ref=p["content_ref"], media_kind=p["media_kind"],
            coding_method=p["coding_method"], data=p["data"],
            attributes=dict(p.get("attributes", {}))))
        return True

    def _store_courseware(self, p: Dict[str, Any]) -> Dict[str, Any]:
        record = CoursewareRecord(
            courseware_id=p["courseware_id"], title=p["title"],
            program=p["program"], container_blob=p["container_blob"],
            keywords=list(p.get("keywords", [])),
            introduction_ref=p.get("introduction_ref"),
            author=p.get("author", ""))
        self.db.store_courseware(record)
        return record.summary()

    def _add_course(self, p: Dict[str, Any]) -> bool:
        self.db.add_course(CourseRecord(
            course_code=p["course_code"], name=p["name"],
            program=p["program"], courseware_id=p["courseware_id"],
            description=p.get("description", "")))
        return True

    def _add_library_doc(self, p: Dict[str, Any]) -> bool:
        self.db.add_library_document(LibraryDocument(
            doc_id=p["doc_id"], title=p["title"],
            media_kind=p["media_kind"], content_ref=p["content_ref"],
            keywords=list(p.get("keywords", []))))
        return True

    def _add_bookmark(self, p: Dict[str, Any]) -> List[str]:
        student = self.db.get_student(p["student_number"])
        marks = student.bookmarks.setdefault(p["courseware_id"], [])
        if p["reference"] not in marks:
            marks.append(p["reference"])
        self.db.update_student(student)
        return list(marks)


class DatabaseClient:
    """The client module embedded in the navigator (§5.3.2)."""

    def __init__(self, rpc: RpcClient) -> None:
        self.rpc = rpc

    # thesis-named APIs
    def Get_List_Doc(self, **cb) -> PendingCall:
        return self.rpc.call("Get_List_Doc", None, **cb)

    def Get_Selected_Doc(self, name: str, **cb) -> PendingCall:
        return self.rpc.call("Get_Selected_Doc", {"name": name}, **cb)

    def GetKeywordTree(self, path: str = "", **cb) -> PendingCall:
        return self.rpc.call("GetKeywordTree", {"path": path}, **cb)

    def GetDocByKeyword(self, keyword: str, **cb) -> PendingCall:
        return self.rpc.call("GetDocByKeyword", {"keyword": keyword}, **cb)

    # administration / navigation
    def register(self, name: str, address: str = "", email: str = "",
                 **cb) -> PendingCall:
        return self.rpc.call("Register", {"name": name, "address": address,
                                          "email": email}, **cb)

    def get_student(self, student_number: str, **cb) -> PendingCall:
        return self.rpc.call("GetStudent",
                             {"student_number": student_number}, **cb)

    def update_profile(self, student_number: str, **fields) -> PendingCall:
        cb = {k: fields.pop(k) for k in ("on_result", "on_error")
              if k in fields}
        return self.rpc.call("UpdateProfile",
                             {"student_number": student_number, **fields},
                             **cb)

    def register_for_course(self, student_number: str, course_code: str,
                            **cb) -> PendingCall:
        return self.rpc.call("RegisterForCourse",
                             {"student_number": student_number,
                              "course_code": course_code}, **cb)

    def list_programs(self, **cb) -> PendingCall:
        return self.rpc.call("ListPrograms", None, **cb)

    def list_courses(self, program: Optional[str] = None, **cb) -> PendingCall:
        return self.rpc.call("ListCourses", {"program": program}, **cb)

    def list_courseware(self, program: Optional[str] = None,
                        **cb) -> PendingCall:
        return self.rpc.call("ListCourseware", {"program": program}, **cb)

    def save_resume(self, student_number: str, courseware_id: str,
                    position: float, **cb) -> PendingCall:
        return self.rpc.call("SaveResume",
                             {"student_number": student_number,
                              "courseware_id": courseware_id,
                              "position": position}, **cb)

    def get_resume(self, student_number: str, courseware_id: str,
                   **cb) -> PendingCall:
        return self.rpc.call("GetResume",
                             {"student_number": student_number,
                              "courseware_id": courseware_id}, **cb)

    def add_bookmark(self, student_number: str, courseware_id: str,
                     reference: str, **cb) -> PendingCall:
        return self.rpc.call("AddBookmark",
                             {"student_number": student_number,
                              "courseware_id": courseware_id,
                              "reference": reference}, **cb)

    def get_bookmarks(self, student_number: str, courseware_id: str,
                      **cb) -> PendingCall:
        return self.rpc.call("GetBookmarks",
                             {"student_number": student_number,
                              "courseware_id": courseware_id}, **cb)

    def list_library(self, **cb) -> PendingCall:
        return self.rpc.call("ListLibrary", None, **cb)

    def get_library_doc(self, doc_id: str, **cb) -> PendingCall:
        return self.rpc.call("GetLibraryDoc", {"doc_id": doc_id}, **cb)

    def statistics(self, **cb) -> PendingCall:
        return self.rpc.call("Statistics", None, **cb)

    def get_content(self, content_ref: str, *,
                    on_end: Optional[Callable[[StreamReceiver], None]] = None
                    ) -> StreamReceiver:
        return self.rpc.open_stream("GetContent",
                                    {"content_ref": content_ref},
                                    on_end=on_end)


def wait_for(sim, pending: PendingCall) -> Any:
    """Run the simulator until a call completes, or for at most
    :data:`WAIT_DEADLINE` simulated seconds."""
    deadline = sim.now + WAIT_DEADLINE
    while not pending.done and sim.now < deadline:
        if not sim.step():
            break
    if not pending.done:
        raise DatabaseError(f"call {pending.method!r} did not complete")
    if pending.error is not None:
        raise pending.error
    return pending.result
