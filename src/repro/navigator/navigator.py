"""The navigator application state machine (Figs 5.3-5.7, §5.4).

Every screen of the prototype is a state here with the same inputs:

* **ENTRY** (Fig 5.3): welcome video; type a student number or
  register;
* **REGISTERING** (Fig 5.4): the profile dialogs, then course
  registration with per-course introduction videos;
* **MAIN**: the virtual school facilities — administration,
  classroom, library, discussion, bulletin board, exercises;
* **CLASSROOM** (Fig 5.5): a :class:`LearningSession`;
* **LIBRARY** (Fig 5.7): browse documents, follow cross-reference
  links;
* **ADMIN** (Fig 5.6): profile update and school statistics.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from repro.database.api import DatabaseClient
from repro.media.text import TextCodec, extract_links
from repro.navigator.session import LearningSession
from repro.school.service import SchoolClient
from repro.util.errors import PresentationError


class NavigatorState(enum.Enum):
    ENTRY = "entry"
    REGISTERING = "registering"
    MAIN = "main"
    CLASSROOM = "classroom"
    LIBRARY = "library"
    ADMIN = "admin"


FACILITIES = ("administration", "classroom", "library", "discussion",
              "bulletin", "exercise")

#: version string shown by the entry screen's "about" action (Fig 5.3)
NAVIGATOR_VERSION = "MIRL TeleSchool Navigator 1.0 (repro)"

#: well-known content ref for the virtual school's introduction clip
SCHOOL_INTRODUCTION_REF = "school-introduction"


class Navigator:
    """The user-site application."""

    def __init__(self, client: DatabaseClient,
                 school: Optional[SchoolClient], sim) -> None:
        self.client = client
        self.school = school
        self.sim = sim
        #: user-interaction spans root here; each cross-site request a
        #: screen triggers becomes a child carried over the wire
        self._tracer = sim.tracer
        self.state = NavigatorState.ENTRY
        self.student: Optional[Dict[str, Any]] = None
        self.session: Optional[LearningSession] = None
        #: the ``navigator.enter_classroom`` span until the session is
        #: ready; leaving before then ends it
        self._entering: Any = None
        #: UI trace: (state, event) pairs, for tests and the examples
        self.trace: List[tuple] = []

    def _note(self, event: str) -> None:
        self.trace.append((self.state.value, event))

    # -- entry screen (Fig 5.3) ------------------------------------------------

    def start(self) -> Dict[str, Any]:
        """Show the entry screen: the welcome clip and the two paths."""
        self.state = NavigatorState.ENTRY
        self._note("welcome-video")
        return {"screen": "entry", "video": "welcome",
                "actions": ["login", "register", "introduction", "about"]}

    def about(self) -> Dict[str, Any]:
        """The entry screen's version-information action."""
        self._note("about")
        return {"version": NAVIGATOR_VERSION,
                "facilities": list(FACILITIES)}

    def watch_school_introduction(self):
        """Stream the virtual school's general introduction clip
        (Fig 5.3's 'Introduction' button).  Works before login."""
        self._note("school-introduction")
        return self.client.get_content(SCHOOL_INTRODUCTION_REF)

    def login(self, student_number: str,
              on_done: Optional[Callable[[Dict[str, Any]], None]] = None,
              on_error: Optional[Callable] = None) -> None:
        if self.state is not NavigatorState.ENTRY:
            raise PresentationError("login is only possible from the entry screen")

        span = self._tracer.span("navigator.login", student=student_number)

        def ok(profile: Dict[str, Any]) -> None:
            self.student = profile
            self.state = NavigatorState.MAIN
            self._note(f"login:{student_number}")
            span.end()
            if on_done is not None:
                on_done(profile)

        def err(error) -> None:
            span.set(error=str(error))
            span.end()
            if on_error is not None:
                on_error(error)

        token = self._tracer.attach(span.context)
        try:
            self.client.get_student(student_number, on_result=ok,
                                    on_error=err)
        finally:
            self._tracer.detach(token)

    # -- registration (Fig 5.4) ----------------------------------------------------

    def register(self, name: str, address: str = "", email: str = "",
                 on_done: Optional[Callable[[Dict[str, Any]], None]] = None
                 ) -> None:
        """The general-information dialog; yields a new student number."""
        if self.state is not NavigatorState.ENTRY:
            raise PresentationError("register from the entry screen")
        self.state = NavigatorState.REGISTERING
        self._note("register-dialog")
        span = self._tracer.span("navigator.register")

        def ok(profile: Dict[str, Any]) -> None:
            self.student = profile
            self.state = NavigatorState.MAIN
            self._note(f"registered:{profile['student_number']}")
            span.end()
            if on_done is not None:
                on_done(profile)

        token = self._tracer.attach(span.context)
        try:
            self.client.register(name, address, email, on_result=ok)
        finally:
            self._tracer.detach(token)

    def course_introduction(self, introduction_ref: str):
        """Stream a course's introduction video (Fig 5.4d).

        *introduction_ref* comes from the courseware summary returned
        by :meth:`list_courseware` / ``ListCourseware``.
        """
        return self.client.get_content(introduction_ref)

    def register_for_course(self, course_code: str, **cb):
        self._require_student()
        self._note(f"select-course:{course_code}")
        return self.client.register_for_course(
            self.student["student_number"], course_code, **cb)

    def list_programs(self, **cb):
        return self.client.list_programs(**cb)

    def list_courses(self, program: Optional[str] = None, **cb):
        return self.client.list_courses(program, **cb)

    # -- main menu --------------------------------------------------------------------

    def facilities(self) -> List[str]:
        self._require_student()
        return list(FACILITIES)

    def _require_student(self) -> None:
        if self.student is None:
            raise PresentationError("no student logged in")

    # -- classroom (Fig 5.5) -------------------------------------------------------------

    def enter_classroom(self, course_code: str, courseware_id: str,
                        on_ready=None) -> LearningSession:
        self._require_student()
        self.state = NavigatorState.CLASSROOM
        self._note(f"classroom:{course_code}")
        span = self._tracer.span("navigator.enter_classroom",
                                 course=course_code,
                                 courseware=courseware_id)

        def ready(session: LearningSession) -> None:
            if session.error is not None:
                span.set(error=session.error)
            span.end()
            if self._entering is span:
                self._entering = None
            if on_ready is not None:
                on_ready(session)

        self._entering = span

        token = self._tracer.attach(span.context)
        try:
            self.session = LearningSession(
                student_number=self.student["student_number"],
                course_code=course_code, courseware_id=courseware_id,
                client=self.client, sim=self.sim)
            self.session.open(on_ready=ready)
        finally:
            self._tracer.detach(token)
        return self.session

    def leave_classroom(self) -> float:
        if self.session is None:
            raise PresentationError("not in a classroom")
        position = self.session.close()
        self.session = None
        if self._entering is not None:
            # left before the session was ready: a later reply finds
            # the session closed and never ends the span
            self._entering.set(left_early=True)
            self._entering.end()
            self._entering = None
        self.state = NavigatorState.MAIN
        self._note("leave-classroom")
        return position

    # -- library (Fig 5.7) ------------------------------------------------------------------

    def browse_library(self, **cb):
        self._require_student()
        self.state = NavigatorState.LIBRARY
        self._note("library")
        return self.client.list_library(**cb)

    def read_document(self, doc_id: str,
                      on_done: Callable[[Dict[str, Any]], None]) -> None:
        """Fetch a library document; text documents get their
        cross-reference links extracted for follow-up browsing."""
        self._require_student()

        def got_doc(doc: Dict[str, Any]) -> None:
            def got_content(rx) -> None:
                data = rx.data
                result = {"doc_id": doc_id, "bytes": len(data)}
                if data[:4] == b"STXT":
                    text = TextCodec().decode(data)
                    result["text"] = text
                    result["links"] = extract_links(text)
                on_done(result)
            self.client.get_content(doc["content_ref"], on_end=got_content)

        self.client.get_library_doc(doc_id, on_result=got_doc)

    # -- administration (Fig 5.6) ----------------------------------------------------------------

    def update_profile(self, **fields):
        self._require_student()
        self.state = NavigatorState.ADMIN
        self._note("update-profile")
        number = self.student["student_number"]

        def ok(profile):
            self.student = profile
        cb = {"on_result": ok}
        if "on_result" in fields:
            user_cb = fields.pop("on_result")

            def both(profile):
                ok(profile)
                user_cb(profile)
            cb = {"on_result": both}
        return self.client.update_profile(number, **fields, **cb)

    # -- discussion / bulletin / exercises (via the school client) ------------------------------

    def ask_facilitator(self, question: str, **cb):
        self._require_student()
        self._require_school()
        self._note("ask-facilitator")
        return self.school.ask_facilitator(
            self.student["student_number"], question, **cb)

    def read_bulletin(self, group: str, **cb):
        self._require_student()
        self._require_school()
        return self.school.bulletin_list(group, **cb)

    def take_exercise(self, exercise_id: str, answers: List[Any], **cb):
        self._require_student()
        self._require_school()
        self._note(f"exercise:{exercise_id}")
        return self.school.submit_exercise(
            exercise_id, self.student["student_number"], answers, **cb)

    def _require_school(self) -> None:
        if self.school is None:
            raise PresentationError(
                "no school service connection configured")

    # -- exit -----------------------------------------------------------------------------------------

    def exit(self) -> None:
        """Terminate the program (saving any open session position)."""
        if self.session is not None:
            self.leave_classroom()
        self._note("exit")
        self.state = NavigatorState.ENTRY
        self.student = None
