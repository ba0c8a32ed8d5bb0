"""One classroom session (§5.4).

Binds a student, a course, and a presenter: fetches the courseware on
demand, resumes where the student left off, records bookmarks, and
saves the stop position on exit — "some important information such as
the stop position of the courseware presentation is to be
automatically stored for later usage."
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.database.api import DatabaseClient
from repro.navigator.presenter import CoursewarePresenter
from repro.util.errors import PresentationError


class LearningSession:
    """The classroom: fetch -> resume -> interact -> save position."""

    def __init__(self, student_number: str, course_code: str,
                 courseware_id: str, client: DatabaseClient,
                 sim) -> None:
        self.student_number = student_number
        self.course_code = course_code
        self.courseware_id = courseware_id
        self.client = client
        self.presenter = CoursewarePresenter(sim, client=client,
                                             name=f"session:{course_code}")
        self.bookmarks: List[str] = []
        self.ready = False
        #: why the courseware could not be presented (a refused content
        #: ref), set instead of ``ready``
        self.error: Optional[str] = None
        self.resume_position = 0.0
        #: the ``GetResume`` reply arrived (``resume_position`` is known)
        self._resumed = False
        self.closed = False
        self._on_ready: Optional[Callable[["LearningSession"], None]] = None

    def open(self, on_ready: Optional[Callable[["LearningSession"], None]]
             = None) -> None:
        """Fetch blob + resume position + content, then start playback."""
        self._on_ready = on_ready
        self.client.get_resume(
            self.student_number, self.courseware_id,
            on_result=self._got_resume)

    # a reply that arrives after close() finds the student gone: it
    # fetches and presents nothing

    def _got_resume(self, position: float) -> None:
        if self.closed:
            return
        self.resume_position = float(position)
        self._resumed = True
        self.client.Get_Selected_Doc(self.courseware_id,
                                     on_result=self._got_blob)

    def _got_blob(self, blob: bytes) -> None:
        if self.closed:
            return
        self.presenter.load_blob(blob)
        self.presenter.preload(on_ready=self._content_ready)

    def _content_ready(self) -> None:
        if self.closed:
            return
        self.error = self.presenter.error
        if self.error is None:
            self.presenter.start(from_position=self.resume_position)
            self.ready = True
        if self._on_ready is not None:
            self._on_ready(self)

    # -- in-session facilities ------------------------------------------------

    def click(self, name: str) -> None:
        if not self.ready:
            raise PresentationError("session not ready yet")
        self.presenter.click(name)

    def add_bookmark(self, object_name: str) -> None:
        """Bookmark an interesting object (§5.2.1 Other Features)."""
        rt = self.presenter.object_named(object_name)
        reference = str(rt.model.identifier)
        if reference not in self.bookmarks:
            self.bookmarks.append(reference)
        self.client.add_bookmark(self.student_number, self.courseware_id,
                                 reference)

    def close(self) -> float:
        """Stop playback and persist the resume position.

        A presentation that never started (refused content, or left
        before it was ready) stops at 0.0; the saved position must not
        fall below the one this visit resumed from.  A session left
        before the ``GetResume`` reply arrived saves nothing: it never
        learned the position it would have to keep.
        """
        position = max(self.presenter.stop(), self.resume_position)
        if self._resumed:
            self.client.save_resume(self.student_number,
                                    self.courseware_id, position)
        self.ready = False
        self.closed = True
        return position
