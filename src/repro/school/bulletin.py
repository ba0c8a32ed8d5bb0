"""Bulletin board (§5.2.1).

"When information is to be published to all the students, bulletin
board should be used...  We use news group to achieve this feature."
Posts are organised in newsgroup-style groups and stamped with the
school's clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.util.errors import DatabaseError


@dataclass
class BulletinPost:
    post_id: int
    group: str
    author: str
    subject: str
    body: str
    posted_at: float

    def summary(self) -> Dict:
        return {"post_id": self.post_id, "group": self.group,
                "author": self.author, "subject": self.subject,
                "posted_at": self.posted_at}


class BulletinBoard:
    """Newsgroup-style board; *clock* stamps each post."""

    DEFAULT_GROUPS = ("school.announcements", "school.courses",
                      "school.exercises")

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._groups: Dict[str, List[BulletinPost]] = {
            g: [] for g in self.DEFAULT_GROUPS}
        self._ids = itertools.count(1)

    def post(self, group: str, author: str, subject: str,
             body: str) -> BulletinPost:
        if group not in self._groups:
            raise DatabaseError(f"no bulletin group {group!r}")
        post = BulletinPost(post_id=next(self._ids), group=group,
                            author=author, subject=subject, body=body,
                            posted_at=self.clock())
        self._groups[group].append(post)
        return post

    def list_posts(self, group: str) -> List[Dict]:
        if group not in self._groups:
            raise DatabaseError(f"no bulletin group {group!r}")
        return [p.summary() for p in self._groups[group]]
