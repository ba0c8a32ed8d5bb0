"""Bulletin board (§5.2.1).

"When information is to be published to all the students, bulletin
board should be used...  We use news group to achieve this feature."
Posts are organised in newsgroup-style groups with threading by
subject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.util.errors import DatabaseError


@dataclass
class BulletinPost:
    post_id: int
    group: str
    author: str
    subject: str
    body: str
    posted_at: float
    #: id of the post this replies to (threading)
    in_reply_to: Optional[int] = None

    def summary(self) -> Dict:
        return {"post_id": self.post_id, "group": self.group,
                "author": self.author, "subject": self.subject,
                "posted_at": self.posted_at,
                "in_reply_to": self.in_reply_to}


class BulletinBoard:
    """Newsgroup-style board with threads."""

    DEFAULT_GROUPS = ("school.announcements", "school.courses",
                      "school.exercises")

    def __init__(self) -> None:
        self._groups: Dict[str, List[BulletinPost]] = {
            g: [] for g in self.DEFAULT_GROUPS}
        self._ids = itertools.count(1)
        self._by_id: Dict[int, BulletinPost] = {}

    def post(self, group: str, author: str, subject: str, body: str,
             now: float = 0.0, in_reply_to: Optional[int] = None
             ) -> BulletinPost:
        if group not in self._groups:
            raise DatabaseError(f"no bulletin group {group!r}")
        if in_reply_to is not None and in_reply_to not in self._by_id:
            raise DatabaseError(f"no post {in_reply_to} to reply to")
        post = BulletinPost(post_id=next(self._ids), group=group,
                            author=author, subject=subject, body=body,
                            posted_at=now, in_reply_to=in_reply_to)
        self._groups[group].append(post)
        self._by_id[post.post_id] = post
        return post

    def list_posts(self, group: str) -> List[Dict]:
        if group not in self._groups:
            raise DatabaseError(f"no bulletin group {group!r}")
        return [p.summary() for p in self._groups[group]]

    def read(self, post_id: int) -> BulletinPost:
        post = self._by_id.get(post_id)
        if post is None:
            raise DatabaseError(f"no post {post_id}")
        return post

    def thread(self, post_id: int) -> List[BulletinPost]:
        """The root post and all (transitive) replies, in post order."""
        root = self.read(post_id)
        while root.in_reply_to is not None:
            root = self.read(root.in_reply_to)
        members = {root.post_id}
        out = [root]
        for post in sorted(self._by_id.values(), key=lambda p: p.post_id):
            if post.in_reply_to in members and post.post_id not in members:
                members.add(post.post_id)
                out.append(post)
        return out
