"""Meeting and discussing (§5.2.1), with the on-line facilitator site.

"The meeting and discussing module provides an environment for the
students and the on-line consultants to communicate with each other."
Two mechanisms: **mailboxes** (the e-mail style) and **conferences**
(named rooms with a live message feed).  The facilitator site runs a
:class:`Facilitator` — teachers or specialists "work on-line to answer
questions"; ours matches student questions against a keyword-indexed
knowledge base, queueing unmatched questions for a human, which is how
we exercise the on-demand-help path without people.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.util.errors import DatabaseError


@dataclass
class Message:
    message_id: int
    sender: str
    recipient: str          # mailbox name or conference name
    body: str
    sent_at: float
    conference: bool = False

    def summary(self) -> Dict:
        return {"message_id": self.message_id, "sender": self.sender,
                "recipient": self.recipient, "body": self.body,
                "sent_at": self.sent_at}


class DiscussionService:
    """Mailboxes and conferences."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._mailboxes: Dict[str, List[Message]] = {}
        self._conferences: Dict[str, List[Message]] = {}
        self._members: Dict[str, set] = {}

    # -- e-mail style -----------------------------------------------------

    def send_mail(self, sender: str, recipient: str, body: str,
                  now: float = 0.0) -> Message:
        msg = Message(message_id=next(self._ids), sender=sender,
                      recipient=recipient, body=body, sent_at=now)
        self._mailboxes.setdefault(recipient, []).append(msg)
        return msg

    def read_mail(self, mailbox: str) -> List[Message]:
        """Return and empty *mailbox*."""
        return self._mailboxes.pop(mailbox, [])

    # -- conferences ------------------------------------------------------

    def open_conference(self, name: str) -> None:
        self._conferences.setdefault(name, [])
        self._members.setdefault(name, set())

    def join(self, conference: str, member: str) -> None:
        if conference not in self._conferences:
            raise DatabaseError(f"no conference {conference!r}")
        self._members[conference].add(member)

    def leave(self, conference: str, member: str) -> None:
        self._members.get(conference, set()).discard(member)

    def members(self, conference: str) -> List[str]:
        if conference not in self._conferences:
            raise DatabaseError(f"no conference {conference!r}")
        return sorted(self._members[conference])

    def say(self, conference: str, sender: str, body: str,
            now: float = 0.0) -> Message:
        if conference not in self._conferences:
            raise DatabaseError(f"no conference {conference!r}")
        if sender not in self._members[conference]:
            raise DatabaseError(
                f"{sender!r} is not in conference {conference!r}")
        msg = Message(message_id=next(self._ids), sender=sender,
                      recipient=conference, body=body, sent_at=now,
                      conference=True)
        self._conferences[conference].append(msg)
        return msg

    def transcript(self, conference: str, since_id: int = 0) -> List[Message]:
        if conference not in self._conferences:
            raise DatabaseError(f"no conference {conference!r}")
        return [m for m in self._conferences[conference]
                if m.message_id > since_id]


@dataclass
class FaqEntry:
    keywords: List[str]
    answer: str


#: the sender of the answers the facilitator mails
FACILITATOR = "facilitator"


class Facilitator:
    """The on-line facilitator: answers questions on demand.

    Questions whose words overlap an FAQ entry's keywords get that
    answer immediately; everything else lands in ``pending`` for the
    (simulated) human specialist, who answers via :meth:`answer_pending`
    into the student's mailbox on *discussion*, stamped by *clock*.
    """

    def __init__(self, discussion: DiscussionService,
                 clock: Callable[[], float]) -> None:
        self.discussion = discussion
        self.clock = clock
        self.faq: List[FaqEntry] = []
        self.pending: List[Tuple[str, str]] = []  # (student, question)
        self.answered = 0

    def teach(self, keywords: List[str], answer: str) -> None:
        self.faq.append(FaqEntry(keywords=[k.lower() for k in keywords],
                                 answer=answer))

    def ask(self, student: str, question: str) -> Optional[str]:
        words = set(question.lower().replace("?", " ").split())
        best: Tuple[int, Optional[FaqEntry]] = (0, None)
        for entry in self.faq:
            overlap = sum(1 for kw in entry.keywords if kw in words)
            if overlap > best[0]:
                best = (overlap, entry)
        if best[1] is not None:
            self.answered += 1
            return best[1].answer
        self.pending.append((student, question))
        return None

    def answer_pending(self, answer_fn) -> List[Message]:
        """Drain the queue: mail ``answer_fn(student, question)`` to each
        student's mailbox from :data:`FACILITATOR`.  Returns the mails."""
        sent = [self.discussion.send_mail(FACILITATOR, student,
                                          answer_fn(student, question),
                                          now=self.clock())
                for student, question in self.pending]
        self.answered += len(sent)
        self.pending.clear()
        return sent
