"""School service: RPC surface and client for the TeleSchool features.

One :class:`SchoolService` runs at the database/facilitator site and
registers its methods alongside the database server's on the same (or
a separate) RPC endpoint; :class:`SchoolClient` is the navigator-side
wrapper.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.school.bulletin import BulletinBoard
from repro.school.discussion import DiscussionService, Facilitator
from repro.school.exercise import Exercise, ExerciseService
from repro.transport.rpc import PendingCall, RpcClient, RpcServer


class SchoolService:
    """Server-side aggregation of the school features."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.bulletin = BulletinBoard(lambda: self.now)
        self.exercises = ExerciseService()
        self.discussion = DiscussionService()
        self.facilitator = Facilitator(self.discussion, lambda: self.now)
        self.discussion.open_conference("common-room")

    @property
    def now(self) -> float:
        return self.sim.now

    def attach(self, rpc: RpcServer) -> RpcServer:
        rpc.register("Bulletin.List",
                     lambda p: self.bulletin.list_posts(p["group"]))
        rpc.register("Exercise.Submit",
                     lambda p: self.exercises.submit(
                         p["exercise_id"], p["student_number"],
                         p["answers"]))
        rpc.register("Exercise.Standings",
                     lambda p: self.exercises.standings(p["exercise_id"]))
        rpc.register("Mail.Send",
                     lambda p: self.discussion.send_mail(
                         p["sender"], p["recipient"], p["body"],
                         now=self.now).summary())
        rpc.register("Mail.Read",
                     lambda p: [m.summary() for m in
                                self.discussion.read_mail(p["mailbox"])])
        rpc.register("Conference.Join", self._join)
        rpc.register("Conference.Say",
                     lambda p: self.discussion.say(
                         p["conference"], p["sender"], p["body"],
                         now=self.now).summary())
        rpc.register("Conference.Transcript",
                     lambda p: [m.summary() for m in
                                self.discussion.transcript(
                                    p["conference"],
                                    p.get("since_id", 0))])
        rpc.register("Facilitator.Ask", self._ask)
        return rpc

    def _join(self, p: Dict[str, Any]) -> List[str]:
        self.discussion.join(p["conference"], p["member"])
        return self.discussion.members(p["conference"])

    def _ask(self, p: Dict[str, Any]) -> Dict[str, Any]:
        answer = self.facilitator.ask(p["student_number"], p["question"])
        if answer is None:
            return {"answered": False,
                    "message": "your question was forwarded to a "
                               "specialist; check your mailbox later"}
        return {"answered": True, "answer": answer}


class SchoolClient:
    """Navigator-side wrapper over the school RPC methods."""

    def __init__(self, rpc: RpcClient) -> None:
        self.rpc = rpc

    def bulletin_list(self, group: str, **cb) -> PendingCall:
        return self.rpc.call("Bulletin.List", {"group": group}, **cb)

    def submit_exercise(self, exercise_id: str, student_number: str,
                        answers: List[Any], **cb) -> PendingCall:
        return self.rpc.call("Exercise.Submit",
                             {"exercise_id": exercise_id,
                              "student_number": student_number,
                              "answers": answers}, **cb)

    def standings(self, exercise_id: str, **cb) -> PendingCall:
        return self.rpc.call("Exercise.Standings",
                             {"exercise_id": exercise_id}, **cb)

    def send_mail(self, sender: str, recipient: str, body: str,
                  **cb) -> PendingCall:
        return self.rpc.call("Mail.Send", {"sender": sender,
                                           "recipient": recipient,
                                           "body": body}, **cb)

    def read_mail(self, mailbox: str, **cb) -> PendingCall:
        return self.rpc.call("Mail.Read", {"mailbox": mailbox}, **cb)

    def join_conference(self, conference: str, member: str,
                        **cb) -> PendingCall:
        return self.rpc.call("Conference.Join",
                             {"conference": conference, "member": member},
                             **cb)

    def say(self, conference: str, sender: str, body: str,
            **cb) -> PendingCall:
        return self.rpc.call("Conference.Say",
                             {"conference": conference, "sender": sender,
                              "body": body}, **cb)

    def transcript(self, conference: str, since_id: int = 0,
                   **cb) -> PendingCall:
        return self.rpc.call("Conference.Transcript",
                             {"conference": conference,
                              "since_id": since_id}, **cb)

    def ask_facilitator(self, student_number: str, question: str,
                        **cb) -> PendingCall:
        return self.rpc.call("Facilitator.Ask",
                             {"student_number": student_number,
                              "question": question}, **cb)
