"""Exercises (§5.2.1).

"Practicing is the best way to learn...  exercises can be provided as
a separate module.  Problems designed for the exercises can be in
various styles besides the traditional text-based one.  Contest can
also be organized to stimulate the interests of the students."

Three question styles, auto-grading, per-student score records, and
contests (ranked standings over an exercise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Union

from repro.util.errors import DatabaseError


@dataclass
class MultipleChoiceQuestion:
    prompt: str
    options: List[str]
    correct: int
    points: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.correct < len(self.options):
            raise ValueError("correct option index out of range")

    def grade(self, answer: Any) -> float:
        return self.points if answer == self.correct else 0.0


@dataclass
class NumericQuestion:
    prompt: str
    answer: float
    tolerance: float = 1e-6
    points: float = 1.0

    def grade(self, answer: Any) -> float:
        try:
            value = float(answer)
        except (TypeError, ValueError):
            return 0.0
        return self.points if abs(value - self.answer) <= self.tolerance \
            else 0.0


@dataclass
class TextQuestion:
    prompt: str
    keywords: List[str]          # all must appear for full credit
    points: float = 1.0

    def grade(self, answer: Any) -> float:
        if not isinstance(answer, str) or not self.keywords:
            return 0.0
        text = answer.lower()
        hits = sum(1 for kw in self.keywords if kw.lower() in text)
        return self.points * hits / len(self.keywords)


Question = Union[MultipleChoiceQuestion, NumericQuestion, TextQuestion]


@dataclass
class Exercise:
    exercise_id: str
    course_code: str
    title: str
    questions: List[Question] = field(default_factory=list)

    def max_score(self) -> float:
        return sum(q.points for q in self.questions)

    def grade(self, answers: List[Any]) -> Tuple[float, List[float]]:
        if len(answers) != len(self.questions):
            raise DatabaseError(
                f"exercise {self.exercise_id} has {len(self.questions)} "
                f"questions, got {len(answers)} answers")
        per_question = [q.grade(a) for q, a in zip(self.questions, answers)]
        return sum(per_question), per_question


class ExerciseService:
    """Holds exercises and student submissions."""

    def __init__(self) -> None:
        self._exercises: Dict[str, Exercise] = {}
        #: (exercise_id, student_number) -> best score
        self._scores: Dict[Tuple[str, str], float] = {}
        self.submissions = 0

    def add(self, exercise: Exercise) -> None:
        if exercise.exercise_id in self._exercises:
            raise DatabaseError(
                f"duplicate exercise {exercise.exercise_id!r}")
        if not exercise.questions:
            raise DatabaseError(
                f"exercise {exercise.exercise_id!r} has no questions")
        self._exercises[exercise.exercise_id] = exercise

    def get(self, exercise_id: str) -> Exercise:
        exercise = self._exercises.get(exercise_id)
        if exercise is None:
            raise DatabaseError(f"no exercise {exercise_id!r}")
        return exercise

    def submit(self, exercise_id: str, student_number: str,
               answers: List[Any]) -> Dict[str, Any]:
        exercise = self.get(exercise_id)
        score, per_question = exercise.grade(answers)
        self.submissions += 1
        key = (exercise_id, student_number)
        best = max(score, self._scores.get(key, 0.0))
        self._scores[key] = best
        return {"score": score, "best": best,
                "max_score": exercise.max_score(),
                "per_question": per_question}

    def standings(self, exercise_id: str) -> List[Dict[str, Any]]:
        """Contest view: students ranked by best score."""
        self.get(exercise_id)
        rows = [{"student_number": student, "score": score}
                for (eid, student), score in self._scores.items()
                if eid == exercise_id]
        return sorted(rows, key=lambda r: (-r["score"], r["student_number"]))
