"""Teaching architectures (§4.2) as courseware frameworks (§4.5.1).

"Several models for teaching architecture are to be provided to the
authors in the forms of frameworks...  The chosen of a specific
framework will result in a corresponding document model to be
selected.  The courseware authors need only to fill the media objects
into the frameworks and specify the scenario."

Each architecture prescribes a document model and generates a skeleton
the author fills in.  The six are Schank's: simulation-based learning
by doing, incidental learning, learning by reflection, case-based
teaching, learning by exploring, and goal-directed learning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro.authoring.hyperdoc import HyperDocument, Page
from repro.authoring.imd import InteractiveDocument, Scene, Section
from repro.util.errors import AuthoringError

Document = Union[HyperDocument, InteractiveDocument]


@dataclass(frozen=True)
class TeachingArchitecture:
    """One framework: metadata plus a skeleton builder."""

    name: str
    summary: str
    document_model: str          # "hypermedia" or "interactive"
    #: the named parts an author must fill (sections/pages and roles)
    skeleton_parts: Tuple[str, ...]

    def build_skeleton(self, course_name: str) -> Document:
        builder = _BUILDERS[self.name]
        return builder(course_name, self)


def _interactive_skeleton(course_name: str,
                          arch: TeachingArchitecture) -> InteractiveDocument:
    doc = InteractiveDocument(course_name,
                              title=f"{course_name} ({arch.name})")
    for part in arch.skeleton_parts:
        scene = Scene(name=f"{part}-scene")
        section = Section(name=part, title=part.replace("-", " ").title(),
                          scenes=[scene])
        doc.add_section(section)
    return doc


def _hypermedia_skeleton(course_name: str,
                         arch: TeachingArchitecture) -> HyperDocument:
    doc = HyperDocument(course_name, title=f"{course_name} ({arch.name})")
    for part in arch.skeleton_parts:
        doc.add_page(Page(name=part, title=part.replace("-", " ").title()))
    # wire a default forward path so the skeleton validates once filled
    return doc


_BUILDERS: Dict[str, Callable[[str, TeachingArchitecture], Document]] = {}

ARCHITECTURES: List[TeachingArchitecture] = []


def _register(arch: TeachingArchitecture,
              builder: Callable[[str, TeachingArchitecture], Document]
              ) -> TeachingArchitecture:
    ARCHITECTURES.append(arch)
    _BUILDERS[arch.name] = builder
    return arch


SIMULATION_BASED = _register(TeachingArchitecture(
    name="simulation-based",
    summary="Learning by doing in a simulator, with a teaching program, "
            "language understanding, and expert story-telling.",
    document_model="interactive",
    skeleton_parts=("briefing", "simulator", "expert-stories", "debrief"),
), _interactive_skeleton)

INCIDENTAL = _register(TeachingArchitecture(
    name="incidental",
    summary="Learn without noticing while doing something fun "
            "(e.g. touring with video clips at each destination).",
    document_model="interactive",
    skeleton_parts=("tour-intro", "destinations", "souvenirs"),
), _interactive_skeleton)

REFLECTION = _register(TeachingArchitecture(
    name="reflection",
    summary="The student is her own best teacher; the course listens "
            "and helps her see shortcomings in thinking.",
    document_model="interactive",
    skeleton_parts=("prompt", "workspace", "reflection-questions"),
), _interactive_skeleton)

CASE_BASED = _register(TeachingArchitecture(
    name="case-based",
    summary="Experts are repositories of cases; tell students exactly "
            "what they need to know when they need to know it.",
    document_model="interactive",
    skeleton_parts=("problem", "cases", "expert-commentary", "practice"),
), _interactive_skeleton)

EXPLORATION = _register(TeachingArchitecture(
    name="exploration",
    summary="Students follow their own path with multiple experts "
            "available to answer questions.",
    document_model="hypermedia",
    skeleton_parts=("entry", "topics", "experts", "summary"),
), _hypermedia_skeleton)

GOAL_DIRECTED = _register(TeachingArchitecture(
    name="goal-directed",
    summary="A goal the student adopts willingly leverages the power "
            "of the teaching architecture.",
    document_model="interactive",
    skeleton_parts=("goal", "mission-steps", "resources", "achievement"),
), _interactive_skeleton)


def list_architectures() -> List[TeachingArchitecture]:
    return list(ARCHITECTURES)


def architecture_by_name(name: str) -> TeachingArchitecture:
    for arch in ARCHITECTURES:
        if arch.name == name:
            return arch
    raise AuthoringError(
        f"unknown teaching architecture {name!r}; available: "
        f"{[a.name for a in ARCHITECTURES]}")
