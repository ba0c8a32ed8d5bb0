"""The three benchmark workloads, each one MITS deployment per unit.

A *unit* is one fresh :class:`~repro.core.system.MitsSystem` driven
through one workload.  It has three phases:

* ``setup(lap)`` builds the deployment: media production, publishing,
  enrolment and catalogue fill.  It calls ``lap()`` after each step;
  its wall time, so sliced, gives ``setup_s``.
* ``measure(lap)`` runs the learner- or author-facing work, in short
  slices of simulated time, calling ``lap()`` after each.  Its wall
  time, so sliced, gives ``wall_s``.
* ``verify()`` runs after the clock stops.  It checks every output
  against the generated inputs, digests the canonical snapshot, and
  returns an :class:`Outcome`.

Inputs come from :func:`make_inputs` and depend only on the seed.  The
program receives generated data (names, catalogue rows, query
arguments, documents), never the seed itself.  The amount of work is fixed by
the workload shape, so a new seed changes *what* is computed but not
*how much*: every keyword has the same number of documents, every
document the same structure, and the lecture video is the same clip.

Learners are driven in simulated time from one process: no threads,
no pool.  Only public APIs of the program are used.
"""

from __future__ import annotations

import hashlib
import os
import random
import string
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.stats import Tally

from repro.atm.qos import ServiceCategory, TrafficContract
from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.authoring.editor import CoursewareEditor
from repro.core.system import MitsSystem
from repro.media.video import VideoStream
from repro.media.production import MediaProductionCenter
from repro.obs import export
from repro.obs.audit import ConservationAuditor
from repro.obs.equivalence import canonical_form
from repro.streaming import VideoPlayer, VideoStreamSender
from repro.util.errors import DatabaseError

#: MitsSystem arguments that switch every obs collector off — the "B"
#: side of the obs A/B comparison (ledger and sink are simply not asked
#: for)
OBS_OFF = dict(tracing=False, telemetry_interval=None, meter=False,
               watchdog=False)


@dataclass
class Outcome:
    """What one unit produced, checked outside the timed phases."""

    tally: Tally
    #: sha256 of canonical_form(snapshot()); None for obs-off units,
    #: whose snapshot differs by construction
    digest: Optional[str]
    #: learner-facing simulated outputs (checks, never metrics)
    sim: Dict[str, float] = field(default_factory=dict)


def _token(rng: random.Random, n: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _p99(values: List[float]) -> float:
    """Nearest-rank p99 of simulated durations."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def snapshot_digest(mits: MitsSystem) -> str:
    return hashlib.sha256(
        canonical_form(mits.snapshot()).encode()).hexdigest()


# -- documents -----------------------------------------------------------

@dataclass(frozen=True)
class DocSpec:
    """A generated interactive document: fixed shape, seeded names."""

    doc_id: str
    title: str
    keywords: Tuple[str, ...]
    #: per scene: (scene name, choice label, text ref, image ref)
    scenes: Tuple[Tuple[str, str, str, str], ...]


def make_doc_spec(rng: random.Random, doc_id: str, keywords: Tuple[str, ...],
                  scenes: int, texts: List[str],
                  images: List[str]) -> DocSpec:
    """Scene *k* shows text ``k mod len(texts)`` and image ``k mod
    len(images)``, so every document references the same media mix."""
    return DocSpec(
        doc_id=doc_id, title=f"Course {_token(rng, 12)}", keywords=keywords,
        scenes=tuple((f"scene-{_token(rng)}", f"Next: {_token(rng, 24)}",
                      texts[k % len(texts)], images[k % len(images)])
                     for k in range(scenes)))


def build_document(spec: DocSpec) -> InteractiveDocument:
    """The authoring model for *spec*: one section, chained scenes."""
    doc = InteractiveDocument(spec.doc_id, title=spec.title)
    section_scenes = []
    for name, label, text_ref, image_ref in spec.scenes:
        scene = Scene(name=name, objects=[
            SceneObject(name="notes", kind="text", content_ref=text_ref),
            SceneObject(name="figure", kind="image", content_ref=image_ref,
                        position=(0, 200), size=(320, 240)),
            SceneObject(name="next", kind="choice", label=label,
                        position=(0, 460)),
        ])
        scene.timeline.add(TimelineEntry("notes", 0.0, 4.0))
        scene.timeline.add(TimelineEntry("figure", 0.5, 3.0))
        scene.behavior.when_selected("next", ("stop", "notes"),
                                     ("stop", "figure"))
        section_scenes.append(scene)
    doc.add_section(Section(name="main", scenes=section_scenes))
    return doc


def compile_blobs(specs: List[DocSpec], application: str,
                  catalog: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, bytes]:
    """The interchange blob of each document, compiled in order by one
    editor, as one author working through the list would."""
    editor = CoursewareEditor(application, catalog=catalog)
    return {spec.doc_id: editor.compile_imd(build_document(spec)).encode()
            for spec in specs}


# -- inputs --------------------------------------------------------------

#: lecture shape: learners stream the same clip, entering 1 s apart.
#: The clip is short because its production and the archive dump are
#: single calls, timed as whole slices (see run.py)
LECTURE_LEARNERS = 4
LECTURE_STAGGER_S = 1.0
LECTURE_VIDEO = "lecture-video"
LECTURE_VIDEO_SECONDS = 4.0

#: catalog shape: learners x queries per learner, closed loop
CATALOG_LEARNERS = 4
CATALOG_COURSES = 12
CATALOG_LIBRARY = 24
CATALOG_KEYWORDS = 12
CATALOG_SCENES = 6
#: each learner's query mix, shuffled per learner by the seed
CATALOG_MIX = {"list_courses": 4, "GetKeywordTree": 4,
               "GetDocByKeyword": 4, "get_library_doc": 4,
               "Get_Selected_Doc": 4}

#: publish shape: one author, documents published one after another
PUBLISH_DOCS = 8
PUBLISH_SCENES = 12
#: distinct texts and images the production center makes for them
PUBLISH_MEDIA = 6


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Every generated input of *workload*; same seed, same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    # distinct top levels: every GetKeywordTree subtree has one child
    heads = set()
    while len(heads) < CATALOG_KEYWORDS:
        heads.add(_token(rng, 6))
    topics = [f"{head}/{_token(rng, 6)}" for head in sorted(heads)]
    if workload == "lecture":
        return {
            "names": [f"Learner {_token(rng)}"
                      for _ in range(LECTURE_LEARNERS)],
            # a jitter below the stagger keeps the arrival order fixed
            "offsets": [LECTURE_STAGGER_S * i + rng.uniform(0.0, 0.5)
                        for i in range(LECTURE_LEARNERS)],
            "course": f"L{rng.randrange(100, 1000)}",
            "courseware": f"lecture-{_token(rng)}",
            "keywords": topics[:2],
        }
    if workload == "catalog":
        keywords = topics
        refs = [f"media-{_token(rng)}" for _ in range(CATALOG_SCENES)]
        courses = [make_doc_spec(
            rng, f"cw-{_token(rng)}",
            # course i carries keywords i and i+1: every keyword tags
            # the same number of documents, whatever the seed
            (keywords[i % len(keywords)], keywords[(i + 1) % len(keywords)]),
            CATALOG_SCENES, refs, refs) for i in range(CATALOG_COURSES)]
        library = [{"doc_id": f"lib-{_token(rng)}",
                    "title": f"Reading {_token(rng, 12)}",
                    "content_ref": f"text-{_token(rng)}",
                    "keywords": (keywords[i % len(keywords)],
                                 keywords[(i + 5) % len(keywords)])}
                   for i in range(CATALOG_LIBRARY)]
        # the op sequence of each learner is workload shape, fixed for
        # every seed: which RPCs overlap decides queueing at the shared
        # database CPU and the go-back-N retransmissions that follow,
        # so a seeded order would change how much work a unit does.
        # The seed picks what each query names, among equal-cost choices
        shape = random.Random("catalog-shape")
        plans = []
        for _ in range(CATALOG_LEARNERS):
            ops = [op for op, n in CATALOG_MIX.items() for _ in range(n)]
            shape.shuffle(ops)
            plan = []
            for op in ops:
                if op == "GetKeywordTree":
                    arg = rng.choice(keywords).split("/")[0]
                elif op == "GetDocByKeyword":
                    arg = rng.choice(keywords)
                elif op == "get_library_doc":
                    arg = rng.choice(library)["doc_id"]
                elif op == "Get_Selected_Doc":
                    arg = rng.choice(courses).doc_id
                else:
                    arg = None
                plan.append((op, arg))
            plans.append(plan)
        return {
            "names": [f"Learner {_token(rng)}"
                      for _ in range(CATALOG_LEARNERS)],
            "courses": courses,
            "blobs": compile_blobs(courses, "catalog"),
            "library": library,
            "plans": plans,
        }
    if workload == "publish":
        texts = [f"text-{_token(rng)}" for _ in range(PUBLISH_MEDIA)]
        images = [f"image-{_token(rng)}" for _ in range(PUBLISH_MEDIA)]
        docs = [make_doc_spec(
            rng, f"pub-{_token(rng)}",
            (topics[i % len(topics)], topics[(i + 3) % len(topics)]),
            PUBLISH_SCENES, texts, images) for i in range(PUBLISH_DOCS)]
        return {"texts": texts, "images": images, "docs": docs,
                "blobs": _publish_blobs(texts, images, docs)}
    raise ValueError(f"unknown workload {workload!r}")


def _publish_blobs(texts: List[str], images: List[str],
                   docs: List[DocSpec]) -> Dict[str, bytes]:
    """The blob each published document must read back as.  The
    editor's catalogue holds the media a default-seeded MitsSystem's
    production center makes, as the author's does."""
    center = MediaProductionCenter()
    media = [center.produce_text(name) for name in texts]
    media += [center.produce_image(name) for name in images]
    return compile_blobs(docs, "publish", {m.name: m for m in media})


# -- units ---------------------------------------------------------------

def _no_lap() -> None:
    pass


class Unit:
    """One deployment driven through one workload (see module doc)."""

    #: MitsSystem arguments with obs on, as an operator runs it
    obs_on: Dict[str, Any] = {"tracing": True}
    #: simulated seconds per timed slice of the measured phase, a few
    #: milliseconds of wall time each
    slice_s = 0.1

    def __init__(self, inputs: Dict[str, Any], out_dir: str, *,
                 obs: bool = True) -> None:
        self.inputs = inputs
        self.out_dir = out_dir
        self.obs = obs
        self.mits: Optional[MitsSystem] = None

    def _system(self, **kwargs: Any) -> MitsSystem:
        args = dict(self.obs_on) if self.obs else dict(OBS_OFF)
        args.update(kwargs)
        return MitsSystem(**args)

    def setup(self, lap: Callable[[], None] = _no_lap) -> None:
        """Build the deployment, calling *lap* after each step."""
        raise NotImplementedError

    def measure(self, lap: Callable[[], None] = _no_lap) -> None:
        """Run the measured phase, calling *lap* at each slice end."""
        raise NotImplementedError

    def _drive(self, lap: Callable[[], None],
               until: Optional[float] = None) -> None:
        """Run the simulator to *until*, or until its queue drains, in
        slices of ``slice_s`` simulated seconds.  Units are
        deterministic, so slice *k* does the same work in every unit and
        its time can be compared across units (``stats.slice_floor``)."""
        sim = self.mits.sim
        while True:
            stop = sim.now + self.slice_s
            if until is not None and stop >= until:
                sim.run(until=until)
                lap()
                return
            sim.run(until=stop)
            lap()
            if until is None and not sim.pending():
                return

    def verify(self) -> Outcome:
        raise NotImplementedError

    def _digest(self) -> Optional[str]:
        return snapshot_digest(self.mits) if self.obs else None


class Lecture(Unit):
    """Learners enter the classroom at staggered offsets and each
    streams the course video; the run is then audited and archived."""

    obs_on = {"tracing": True, "accounting": True}

    def setup(self, lap: Callable[[], None] = _no_lap) -> None:
        inp = self.inputs
        kwargs: Dict[str, Any] = {"extra_users": LECTURE_LEARNERS - 1}
        if self.obs:
            kwargs["stream"] = os.path.join(self.out_dir, "obs_lecture.jsonl")
        mits = self.mits = self._system(**kwargs)
        lap()
        center = mits.production.center
        video = center.produce_video(LECTURE_VIDEO,
                                     seconds=LECTURE_VIDEO_SECONDS)
        lap()
        notes = center.produce_text("lecture-notes")
        for media in (video, notes):
            mits.publish_media(media)
            lap()
        author = mits.add_author("author1", "lecture",
                                 catalog={video.name: video,
                                          notes.name: notes})
        scene = Scene(name="lecture", objects=[
            SceneObject(name="clip", kind="video", content_ref=video.name),
            SceneObject(name="notes", kind="text", content_ref=notes.name,
                        position=(0, 300)),
        ])
        scene.timeline.add(TimelineEntry("clip", 0.0))
        scene.timeline.add(TimelineEntry("notes", 0.5, 1.5))
        course = InteractiveDocument(inp["courseware"], title="Lecture")
        course.add_section(Section(name="lecture", scenes=[scene]))
        compiled = author.editor.compile_imd(course)
        lap()
        mits.wait(author.publish_courseware(
            compiled, courseware_id=inp["courseware"], title="Lecture",
            program="lectures", keywords=list(inp["keywords"]),
            introduction_ref=video.name))
        lap()
        mits.wait(author.publish_course(
            course_code=inp["course"], name="Lecture", program="lectures",
            courseware_id=inp["courseware"]))
        lap()
        self.navs = []
        for i, name in enumerate(inp["names"]):
            nav = mits.add_user(f"user{i + 1}").navigator
            nav.start()
            nav.register(name)
            self.navs.append(nav)
            lap()
        self._drive(lap, until=mits.sim.now + 5.0)
        for nav in self.navs:
            mits.wait(nav.register_for_course(inp["course"]))
            lap()
        self.video = mits.database.db.content.get(LECTURE_VIDEO).data
        self.frames = VideoStream(self.video).frames
        self.players: List[VideoPlayer] = []
        self.ready_delays: List[float] = []
        self.audit: Dict[str, Any] = {}

    def _enter(self, i: int) -> None:
        mits = self.mits
        sim = mits.sim
        asked = sim.now
        self.navs[i].enter_classroom(
            self.inputs["course"], self.inputs["courseware"],
            on_ready=lambda _s: self.ready_delays.append(sim.now - asked))
        player = VideoPlayer(sim, preroll=0.5, name=f"learner{i + 1}",
                             frames_expected=self.frames)
        # the sender runs open loop on the simulated clock
        vc = mits.network.open_vc(
            "database", f"user{i + 1}",
            TrafficContract(ServiceCategory.UBR,
                            pcr=mits.spec.access_bps / 424),
            player.on_pdu)
        VideoStreamSender(sim, vc, self.video, lead=0.25).start()
        self.players.append(player)

    def measure(self, lap: Callable[[], None] = _no_lap) -> None:
        mits = self.mits
        sim = mits.sim
        for i, offset in enumerate(self.inputs["offsets"]):
            sim.schedule(offset, self._enter, i)
        self._drive(lap, until=sim.now + max(self.inputs["offsets"])
                    + LECTURE_VIDEO_SECONDS + 5.0)
        if self.obs:
            self.audit = ConservationAuditor(mits).report()
            lap()
            export.dump_observability(mits, "lecture", self.out_dir)

    def verify(self) -> Outcome:
        tally = Tally()
        frames = self.frames
        tally.check(len(self.players) == LECTURE_LEARNERS,
                    "every learner entered the classroom")
        tally.check(len(self.ready_delays) == LECTURE_LEARNERS,
                    "every classroom session became ready")
        for player in self.players:
            st = player.stats
            for k in range(frames):
                tally.check(k < st.frames_received and k < st.frames_played,
                            f"{player.name} frame delivered and played")
        if self.obs:
            tally.check(bool(self.audit.get("ok")),
                        "conservation audit is clean")
        sim_out: Dict[str, float] = {}
        if self.players:
            # frame 0 leaves at the request instant, so its network
            # delay plus the pre-roll is the request -> first frame time
            first = [p.stats.delays[0] + p.stats.startup_delay
                     for p in self.players if p.stats.delays]
            lateness = [inst.quantile(0.99) for inst in
                        self.mits.sim.metrics.find(
                            "player", "frame_lateness_seconds").values()]
            sim_out = {
                "first_frame_delay_max_s": max(first, default=0.0),
                "frame_lateness_p99_s": max(lateness, default=0.0),
                "stalls": float(sum(p.stats.stalls for p in self.players)),
                "classroom_ready_p99_s": _p99(self.ready_delays),
            }
        return Outcome(tally, self._digest(), sim_out)


class _RpcLog:
    """Simulated round-trip times of the RPCs a workload issues."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.rtts: List[float] = []
        self.errors: List[str] = []

    def timed(self, on_result):
        asked = self.sim.now

        def done(result):
            self.rtts.append(self.sim.now - asked)
            on_result(result)
        return done

    def failed(self, error) -> None:
        self.errors.append(str(error))


class Catalog(Unit):
    """Learners each run a closed loop of catalogue RPCs against a
    database filled with generated courses and library documents."""

    slice_s = 0.02

    def setup(self, lap: Callable[[], None] = _no_lap) -> None:
        inp = self.inputs
        mits = self.mits = self._system(extra_users=CATALOG_LEARNERS - 1)
        lap()
        center = mits.production.center
        for doc in inp["library"]:
            mits.publish_media(center.produce_text(doc["content_ref"],
                                                   sections=1))
            lap()
        author = mits.add_author("author1", "catalog")
        rpc = author.client.rpc
        for spec in inp["courses"]:
            mits.wait(rpc.call("StoreCourseware", {
                "courseware_id": spec.doc_id, "title": spec.title,
                "program": "catalog", "container_blob": inp["blobs"][spec.doc_id],
                "keywords": list(spec.keywords), "introduction_ref": None,
                "author": "catalog"}))
            mits.wait(author.publish_course(
                course_code=spec.doc_id.upper(), name=spec.title,
                program="catalog", courseware_id=spec.doc_id))
            lap()
        for doc in inp["library"]:
            mits.wait(author.publish_library_doc(
                doc_id=doc["doc_id"], title=doc["title"], media_kind="text",
                content_ref=doc["content_ref"],
                keywords=list(doc["keywords"])))
            lap()
        self.clients = []
        for i, name in enumerate(inp["names"]):
            user = mits.add_user(f"user{i + 1}")
            user.navigator.start()
            user.navigator.register(name)
            self.clients.append(user.client)
            lap()
        self._drive(lap, until=mits.sim.now + 5.0)
        self.rpcs = _RpcLog(mits.sim)
        self.answers: List[List[Any]] = [[] for _ in self.clients]

    def _next(self, learner: int) -> None:
        plan = self.inputs["plans"][learner]
        answers = self.answers[learner]
        if len(answers) == len(plan):
            return
        op, arg = plan[len(answers)]

        def got(result):
            answers.append(result)
            self._next(learner)
        cb = {"on_result": self.rpcs.timed(got),
              "on_error": self.rpcs.failed}
        client = self.clients[learner]
        if arg is None:
            getattr(client, op)(**cb)
        else:
            getattr(client, op)(arg, **cb)

    def measure(self, lap: Callable[[], None] = _no_lap) -> None:
        for learner in range(len(self.clients)):
            self._next(learner)
        self._drive(lap)

    def expected(self, op: str, arg: Any) -> Any:
        inp = self.inputs
        if op == "list_courses":
            return sorted(({"course_code": c.doc_id.upper(), "name": c.title,
                            "program": "catalog", "courseware_id": c.doc_id,
                            "description": ""} for c in inp["courses"]),
                          key=_by_code)
        if op == "GetKeywordTree":
            return keyword_tree(
                [k for c in inp["courses"] for k in c.keywords]
                + [k for d in inp["library"] for k in d["keywords"]], arg)
        if op == "GetDocByKeyword":
            return sorted({c.doc_id for c in inp["courses"]
                           if arg in c.keywords}
                          | {d["doc_id"] for d in inp["library"]
                             if arg in d["keywords"]})
        if op == "get_library_doc":
            doc = next(d for d in inp["library"] if d["doc_id"] == arg)
            return {"doc_id": arg, "content_ref": doc["content_ref"]}
        if op == "Get_Selected_Doc":
            return inp["blobs"][arg]
        raise ValueError(op)

    def verify(self) -> Outcome:
        tally = Tally()
        for plan, answers in zip(self.inputs["plans"], self.answers):
            for k, (op, arg) in enumerate(plan):
                got = answers[k] if k < len(answers) else None
                if op == "list_courses" and isinstance(got, list):
                    # a listing is a set of rows; its order is not promised
                    got = sorted(got, key=_by_code)
                tally.check(k < len(answers)
                            and got == self.expected(op, arg),
                            f"{op} answered with the expected payload")
        tally.check(not self.rpcs.errors, "no RPC reported an error")
        return Outcome(tally, self._digest(),
                       {"rpc_rtt_p99_s": _p99(self.rpcs.rtts)})


def keyword_tree(paths: List[str], path: str) -> Dict[str, Any]:
    """The subtree ``GetKeywordTree(path)`` must return, built from the
    generated keyword paths alone."""
    root: Dict[str, Any] = {}
    for p in paths:
        node = root
        for part in p.split("/"):
            node = node.setdefault(part, {})

    def value(name: str, node: Dict[str, Any]) -> Dict[str, Any]:
        return {"keyword": name,
                "children": [value(k, node[k]) for k in sorted(node)]}
    node, name = root, ""
    for part in [p for p in path.split("/") if p]:
        node, name = node[part], part
    return value(name, node)


def _by_code(row: Dict[str, Any]) -> str:
    return row["course_code"]


class Publish(Unit):
    """One author compiles and publishes a sequence of interactive
    documents, each upload waiting for the previous one (closed loop)."""

    def setup(self, lap: Callable[[], None] = _no_lap) -> None:
        inp = self.inputs
        mits = self.mits = self._system()
        lap()
        center = mits.production.center
        media = [center.produce_text(name) for name in inp["texts"]]
        media += [center.produce_image(name) for name in inp["images"]]
        lap()
        for m in media:
            mits.publish_media(m)
            lap()
        self.author = mits.add_author("author1", "publish",
                                      catalog={m.name: m for m in media})
        self.docs = [build_document(spec) for spec in self.inputs["docs"]]
        self.rpcs = _RpcLog(mits.sim)
        self.stored: List[Dict[str, Any]] = []

    def _publish(self, k: int) -> None:
        if k == len(self.docs):
            return
        spec = self.inputs["docs"][k]
        compiled = self.author.editor.compile_imd(self.docs[k])

        def stored(summary):
            self.stored.append(summary)
            self._publish(k + 1)
        self.author.publish_courseware(
            compiled, courseware_id=spec.doc_id, title=spec.title,
            program="publish", keywords=list(spec.keywords),
            on_result=self.rpcs.timed(stored), on_error=self.rpcs.failed)

    def measure(self, lap: Callable[[], None] = _no_lap) -> None:
        self._publish(0)
        self._drive(lap)

    def verify(self) -> Outcome:
        tally = Tally()
        db = self.mits.database.db
        for k, spec in enumerate(self.inputs["docs"]):
            tally.check(k < len(self.stored)
                        and self.stored[k]["courseware_id"] == spec.doc_id,
                        "every upload was acknowledged")
            try:
                back = db.get_courseware(spec.doc_id).container_blob
            except DatabaseError:
                back = None
            tally.check(back == self.inputs["blobs"][spec.doc_id],
                        "blob reads back byte-identical")
        tally.check(not self.rpcs.errors, "no RPC reported an error")
        return Outcome(tally, self._digest(),
                       {"rpc_rtt_p99_s": _p99(self.rpcs.rtts)})


WORKLOADS = {"lecture": Lecture, "catalog": Catalog, "publish": Publish}
