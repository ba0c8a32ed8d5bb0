"""Named, deterministic driving scenarios for telemetry tooling.

The conservation audit (``python -m repro.obs audit SCENARIO``), the
perf-regression gate (``scripts/bench_gate.py``) and the fleet all
need the same thing: a deployment with known work scheduled on it and
a known simulated-time horizon to run to, so archives and baselines
are reproducible run over run.  Each scenario builds a
:class:`~repro.core.system.MitsSystem`, fast-forwards the setup
(publishing assets and courseware), schedules the interactive phase,
and returns a :class:`ScenarioRun` whose ``horizon`` the caller drives
the simulator to.  An armed fault plan's injector is
``run.mits.injector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.atm.qos import ServiceCategory, TrafficContract
from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core.system import MitsSystem
from repro.faults import FaultInjector, FaultPlan
from repro.media.video import VideoStream
from repro.streaming import VideoPlayer, VideoStreamSender

__all__ = ["SCENARIOS", "ScenarioRun", "build"]


@dataclass
class ScenarioRun:
    """A deployed system plus the horizon its scripted load runs to."""

    name: str
    mits: MitsSystem
    horizon: float

    def run_to_horizon(self) -> None:
        """Drive the whole scripted load in one go."""
        self.mits.sim.run(until=self.horizon)


def _publish_course(mits: MitsSystem) -> None:
    """Standard assets + a one-scene video course, published."""
    assets = mits.produce_standard_assets("dash", seconds=2.0)
    author = mits.add_author("author1", "dash-101", catalog=assets)
    scene = Scene(name="welcome", objects=[
        SceneObject(name="clip", kind="video",
                    content_ref="dash-intro-video"),
        SceneObject(name="notes", kind="text", content_ref="dash-notes",
                    position=(0, 300)),
        SceneObject(name="skip", kind="choice", label="Skip the video"),
    ])
    scene.timeline.add(TimelineEntry("clip", 0.0))
    scene.timeline.add(TimelineEntry("notes", 0.5, 1.5))
    scene.behavior.when_selected("skip", ("stop", "clip"))
    course = InteractiveDocument("dash-101", title="Dashboard course")
    course.add_section(Section(name="intro", scenes=[scene]))
    compiled = author.editor.compile_imd(course)
    mits.wait(author.publish_courseware(
        compiled, courseware_id="dash-101", title="Dashboard course",
        program="telemetry", keywords=["telemetry"],
        introduction_ref="dash-intro-video"))
    mits.wait(author.publish_course(
        course_code="D101", name="Dashboard course", program="telemetry",
        courseware_id="dash-101"))


def _enroll(mits: MitsSystem, host: str, student: str):
    user = mits.add_user(host)
    nav = user.navigator
    nav.start()
    nav.register(student)
    mits.sim.run(until=mits.sim.now + 5)
    return nav


def _stream_video(mits: MitsSystem, host: str) -> VideoPlayer:
    """Stream the intro video from the database site to *host* over a
    dedicated VC — the classroom-streaming leg that drives the player
    buffer / frame-lateness trajectories."""
    sim = mits.sim
    video = mits.database.db.content.get("dash-intro-video").data
    stream = VideoStream(video)
    player = VideoPlayer(sim, preroll=0.5,
                         frames_expected=stream.frames,
                         name=f"classroom-{host}",
                         resilient=mits.resilient)
    contract = TrafficContract(ServiceCategory.UBR,
                               pcr=mits.spec.access_bps / 424)
    vc = mits.network.open_vc("database", host, contract, player.on_pdu)
    sender = VideoStreamSender(sim, vc, video, lead=0.25)
    # close the degradation loop: sustained stalls at the player ask
    # the sender for a coarser bitrate
    player.on_degrade = sender.downgrade
    sender.start()
    return player


def quickstart(**kwargs: Any) -> ScenarioRun:
    """One student takes the course on demand — the full pipeline."""
    kwargs.setdefault("topology", "star")
    kwargs.setdefault("tracing", True)
    mits = MitsSystem(**kwargs)
    _publish_course(mits)
    nav = _enroll(mits, "user1", "Dash Student")
    nav.enter_classroom("D101", "dash-101")
    _stream_video(mits, "user1")
    return ScenarioRun("quickstart", mits, mits.sim.now + 30.0)


def classroom(**kwargs: Any) -> ScenarioRun:
    """Three students enter the classroom at staggered offsets — the
    closest thing to the thesis's streamed classroom session."""
    kwargs.setdefault("topology", "star")
    kwargs.setdefault("extra_users", 2)
    kwargs.setdefault("tracing", True)
    mits = MitsSystem(**kwargs)
    _publish_course(mits)
    navs = [_enroll(mits, f"user{i + 1}", f"Student {i + 1}")
            for i in range(3)]
    for i, nav in enumerate(navs):
        mits.sim.schedule(2.0 * i, nav.enter_classroom,
                          "D101", "dash-101")
        mits.sim.schedule(2.0 * i, _stream_video, mits, f"user{i + 1}")
    return ScenarioRun("classroom", mits, mits.sim.now + 45.0)


def faulty_classroom(**kwargs: Any) -> ScenarioRun:
    """The quickstart flow under the ``classroom-chaos`` fault plan,
    with every layer's recovery on (``resilient``) — the scenario every
    recovery path is benchmarked and chaos-tested against."""
    kwargs.setdefault("topology", "star")
    kwargs.setdefault("tracing", True)
    kwargs.setdefault("resilient", True)
    faults = kwargs.pop("faults", "classroom-chaos")
    fault_seed = kwargs.pop("fault_seed", None)
    mits = MitsSystem(**kwargs)
    _publish_course(mits)
    nav = _enroll(mits, "user1", "Chaos Student")
    nav.enter_classroom("D101", "dash-101")
    _stream_video(mits, "user1")
    mits.injector = FaultInjector(faults, seed=fault_seed).attach(mits)
    # keep the control plane busy through the fault window: these
    # catalogue queries land on torn-down VCs (forcing reconnects) and
    # on the stalled/slowed database CPU (forcing RPC retries)
    user = mits.users["user1"]
    for at in (10.5, 12.0, 14.5, 17.0, 19.5):
        mits.sim.schedule(max(0.0, at - mits.sim.now),
                          user.client.list_courses)
    return ScenarioRun("faulty-classroom", mits, mits.sim.now + 30.0)


SCENARIOS: Dict[str, Callable[..., ScenarioRun]] = {
    "quickstart": quickstart,
    "classroom": classroom,
    "faulty-classroom": faulty_classroom,
}


def build(name: str, *, faults: Union[str, FaultPlan, None] = None,
          fault_seed: Optional[int] = None,
          stream: Optional[str] = None,
          **kwargs: Any) -> ScenarioRun:
    """Build a named scenario, optionally arming a fault plan on it.

    *faults* is a plan name (see ``repro.faults.PLANS``) or a
    :class:`FaultPlan`; *fault_seed* overrides the plan's seed for
    reproducing a specific chaotic run.  *stream* is the
    ``obs_*.jsonl`` path to stream the run's archive to, forwarded to
    :class:`MitsSystem`.
    """
    if stream is not None:
        kwargs["stream"] = stream
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (have: {sorted(SCENARIOS)})") \
            from None
    if name == "faulty-classroom":
        # the factory arms its own (overridable) plan
        if faults is not None:
            kwargs["faults"] = faults
        if fault_seed is not None:
            kwargs["fault_seed"] = fault_seed
        return factory(**kwargs)
    run = factory(**kwargs)
    if faults is not None:
        run.mits.injector = FaultInjector(
            faults, seed=fault_seed).attach(run.mits)
    return run


def names() -> List[str]:
    return sorted(SCENARIOS)
