"""E4.3-E4.4: the two document models, compiled and driven.

Fig 4.3 — hypermedia navigation (pages, choices, question loop);
Fig 4.4 — the interactive multimedia document with time-line and
behaviour structures, including dynamic pre-emption.
"""

import pytest

from repro.atm.simulator import Simulator
from repro.mheg.runtime import RtState
from repro.navigator.presenter import CoursewarePresenter


def presenter_for(compiled, catalog):
    presenter = CoursewarePresenter(
        Simulator(), local_resolver=lambda key: catalog[key].data)
    presenter.load_blob(compiled.encode())
    presenter.preload()
    return presenter


def test_hyperdoc_navigation(benchmark, compiled_hyperdoc, catalog):
    """E4.3: a full navigation tour of the Fig 4.3 structure."""

    def tour():
        presenter = presenter_for(compiled_hyperdoc, catalog)
        presenter.start()
        screens = [set(presenter.visible())]
        for click in ("go-detail", "back", "go-quiz", "back"):
            presenter.click(click)
            screens.append(set(presenter.visible()))
        return screens

    screens = benchmark(tour)
    assert "body" in screens[0]
    assert "detail-text" in screens[1]
    assert "body" in screens[2]          # back on the start page
    assert "question" in screens[3]
    assert screens[4] == screens[0]


def test_imd_atm_course(benchmark, compiled_imd, catalog):
    """E4.4: the ATM-course example — time-line playback, behaviour
    rule, and the dynamic interaction of Fig 4.4b."""

    def play_passively():
        presenter = presenter_for(compiled_imd, catalog)
        presenter.start()
        timeline = []
        for t in (0.5, 2.5, 4.5, 6.5):
            presenter.sim.run(until=t)
            timeline.append((t, set(presenter.visible())))
        return presenter, timeline

    presenter, timeline = benchmark(play_passively)
    by_time = dict(timeline)
    assert "text1" in by_time[0.5] and "image1" not in by_time[0.5]
    assert "image1" in by_time[2.5] and "text1" not in by_time[2.5]
    assert "video1" in by_time[4.5]        # second section chained in
    assert not presenter.playing           # and the course completed

    # dynamic interaction: pre-empt text1 at t=1 (< t2=2)
    presenter2 = presenter_for(compiled_imd, catalog)
    presenter2.start()
    presenter2.sim.run(until=1.0)
    presenter2.click("choice1")
    assert "image1" in presenter2.visible()
    assert "text1" not in presenter2.visible()

    # behaviour rule: the stop button stops the AV objects
    presenter3 = presenter_for(compiled_imd, catalog)
    presenter3.start()
    presenter3.sim.run(until=0.5)
    presenter3.click("stop-btn")
    assert "text1" not in presenter3.visible()
    assert "audio1" not in presenter3.visible()
