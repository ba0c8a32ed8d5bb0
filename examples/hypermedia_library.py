#!/usr/bin/env python
"""Hypermedia courseware: the exploration architecture and both
interchange notations.

Builds a hypermedia document (Fig 4.3) under the learning-by-exploring
architecture: an entry page fanning out to topic pages with a
test-your-knowledge loop — the exact navigation structure of Fig 4.3b.
The same document is compiled to:

* an MHEG container (final-form, directly presentable), and
* a HyTime/SGML document (publishing form, needs parsing+resolution),

then navigated page by page with clicks, and the two notations'
processing costs are compared — the §2.3 trade-off in miniature.

Run:  python examples/hypermedia_library.py
"""

import time

from repro.atm.simulator import Simulator
from repro.authoring import (
    CoursewareEditor, HyperDocument, NavigationLink, Page, PageItem,
    architecture_by_name,
)
from repro.hytime import HyTimeEngine
from repro.media.production import MediaProductionCenter
from repro.navigator.presenter import CoursewarePresenter


def build_document(catalog) -> HyperDocument:
    arch = architecture_by_name("exploration")
    print(f"architecture: {arch.name} — {arch.summary}\n")

    doc = HyperDocument("explore-atm", title="Exploring ATM")
    doc.add_page(Page(name="entry", items=[
        PageItem(name="welcome", kind="text", content_ref="welcome-text"),
        PageItem(name="to-cells", kind="choice", label="Cells",
                 position=(0, 300)),
        PageItem(name="to-switching", kind="choice", label="Switching",
                 position=(140, 300)),
        PageItem(name="to-quiz", kind="choice", label="Test your knowledge",
                 position=(280, 300)),
    ]))
    doc.add_page(Page(name="cells", items=[
        PageItem(name="cells-text", kind="text", content_ref="cells-text"),
        PageItem(name="cells-pic", kind="image", content_ref="cells-pic",
                 position=(320, 0)),
        PageItem(name="back", kind="choice", label="Back"),
    ]))
    doc.add_page(Page(name="switching", items=[
        PageItem(name="sw-text", kind="text", content_ref="switching-text"),
        PageItem(name="back", kind="choice", label="Back"),
    ]))
    # Fig 4.3b: Test Your Knowledge -> question -> right/wrong -> back
    doc.add_page(Page(name="question", items=[
        PageItem(name="q-text", kind="text", content_ref="question-text"),
        PageItem(name="answer-53", kind="choice", label="53 bytes"),
        PageItem(name="answer-64", kind="choice", label="64 bytes"),
    ]))
    doc.add_page(Page(name="right", items=[
        PageItem(name="right-text", kind="text", content_ref="right-text"),
        PageItem(name="back", kind="choice", label="Continue"),
    ]))
    doc.add_page(Page(name="wrong", items=[
        PageItem(name="wrong-text", kind="text", content_ref="wrong-text"),
        PageItem(name="retry", kind="choice", label="Try again"),
    ]))
    doc.add_link(NavigationLink("entry", "to-cells", "cells"))
    doc.add_link(NavigationLink("entry", "to-switching", "switching"))
    doc.add_link(NavigationLink("entry", "to-quiz", "question"))
    doc.add_link(NavigationLink("cells", "back", "entry"))
    doc.add_link(NavigationLink("switching", "back", "entry"))
    doc.add_link(NavigationLink("question", "answer-53", "right"))
    doc.add_link(NavigationLink("question", "answer-64", "wrong"))
    doc.add_link(NavigationLink("right", "back", "entry"))
    doc.add_link(NavigationLink("wrong", "retry", "question"))
    return doc


def main() -> None:
    center = MediaProductionCenter(seed=7)
    catalog = {name: center.produce_text(name) for name in (
        "welcome-text", "cells-text", "switching-text", "question-text",
        "right-text", "wrong-text")}
    catalog["cells-pic"] = center.produce_image("cells-pic")

    doc = build_document(catalog)
    print("navigation from 'entry':", doc.navigation_subset("entry"))

    editor = CoursewareEditor("explore-atm", catalog=catalog)
    compiled = editor.compile_hyperdoc(doc)
    mheg_blob = compiled.encode()
    hytime_text = editor.to_hytime(doc)
    print(f"\nMHEG container: {len(mheg_blob)} bytes (ASN.1, final form)")
    print(f"HyTime document: {len(hytime_text)} bytes (SGML, needs "
          "parsing + address resolution)")

    # presentation-time cost of each notation
    t0 = time.perf_counter()
    for _ in range(50):
        presenter = CoursewarePresenter(
            Simulator(), local_resolver=lambda key: catalog[key].data)
        presenter.load_blob(mheg_blob)
    mheg_ms = (time.perf_counter() - t0) / 50 * 1e3
    t0 = time.perf_counter()
    for _ in range(50):
        HyTimeEngine().process(hytime_text)
    hytime_ms = (time.perf_counter() - t0) / 50 * 1e3
    print(f"decode-for-presentation: MHEG {mheg_ms:.2f} ms vs "
          f"HyTime {hytime_ms:.2f} ms per document\n")

    # navigate: entry -> quiz -> wrong -> retry -> right -> entry
    presenter = CoursewarePresenter(
        Simulator(), local_resolver=lambda key: catalog[key].data)
    presenter.load_blob(mheg_blob)
    presenter.preload()
    presenter.start()
    print("navigating:")
    for click in ("to-quiz", "answer-64", "retry", "answer-53", "back"):
        print(f"  visible={presenter.visible()}  -> click {click!r}")
        presenter.click(click)
    print(f"  visible={presenter.visible()}  (back at the entry page)")


if __name__ == "__main__":
    main()
