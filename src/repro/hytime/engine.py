"""HyTime document processing model (Fig 2.3).

"The application calls the HyTime engine, which in turn calls the SGML
parser.  As it is parsing the document, the parser informs the HyTime
engine about everything that it encounters...  After the document has
been parsed, the application may query the HyTime engine in various
ways.  The engine assumes responsibility for determining where things
are on FCS schedules, for resolving document location elements to the
data they indicate."

Document conventions understood by this engine:

* the root element declares ``modules="base location ..."``;
* ``<clink anchor="..." target="...">`` declares a hyperlink between
  name-space addresses (ids);
* ``<fcs id="..">`` with ``<axis name=".." unit=".." extent="..">``
  children and ``<event name=".." axis=".." start=".." length="..">``
  children declares schedules;
* any element with an ``id`` enters the name space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.hytime.location import (
    Hyperlink, NameSpaceAddress, build_name_space, resolve_address,
)
from repro.hytime.modules import (
    HyTimeModule, parse_module_names, validate_modules,
)
from repro.hytime.scheduling import Axis, Event, FiniteCoordinateSpace
from repro.hytime.sgml import SgmlElement, SgmlParser
from repro.util.errors import DecodingError


@dataclass
class HyTimeDocument:
    """The engine-internal structure built while parsing (Fig 2.3)."""

    root: SgmlElement
    modules: List[HyTimeModule]
    name_space: Dict[str, SgmlElement]
    hyperlinks: List[Hyperlink]
    schedules: Dict[str, FiniteCoordinateSpace]

    def resolve(self, name: str) -> SgmlElement:
        return resolve_address(NameSpaceAddress(name), self.root,
                               name_space=self.name_space)

    def links_from(self, anchor_id: str) -> List[Hyperlink]:
        return [l for l in self.hyperlinks
                if isinstance(l.anchor, NameSpaceAddress)
                and l.anchor.name == anchor_id]

    def events_at(self, fcs_name: str, axis: str, point: float) -> List[str]:
        fcs = self.schedules.get(fcs_name)
        if fcs is None:
            raise DecodingError(f"no FCS named {fcs_name!r}")
        return [e.name for e in fcs.overlapping(axis, point)]


class HyTimeEngine:
    """Parses documents and answers structural queries."""

    def __init__(self) -> None:
        self.parser = SgmlParser()
        self.documents_processed = 0

    def process(self, text: str) -> HyTimeDocument:
        """Full document processing: parse, validate modules, build the
        name space, collect hyperlinks, populate FCS schedules."""
        root = self.parser.parse(text)
        declared = root.attributes.get("modules", "base").split()
        modules = parse_module_names(declared)
        validate_modules(modules)
        name_space = build_name_space(root)

        hyperlinks: List[Hyperlink] = []
        if HyTimeModule.HYPERLINKS in modules:
            for clink in root.find_all("clink"):
                anchor = clink.attributes.get("anchor")
                target = clink.attributes.get("target")
                if anchor is None or target is None:
                    raise DecodingError("<clink> needs anchor and target")
                hyperlinks.append(Hyperlink(
                    anchor=NameSpaceAddress(anchor),
                    target=NameSpaceAddress(target)))
            # links must resolve — HyTime validates addressability
            for link in hyperlinks:
                link.endpoints(root)
        elif root.find_all("clink"):
            raise DecodingError(
                "document uses <clink> without the hyperlinks module")

        schedules: Dict[str, FiniteCoordinateSpace] = {}
        if HyTimeModule.SCHEDULING in modules:
            for fcs_el in root.find_all("fcs"):
                fcs_id = fcs_el.attributes.get("id")
                if fcs_id is None:
                    raise DecodingError("<fcs> needs an id")
                axes = []
                for axis_el in fcs_el.children:
                    if axis_el.name != "axis":
                        continue
                    try:
                        axes.append(Axis(
                            name=axis_el.attributes["name"],
                            unit=axis_el.attributes.get("unit", "unit"),
                            extent=float(axis_el.attributes["extent"])))
                    except (KeyError, ValueError) as exc:
                        raise DecodingError(f"malformed <axis>: {exc}") from exc
                fcs = FiniteCoordinateSpace(fcs_id, axes)
                for ev_el in fcs_el.children:
                    if ev_el.name != "event":
                        continue
                    try:
                        name = ev_el.attributes["name"]
                        axis = ev_el.attributes["axis"]
                        start = float(ev_el.attributes["start"])
                        length = float(ev_el.attributes["length"])
                    except (KeyError, ValueError) as exc:
                        raise DecodingError(f"malformed <event>: {exc}") from exc
                    fcs.schedule(Event(name=name,
                                       extents={axis: (start, length)}))
                schedules[fcs_id] = fcs
        elif root.find_all("fcs"):
            raise DecodingError(
                "document uses <fcs> without the scheduling module")

        self.documents_processed += 1
        return HyTimeDocument(root=root, modules=modules,
                              name_space=name_space,
                              hyperlinks=hyperlinks, schedules=schedules)
