"""HyTime (ISO/IEC 10744) subset — the baseline MHEG is compared against.

Chapter 2 of the thesis weighs HyTime against MHEG and chooses MHEG
for MITS because HyTime documents must be *parsed and resolved* at
presentation time while MHEG objects interchange in final form
(§2.3.2).  To make that comparison measurable (benchmark EX.1) rather
than rhetorical, this subpackage implements a working subset:

* :mod:`repro.hytime.sgml` — an SGML parser (tags, attributes,
  entities);
* :mod:`repro.hytime.modules` — the module system and its dependency
  graph (Fig 2.1);
* :mod:`repro.hytime.location` — the three address forms of Fig 2.2:
  name-space, coordinate, and semantic addressing;
* :mod:`repro.hytime.scheduling` — finite coordinate spaces, axes
  and events;
* :mod:`repro.hytime.engine` — the document processing model of
  Fig 2.3: application -> HyTime engine -> SGML parser.
"""

from repro.hytime.sgml import SgmlParser, SgmlElement
from repro.hytime.modules import HyTimeModule, validate_modules, MODULE_DEPENDENCIES
from repro.hytime.location import (
    NameSpaceAddress, CoordinateAddress, SemanticAddress, resolve_address,
)
from repro.hytime.scheduling import Axis, Event, FiniteCoordinateSpace
from repro.hytime.engine import HyTimeEngine, HyTimeDocument

__all__ = [
    "SgmlParser",
    "SgmlElement",
    "HyTimeModule",
    "validate_modules",
    "MODULE_DEPENDENCIES",
    "NameSpaceAddress",
    "CoordinateAddress",
    "SemanticAddress",
    "resolve_address",
    "Axis",
    "Event",
    "FiniteCoordinateSpace",
    "HyTimeEngine",
    "HyTimeDocument",
]
