"""Script class — application-level synchronisation (Fig 2.5).

"The script class defines a container for specifying complex
relationships between MHEG objects and run-time objects by a
non-MHEG language."  The thesis could not elaborate scripts because
MHEG part 3 was unavailable (§6.2); we define a deliberately small
imperative language, ``mits-script``, sufficient for the
application-level synchronisation of Fig 2.5:

.. code-block:: text

    new video course/1 as 1 on main      # create rt copy on a channel
    run course/1#1                       # start presentation
    wait 2.5                             # pause the script 2.5 s
    set course/1#1 volume 80             # rendition parameter
    stop course/1#1
    delete course/1#1

Parsing happens at authoring time (:meth:`ScriptClass.parse`) so a
malformed script is rejected before interchange; execution is the
engine's job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, List, Tuple

from repro.mheg.classes.base import ClassId, MhObject, register_class
from repro.mheg.identifiers import ObjectReference
from repro.util.errors import EncodingError

SCRIPT_LANGUAGE = "mits-script"

#: statement name -> (min args, max args)
_STATEMENTS = {
    "new": (6, 6),     # new <kind> <ref> as <tag> on <channel>
    "run": (1, 1),     # run <rt-ref>
    "stop": (1, 1),
    "pause": (1, 1),
    "resume": (1, 1),
    "delete": (1, 1),
    "prepare": (1, 1),
    "wait": (1, 1),    # wait <seconds>
    "set": (3, 3),     # set <rt-ref> <param> <value>
}


@dataclass
class ScriptStatement:
    verb: str
    args: Tuple[str, ...]
    line: int

    def __str__(self) -> str:
        return f"{self.verb} {' '.join(self.args)}"


@register_class
@dataclass
class ScriptClass(MhObject):
    """An interchanged script in the ``mits-script`` language."""

    CLASS_ID: ClassVar[ClassId] = ClassId.SCRIPT
    FIELDS: ClassVar[Tuple[str, ...]] = ("language", "source")

    language: str = SCRIPT_LANGUAGE
    source: str = ""

    def validate(self) -> None:
        if self.language != SCRIPT_LANGUAGE:
            raise EncodingError(
                f"{self}: unsupported script language {self.language!r}")
        self.parse()  # raises on malformed source

    def parse(self) -> List[ScriptStatement]:
        """Parse *source* into statements, validating syntax."""
        statements: List[ScriptStatement] = []
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            # '#' also appears inside rt references (course/1#1), so a
            # comment starts only at '#' preceded by whitespace or BOL
            line = re.sub(r"(^|\s)#.*$", "", raw).strip()
            if not line:
                continue
            parts = line.split()
            verb, args = parts[0], tuple(parts[1:])
            if verb not in _STATEMENTS:
                raise EncodingError(
                    f"{self}: line {lineno}: unknown statement {verb!r}")
            lo, hi = _STATEMENTS[verb]
            if not lo <= len(args) <= hi:
                raise EncodingError(
                    f"{self}: line {lineno}: {verb} takes {lo} argument(s)")
            if verb == "wait":
                try:
                    if float(args[0]) < 0:
                        raise ValueError
                except ValueError:
                    raise EncodingError(
                        f"{self}: line {lineno}: bad wait duration "
                        f"{args[0]!r}") from None
            if verb == "new":
                if args[2] != "as" or args[4] != "on" or not args[3].isdigit():
                    raise EncodingError(
                        f"{self}: line {lineno}: expected "
                        "'new <kind> <ref> as <tag> on <channel>'")
            # reference arguments must parse
            ref_positions = {"new": (1,), "run": (0,), "stop": (0,),
                             "pause": (0,), "resume": (0,), "delete": (0,),
                             "prepare": (0,), "set": (0,)}.get(verb, ())
            for i in ref_positions:
                try:
                    ObjectReference.parse(args[i])
                except ValueError as exc:
                    raise EncodingError(
                        f"{self}: line {lineno}: bad reference "
                        f"{args[i]!r}: {exc}") from None
            statements.append(ScriptStatement(verb=verb, args=args,
                                              line=lineno))
        return statements
