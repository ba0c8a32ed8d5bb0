"""A minimal SGML parser.

HyTime is "an extension to SGML so that markup and DTDs can be used to
describe the structure of multimedia documents" (§2.2.1.1).  This
parser covers the subset HyTime documents in this repo use: start/end
tags with quoted attributes, empty elements (``<e/>``), character data
with the standard entities, and comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.errors import DecodingError


@dataclass
class SgmlElement:
    """A parsed element: generic identifier, attributes, content."""

    name: str
    attributes: Dict[str, str] = field(default_factory=dict)
    children: List["SgmlElement"] = field(default_factory=list)
    text: str = ""
    parent: Optional["SgmlElement"] = None

    def find_all(self, name: str) -> List["SgmlElement"]:
        """All descendants (document order) with the given name."""
        found = []
        for child in self.children:
            if child.name == name:
                found.append(child)
            found.extend(child.find_all(name))
        return found

    def full_text(self) -> str:
        parts = [self.text]
        parts.extend(c.full_text() for c in self.children)
        return "".join(parts)

    def path(self) -> List[int]:
        """Coordinate path: child indices from the root to this node."""
        node, path = self, []
        while node.parent is not None:
            path.append(node.parent.children.index(node))
            node = node.parent
        path.reverse()
        return path


_TOKEN = re.compile(
    r"<!--.*?-->"                                  # comment
    r"|<!\[CDATA\[.*?\]\]>"                        # CDATA
    r"|</([A-Za-z][\w.-]*)\s*>"                    # end tag
    r"|<([A-Za-z][\w.-]*)((?:\s+[\w.-]+\s*=\s*\"[^\"]*\")*)\s*(/?)>"  # start
    , re.DOTALL)

_ATTR = re.compile(r"([\w.-]+)\s*=\s*\"([^\"]*)\"")

_ENTITIES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
             "&apos;": "'"}


def _decode_text(raw: str) -> str:
    for ent, char in _ENTITIES.items():
        raw = raw.replace(ent, char)
    return raw


class SgmlParser:
    """Parse SGML text into an element tree."""

    def parse(self, text: str) -> SgmlElement:
        # strip doctype/processing instructions
        text = re.sub(r"<\?.*?\?>|<!DOCTYPE[^>]*>", "", text, flags=re.DOTALL)
        root: Optional[SgmlElement] = None
        stack: List[SgmlElement] = []
        pos = 0
        for match in _TOKEN.finditer(text):
            gap = text[pos:match.start()]
            if gap.strip():
                if not stack:
                    raise DecodingError(
                        f"character data outside root: {gap.strip()[:40]!r}")
                stack[-1].text += _decode_text(gap)
            pos = match.end()
            whole = match.group(0)
            if whole.startswith("<!--"):
                continue
            if whole.startswith("<![CDATA["):
                if not stack:
                    raise DecodingError("CDATA outside root")
                stack[-1].text += whole[9:-3]
                continue
            end_name, start_name, attr_text, selfclose = (
                match.group(1), match.group(2), match.group(3), match.group(4))
            if end_name:
                if not stack or stack[-1].name != end_name:
                    raise DecodingError(
                        f"mismatched end tag </{end_name}>")
                closed = stack.pop()
                if not stack:
                    root = closed
            else:
                element = SgmlElement(
                    name=start_name,
                    attributes={k: _decode_text(v)
                                for k, v in _ATTR.findall(attr_text or "")})
                if stack:
                    element.parent = stack[-1]
                    stack[-1].children.append(element)
                elif root is not None:
                    raise DecodingError("multiple root elements")
                if selfclose:
                    if not stack and root is None:
                        root = element
                else:
                    stack.append(element)
        tail = text[pos:]
        if tail.strip():
            raise DecodingError(f"character data after root: {tail.strip()[:40]!r}")
        if stack:
            raise DecodingError(f"unclosed element <{stack[-1].name}>")
        if root is None:
            raise DecodingError("no root element found")
        return root
