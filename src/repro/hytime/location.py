"""HyTime location addressing (Fig 2.2, §2.2.1.3).

Three address forms:

1. **name-space**: a unique name — "the most robust form of address in
   that it can survive changes in the object being addressed";
2. **coordinate**: a position along axes — here, a path of child
   indices in the document tree, or a (first, length) span over an
   element's children;
3. **semantic**: a construct interpreted by an application-supplied
   resolver ("HyTime passes semantic addresses to interpretation
   programs").

All three resolve to elements; coordinate and semantic addresses can
be converted to name-space addresses where the target carries an id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

from repro.hytime.sgml import SgmlElement
from repro.util.errors import DecodingError


@dataclass(frozen=True)
class NameSpaceAddress:
    """Address by unique name (the basis of hyperlinking)."""

    name: str


@dataclass(frozen=True)
class CoordinateAddress:
    """Address by position: child-index path from the document root."""

    path: tuple

    def __init__(self, path: Sequence[int]) -> None:
        object.__setattr__(self, "path", tuple(int(p) for p in path))


@dataclass(frozen=True)
class SemanticAddress:
    """Address by semantic construct, resolved by an interpreter."""

    query: str


Address = Union[NameSpaceAddress, CoordinateAddress, SemanticAddress]
SemanticResolver = Callable[[str, SgmlElement], Optional[SgmlElement]]


def build_name_space(root: SgmlElement) -> Dict[str, SgmlElement]:
    """Index every element carrying an ``id`` attribute."""
    index: Dict[str, SgmlElement] = {}

    def walk(el: SgmlElement) -> None:
        ident = el.attributes.get("id")
        if ident is not None:
            if ident in index:
                raise DecodingError(f"duplicate id {ident!r} in document")
            index[ident] = el
        for child in el.children:
            walk(child)

    walk(root)
    return index


def resolve_address(address: Address, root: SgmlElement, *,
                    name_space: Optional[Dict[str, SgmlElement]] = None,
                    semantic_resolver: Optional[SemanticResolver] = None
                    ) -> SgmlElement:
    """Resolve any of the three address forms to an element."""
    if isinstance(address, NameSpaceAddress):
        space = name_space if name_space is not None else build_name_space(root)
        el = space.get(address.name)
        if el is None:
            raise DecodingError(f"no element named {address.name!r}")
        return el
    if isinstance(address, CoordinateAddress):
        node = root
        for i, index in enumerate(address.path):
            if not 0 <= index < len(node.children):
                raise DecodingError(
                    f"coordinate path {list(address.path)} leaves the tree "
                    f"at step {i}")
            node = node.children[index]
        return node
    if isinstance(address, SemanticAddress):
        if semantic_resolver is None:
            raise DecodingError(
                "semantic addressing needs an interpretation program")
        el = semantic_resolver(address.query, root)
        if el is None:
            raise DecodingError(
                f"semantic address {address.query!r} resolved to nothing")
        return el
    raise DecodingError(f"unknown address form {type(address).__name__}")


@dataclass
class Hyperlink:
    """A traversable link between two addressed endpoints."""

    anchor: Address
    target: Address
    link_type: str = "clink"

    def endpoints(self, root: SgmlElement) -> tuple:
        return (resolve_address(self.anchor, root),
                resolve_address(self.target, root))
