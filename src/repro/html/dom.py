"""A small DOM: element tree with the queries the crawler needs."""

from __future__ import annotations

import html as _htmllib
from typing import Iterator

#: Elements that never have children or a closing tag.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)


class Node:
    """Base class for DOM nodes.

    A node keeps no link to its parent, so a tree holds no reference
    cycle and is freed by reference count when its last holder drops
    it.  Ancestry is read top-down from the root instead (see
    :func:`repro.html.forms.extract_form_model`).

    ``__slots__`` must be declared here too: a slotted subclass of a
    dict-bearing base still gets a per-instance ``__dict__``, which is
    exactly the memory overhead slots exist to avoid.
    """

    __slots__ = ()

    def to_html(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def clone(self) -> "Node":  # pragma: no cover - overridden
        raise NotImplementedError


class TextNode(Node):
    """A run of character data."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def to_html(self) -> str:
        """Serialize with entity escaping."""
        return _htmllib.escape(self.text, quote=False)

    def clone(self) -> "TextNode":
        """A copy of this text node."""
        return TextNode(self.text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextNode({self.text!r})"


class Element(Node):
    """An HTML element with attributes and children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag.lower()
        self.attrs: dict[str, str] = {
            name.lower(): value for name, value in (attrs or {}).items()
        }
        self.children: list[Node] = []

    # -- tree construction -------------------------------------------------

    def append(self, node: "Node | str") -> Node:
        """Append a child node (strings become text nodes)."""
        if isinstance(node, str):
            node = TextNode(node)
        self.children.append(node)
        return node

    def extend(self, nodes: list["Node | str"]) -> None:
        """Append several children."""
        for node in nodes:
            self.append(node)

    # -- attribute access --------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        """Attribute value (lowercased name), or ``default``."""
        return self.attrs.get(name.lower(), default)

    def set(self, name: str, value: str) -> None:
        """Set an attribute."""
        self.attrs[name.lower()] = value

    def has(self, name: str) -> bool:
        """Whether the attribute is present (possibly empty)."""
        return name.lower() in self.attrs

    @property
    def id(self) -> str:
        """The ``id`` attribute (empty string when absent)."""
        return self.get("id")

    @property
    def classes(self) -> list[str]:
        """The ``class`` attribute split on whitespace."""
        return self.get("class").split()

    # -- queries -----------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iteration over this element's subtree."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def find_all(self, *tags: str) -> list["Element"]:
        """All descendant elements (including self) with one of ``tags``."""
        wanted = {t.lower() for t in tags}
        return [node for node in self.iter() if node.tag in wanted]

    def find_first(self, *tags: str) -> "Element | None":
        """First matching descendant in document order, or None."""
        wanted = {t.lower() for t in tags}
        for node in self.iter():
            if node.tag in wanted:
                return node
        return None

    def text_content(self) -> str:
        """Concatenated text of the subtree, whitespace-normalized."""
        parts: list[str] = []
        self._collect_text(parts)
        return " ".join(" ".join(parts).split())

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, TextNode):
                parts.append(child.text)
            elif isinstance(child, Element):
                if child.tag in ("script", "style"):
                    continue
                child._collect_text(parts)

    # -- copying -----------------------------------------------------------

    def clone(self) -> "Element":
        """A structural deep copy of this subtree that shares no node with it.

        Much cheaper than re-parsing serialized HTML — no tokenizing,
        attribute regexes or entity decoding — which is what makes the
        parsed-DOM cache in :mod:`repro.html.browser` pay off while
        still handing every caller a tree it may freely mutate.
        """
        copy = Element.__new__(Element)
        copy.tag = self.tag
        copy.attrs = dict(self.attrs)
        copy.children = [child.clone() for child in self.children]
        return copy

    # -- serialization -----------------------------------------------------

    def to_html(self) -> str:
        """Serialize the subtree back to HTML text."""
        attr_text = "".join(
            f' {name}="{_htmllib.escape(value, quote=True)}"'
            for name, value in self.attrs.items()
        )
        if self.tag in VOID_ELEMENTS:
            return f"<{self.tag}{attr_text}>"
        inner = "".join(child.to_html() for child in self.children)
        return f"<{self.tag}{attr_text}>{inner}</{self.tag}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.id}" if self.id else ""
        return f"<Element {self.tag}{ident} children={len(self.children)}>"
