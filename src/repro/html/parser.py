"""A tolerant HTML tokenizer and tree builder.

Not a full HTML5 parser — it covers the constructs that real-world
registration pages (and our simulated ones) use: nested elements,
quoted/unquoted/bare attributes, void elements, comments, doctype,
raw-text ``<script>``/``<style>`` bodies and character entities.
Unclosed tags are recovered by implicit closing, as browsers do.
"""

from __future__ import annotations

import html as _htmllib
import re

from repro.html.dom import VOID_ELEMENTS, Element, TextNode

_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:-]*")
_ATTR_RE = re.compile(
    r"""\s*([^\s=/>]+)(?:\s*=\s*("[^"]*"|'[^']*'|[^\s>]*))?"""
)
_RAW_TEXT_TAGS = frozenset({"script", "style", "textarea", "title"})


def parse_html(text: str) -> Element:
    """Parse HTML text into a DOM tree rooted at an ``html`` element.

    A synthetic ``<html>`` root is provided when the input lacks one,
    so queries always run against a single rooted tree.
    """
    parser = _Parser(text)
    parser.run()
    return parser.root


class _Parser:
    __slots__ = ("text", "pos", "root", "stack", "_lower")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.root = Element("html")
        self.stack: list[Element] = [self.root]
        # Lowercased source, computed at most once.  Lowering inside
        # _consume_raw_text made every <script>/<style> cost O(n),
        # turning script-heavy pages quadratic.
        self._lower: str | None = None

    @property
    def current(self) -> Element:
        return self.stack[-1]

    def run(self) -> None:
        n = len(self.text)
        while self.pos < n:
            lt = self.text.find("<", self.pos)
            if lt == -1:
                self._emit_text(self.text[self.pos :])
                break
            if lt > self.pos:
                self._emit_text(self.text[self.pos : lt])
            self.pos = lt
            self._consume_markup()
        # Implicitly close everything that remains open.
        self.stack = [self.root]

    def _emit_text(self, raw: str) -> None:
        if raw:
            self.current.append(TextNode(_htmllib.unescape(raw)))

    def _consume_markup(self) -> None:
        text = self.text
        pos = self.pos
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            self.pos = len(text) if end == -1 else end + 3
            return
        if text.startswith("<!", pos) or text.startswith("<?", pos):
            end = text.find(">", pos)
            self.pos = len(text) if end == -1 else end + 1
            return
        if text.startswith("</", pos):
            self._consume_close_tag()
            return
        self._consume_open_tag()

    def _consume_close_tag(self) -> None:
        match = _TAG_NAME_RE.match(self.text, self.pos + 2)
        end = self.text.find(">", self.pos)
        self.pos = len(self.text) if end == -1 else end + 1
        if match is None:
            return
        tag = match.group(0).lower()
        # Close up to the nearest matching open element, if any.
        for depth in range(len(self.stack) - 1, 0, -1):
            if self.stack[depth].tag == tag:
                del self.stack[depth:]
                return
        # No matching open tag: ignore, as browsers do.

    def _consume_open_tag(self) -> None:
        match = _TAG_NAME_RE.match(self.text, self.pos + 1)
        if match is None:
            # A bare '<' in text content.
            self._emit_text("<")
            self.pos += 1
            return
        tag = match.group(0).lower()
        cursor = match.end()
        attrs: dict[str, str] = {}
        self_closing = False
        n = len(self.text)
        while cursor < n:
            if self.text.startswith("/>", cursor):
                self_closing = True
                cursor += 2
                break
            if self.text[cursor] == ">":
                cursor += 1
                break
            attr_match = _ATTR_RE.match(self.text, cursor)
            if attr_match is None or attr_match.end() == cursor:
                cursor += 1
                continue
            name = attr_match.group(1).lower()
            raw_value = attr_match.group(2)
            if raw_value is None:
                value = ""
            elif raw_value[:1] in ("'", '"'):
                value = raw_value[1:-1]
            else:
                value = raw_value
            if name not in ("/", ">"):
                attrs[name] = _htmllib.unescape(value)
            cursor = attr_match.end()
        self.pos = cursor

        if tag == "html":
            # Merge attributes into the synthetic root instead of nesting.
            self.root.attrs.update(attrs)
            return

        element = Element(tag, attrs)
        self.current.append(element)
        if self_closing or tag in VOID_ELEMENTS:
            return
        if tag in _RAW_TEXT_TAGS:
            self._consume_raw_text(element, tag)
            return
        self.stack.append(element)

    def _consume_raw_text(self, element: Element, tag: str) -> None:
        close = f"</{tag}"
        if self._lower is None:
            self._lower = self.text.lower()
        end = self._lower.find(close, self.pos)
        if end == -1:
            raw = self.text[self.pos :]
            self.pos = len(self.text)
        else:
            raw = self.text[self.pos : end]
            gt = self.text.find(">", end)
            self.pos = len(self.text) if gt == -1 else gt + 1
        if raw:
            content = raw if tag in ("script", "style") else _htmllib.unescape(raw)
            element.append(TextNode(content))
