"""Tests for the DOM layer."""

from repro.html.builder import el
from repro.html.dom import Element, TextNode


def sample_tree() -> Element:
    return el(
        "div", {"id": "root", "class": "outer box"},
        el("p", {"id": "p1"}, "one"),
        el("section", None,
           el("p", {"id": "p2"}, "two"),
           el("span", None, "three")),
    )


class TestQueries:
    def test_iter_preorder(self):
        tags = [node.tag for node in sample_tree().iter()]
        assert tags == ["div", "p", "section", "p", "span"]

    def test_find_all(self):
        assert [p.id for p in sample_tree().find_all("p")] == ["p1", "p2"]

    def test_find_first(self):
        assert sample_tree().find_first("span").text_content() == "three"
        assert sample_tree().find_first("table") is None

    def test_text_content_normalizes_whitespace(self):
        node = el("div", None, "  a  ", el("b", None, " b "), " c ")
        assert node.text_content() == "a b c"

    def test_classes(self):
        assert sample_tree().classes == ["outer", "box"]


class TestMutation:
    def test_append_string_becomes_text(self):
        node = Element("p")
        child = node.append("hello")
        assert isinstance(child, TextNode)
        assert node.text_content() == "hello"

    def test_extend(self):
        node = Element("p")
        node.extend(["a", Element("b")])
        assert len(node.children) == 2

    def test_attribute_access_case_insensitive(self):
        node = Element("input", {"TYPE": "text"})
        assert node.get("type") == "text"
        node.set("NAME", "x")
        assert node.get("name") == "x"
        assert node.has("Name")


class TestSerialization:
    def test_void_element_no_close_tag(self):
        assert Element("br").to_html() == "<br>"

    def test_attribute_escaping(self):
        node = Element("div", {"title": 'a"b'})
        assert "&quot;" in node.to_html()

    def test_text_escaping(self):
        node = el("p", None, "a < b & c")
        html = node.to_html()
        assert "&lt;" in html and "&amp;" in html

    def test_nested_serialization(self):
        assert sample_tree().to_html().startswith('<div id="root"')
