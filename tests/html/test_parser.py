"""Tests for the HTML parser."""

from hypothesis import given
from hypothesis import strategies as st

from repro.html.builder import el, page_skeleton, render_document
from repro.html.parser import parse_html


class TestBasicParsing:
    def test_simple_nesting(self):
        dom = parse_html("<div><p>hello</p></div>")
        p = dom.find_first("p")
        assert p is not None
        assert p.text_content() == "hello"
        assert p in dom.find_first("div").children

    def test_attributes_quoted_and_unquoted(self):
        dom = parse_html('<input type="text" name=email required>')
        node = dom.find_first("input")
        assert node.get("type") == "text"
        assert node.get("name") == "email"
        assert node.has("required")

    def test_single_quoted_attributes(self):
        dom = parse_html("<a href='/x'>link</a>")
        assert dom.find_first("a").get("href") == "/x"

    def test_void_elements_do_not_nest(self):
        dom = parse_html("<p><br>text<img src=x>more</p>")
        p = dom.find_first("p")
        assert p.text_content() == "text more"

    def test_self_closing(self):
        dom = parse_html("<div><span/>after</div>")
        assert dom.find_first("div").text_content() == "after"

    def test_comments_skipped(self):
        dom = parse_html("<div><!-- secret --><p>shown</p></div>")
        assert "secret" not in dom.text_content()
        assert dom.find_first("p") is not None

    def test_doctype_skipped(self):
        dom = parse_html("<!DOCTYPE html><p>x</p>")
        assert dom.find_first("p").text_content() == "x"

    def test_entities_decoded(self):
        dom = parse_html("<p>a &amp; b &lt;c&gt;</p>")
        assert dom.find_first("p").text_content() == "a & b <c>"

    def test_bare_lt_in_text(self):
        dom = parse_html("<p>1 < 2</p>")
        assert "<" in dom.find_first("p").text_content()


class TestRecovery:
    def test_unclosed_tags_implicitly_closed(self):
        dom = parse_html("<div><p>one<p>two</div>")
        paragraphs = dom.find_all("p")
        assert len(paragraphs) == 2

    def test_stray_close_tag_ignored(self):
        dom = parse_html("</div><p>x</p>")
        assert dom.find_first("p").text_content() == "x"

    def test_mismatched_close_recovers(self):
        dom = parse_html("<div><span>inner</div>after")
        assert "after" in dom.text_content()

    def test_empty_input(self):
        dom = parse_html("")
        assert dom.tag == "html"
        assert dom.text_content() == ""

    def test_truncated_tag(self):
        dom = parse_html("<div><input type=")
        assert dom.find_first("div") is not None


class TestRawText:
    def test_script_contents_not_parsed(self):
        dom = parse_html("<script>if (a < b) { x('<div>'); }</script><p>y</p>")
        assert dom.find_first("p") is not None
        assert dom.find_all("div") == []

    def test_script_excluded_from_text(self):
        dom = parse_html("<body><script>var x=1;</script>visible</body>")
        assert dom.text_content() == "visible"

    def test_textarea_entities(self):
        dom = parse_html("<textarea>&amp;</textarea>")
        node = dom.find_first("textarea")
        assert node.text_content() == "&"

    def test_html_root_attrs_merged(self):
        dom = parse_html('<html lang="de"><body>x</body></html>')
        assert dom.get("lang") == "de"


class TestRoundtrip:
    def test_builder_roundtrip(self):
        root, body = page_skeleton("Title", lang="en")
        body.append(el("div", {"class": "a b"}, el("a", {"href": "/x"}, "text")))
        html = render_document(root)
        reparsed = parse_html(html)
        assert reparsed.get("lang") == "en"
        anchor = reparsed.find_first("a")
        assert anchor.get("href") == "/x"
        assert anchor.text_content() == "text"

    @given(st.text(alphabet=st.characters(blacklist_characters="<>&\x00",
                                          blacklist_categories=("Cs", "Cc")),
                   min_size=0, max_size=60))
    def test_text_roundtrip_property(self, text):
        root, body = page_skeleton("T")
        body.append(el("p", None, text))
        reparsed = parse_html(render_document(root))
        expected = " ".join(text.split())
        assert reparsed.find_first("p").text_content() == expected

    @given(st.dictionaries(
        keys=st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True),
        values=st.text(alphabet=st.characters(blacklist_characters="\x00",
                                              blacklist_categories=("Cs", "Cc")),
                       max_size=30),
        max_size=5,
    ))
    def test_attribute_roundtrip_property(self, attrs):
        root, body = page_skeleton("T")
        body.append(el("div", attrs))
        reparsed = parse_html(render_document(root))
        div = reparsed.find_first("div")
        for name, value in attrs.items():
            assert div.get(name) == value


class TestManyRawTextTags:
    """Regression: lowercasing the whole source per raw-text tag made
    script-heavy pages quadratic; the lowered copy is now built once."""

    def test_hundreds_of_scripts_parse_correctly(self):
        blocks = "".join(
            f"<script>var v{i} = '<p>not markup</p>';</script><p>t{i}</p>"
            for i in range(400)
        )
        dom = parse_html(f"<body>{blocks}</body>")
        scripts = dom.find_all("script")
        paragraphs = dom.find_all("p")
        assert len(scripts) == 400
        assert len(paragraphs) == 400  # none swallowed by script bodies
        assert scripts[0].children[0].text == "var v0 = '<p>not markup</p>';"
        assert scripts[399].children[0].text == "var v399 = '<p>not markup</p>';"

    def test_mixed_case_closing_tags_still_close(self):
        dom = parse_html("<script>a</SCRIPT><STYLE>b</style><p>after</p>")
        assert dom.find_first("p").text_content() == "after"
        assert dom.find_first("script").children[0].text == "a"

    def test_script_heavy_page_lowercases_the_source_at_most_once(self):
        class CountingText(str):
            """Source text that counts the characters ``lower()`` reads."""

            lowered = 0

            def lower(self):
                CountingText.lowered += len(self)
                return super().lower()

        text = CountingText(
            "<body>" + "<script>var x = 1;</script>" * 800 + "</body>"
        )
        dom = parse_html(text)
        assert len(dom.find_all("script")) == 800
        # The quadratic parser lowercased the whole source once per
        # raw-text tag: 800 * len(text) characters here.
        assert 0 < CountingText.lowered <= len(text)
