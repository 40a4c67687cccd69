"""Tests for the headless browser."""

import contextlib
import gc
import sys

import pytest

from repro.html.browser import Browser, BrowserError, _parse_body
from repro.html.dom import Element, Node
from repro.html.forms import extract_form_model
from repro.net.transport import HttpResponse


HOMEPAGE = """
<html><head><title>My Site</title></head><body>
<a href="/signup">Sign up</a>
<a href="#frag">skip</a>
<a href="javascript:void(0)">skip too</a>
<a href="mailto:a@b.c">mail</a>
<a href="http://other.test/abs">elsewhere</a>
<form action="/register" method="post">
  <input name="email"><input type="password" name="pw">
  <button type="submit">Go</button>
</form>
</body></html>
"""


@pytest.fixture
def site(transport):
    posts = []

    def handler(request):
        if request.method == "POST":
            posts.append(dict(request.form))
            return HttpResponse(200, "<p>registration successful</p>")
        return HttpResponse(200, HOMEPAGE)

    transport.register_host("b.test", handler)
    return posts


class TestLoad:
    def test_load_sets_current_page(self, transport, site):
        browser = Browser(transport)
        page = browser.load("http://b.test/")
        assert page.ok
        assert browser.current_page is page
        assert page.title == "My Site"

    def test_links_absolute_and_filtered(self, transport, site):
        page = Browser(transport).load("http://b.test/")
        urls = [url for url, _text in page.links()]
        assert "http://b.test/signup" in urls
        assert "http://other.test/abs" in urls
        assert not any(u.startswith(("javascript:", "mailto:")) for u in urls)
        assert not any("#" in u for u in urls)

    def test_unreachable_host_raises_browser_error(self, transport):
        with pytest.raises(BrowserError):
            Browser(transport).load("http://ghost.test/")


class TestSubmit:
    def test_submit_posts_serialized_values(self, transport, site):
        browser = Browser(transport)
        page = browser.load("http://b.test/")
        form = page.forms()[0]
        landing = browser.submit_form(form, {"email": "a@x.test", "pw": "secret"})
        assert "successful" in landing.visible_text()
        assert site == [{"email": "a@x.test", "pw": "secret"}]

    def test_submit_without_page_rejected(self, transport, site):
        browser = Browser(transport)
        page = Browser(transport).load("http://b.test/")
        form = page.forms()[0]
        with pytest.raises(BrowserError):
            browser.submit_form(form, {})

    def test_get_method_form_uses_query(self, transport):
        seen = {}

        def handler(request):
            if request.path == "/search":
                seen.update(request.query)
                return HttpResponse(200, "<p>results</p>")
            return HttpResponse(
                200, '<form action="/search" method="get"><input name="q"></form>'
            )

        transport.register_host("g.test", handler)
        browser = Browser(transport)
        page = browser.load("http://g.test/")
        browser.submit_form(page.forms()[0], {"q": "term"})
        assert seen == {"q": "term"}


class TestParsedDomCache:
    """The DOM cache hands out clones; mutations must never leak."""

    def test_repeat_loads_get_independent_trees(self, transport, site):
        browser = Browser(transport)
        first = browser.load("http://b.test/")
        first.dom.find_first("title").children.clear()
        first.dom.find_first("form").set("action", "/hijacked")

        second = browser.load("http://b.test/")
        assert second.dom is not first.dom
        assert second.title == "My Site"
        assert second.dom.find_first("form").get("action") == "/register"

    def test_cached_tree_matches_uncached_parse(self, transport, site):
        from repro.html.parser import parse_html
        from repro.perf import caching as _perf

        _perf.clear_all_caches()
        cached_cold = _parse_body(HOMEPAGE)
        cached_warm = _parse_body(HOMEPAGE)
        plain = parse_html(HOMEPAGE)
        assert cached_cold.to_html() == plain.to_html()
        assert cached_warm.to_html() == plain.to_html()

    def test_clone_shares_no_node_with_the_master(self):
        from repro.html.parser import parse_html

        def nodes(element):
            yield element
            for child in element.children:
                if isinstance(child, Element):
                    yield from nodes(child)
                else:
                    yield child

        tree = parse_html("<div><p>x<span>y</span></p></div>")
        copy = tree.clone()
        assert {id(node) for node in nodes(tree)}.isdisjoint(id(node) for node in nodes(copy))
        assert copy.to_html() == tree.to_html()

    def test_disabled_layer_bypasses_the_cache(self, transport, site):
        from repro.html.browser import _DOM_CACHE
        from repro.perf import caching as _perf

        _perf.set_enabled(False)
        hits, misses = _DOM_CACHE.hits, _DOM_CACHE.misses
        try:
            browser = Browser(transport)
            browser.load("http://b.test/")
            browser.load("http://b.test/")
            assert (_DOM_CACHE.hits, _DOM_CACHE.misses) == (hits, misses)
        finally:
            _perf.set_enabled(True)


class TestAcyclicPages:
    def test_pages_are_freed_by_reference_count(self, perf_off):
        """Parsed, cached and cloned pages, and their forms, leave no cycle."""
        with perf_off():
            pass  # empties every cache, so the count sees only this test's garbage
        gc.collect()
        gc.disable()
        debug = gc.get_debug()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        try:
            for mode in (contextlib.nullcontext, perf_off):
                with mode():
                    doms = [_parse_body(HOMEPAGE) for _ in range(3)]
                    doms.append(doms[0].clone())
                    models = [
                        extract_form_model(dom, form)
                        for dom in doms
                        for form in dom.find_all("form")
                    ]
                    assert len(models) == 4
                    del doms, models
            unreachable = gc.collect()
            cyclic_nodes = sum(isinstance(obj, Node) for obj in gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            gc.enable()
        assert cyclic_nodes == 0
        # A trace function written in Python, such as a line-coverage
        # hook, leaves cycles of its own.
        if sys.gettrace() is None:
            assert unreachable == 0
