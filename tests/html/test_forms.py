"""Tests for form extraction and serialization."""

from repro.html.forms import extract_form_model
from repro.html.parser import parse_html


def model_from(html: str):
    dom = parse_html(html)
    form = dom.find_first("form")
    assert form is not None
    return extract_form_model(dom, form, base_url="http://s.test/page")


class TestFieldExtraction:
    def test_label_for_association(self):
        model = model_from(
            '<form><label for="em">Email address</label>'
            '<input id="em" name="email"></form>'
        )
        field = model.field_by_name("email")
        assert field.label_text == "Email address"

    def test_wrapping_label(self):
        model = model_from(
            "<form><label>Password <input type=password name=pw></label></form>"
        )
        assert model.field_by_name("pw").label_text.startswith("Password")

    def test_placeholder_captured(self):
        model = model_from('<form><input name=u placeholder="Your username"></form>')
        assert "Your username" in model.field_by_name("u").descriptor_texts()

    def test_nearby_text(self):
        model = model_from(
            "<form><div><span>Phone number</span><input name=ph></div></form>"
        )
        assert "Phone number" in model.field_by_name("ph").nearby_text

    def test_required_and_maxlength(self):
        model = model_from('<form><input name=x required maxlength="14"></form>')
        field = model.field_by_name("x")
        assert field.required
        assert field.maxlength == 14
        # str.isdigit accepts a superscript two, which int() rejects.
        assert model_from('<form><input name=y maxlength="²"></form>').fields[0].maxlength is None

    def test_label_wrapping_the_form_is_found_from_the_root(self):
        model = model_from(
            "<label>Email <form action=/r><span>Phone</span><input name=ph>"
            "<label>Pw <input type=password name=pw></label>"
            "<select name=s><option>a</option></select></form></label>"
        )
        texts = {f.name: (f.label_text, f.nearby_text) for f in model.fields}
        assert texts == {
            "ph": ("Email Phone Pw a", "Phone"),
            "pw": ("Pw", "Pw"),
            "s": ("Email Phone Pw a", "Phone"),
        }

    def test_select_options_and_default(self):
        model = model_from(
            "<form><select name=state><option value=CA>California</option>"
            "<option value=NY selected>New York</option></select></form>"
        )
        field = model.field_by_name("state")
        assert field.options == ["CA", "NY"]
        assert field.default_value == "NY"

    def test_submit_controls_separated(self):
        model = model_from(
            "<form><input name=a><button type=submit>Go</button>"
            '<input type="submit" value="Send"></form>'
        )
        assert len(model.fields) == 1
        assert len(model.submit_controls) == 2

    def test_hidden_fields_not_visible(self):
        model = model_from('<form><input type=hidden name=t value=tok><input name=v></form>')
        assert [f.name for f in model.visible_fields()] == ["v"]

    def test_challenge_token_property(self):
        model = model_from('<form><input name=c data-challenge="ch-1"></form>')
        field = model.field_by_name("c")
        assert field.has_challenge_token
        assert field.challenge_token == "ch-1"

    def test_method_and_action(self):
        model = model_from('<form action="/go" method="POST"><input name=a></form>')
        assert model.action == "/go"
        assert model.method == "post"

    def test_action_defaults_to_base(self):
        model = model_from("<form><input name=a></form>")
        assert model.action == "http://s.test/page"


class TestSerialization:
    def test_filled_values_win(self):
        model = model_from('<form><input name=email value="old"></form>')
        assert model.serialize({"email": "new@x.test"}) == {"email": "new@x.test"}

    def test_hidden_defaults_carried(self):
        model = model_from('<form><input type=hidden name=tok value=T><input name=a></form>')
        payload = model.serialize({"a": "1"})
        assert payload == {"tok": "T", "a": "1"}

    def test_unchecked_checkbox_omitted(self):
        model = model_from('<form><input type=checkbox name=tos value=1></form>')
        assert model.serialize({}) == {}
        assert model.serialize({"tos": "1"}) == {"tos": "1"}

    def test_select_default_carried(self):
        model = model_from(
            "<form><select name=s><option value=x>X</option></select></form>"
        )
        assert model.serialize({}) == {"s": "x"}

    def test_unnamed_fields_skipped(self):
        model = model_from("<form><input id=noname></form>")
        assert model.serialize({}) == {}

    def test_text_like_classification(self):
        model = model_from(
            "<form><input type=email name=a><textarea name=b></textarea>"
            "<input type=checkbox name=c></form>"
        )
        assert model.field_by_name("a").is_text_like
        assert model.field_by_name("b").is_text_like
        assert not model.field_by_name("c").is_text_like
        assert model.field_by_name("c").is_checkbox
