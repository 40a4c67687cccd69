"""Form-field extraction and serialization.

The crawler's field-identification heuristics need, for every control in
a form, the set of texts that describe it: name, id, placeholder, the
text of any ``<label for=...>`` or wrapping label, and nearby text.
:func:`extract_form_model` gathers all of that into a
:class:`FormModel`, and :meth:`FormModel.serialize` turns filled values
into the POST body following HTML form-submission semantics.

DOM nodes keep no parent link, so a control's parent and wrapping label
are read from the document root: one walk per extraction, which also
collects the ``<label for=...>`` texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.html.dom import Element, TextNode

#: Input types that carry user-entered text.
TEXT_LIKE_TYPES = frozenset(
    {"text", "email", "password", "tel", "number", "date", "url", "search", ""}
)


@dataclass
class FormField:
    """One form control plus the descriptive text around it."""

    element: Element
    control: str  # input | select | textarea
    input_type: str  # for <input>: lowercased type attribute
    name: str
    field_id: str
    placeholder: str
    label_text: str
    nearby_text: str
    required: bool
    maxlength: int | None
    options: list[str] = field(default_factory=list)  # for <select>
    default_value: str = ""

    def descriptor_texts(self) -> list[str]:
        """All texts a heuristic may match against, most specific first."""
        texts = [self.name, self.field_id, self.placeholder, self.label_text, self.nearby_text]
        return [t for t in texts if t]

    @property
    def is_text_like(self) -> bool:
        """Whether the control accepts free text."""
        if self.control == "textarea":
            return True
        return self.control == "input" and self.input_type in TEXT_LIKE_TYPES

    @property
    def is_checkbox(self) -> bool:
        """Whether the control is a checkbox."""
        return self.control == "input" and self.input_type == "checkbox"

    @property
    def is_hidden(self) -> bool:
        """Whether the control is a hidden input."""
        return self.control == "input" and self.input_type == "hidden"

    @property
    def has_challenge_token(self) -> bool:
        """Whether the control carries a captcha challenge token."""
        return bool(self.element.get("data-challenge"))

    @property
    def challenge_token(self) -> str:
        """The captcha challenge token, if any."""
        return self.element.get("data-challenge")


@dataclass
class FormModel:
    """A form ready to be filled and submitted."""

    element: Element
    action: str
    method: str
    fields: list[FormField]
    submit_controls: list[Element]
    form_text: str

    def visible_fields(self) -> list[FormField]:
        """Fields a user would interact with (hidden/submit excluded)."""
        return [f for f in self.fields if not f.is_hidden]

    def field_by_name(self, name: str) -> FormField | None:
        """First field with the given ``name`` attribute."""
        for form_field in self.fields:
            if form_field.name == name:
                return form_field
        return None

    def serialize(self, values: dict[str, str]) -> dict[str, str]:
        """Build the submission payload.

        ``values`` maps field names to filled values.  Hidden inputs and
        select defaults are carried through automatically; checkboxes
        are included only when a value was supplied (i.e. checked).
        """
        payload: dict[str, str] = {}
        for form_field in self.fields:
            if not form_field.name:
                continue
            if form_field.name in values:
                payload[form_field.name] = values[form_field.name]
            elif form_field.is_hidden:
                payload[form_field.name] = form_field.default_value
            elif form_field.control == "select" and form_field.options:
                payload[form_field.name] = form_field.default_value or form_field.options[0]
            elif form_field.is_checkbox:
                continue  # unchecked boxes are omitted from submissions
            elif form_field.default_value:
                payload[form_field.name] = form_field.default_value
        return payload


#: The tags :func:`extract_form_model` reads as form controls.
_CONTROL_TAGS = ("input", "select", "textarea", "button")

#: A control's parent and its nearest enclosing ``<label>``.
_Context = tuple[Element | None, Element | None]


def _index_document(root: Element) -> tuple[dict[str, str], dict[Element, _Context]]:
    """One pre-order walk of ``root``.

    Returns the text of every ``<label for=id>`` by id (a later label
    wins) and, for every control, its parent and nearest enclosing
    ``<label>``, which may wrap the whole form.
    """
    labels: dict[str, str] = {}
    contexts: dict[Element, _Context] = {}
    stack: list[tuple[Element, Element | None, Element | None]] = [(root, None, None)]
    while stack:
        node, parent, wrapper = stack.pop()
        if node.tag == "label":
            target = node.get("for")
            if target:
                labels[target] = node.text_content()
            wrapper = node
        elif node.tag in _CONTROL_TAGS:
            contexts[node] = (parent, wrapper)
        for child in reversed(node.children):
            if isinstance(child, Element):
                stack.append((child, node, wrapper))
    return labels, contexts


def _preceding_sibling_text(control: Element, parent: Element | None) -> str:
    """Text immediately before the control inside its parent."""
    if parent is None:
        return ""
    texts: list[str] = []
    for child in parent.children:
        if child is control:
            break
        if isinstance(child, TextNode):
            texts.append(child.text)
        elif isinstance(child, Element) and child.tag in ("span", "b", "strong", "p", "div", "td", "th"):
            texts.append(child.text_content())
    combined = " ".join(" ".join(texts).split())
    # Only the tail end is relevant to this control.
    return combined[-80:]


def _select_options(control: Element) -> tuple[list[str], str]:
    options: list[str] = []
    default = ""
    for option in control.find_all("option"):
        # An explicit value attribute wins even when empty (the
        # "placeholder option" idiom); only a missing attribute falls
        # back to the option's text.
        value = option.get("value") if option.has("value") else option.text_content()
        options.append(value)
        if option.has("selected") and not default:
            default = value
    return options, default


def extract_form_model(root: Element, form: Element, base_url: str = "") -> FormModel:
    """Build a :class:`FormModel` for ``form``, which must lie within ``root``."""
    labels, contexts = _index_document(root)
    fields: list[FormField] = []
    submit_controls: list[Element] = []
    for control in form.find_all(*_CONTROL_TAGS):
        input_type = control.get("type").lower()
        if control.tag == "button" or input_type in ("submit", "image"):
            submit_controls.append(control)
            continue
        if input_type in ("button", "reset"):
            continue
        options: list[str] = []
        default_value = control.get("value")
        if control.tag == "select":
            options, default_value = _select_options(control)
        maxlength_raw = control.get("maxlength")
        # isdecimal, not isdigit: int() rejects superscripts like "²".
        maxlength = int(maxlength_raw) if maxlength_raw.isdecimal() else None
        field_id = control.get("id")
        parent, wrapper = contexts[control]
        fields.append(
            FormField(
                element=control,
                control=control.tag,
                input_type=input_type if control.tag == "input" else "",
                name=control.get("name"),
                field_id=field_id,
                placeholder=control.get("placeholder"),
                label_text=labels.get(field_id, "") or (wrapper.text_content() if wrapper else ""),
                nearby_text=_preceding_sibling_text(control, parent),
                required=control.has("required"),
                maxlength=maxlength,
                options=options,
                default_value=default_value,
            )
        )
    return FormModel(
        element=form,
        action=form.get("action") or base_url,
        method=form.get("method", "get").lower() or "get",
        fields=fields,
        submit_controls=submit_controls,
        form_text=form.text_content(),
    )
