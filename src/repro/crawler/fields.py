"""Field-identification heuristics.

"These heuristics take the form of a series of weighted regular
expressions and sets of DOM elements to which they apply"
(Section 4.3.1).  Each semantic meaning carries weighted patterns;
every descriptor text of a field (name, id, placeholder, label, nearby
text) is matched against every pattern, scores accumulate, and the
best-scoring meaning above a threshold wins.  English vocabulary only —
which is precisely why non-English forms defeat the crawler.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache

from repro.html.forms import FormField
from repro.perf import caching as _perf


class FieldMeaning(enum.Enum):
    """Semantic categories the crawler can fill."""

    EMAIL = "email"
    EMAIL_CONFIRM = "email_confirm"
    PASSWORD = "password"
    PASSWORD_CONFIRM = "password_confirm"
    USERNAME = "username"
    FIRST_NAME = "first_name"
    LAST_NAME = "last_name"
    FULL_NAME = "full_name"
    PHONE = "phone"
    ADDRESS = "address"
    CITY = "city"
    STATE = "state"
    ZIP = "zip"
    BIRTHDATE = "birthdate"
    EMPLOYER = "employer"
    GENDER = "gender"
    CAPTCHA = "captcha"
    TERMS = "terms"
    CARD_NUMBER = "card_number"
    CARD_CVV = "card_cvv"
    UNKNOWN = "unknown"

    @property
    def identity_key(self) -> str:
        """Key into :meth:`repro.identity.records.Identity.form_value_for`."""
        return self.value


@dataclass(frozen=True)
class WeightedPattern:
    """One regex with its score contribution."""

    pattern: re.Pattern[str]
    weight: float


def _patterns(*specs: tuple[str, float]) -> tuple[WeightedPattern, ...]:
    return tuple(WeightedPattern(re.compile(p, re.IGNORECASE), w) for p, w in specs)


#: The heuristic table.  Order matters only for tie-breaking (first wins).
HEURISTICS: tuple[tuple[FieldMeaning, tuple[WeightedPattern, ...]], ...] = (
    (FieldMeaning.EMAIL_CONFIRM, _patterns(
        (r"(confirm|verify|re.?enter|repeat).{0,12}e.?mail", 8.0),
        (r"e.?mail.{0,8}(confirm|again|2\b)", 6.0),
    )),
    (FieldMeaning.EMAIL, _patterns(
        (r"\be.?mail\b", 4.0),
        (r"^email", 3.0),
        (r"e.?mail.{0,10}address", 4.0),
    )),
    (FieldMeaning.PASSWORD_CONFIRM, _patterns(
        (r"(confirm|verify|re.?enter|repeat).{0,12}pass", 8.0),
        (r"pass(word)?.{0,8}(confirm|again|2\b)", 6.0),
    )),
    (FieldMeaning.PASSWORD, _patterns(
        (r"\bpass.?word\b", 4.0),
        (r"^passwd|^pwd\b|\bpwd\b", 3.0),
        (r"choose.{0,10}pass", 3.0),
    )),
    (FieldMeaning.USERNAME, _patterns(
        (r"\buser.?name\b", 4.0),
        (r"\blogin\b", 2.0),
        (r"\bnick.?name\b", 2.5),
        (r"screen.?name|display.?name|handle\b", 3.0),
    )),
    (FieldMeaning.FIRST_NAME, _patterns(
        (r"first.{0,5}name", 4.0),
        (r"\bfname\b|given.?name|\bforename\b", 3.5),
    )),
    (FieldMeaning.LAST_NAME, _patterns(
        (r"last.{0,5}name", 4.0),
        (r"\blname\b|sur.?name|family.?name", 3.5),
    )),
    (FieldMeaning.FULL_NAME, _patterns(
        (r"full.{0,5}name", 4.0),
        (r"your.{0,5}name", 2.5),
        (r"^name$", 2.0),
    )),
    (FieldMeaning.PHONE, _patterns(
        (r"\bphone\b|\btelephone\b|\bmobile\b|\bcell\b", 4.0),
        (r"\btel\b", 2.0),
    )),
    (FieldMeaning.ZIP, _patterns(
        (r"\bzip\b|postal.?code|post.?code", 4.0),
    )),
    (FieldMeaning.CITY, _patterns((r"\bcity\b|\btown\b", 4.0),)),
    (FieldMeaning.STATE, _patterns((r"\bstate\b|\bprovince\b", 3.5),)),
    (FieldMeaning.ADDRESS, _patterns(
        (r"\baddress\b", 3.0),
        (r"street", 3.5),
    )),
    (FieldMeaning.BIRTHDATE, _patterns(
        (r"birth|\bdob\b|date.{0,5}of.{0,5}birth", 4.0),
        (r"\bage\b", 1.5),
    )),
    (FieldMeaning.EMPLOYER, _patterns((r"employer|company|organization", 3.0),)),
    (FieldMeaning.GENDER, _patterns((r"\bgender\b|\bsex\b", 4.0),)),
    (FieldMeaning.CAPTCHA, _patterns(
        (r"captcha|security.?code|verification.?code", 5.0),
        (r"characters.{0,12}(shown|image|picture)", 4.5),
        (r"(type|enter).{0,20}(image|picture|box|shown)", 3.0),
        (r"(what|how).{0,40}(add|plus|sum|many|color|colour)", 4.0),
        (r"human|not.{0,5}a.{0,5}robot", 3.0),
    )),
    (FieldMeaning.TERMS, _patterns(
        (r"terms|\btos\b|conditions|agree", 4.0),
        (r"privacy.?policy", 2.0),
    )),
    (FieldMeaning.CARD_NUMBER, _patterns(
        (r"(credit|debit).{0,8}card", 5.0),
        (r"card.{0,8}(number|no\b)", 4.5),
        (r"\bcc.?num", 4.0),
    )),
    (FieldMeaning.CARD_CVV, _patterns(
        (r"\bcvv\b|\bcvc\b|security.{0,5}code.{0,8}card", 5.0),
    )),
)

#: Minimum accumulated score before a classification is trusted.
SCORE_THRESHOLD = 2.0

#: One heuristic table: (meaning, weighted patterns) rows.
HeuristicTable = tuple[tuple[FieldMeaning, tuple[WeightedPattern, ...]], ...]


@dataclass(frozen=True)
class _FusedMeaning:
    """One meaning's patterns fused into a single prefilter alternation.

    ``prefilter`` matches a text iff at least one of ``patterns`` does,
    so a failed prefilter search rejects every pattern in one C-level
    call.  On a prefilter hit the individual patterns are re-run so the
    per-pattern weights accumulate exactly as the naive loop's do.
    """

    meaning: FieldMeaning
    prefilter: re.Pattern[str]
    patterns: tuple[WeightedPattern, ...]


@dataclass(frozen=True)
class _FusedTable:
    """A whole heuristic table with a table-wide rejection prefilter."""

    any_prefilter: re.Pattern[str]
    meanings: tuple[_FusedMeaning, ...]


def _alternation(patterns: tuple[WeightedPattern, ...]) -> re.Pattern[str]:
    return re.compile(
        "|".join(f"(?:{wp.pattern.pattern})" for wp in patterns), re.IGNORECASE
    )


@lru_cache(maxsize=None)
def _fuse_table(table: HeuristicTable) -> _FusedTable:
    """Compile one table's fused form (tables are module constants)."""
    meanings = tuple(
        _FusedMeaning(meaning, _alternation(patterns), patterns)
        for meaning, patterns in table
    )
    every_pattern = tuple(wp for _, patterns in table for wp in patterns)
    return _FusedTable(_alternation(every_pattern), meanings)


def _type_priors(input_type: str, scores: dict[FieldMeaning, float]) -> None:
    if input_type == "email":
        scores[FieldMeaning.EMAIL] = scores.get(FieldMeaning.EMAIL, 0.0) + 3.0
    elif input_type == "password":
        scores[FieldMeaning.PASSWORD] = scores.get(FieldMeaning.PASSWORD, 0.0) + 3.0
    elif input_type == "tel":
        scores[FieldMeaning.PHONE] = scores.get(FieldMeaning.PHONE, 0.0) + 3.0
    elif input_type == "checkbox":
        scores[FieldMeaning.TERMS] = scores.get(FieldMeaning.TERMS, 0.0) + 1.0


def _pick_best(scores: dict[FieldMeaning, float]) -> tuple[FieldMeaning, float]:
    # Tie-breaking is first-wins: ``max`` keeps the earliest-inserted
    # meaning among equals, and both implementations insert meanings in
    # the same (table, row, first-matching-pattern) order.
    if not scores:
        return FieldMeaning.UNKNOWN, 0.0
    best_meaning = max(scores, key=lambda m: scores[m])
    best_score = scores[best_meaning]
    if best_score < SCORE_THRESHOLD:
        return FieldMeaning.UNKNOWN, best_score
    return best_meaning, best_score


def _classify_fused(
    texts: tuple[str, ...],
    input_type: str,
    has_challenge_token: bool,
    packs: tuple,
) -> tuple[FieldMeaning, float]:
    """The fused scoring pipeline; bit-identical to the naive reference.

    Weights are added in exactly the reference order (table, meaning
    row, pattern, descriptor text), so float sums and the dict insertion
    order that drives tie-breaking cannot diverge.
    """
    scores: dict[FieldMeaning, float] = {}
    _type_priors(input_type, scores)

    for table in (HEURISTICS, *(pack.field_heuristics for pack in packs)):
        fused = _fuse_table(table)
        candidates = [t for t in texts if fused.any_prefilter.search(t)]
        if not candidates:
            continue
        for row in fused.meanings:
            if len(row.patterns) == 1:
                # Prefilter == the only pattern: a hit is confirmation.
                weighted = row.patterns[0]
                for text in candidates:
                    if weighted.pattern.search(text):
                        scores[row.meaning] = (
                            scores.get(row.meaning, 0.0) + weighted.weight
                        )
                continue
            matched = [t for t in candidates if row.prefilter.search(t)]
            if not matched:
                continue
            for weighted in row.patterns:
                for text in matched:
                    if weighted.pattern.search(text):
                        scores[row.meaning] = (
                            scores.get(row.meaning, 0.0) + weighted.weight
                        )

    if has_challenge_token:
        scores[FieldMeaning.CAPTCHA] = scores.get(FieldMeaning.CAPTCHA, 0.0) + 2.0
    return _pick_best(scores)


#: Generated sites repeat field shapes heavily, so the same descriptor
#: tuple recurs across thousands of classify calls; memoize the whole
#: classification.  Keyed on every input that determines the result.
_classify_cached = lru_cache(maxsize=16384)(_classify_fused)
_perf.register_clearer(_classify_cached.cache_clear)


def classify_field(field: FormField, packs: tuple = ()) -> tuple[FieldMeaning, float]:
    """Classify one form field; returns (meaning, score).

    Type attributes give a strong prior (``type=email`` etc.); the
    weighted regexes refine or override.  ``packs`` adds the heuristics
    of enabled :class:`repro.crawler.langpacks.LanguagePack` objects.
    Returns ``UNKNOWN`` with the best score when nothing clears the
    threshold.

    This is the fused fast path; :func:`classify_field_reference` keeps
    the original four-deep loop as the semantics oracle, and the golden
    and hypothesis tests in ``tests/crawler/test_fused_classifier.py``
    pin the two to bit-identical outputs.
    """
    texts = tuple(field.descriptor_texts())
    if not _perf.enabled():
        return _classify_fused(texts, field.input_type, field.has_challenge_token,
                               tuple(packs))
    return _classify_cached(texts, field.input_type, field.has_challenge_token,
                            tuple(packs))


def classify_field_reference(
    field: FormField, packs: tuple = ()
) -> tuple[FieldMeaning, float]:
    """The naive reference classifier (pre-fusion semantics, verbatim).

    Retained as the oracle the fused implementation is tested against.
    """
    scores: dict[FieldMeaning, float] = {}
    _type_priors(field.input_type, scores)

    texts = field.descriptor_texts()
    tables = [HEURISTICS] + [pack.field_heuristics for pack in packs]
    for table in tables:
        for meaning, patterns in table:
            for weighted in patterns:
                for text in texts:
                    if weighted.pattern.search(text):
                        scores[meaning] = scores.get(meaning, 0.0) + weighted.weight

    if field.has_challenge_token:
        scores[FieldMeaning.CAPTCHA] = scores.get(FieldMeaning.CAPTCHA, 0.0) + 2.0

    # Password-type confirm fields: both PASSWORD and PASSWORD_CONFIRM
    # score; the confirm patterns are weighted to win when present.
    return _pick_best(scores)
