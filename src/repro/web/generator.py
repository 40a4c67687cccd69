"""Generative model of the website population.

Site characteristics are drawn from distributions calibrated to the
paper's own measurements:

- Table 4 eligibility rates by Alexa rank (load failure, non-English,
  no registration, payment-required), interpolated in log-rank;
- Section 7.2 incidence of bot checks (37% of top-100 registration
  forms, ~19% on average) and multi-stage forms (~10%);
- Section 6.1.2 password-management practices (roughly half of breached
  sites exposed hard passwords, i.e. stored them recoverably).

Specific ranks can be pinned with explicit overrides so a scenario can
guarantee, e.g., a Deals site near rank 500 that stores plaintext.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.data.sites import SHARED_BACKENDS, SITE_CATEGORIES, SITE_NAME_STEMS, SITE_NAME_SUFFIXES, TLDS
from repro.util.rngtree import RngTree, weighted_choice
from repro.web.i18n import NON_ENGLISH_WEIGHTS
from repro.web.spec import (
    BotCheck,
    EmailBehavior,
    LinkPlacement,
    RegistrationStyle,
    ResponseStyle,
    SiteSpec,
)
from repro.web.pages import (
    ENGLISH_ANCHOR_VARIANTS,
    NEUTRAL_REGISTRATION_PATHS,
    UNUSUAL_ANCHOR_VARIANTS,
)

#: Table 4 anchors: log10(rank) -> (load_failure, non_english,
#: no_registration, ineligible) probabilities.  The residual is "rest".
_ELIGIBILITY_ANCHORS: tuple[tuple[float, tuple[float, float, float, float]], ...] = (
    (2.0, (0.03, 0.43, 0.07, 0.04)),
    (3.0, (0.09, 0.37, 0.15, 0.06)),
    (4.0, (0.08, 0.53, 0.16, 0.05)),
    (5.0, (0.08, 0.43, 0.29, 0.03)),
)

_REGISTRATION_PATHS = (
    "/signup", "/register", "/join", "/account/register", "/user/signup",
    "/accounts/new", "/registration",
)


def eligibility_probs(rank: int) -> tuple[float, float, float, float]:
    """Interpolated (load_failure, non_english, no_registration,
    ineligible) probabilities for a rank."""
    import math

    log_rank = math.log10(max(rank, 1))
    anchors = _ELIGIBILITY_ANCHORS
    if log_rank <= anchors[0][0]:
        return anchors[0][1]
    if log_rank >= anchors[-1][0]:
        return anchors[-1][1]
    for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
        if x0 <= log_rank <= x1:
            t = (log_rank - x0) / (x1 - x0)
            return tuple(a + t * (b - a) for a, b in zip(y0, y1))  # type: ignore[return-value]
    raise AssertionError("unreachable")  # pragma: no cover


def bot_check_prob(rank: int) -> float:
    """Probability a registration form carries a bot check (§7.2)."""
    import math

    log_rank = math.log10(max(rank, 1))
    # 37% at top-100 declining to ~15% by rank 10k, flat after.
    if log_rank <= 2.0:
        return 0.37
    if log_rank >= 4.0:
        return 0.15
    return 0.37 + (log_rank - 2.0) / 2.0 * (0.15 - 0.37)


@dataclass(frozen=True)
class GeneratorConfig:
    """Incidence rates for generated sites (one instance, :data:`RATES`)."""

    multistage_rate: float = 0.10
    ambiguous_response_rate: float = 0.36
    noisy_response_rate: float = 0.20
    shadow_ban_site_rate: float = 0.25  # sites that fraud-score signups
    shadow_ban_rate: float = 0.30  # per-registration silent drop there
    username_rate: float = 0.60
    name_fields_rate: float = 0.35
    phone_field_rate: float = 0.12
    birthdate_rate: float = 0.15
    gender_rate: float = 0.10
    confirm_password_rate: float = 0.45
    terms_checkbox_rate: float = 0.35
    extra_unlabeled_rate: float = 0.30
    extra_field_required_rate: float = 0.72  # given an extra field exists
    unusual_anchor_rate: float = 0.30  # English sites with unmatchable links
    special_char_rate: float = 0.025
    email_length_limit_rate: float = 0.02
    username_length_limit_rate: float = 0.05
    shared_backend_rate: float = 0.03
    free_trial_rate: float = 0.30  # within Deals/Marketing categories
    no_mx_rate: float = 0.04  # sites with no MX record (site J, §6.3.2)
    shard_multi_rate: float = 0.10
    email_behavior_weights: tuple[tuple[EmailBehavior, float], ...] = (
        (EmailBehavior.VERIFICATION_LINK, 0.40),
        (EmailBehavior.VERIFICATION_OPTIONAL, 0.12),
        (EmailBehavior.WELCOME_ONLY, 0.04),
        (EmailBehavior.NOTHING, 0.44),
    )
    link_placement_weights: tuple[tuple[LinkPlacement, float], ...] = (
        (LinkPlacement.PROMINENT, 0.60),
        (LinkPlacement.FOOTER, 0.12),
        (LinkPlacement.IMAGE_ONLY, 0.16),
        (LinkPlacement.UNLINKED, 0.12),
    )
    bot_check_kind_weights: tuple[tuple[BotCheck, float], ...] = (
        (BotCheck.CAPTCHA_IMAGE, 0.60),
        (BotCheck.KNOWLEDGE_QUESTION, 0.20),
        (BotCheck.INTERACTIVE, 0.20),
    )
    label_style_weights: tuple[tuple[str, float], ...] = (
        ("for", 0.55), ("wrap", 0.15), ("placeholder", 0.20), ("adjacent", 0.10),
    )


def _storage_weights(rank: int) -> tuple[tuple[str, float], ...]:
    """Password-storage mix; small sites store passwords worse."""
    import math

    tail = min(1.0, max(0.0, (math.log10(max(rank, 1)) - 2.0) / 3.0))
    return (
        ("plaintext", 0.08 + 0.10 * tail),
        ("reversible", 0.03 + 0.04 * tail),
        ("unsalted_md5", 0.12 + 0.12 * tail),
        ("salted_hash", 0.37 - 0.08 * tail),
        ("strong_hash", 0.40 - 0.18 * tail),
    )


#: The rates every generator draws with.
RATES = GeneratorConfig()


class SiteGenerator:
    """Draws :class:`SiteSpec` objects deterministically by rank.

    Each rank draws from its own child RNG of the tree; the one
    cross-rank input is the host-collision set, so a rank's host
    depends on which ranks this generator drew before it.
    :meth:`spec_at_rank` generates on demand and memoizes, so a world
    that owns its generator (the pilot, the service world) gets specs
    in its own visit order; :class:`SpecTable` is the order-free
    alternative.  Specs are never mutated after generation (the
    generator itself writes ``notes`` before publishing).
    """

    def __init__(
        self,
        rng_tree: RngTree,
        overrides: dict[int, dict[str, object]] | None = None,
    ):
        self._tree = rng_tree.child("site-generator")
        self._overrides = dict(overrides or {})
        self._specs: dict[int, SiteSpec] = {}
        self._hosts_taken: set[str] = set()

    def _host_for(self, rank: int, rng: random.Random, backend: str | None) -> str:
        tld = weighted_choice(rng, TLDS)
        for attempt in range(20):
            if backend is not None:
                name = f"{backend}{rng.randrange(2, 99)}"
            elif rng.random() < 0.5:
                name = rng.choice(SITE_NAME_STEMS) + rng.choice(SITE_NAME_SUFFIXES)
            else:
                name = rng.choice(SITE_NAME_STEMS) + rng.choice(SITE_NAME_STEMS)
            if attempt > 5:
                name = f"{name}{rng.randrange(100)}"
            host = f"{name}{tld}"
            if host not in self._hosts_taken:
                self._hosts_taken.add(host)
                return host
        host = f"site-{rank}{tld}"
        self._hosts_taken.add(host)
        return host

    def spec_at_rank(self, rank: int) -> SiteSpec:
        """The spec for one rank, generated on first request."""
        spec = self._specs.get(rank)
        if spec is None:
            spec = self._specs[rank] = self._generate(rank)
        return spec

    def iter_specs(self, up_to: int):
        """Stream specs for ranks ``1..up_to`` in order, O(1) retained.

        Generating strictly in rank order gives every rank the same
        host-collision history a :class:`SpecTable` fill would, so the
        yielded specs equal the table's over the same range; this is
        what the world store's segment builder consumes, without
        holding the specs in memory.
        """
        if up_to < 1:
            raise ValueError("up_to must be positive")
        for rank in range(1, up_to + 1):
            yield self._generate(rank)

    def _generate(self, rank: int) -> SiteSpec:
        """Generate (deterministically) the spec for one rank."""
        rng = self._tree.child("rank", rank).rng()
        cfg = RATES

        overrides = self._overrides.get(rank, {})
        backend = None
        if not overrides and rng.random() < cfg.shared_backend_rate:
            backend = rng.choice(SHARED_BACKENDS)
        host = str(overrides.get("host") or self._host_for(rank, rng, backend))
        category = str(overrides.get("category") or rng.choice(SITE_CATEGORIES))

        load_p, non_en_p, no_reg_p, inelig_p = eligibility_probs(rank)
        bucket_roll = rng.random()
        if bucket_roll < load_p:
            bucket = "load_failure"
        elif bucket_roll < load_p + non_en_p:
            bucket = "non_english"
        elif bucket_roll < load_p + non_en_p + no_reg_p:
            bucket = "no_registration"
        elif bucket_roll < load_p + non_en_p + no_reg_p + inelig_p:
            bucket = "ineligible"
        else:
            bucket = "rest"
        if "bucket" in overrides:
            bucket = str(overrides["bucket"])

        language = "en"
        if bucket == "non_english":
            language = weighted_choice(rng, NON_ENGLISH_WEIGHTS)

        if bucket == "no_registration":
            style = weighted_choice(rng, (
                (RegistrationStyle.NONE, 0.70),
                (RegistrationStyle.EXTERNAL_ONLY, 0.20),
                (RegistrationStyle.OFFLINE_ONLY, 0.10),
            ))
        elif bucket == "ineligible":
            style = RegistrationStyle.PAYMENT_REQUIRED
        elif rng.random() < cfg.multistage_rate:
            style = RegistrationStyle.MULTISTAGE
        else:
            style = RegistrationStyle.SIMPLE
        multistage_credentials_first = (
            style is RegistrationStyle.MULTISTAGE and rng.random() < 0.6
        )
        multistage_creates_at_step1 = (
            multistage_credentials_first and rng.random() < 0.75
        )

        bot_check = BotCheck.NONE
        if style in (RegistrationStyle.SIMPLE, RegistrationStyle.MULTISTAGE,
                     RegistrationStyle.PAYMENT_REQUIRED):
            if rng.random() < bot_check_prob(rank):
                bot_check = weighted_choice(rng, cfg.bot_check_kind_weights)

        link_placement = weighted_choice(rng, cfg.link_placement_weights)
        registration_path = rng.choice(_REGISTRATION_PATHS)
        if link_placement in (LinkPlacement.IMAGE_ONLY, LinkPlacement.UNLINKED):
            # Sites burying the link behind an image or JS menu rarely
            # advertise it in the URL either (§6.2.2).
            registration_path = rng.choice(NEUTRAL_REGISTRATION_PATHS)
        if language == "en":
            if rng.random() < cfg.unusual_anchor_rate:
                anchor_text = rng.choice(UNUSUAL_ANCHOR_VARIANTS)
                registration_path = rng.choice(NEUTRAL_REGISTRATION_PATHS)
            else:
                anchor_text = rng.choice(ENGLISH_ANCHOR_VARIANTS)
        else:
            from repro.web.i18n import lexicon_for

            anchor_text = lexicon_for(language).sign_up

        is_free_trial = category in ("Deals", "Marketing") and rng.random() < cfg.free_trial_rate

        spec = SiteSpec(
            host=host,
            rank=rank,
            category=category,
            language=language,
            load_fails=bucket == "load_failure",
            supports_https=rng.random() < self._https_prob(rank),
            shared_backend=backend,
            registration_style=style,
            link_placement=link_placement,
            registration_path=registration_path,
            anchor_text=anchor_text,
            label_style=weighted_choice(rng, cfg.label_style_weights),
            bot_check=bot_check,
            response_style=weighted_choice(rng, (
                (ResponseStyle.AMBIGUOUS, cfg.ambiguous_response_rate),
                (ResponseStyle.NOISY, cfg.noisy_response_rate),
                (ResponseStyle.CLEAR,
                 max(0.0, 1.0 - cfg.ambiguous_response_rate - cfg.noisy_response_rate)),
            )),
            email_behavior=weighted_choice(rng, cfg.email_behavior_weights),
            multistage_credentials_first=multistage_credentials_first,
            multistage_creates_at_step1=multistage_creates_at_step1,
            wants_username=rng.random() < cfg.username_rate,
            wants_name=rng.random() < cfg.name_fields_rate,
            # Free-trial sites exist to feed sales teams, so they always
            # collect a phone number (the §5.2.2 call source).
            wants_phone=is_free_trial or rng.random() < cfg.phone_field_rate,
            wants_birthdate=rng.random() < cfg.birthdate_rate,
            wants_gender=rng.random() < cfg.gender_rate,
            wants_confirm_password=rng.random() < cfg.confirm_password_rate,
            wants_terms_checkbox=rng.random() < cfg.terms_checkbox_rate,
            extra_unlabeled_field=(extra_unlabeled := rng.random() < cfg.extra_unlabeled_rate),
            extra_field_required=extra_unlabeled and rng.random() < cfg.extra_field_required_rate,
            requires_special_char=rng.random() < cfg.special_char_rate,
            shadow_ban_rate=(cfg.shadow_ban_rate
                             if rng.random() < cfg.shadow_ban_site_rate else 0.0),
            max_email_length=(rng.randrange(22, 31)
                              if rng.random() < cfg.email_length_limit_rate else None),
            max_username_length=(rng.randrange(10, 21)
                                 if rng.random() < cfg.username_length_limit_rate else None),
            password_storage=weighted_choice(rng, _storage_weights(rank)),
            requires_admin_approval=rng.random() < 0.02,
            lists_usernames_publicly=rng.random() < 0.10,
            shard_count=(rng.choice((2, 4, 8))
                         if rng.random() < cfg.shard_multi_rate else 1),
            site_brute_force_protection=rng.random() < 0.70,
            is_free_trial=is_free_trial,
        )
        spec.notes["has_mx"] = "no" if rng.random() < cfg.no_mx_rate else "yes"

        for name, value in overrides.items():
            if name in ("bucket",):
                continue
            if not hasattr(spec, name):
                raise ValueError(f"unknown override field {name!r}")
            setattr(spec, name, value)
        return spec

    @staticmethod
    def _https_prob(rank: int) -> float:
        import math

        log_rank = math.log10(max(rank, 1))
        return max(0.35, 0.85 - 0.12 * log_rank)


class SpecTable:
    """One seed's site specs, filled prefix-closed under one lock.

    Requesting rank *r* first generates every missing rank below it,
    in rank order, so the host-collision set rank *r* sees is always
    exactly the hosts of ranks ``1..r-1``.  Each spec is then a pure
    function of ``(seed, rank)``, whichever shard, epoch or worker asks
    first, and equals the world store's row for that rank.  The lock
    is held across the check and the fill, so threads sharing a table
    never fill it at the same time.
    """

    def __init__(self, seed: int):
        self._generator = SiteGenerator(RngTree(seed))
        self._specs: list[SiteSpec] = []
        self._lock = threading.Lock()

    def spec_at_rank(self, rank: int) -> SiteSpec:
        """The spec for a rank of at least 1."""
        with self._lock:
            specs = self._specs
            for missing in range(len(specs) + 1, rank + 1):
                specs.append(self._generator._generate(missing))
            return specs[rank - 1]
