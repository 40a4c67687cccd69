"""Population-scale credential stuffing: vectorized cross-site replay.

The missing attack class: :mod:`~repro.attacker.checker` replays
*honey* credentials one at a time, but real stuffing campaigns replay
whole breached corpora against the population — O(accounts × sites)
traffic that only works columnar.  This module is the attack-side
mirror of the benign traffic stack:

- :func:`build_benign_corpus` turns one site breach into the columnar
  haul the attacker actually holds, honoring the acquisition channel:
  **online capture** leaks every member's site password in plaintext,
  a **database dump** leaks only what offline cracking recovers (a
  pure per-(user, site) coin from the reuse model);
- :class:`StuffingEngine` fans a corpus out as candidate columns —
  a target's candidates are the breach rows whose
  :class:`~repro.identity.reuse.CrossSiteReuseModel` membership lane,
  evaluated at those rows, says they hold an account there — and
  dispatches the provider-side wave through
  :meth:`~repro.email_provider.provider.EmailProvider.attempt_logins`
  in bounded row :class:`~repro.email_provider.batch.LoginBatch`
  columns: the provider password matches the haul exactly for EXACT
  reusers, so the wave's ``own`` mask is the corpus's EXACT codes, and
  the batch engine's serial scalar oracle checks it against the spelled
  out ``site_password`` strings;
- cross-site fan-out against non-provider targets is resolved from
  the reuse model's lanes directly (site T accepts the site-S password
  iff the user is an EXACT reuser, a DERIVED one whose 16-bit suffixes
  at S and T collide, or a UNIQUE one whose 64-bit lanes do),
  producing per-target hit tallies the correlation analysis consumes.

Wave planning is **dispatch-independent**: every event column (row,
claim mask, source IP, method) is fully generated before any batch is
authenticated, so journal bytes cannot reveal which path of the batch
engine (vectorized or scalar oracle) authenticated a wave.  Per-wave
randomness draws from ``rng_tree.child("stuffing", str(wave))`` — one
namespaced stream per wave index, so waves are order-independent
under resume.  Draw order inside a wave is part of the contract:
per-event source IP (one ``getrandbits(24)`` each), then the per-event
method column (one ``random()`` each).  Both columns are cut from one
block of the stream's raw words (:func:`~repro.util.rngtree.mt_words`),
which is exactly the sequence those scalar draws would consume.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.attacker.breach import BreachMethod
from repro.email_provider.batch import LoginBatch
from repro.email_provider.telemetry import METHOD_CODES, LoginMethod
from repro.identity.reuse import CrossSiteReuseModel, ReuseClass
from repro.util.rngtree import RngTree, mt_words
from repro.util.timeutil import SimInstant

#: Stuffing proxies live in 46.0.0.0/8 — disjoint from the benign
#: population's 96.0.0.0/3 home/roaming space, so source-IP analysis
#: can never confuse a stuffed login with organic traffic.
PROXY_BASE = 0x2E000000
PROXY_BITS = 24

#: Method mix of stuffing tools: mail-protocol checkers (Section 6.2),
#: IMAP-heavy.  One ``random()`` per event takes the first code whose
#: cumulative threshold lies above it.
_STUFFING_THRESHOLDS = np.array([0.50, 0.80, 1.01])
_STUFFING_METHOD_CODES = np.array(
    [
        METHOD_CODES[LoginMethod.IMAP],
        METHOD_CODES[LoginMethod.POP3],
        METHOD_CODES[LoginMethod.SMTP],
    ],
    dtype=np.uint8,
)


class AttackClass(enum.Enum):
    """How attacker-held credentials were obtained / deployed.

    The separability contract: every attack login the analysis tables
    report belongs to exactly one of these.
    """

    ONLINE_CAPTURE = "online_capture"  # plaintext tapped at the site
    OFFLINE_CRACK = "offline_crack"  # recovered from a hash dump
    STUFFED_REUSE = "stuffed_reuse"  # cross-site replay of either haul


@dataclass(frozen=True)
class BreachCorpus:
    """One breached site's haul against the benign population, columnar.

    ``users`` (sorted user indices) and ``codes`` (their
    :class:`~repro.identity.reuse.ReuseClass` codes) are parallel: row
    *i* says the attacker holds what site ``site_rank`` stores for
    benign user ``users[i]`` — ``model.site_password(users[i],
    site_rank)``, which the class code and the model's per-site lanes
    determine without spelling it out.  ``universe`` records the
    population size the corpus was derived against (membership is
    prefix-closed, so a corpus is valid for any provider holding at
    least that many benign rows).
    """

    site_rank: int
    site_host: str
    method: BreachMethod
    wave: int
    universe: int
    users: array
    codes: bytearray

    def __len__(self) -> int:
        return len(self.users)

    @property
    def acquisition(self) -> AttackClass:
        """The acquisition half of the attack-class split."""
        if self.method is BreachMethod.ONLINE_CAPTURE:
            return AttackClass.ONLINE_CAPTURE
        return AttackClass.OFFLINE_CRACK


def build_benign_corpus(
    model: CrossSiteReuseModel,
    universe: int,
    site_rank: int,
    site_host: str,
    method: BreachMethod,
    wave: int = 0,
    crack_rate: float = 0.6,
) -> BreachCorpus:
    """The attacker's columnar haul from breaching one site.

    Site membership and (for dumps) the offline-cracking coin are pure
    per ``(user, site)`` lanes of the reuse model, so the same breach
    always yields the same corpus regardless of generation order.
    """
    members = model.members(site_rank, universe)
    if method is BreachMethod.DB_DUMP and crack_rate < 1.0:
        mask = model.cracked_mask(members, site_rank, crack_rate)
        kept = array("q")
        kept.frombytes(np.frombuffer(members, dtype=np.int64)[mask].tobytes())
        members = kept
    return BreachCorpus(
        site_rank=site_rank,
        site_host=site_host,
        method=method,
        wave=wave,
        universe=universe,
        users=members,
        codes=model.behaviors(members),
    )


def _claim_site_password(
    model: CrossSiteReuseModel, site_rank: int, first_row: int, row: int, own: bool
) -> str:
    """The password a stuffed login claims: what the breached site
    stores for the row's user, whatever the ``own`` mask says."""
    return model.site_password(row - first_row, site_rank)


@dataclass(frozen=True)
class SiteTargetReport:
    """Cross-site fan-out outcome at one non-provider target."""

    target_rank: int
    candidates: int  # breach rows with an account at the target
    hits: int  # candidates whose target password equals the haul's


@dataclass
class StuffingWave:
    """One planned wave: dispatch-ready columns plus fan-out reports.

    ``users`` is the provider-candidate column (sorted, parallel to
    the concatenated batch columns); ``batches`` group the same events
    into bounded :class:`LoginBatch` items without reordering them, so
    batch size never shapes the journal.
    """

    wave: int
    corpus: BreachCorpus
    users: array
    batches: list[LoginBatch]
    site_targets: list[SiteTargetReport] = field(default_factory=list)

    @property
    def candidates(self) -> int:
        return len(self.users)


@dataclass
class StuffingWaveResult:
    """Outcome of one dispatched wave (engine-independent by contract)."""

    wave: int
    site_rank: int
    site_host: str
    method: str  # BreachMethod value
    acquisition: str  # AttackClass value of the haul
    candidates: int
    attempts: int
    successes: int
    bad_passwords: int
    throttled: int
    hit_users: array  # user indices whose provider login succeeded
    site_targets: list[SiteTargetReport] = field(default_factory=list)

    @property
    def attack_class(self) -> AttackClass:
        """Provider-side logins of a wave are stuffed reuse, always."""
        return AttackClass.STUFFED_REUSE


class StuffingEngine:
    """Plans and dispatches stuffing waves against one provider.

    Holds the reuse model, the registered population (for its size and
    ``first_row``) and a namespaced RNG tree; the provider's login
    state is the provider's own, so stuffed, benign and scalar logins
    interleave freely.
    """

    def __init__(
        self,
        provider,
        population,
        model: CrossSiteReuseModel,
        rng_tree: RngTree,
        batch_events: int = 8192,
    ):
        if population.first_row is None:
            raise ValueError("population must be registered with the provider")
        self._provider = provider
        self._population = population
        self._model = model
        self._tree = rng_tree.child("stuffing")
        self._batch_events = batch_events
        #: Dispatch tallies (plain attributes — flight snapshots only,
        #: never journal bytes).
        self.waves = 0
        self.attempts = 0
        self.successes = 0

    def stats(self) -> dict:
        return {
            "waves": self.waves,
            "attempts": self.attempts,
            "successes": self.successes,
        }

    # -- planning (pure generation, dispatch-independent) ------------------

    def plan_wave(
        self,
        corpus: BreachCorpus,
        targets: tuple[int, ...] = (),
    ) -> StuffingWave:
        """Generate one wave's full event columns plus fan-out reports.

        The provider-candidate join is the prefix of the (sorted)
        corpus below the registered population size; each non-provider
        target keeps the corpus rows whose membership lane at that
        target is set.
        """
        population = self._population
        # Provider join: registered rows are exactly user indices
        # [0, size), and the corpus is sorted, so the join is the
        # prefix below the first out-of-range index.
        cut = bisect_left(corpus.users, population.size)
        users = corpus.users[:cut]
        n = len(users)
        users_np = np.frombuffer(users, dtype=np.int64)

        # The scalar draws, as columns: n getrandbits(24) (one word
        # each), then n random() (two words each).
        words = mt_words(self._tree.child(str(corpus.wave)).rng(), 3 * n)
        ips = np.uint64(PROXY_BASE) | (words[:n] >> (32 - PROXY_BITS)).astype(np.uint64)
        high = (words[n::2] >> 5).astype(np.uint64)
        low = (words[n + 1 :: 2] >> 6).astype(np.uint64)
        rolls = ((high << np.uint64(26)) + low).astype(np.float64) / 2.0**53
        methods = _STUFFING_METHOD_CODES[
            np.searchsorted(_STUFFING_THRESHOLDS, rolls, side="right")
        ]

        rows = users_np + population.first_row
        own = np.frombuffer(corpus.codes, dtype=np.uint8)[:cut] == ReuseClass.EXACT
        claim = partial(
            _claim_site_password, self._model, corpus.site_rank, population.first_row
        )
        step = self._batch_events
        batches = [
            LoginBatch(
                rows[start : start + step],
                own[start : start + step],
                ips[start : start + step],
                methods[start : start + step],
                claim,
            )
            for start in range(0, n, step)
        ]

        site_targets = [
            self._probe_target(corpus, rank) for rank in targets
        ]
        return StuffingWave(
            wave=corpus.wave,
            corpus=corpus,
            users=users,
            batches=batches,
            site_targets=site_targets,
        )

    def _probe_target(self, corpus: BreachCorpus, rank: int) -> SiteTargetReport:
        """Join the corpus against one target site's membership.

        A candidate is a hit when the target stores the password the
        haul holds, counted from the lanes: EXACT reusers always hit,
        DERIVED ones when their suffixes at the two sites agree,
        UNIQUE ones when their unique lanes do — the string equality
        of the two sites' :meth:`~repro.identity.reuse.
        CrossSiteReuseModel.site_password`, without the strings.
        """
        if rank == corpus.site_rank:
            return SiteTargetReport(
                target_rank=rank, candidates=len(corpus), hits=len(corpus)
            )
        model = self._model
        # Corpus users all lie below the universe, so evaluating the
        # target's membership lane at the corpus rows is the join.
        users_np = np.frombuffer(corpus.users, dtype=np.int64)
        idx = np.flatnonzero(model.member_mask(users_np, rank))
        users_np = users_np[idx]
        codes = np.frombuffer(corpus.codes, dtype=np.uint8)[idx]
        hits = int(np.count_nonzero(codes == ReuseClass.EXACT))
        derived = users_np[codes == ReuseClass.DERIVED]
        hits += int(np.count_nonzero(
            model.derive_suffixes(derived, corpus.site_rank)
            == model.derive_suffixes(derived, rank)
        ))
        unique = users_np[codes == ReuseClass.UNIQUE]
        hits += int(np.count_nonzero(
            model.unique_lanes(unique, corpus.site_rank)
            == model.unique_lanes(unique, rank)
        ))
        return SiteTargetReport(
            target_rank=rank, candidates=int(idx.size), hits=hits
        )

    # -- dispatch ----------------------------------------------------------

    def dispatch_batch(
        self, batch: LoginBatch, now: SimInstant | None = None
    ) -> bytearray:
        """Authenticate one wave batch through the provider's batch
        engine; returns per-event result codes."""
        return self._provider.attempt_logins(batch, now=now).results

    def collect(self, wave: StuffingWave, results: bytearray) -> StuffingWaveResult:
        """Fold one wave's result codes into its dispatch-independent
        record (and the engine tallies)."""
        successes = results.count(0)
        hit_users = array("q")
        if successes:
            results_np = np.frombuffer(results, dtype=np.uint8)
            users_np = np.frombuffer(wave.users, dtype=np.int64)
            hit_users.frombytes(users_np[results_np == 0].tobytes())
        corpus = wave.corpus
        self.waves += 1
        self.attempts += len(results)
        self.successes += successes
        return StuffingWaveResult(
            wave=wave.wave,
            site_rank=corpus.site_rank,
            site_host=corpus.site_host,
            method=corpus.method.value,
            acquisition=corpus.acquisition.value,
            candidates=wave.candidates,
            attempts=len(results),
            successes=successes,
            bad_passwords=results.count(1),
            throttled=results.count(3),
            hit_users=hit_users,
            site_targets=wave.site_targets,
        )

    def execute_wave(
        self, wave: StuffingWave, now: SimInstant | None = None
    ) -> StuffingWaveResult:
        """Dispatch a whole planned wave (bench/test convenience)."""
        results = bytearray()
        for batch in wave.batches:
            results.extend(self.dispatch_batch(batch, now=now))
        return self.collect(wave, results)
