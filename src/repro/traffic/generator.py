"""Seeded benign login/mail traffic, generated in batch-window columns.

The generator turns a registered :class:`~repro.traffic.population.
BenignPopulation` into the provider's ambient load: every
``window_seconds`` of sim time it emits one :class:`TrafficWindow` —
login attempts as ready-to-authenticate row
:class:`~repro.email_provider.batch.LoginBatch` columns plus a column
of mail-recipient rows — at a rate of ``users * logins_per_user_day``
events per sim-day.

Determinism is per *window index*: window ``k`` draws from its own
``rng_tree.child("traffic", str(k))`` stream, so windows can be
generated in any order (resume, re-sharding) and always reproduce the
same events, and the stream consumed by one window never shifts its
neighbours.  Draw order inside a window is part of the contract, as
scalar draws: login count, mail count, then per event
``randrange(users)`` (the user), ``random() < bad_password_rate``
(a mistyped password), ``random() < roaming_rate`` and, when roaming,
``getrandbits(29)`` (the source); then one ``random()`` per event for
the method column; then ``randrange(users)`` per mail.

After the two counts, the window is cut from one block of the stream's
raw MT19937 words (:func:`~repro.util.rngtree.mt_words`) — exactly the
words those scalar draws consume — without a per-event loop: see
:func:`_cut_window`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.email_provider.accounts import benign_password
from repro.email_provider.batch import LoginBatch
from repro.email_provider.telemetry import METHOD_CODES, LoginMethod
from repro.traffic.population import HOME_BASE, BenignPopulation, benign_home_ips
from repro.util.rngtree import RngTree, mt_words
from repro.util.timeutil import DAY, HOUR, SimInstant

#: What a benign login fails with — any wrong string yields
#: BAD_PASSWORD; a shared constant keeps the claim cheap.
WRONG_PASSWORD = "bg-wrong-guess"

#: Access-method mix for benign users: webmail-heavy, a quarter IMAP
#: sync clients, a tail of mobile/SMTP/legacy-POP3.  Cumulative
#: thresholds over METHOD_CODES; one random() per event takes the
#: first code whose threshold lies above it.
_METHOD_THRESHOLDS = np.array([0.45, 0.70, 0.85, 0.95, 1.01])
_METHOD_CODES = np.array(
    [
        METHOD_CODES[LoginMethod.WEBMAIL],
        METHOD_CODES[LoginMethod.IMAP],
        METHOD_CODES[LoginMethod.ACTIVESYNC],
        METHOD_CODES[LoginMethod.SMTP],
        METHOD_CODES[LoginMethod.POP3],
    ],
    dtype=np.uint8,
)


@dataclass(frozen=True)
class TrafficProfile:
    """Shape of the benign load.

    Every field except ``batch_events`` is sim-shaping — it alters
    which events exist, so it belongs in the service config's
    ``sim_meta``.  ``batch_events`` only *groups* a window's events
    into bounded columns without reordering them, so it may vary
    without moving a journal byte."""

    users: int
    logins_per_user_day: float = 2.0
    mails_per_user_day: float = 0.0
    window_seconds: int = 6 * HOUR
    #: Fraction of benign logins with a mistyped password.
    bad_password_rate: float = 0.03
    #: Fraction of logins from a random (non-home) source address.
    roaming_rate: float = 0.05
    #: Maximum events per emitted LoginBatch; windows larger than this
    #: are split so the backpressure queue sees bounded items.
    batch_events: int = 8192

    def expected_logins_per_window(self) -> float:
        return self.users * self.logins_per_user_day * (self.window_seconds / DAY)

    def expected_mails_per_window(self) -> float:
        return self.users * self.mails_per_user_day * (self.window_seconds / DAY)


class TrafficWindow:
    """One generated window: login batches plus mail-recipient rows."""

    __slots__ = ("index", "close_time", "batches", "mail_rows")

    def __init__(
        self,
        index: int,
        close_time: SimInstant,
        batches: list[LoginBatch],
        mail_rows,
    ):
        self.index = index
        self.close_time = close_time
        self.batches = batches
        #: int64 provider rows, one per delivered benign message.
        self.mail_rows = mail_rows

    @property
    def login_count(self) -> int:
        return sum(len(b) for b in self.batches)


def _traffic_claim(first_row: int, row: int, own: bool) -> str:
    """The password a benign login claims: the user's own, or a typo."""
    return benign_password(row - first_row) if own else WRONG_PASSWORD


class TrafficGenerator:
    """Streams deterministic traffic windows for one registered population."""

    def __init__(
        self,
        profile: TrafficProfile,
        population: BenignPopulation,
        rng_tree: RngTree,
    ):
        if population.size != profile.users:
            raise ValueError("population size must match profile.users")
        if population.first_row is None:
            raise ValueError("population must be registered with the provider")
        if profile.users >= 1 << 32:
            raise ValueError("population must stay below 2**32 users")
        self._profile = profile
        self._first_row = population.first_row
        self._claim = partial(_traffic_claim, population.first_row)
        self._tree = rng_tree.child("traffic")

    def window(self, index: int, close_time: SimInstant) -> TrafficWindow:
        """Generate window ``index``, whose events occur at ``close_time``."""
        profile = self._profile
        rng = self._tree.child(str(index)).rng()
        logins = _bernoulli_round(profile.expected_logins_per_window(), rng)
        mails = _bernoulli_round(profile.expected_mails_per_window(), rng)
        first = self._first_row
        if not logins and not mails:
            return TrafficWindow(index, close_time, [], np.empty(0, np.int64))

        users = profile.users
        words = mt_words(rng, _block_words(users, logins, mails, profile.roaming_rate))
        while True:
            cut = _cut_window(
                words, users, logins, mails,
                profile.bad_password_rate, profile.roaming_rate,
            )
            if cut is not None:
                break
            # The window's stream is private: more words only extend
            # the block, and decoding it again changes nothing.
            words = np.concatenate((words, mt_words(rng, len(words))))
        user, own, roam_ips, method_rolls, mail_users = cut

        rows = user + first
        ips = benign_home_ips(user)
        roaming = roam_ips != 0
        ips[roaming] = roam_ips[roaming]
        methods = _METHOD_CODES[
            np.searchsorted(_METHOD_THRESHOLDS, method_rolls, side="right")
        ]
        step = profile.batch_events
        batches = [
            LoginBatch(
                rows[start : start + step],
                own[start : start + step],
                ips[start : start + step],
                methods[start : start + step],
                self._claim,
            )
            for start in range(0, logins, step)
        ]
        return TrafficWindow(index, close_time, batches, mail_users + first)


def _block_words(users: int, logins: int, mails: int, roam_rate: float) -> int:
    """Words a window is expected to consume, plus a margin.

    A ``randrange(users)`` draw takes ``2**k / users`` words on average
    (``k = users.bit_length()``); an event adds four words of rolls,
    a roaming one a fifth, and its method roll two more.
    """
    per_draw = (1 << users.bit_length()) / users
    expected = logins * (per_draw + 6 + roam_rate) + mails * per_draw
    return int(expected * 1.01) + 64


def _cut_window(words, users: int, logins: int, mails: int,
                bad_rate: float, roam_rate: float):
    """Decode one window's draws from a block of MT19937 words.

    Returns ``(user, own, roam_ips, method_rolls, mail_users)`` —
    ``roam_ips`` is 0 where the event is at home — or None when the
    block is too short.  CPython's ``randrange(users)`` draws
    ``getrandbits(k)`` words until one lies below ``users``; word
    ``w`` gives ``w >> (32 - k)``.  ``random()`` is two words and
    ``getrandbits(29)`` one (see :func:`~repro.util.rngtree.mt_words`).

    An event starting at position ``p`` takes its user from the first
    accepted word ``q >= p``, its bad-password roll from words
    ``q+1, q+2``, its roaming roll from ``q+3, q+4`` and, roaming, its
    source from word ``q+5``; the next event starts right after.  So
    each accepted word names the accepted word of the next event: a
    next-event table, whose orbit from the block's first accepted word
    is the window's events.  The orbit is found by pointer doubling —
    each round gathers the known events through the table (doubling
    them) and composes the table with itself — so ``logins`` events
    take about ``log2(logins)`` rounds.
    """
    n = len(words)
    shift = 32 - users.bit_length()
    over = n + 1  # past the block: the event does not fit
    accepted = (words >> shift) < users
    wide = words.astype(np.uint64)
    # rolls[j]: the random() built from words j and j + 1.
    rolls = (((wide[:-1] >> np.uint64(5)) << np.uint64(26)) + (wide[1:] >> np.uint64(6)))
    rolls = rolls.astype(np.float64) / 2.0**53
    # The positions of the accepted words, and for every position p
    # (the block's end, n, and past it, n + 1, included) the index of
    # the first accepted word at or after it: how many lie before p.
    user_pos = np.flatnonzero(accepted)
    total = user_pos.size  # also the "no such word" index
    first_at = np.empty(n + 2, dtype=np.int64)
    first_at[0] = 0
    np.cumsum(accepted, out=first_at[1 : n + 1])
    first_at[n + 1] = total

    # Where the event on each accepted word ends: q + 5, q + 6 when
    # roaming, ``over`` when its words run past the block.
    fit = int(np.searchsorted(user_pos, n - 4))
    ends = np.full(total + 1, over, dtype=np.int64)
    q = user_pos[:fit]
    ends[:fit] = q + 5 + (rolls[q + 3] < roam_rate)
    table = first_at[ends]

    events = np.zeros(1, dtype=np.int64)
    while events.size < logins:
        events = np.concatenate((events, table[events]))
        if events.size < logins:
            table = table[table]
    events = events[:logins]
    method_start = int(ends[events[-1]]) if logins else 0
    mail_start = method_start + 2 * logins
    if mail_start > n:  # also when an event ran past the block
        return None
    mail_first = int(first_at[mail_start])
    mail_pos = user_pos[mail_first : mail_first + mails]
    if mail_pos.size < mails:
        return None

    q = user_pos[events]
    user = (words[q] >> shift).astype(np.int64)
    own = rolls[q + 1] >= bad_rate
    roam_ips = np.where(
        rolls[q + 3] < roam_rate,
        np.uint64(HOME_BASE) | (wide[np.minimum(q + 5, n - 1)] >> np.uint64(3)),
        np.uint64(0),
    )
    method_rolls = rolls[method_start : mail_start : 2]
    mail_users = (words[mail_pos] >> shift).astype(np.int64)
    return user, own, roam_ips, method_rolls, mail_users


def _bernoulli_round(expected: float, rng) -> int:
    """Round a rate to an integer count, preserving the mean.

    ``floor(expected)`` plus one with probability ``frac`` — cheap,
    deterministic under the window's own stream, and mean-preserving
    so long runs deliver the configured events-per-day.
    """
    base = int(expected)
    frac = expected - base
    if frac and rng.random() < frac:
        base += 1
    return base
