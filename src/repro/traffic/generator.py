"""Seeded benign login/mail traffic, generated in batch-window columns.

The generator turns a :class:`~repro.traffic.population.
BenignPopulation` into the provider's ambient load: every
``window_seconds`` of sim time it emits one :class:`TrafficWindow` —
login attempts as ready-to-authenticate
:class:`~repro.email_provider.batch.LoginBatch` columns plus a list of
mail recipients — at a rate of ``users * logins_per_user_day``
events per sim-day.

Determinism is per *window index*: window ``k`` draws from its own
``rng_tree.child("traffic", str(k))`` stream, so windows can be
generated in any order (resume, re-sharding) and always reproduce the
same events, and the stream consumed by one window never shifts its
neighbours.  Draw order inside a window is part of the contract:
login count, mail count, then per event user/outcome/source, then the
method column.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.email_provider.batch import LoginBatch
from repro.email_provider.telemetry import METHOD_CODES, LoginMethod
from repro.traffic.population import BenignPopulation
from repro.util.rngtree import RngTree
from repro.util.timeutil import DAY, HOUR, SimInstant

#: What a benign login fails with — any wrong string yields
#: BAD_PASSWORD; a shared constant keeps the column cheap.
WRONG_PASSWORD = "bg-wrong-guess"

#: Access-method mix for benign users: webmail-heavy, a quarter IMAP
#: sync clients, a tail of mobile/SMTP/legacy-POP3.  Cumulative
#: thresholds over METHOD_CODES, consulted with one random() per event.
_METHOD_MIX: tuple[tuple[float, int], ...] = (
    (0.45, METHOD_CODES[LoginMethod.WEBMAIL]),
    (0.70, METHOD_CODES[LoginMethod.IMAP]),
    (0.85, METHOD_CODES[LoginMethod.ACTIVESYNC]),
    (0.95, METHOD_CODES[LoginMethod.SMTP]),
    (1.01, METHOD_CODES[LoginMethod.POP3]),
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
    """One generated window: login batches plus mail recipients."""

    __slots__ = ("index", "close_time", "batches", "mail_users")

    def __init__(
        self,
        index: int,
        close_time: SimInstant,
        batches: list[LoginBatch],
        mail_users: list[int],
    ):
        self.index = index
        self.close_time = close_time
        self.batches = batches
        self.mail_users = mail_users

    @property
    def login_count(self) -> int:
        return sum(len(b) for b in self.batches)


class TrafficGenerator:
    """Streams deterministic traffic windows for one population."""

    def __init__(
        self,
        profile: TrafficProfile,
        population: BenignPopulation,
        rng_tree: RngTree,
    ):
        if population.size != profile.users:
            raise ValueError("population size must match profile.users")
        self._profile = profile
        self._population = population
        self._tree = rng_tree.child("traffic")

    def window(self, index: int, close_time: SimInstant) -> TrafficWindow:
        """Generate window ``index``, whose events occur at ``close_time``."""
        profile = self._profile
        rng = self._tree.child(str(index)).rng()
        login_count = _bernoulli_round(profile.expected_logins_per_window(), rng)
        mail_count = _bernoulli_round(profile.expected_mails_per_window(), rng)

        locals_table, passwords_table = self._population.credentials()
        home_ips = self._population.home_ips()
        users = profile.users
        bad_rate = profile.bad_password_rate
        roam_rate = profile.roaming_rate
        randrange = rng.randrange
        random = rng.random
        getrandbits = rng.getrandbits

        # When the population is already registered the generator knows
        # each event's provider row outright (first_row + u) and ships
        # it on the batch, sparing the engine one index probe per event
        # — the probe is a cold hash lookup at the 10^6 stratum.
        first_row = self._population.first_row
        keys: list[str] = []
        passwords: list[str] = []
        ips = array("Q")
        rows = array("q") if first_row is not None else None
        keys_append = keys.append
        passwords_append = passwords.append
        ips_append = ips.append
        rows_append = rows.append if rows is not None else None
        for _ in range(login_count):
            u = randrange(users)
            keys_append(locals_table[u])
            passwords_append(
                WRONG_PASSWORD if random() < bad_rate else passwords_table[u]
            )
            ips_append(
                0x60000000 | getrandbits(29)
                if random() < roam_rate
                else home_ips[u]
            )
            if rows_append is not None:
                rows_append(first_row + u)
        methods = bytearray(login_count)
        mix = _METHOD_MIX
        for i in range(login_count):
            roll = random()
            for threshold, code in mix:
                if roll < threshold:
                    methods[i] = code
                    break

        mail_users = [randrange(users) for _ in range(mail_count)]

        step = profile.batch_events
        if login_count <= step:
            batches = (
                [LoginBatch(keys, passwords, ips, methods, rows)]
                if login_count
                else []
            )
        else:
            batches = [
                LoginBatch(
                    keys[start : start + step],
                    passwords[start : start + step],
                    ips[start : start + step],
                    bytearray(methods[start : start + step]),
                    rows[start : start + step] if rows is not None else None,
                )
                for start in range(0, login_count, step)
            ]
        return TrafficWindow(index, close_time, batches, mail_users)


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
