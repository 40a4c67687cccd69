"""Post-compromise monetization behaviors (Section 6.4.4).

Most stolen accounts sat idle — stockpiled or quietly watched.  Eight
of 27 showed action: the provider deactivated seven for sending spam,
forced a reset on one, and on one account the attacker changed the
password and removed the forwarding address before the shutdown.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.email_provider.provider import EmailProvider
from repro.obs import NO_OP


@dataclass
class MonetizationLog:
    """What the attacker did with one account."""

    spam_sent: int = 0
    password_changed: bool = False
    forwarding_removed: bool = False
    actions: list[str] = field(default_factory=list)


class Monetizer:
    """Decides, per successful login, whether to act on an account."""

    #: Per-login probability of starting a spam run once warmed up.
    SPAM_PROB = 0.0025
    #: Per-login probability of hijacking (password change + forwarding
    #: removal) — rare; happened once in the paper (account g2).
    HIJACK_PROB = 0.002
    #: Sessions before any monetization is considered (stockpiling).
    WARMUP_SESSIONS = 3

    def __init__(self, provider: EmailProvider, rng: random.Random, obs=NO_OP):
        self._provider = provider
        self._rng = rng
        self._obs = obs
        self._log_events = obs.get_logger("attacker.monetize")
        self._logs: dict[str, MonetizationLog] = {}

    def log_for(self, email_local: str) -> MonetizationLog:
        """Actions taken against one account so far."""
        return self._logs.setdefault(email_local.lower(), MonetizationLog())

    def after_login(self, email_local: str, password: str, successes: int) -> str | None:
        """Consider monetization after the ``successes``-th good login.

        Returns the new password when the attacker hijacked the account
        (so the caller can keep logging in), else None.
        """
        if successes < self.WARMUP_SESSIONS:
            return None
        log = self.log_for(email_local)
        roll = self._rng.random()
        if roll < self.HIJACK_PROB and not log.password_changed:
            new_password = f"Hj{self._rng.randrange(10**8):08d}x"
            if self._provider.change_password(email_local, password, new_password):
                log.password_changed = True
                log.actions.append("password_changed")
                self._obs.count("attacker.hijacks")
                self._log_events.info("account hijacked", account=email_local)
                if self._provider.remove_forwarding(email_local, new_password):
                    log.forwarding_removed = True
                    log.actions.append("forwarding_removed")
                return new_password
            return None
        if roll < self.HIJACK_PROB + self.SPAM_PROB:
            sent = self._provider.send_spam_from(email_local, password, count=45)
            if sent:
                log.spam_sent += sent
                log.actions.append(f"spam x{sent}")
                self._obs.count("attacker.spam_sent", sent)
        return None
