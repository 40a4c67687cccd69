"""Account-status taxonomy (Table 1).

Every *exposed* attempt lands in exactly one bucket, evaluated after
the fact from the crawl outcome plus what the mail server saw:

- ``MANUAL`` — registered by the human operator;
- ``EMAIL_VERIFIED`` — a recognized verification message arrived;
- ``EMAIL_RECEIVED`` — some email arrived, but no verification;
- ``OK_SUBMISSION`` — heuristics said success, but no email ever came;
- ``BAD_HEURISTICS`` — credentials were exposed yet heuristics
  signaled failure (or the form was never submitted).
"""

from __future__ import annotations

import enum

from repro.core.campaign import AttemptRecord
from repro.mail.server import TripwireMailServer, VerificationOutcome


class AccountStatus(enum.Enum):
    """Table 1's row categories."""

    EMAIL_VERIFIED = "email_verified"
    EMAIL_RECEIVED = "email_received"
    OK_SUBMISSION = "ok_submission"
    BAD_HEURISTICS = "bad_heuristics"
    MANUAL = "manual"

    @property
    def label(self) -> str:
        """Human-readable row label used by the analysis tables."""
        return {
            AccountStatus.EMAIL_VERIFIED: "Email verified",
            AccountStatus.EMAIL_RECEIVED: "Email received",
            AccountStatus.OK_SUBMISSION: "OK submission",
            AccountStatus.BAD_HEURISTICS: "Bad heuristics/Fields missing",
            AccountStatus.MANUAL: "Manual",
        }[self]


#: Paper-reported manual-login success rates per category, for
#: side-by-side comparison in Table 1.
PAPER_SUCCESS_RATES = {
    AccountStatus.EMAIL_VERIFIED: 0.98,
    AccountStatus.EMAIL_RECEIVED: 0.82,
    AccountStatus.OK_SUBMISSION: 0.59,
    AccountStatus.BAD_HEURISTICS: 0.07,
    AccountStatus.MANUAL: 1.00,
}


def classify_attempt(attempt: AttemptRecord, mail_server: TripwireMailServer) -> AccountStatus | None:
    """Bucket one attempt; None when the identity was never exposed."""
    if not attempt.exposed:
        return None
    if attempt.manual:
        return AccountStatus.MANUAL
    local = attempt.identity.email_local
    since = attempt.registered_at
    verification = mail_server.verification_state(local, since=since)
    if verification is not None and verification is not VerificationOutcome.NOT_EXPECTED:
        return AccountStatus.EMAIL_VERIFIED
    if mail_server.received_any(local, since=since):
        return AccountStatus.EMAIL_RECEIVED
    if attempt.believed_success:
        return AccountStatus.OK_SUBMISSION
    return AccountStatus.BAD_HEURISTICS
