"""Tripwire core: the measurement system itself.

- :mod:`repro.core.substrate` — the world layer: clock, event queue,
  transport, WHOIS/DNS and site population as one :class:`WorldShard`.
- :mod:`repro.core.apparatus` — the measurement layer: provider, mail
  chain, identities and crawler as one :class:`MeasurementApparatus`.
- :mod:`repro.core.system` — the :class:`TripwireSystem` facade wiring
  one substrate and one apparatus into the familiar flat API.
- :mod:`repro.core.runner` — sharded campaign execution: partition a
  ranked list, run each shard on a private world (serially or on a
  process pool), merge results deterministically.
- :mod:`repro.core.campaign` — registration campaigns: hard-first
  attempts, conditional easy/second-hard follow-ups, identity burning,
  shared-backend URL filtering, manual registrations.
- :mod:`repro.core.classify` — Table 1's account-status taxonomy.
- :mod:`repro.core.estimation` — sampled manual-login success
  estimation (Section 5.2.3).
- :mod:`repro.core.monitor` — login-dump ingestion and compromise
  inference, including control/unused-account integrity checks.
- :mod:`repro.core.disclosure` — the notification pipeline and site
  response model (Section 6.3).
- :mod:`repro.core.scenario` — the year-long pilot study end to end.
"""

from repro.core.system import TripwireSystem
from repro.core.substrate import WorldShard
from repro.core.apparatus import MeasurementApparatus
from repro.core.runner import CampaignRunner, CampaignRunResult, ShardPlan, ShardResult, ShardTelemetry
from repro.core.campaign import AttemptRecord, RegistrationCampaign, RegistrationPolicy
from repro.core.classify import AccountStatus, classify_attempt
from repro.core.estimation import CategoryEstimate, SuccessEstimator
from repro.core.monitor import CompromiseMonitor, DetectedCompromise, IntegrityAlarm
from repro.core.disclosure import DisclosureCoordinator, DisclosureRecord
from repro.core.scenario import PilotResult, PilotScenario, ScenarioConfig

__all__ = [
    "TripwireSystem",
    "WorldShard",
    "MeasurementApparatus",
    "CampaignRunner",
    "CampaignRunResult",
    "ShardPlan",
    "ShardResult",
    "ShardTelemetry",
    "RegistrationCampaign",
    "RegistrationPolicy",
    "AttemptRecord",
    "AccountStatus",
    "classify_attempt",
    "SuccessEstimator",
    "CategoryEstimate",
    "CompromiseMonitor",
    "DetectedCompromise",
    "IntegrityAlarm",
    "DisclosureCoordinator",
    "DisclosureRecord",
    "PilotScenario",
    "PilotResult",
    "ScenarioConfig",
]
