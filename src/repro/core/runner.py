"""Sharded, deterministically-mergeable campaign execution.

The paper's pilot crawled ~2,300 sites serially; scaling to millions
needs independent per-site work units fanned out over workers.  A
:class:`CampaignRunner` partitions a ranked site list into N shards,
executes each shard's registration campaign on its own private world
(substrate + apparatus, see :mod:`repro.core.substrate` and
:mod:`repro.core.apparatus`), then merges attempts and telemetry back
in the original list order.

Determinism contract
--------------------

Each shard is a pure function of ``(seed, shard_index, shard sites,
configs)``: the shard builds a fresh :class:`TripwireSystem` whose
substrate tree is the root seed (so site specs are identical across
shards and runs) and whose apparatus tree is namespaced
``("shard", shard_index)`` (so shards mint distinct identities and
crawl with independent error streams).  No state is shared between
shards, so executing them serially or on a process pool yields
**bit-identical merged results for any worker count**.  The merge is
keyed on each site's position in the input list, never on completion
order.

Fault injection preserves the contract: a :class:`FaultPlan` rides in
the picklable :class:`ShardPlan`, each shard derives its injector RNG
streams from its own (seed, shard_index, plan.seed) and fills a private
:class:`~repro.faults.report.FaultReport`; reports merge by summation
in shard-index order.  With any plan and a fixed seed, the merged
output — attempts, telemetry *and* fault report — is bit-identical for
any worker count and executor.

Scale-out layer
---------------

Four optimizations ride on top, none of which may move a bit of
merged output:

- **Warm spec table** (:mod:`repro.perf.warm`): one prefix-closed
  table of site specs per seed lives as long as the process, so every
  shard after the first in a process (serial, or a pool worker)
  reuses the specs already generated.  The perf layer's switch
  (``REPRO_PERF_DISABLE=1`` / ``set_enabled(False)``) gives each shard
  a private table instead; that cold path is the reference.
- **Wire codec** (:mod:`repro.perf.wire`): the process backend ships
  each shard result as one compact interned-tuple blob instead of a
  default-pickled object graph; per-shard bytes-on-wire are recorded
  on the run result (never in the journal — they are executor-shaped).
- **Streaming merge**: shard results fold into a
  :class:`ShardResultMerger` as they complete instead of waiting on a
  ``pool.map`` barrier, so the merge is overlapped with the slowest
  shard and a worker failure surfaces immediately.  The fold is
  position-keyed, so arrival order still cannot affect output.
- **Parent work beside the pool**: the process backend calls
  :meth:`CampaignRunner.execute`'s ``meanwhile`` in the parent once
  every shard is submitted (the serve daemon runs its service window
  there); the serial backend calls it after the merge, so serial
  stays the reference order.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.campaign import AttemptRecord, CampaignStats, RegistrationCampaign, RegistrationPolicy
from repro.core.system import TripwireSystem
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport
from repro.identity.passwords import PasswordClass
from repro.identity.pool import IdentityState
from repro.obs.journal import RunJournal, ShardObservation
from repro.obs.merge import collect_shard_ordered, sum_counter_dataclasses
from repro.perf import warm as _warm
from repro.perf import wire as _wire
from repro.util.timeutil import STUDY_START, SimInstant
from repro.web.population import RankedSite

#: Executor backends accepted by :class:`CampaignRunner`.
EXECUTORS = ("serial", "process")

#: Identities of each password class provisioned beyond a shard's need.
SPARE_IDENTITIES = 8


def check_execution(shards: int, workers: int, executor: str) -> None:
    """Reject shard, worker and executor settings no run can use."""
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    if shards < 1:
        raise ValueError("shards must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to run one shard, picklable.

    ``positions`` carries each site's index in the original ranked
    list; the merge is keyed on it, which is what makes the merged
    output independent of shard completion order.
    """

    shard_index: int
    shard_count: int
    seed: int
    population_size: int
    sites: tuple[RankedSite, ...]
    positions: tuple[int, ...]
    policy: RegistrationPolicy = RegistrationPolicy.HARD_FIRST
    start: SimInstant = STUDY_START
    fault_plan: FaultPlan | None = None
    obs_enabled: bool = False
    #: Path of a built :mod:`repro.store` world store, or None for the
    #: in-memory default.  Execution-shaped like the worker count: the
    #: store holds the same prefix-closed specs as the spec table, so
    #: toggling it moves no bit of merged output (the
    #: store≡memory determinism matrix pins this).
    world_store: str | None = None
    #: Scheduler epoch this shard belongs to (service mode).  Epoch 0
    #: keeps the pre-service apparatus namespace ``("shard", k)`` so
    #: one-shot campaigns are byte-identical to earlier releases; later
    #: epochs namespace ``("epoch", e, "shard", k)`` so each epoch's
    #: shards mint distinct identities and error streams.
    epoch: int = 0


@dataclass(frozen=True)
class ShardTelemetry:
    """Deterministic per-shard counters, merged by summation."""

    transport_requests: int = 0
    mail_stored: int = 0
    verification_pages_fetched: int = 0
    identities_provisioned: int = 0
    identities_burned: int = 0
    pages_loaded: int = 0
    sim_seconds_elapsed: int = 0

    def merged_with(self, other: "ShardTelemetry") -> "ShardTelemetry":
        return sum_counter_dataclasses(ShardTelemetry, (self, other))


@dataclass
class ShardResult:
    """One shard's output: attempts grouped per input-list position."""

    shard_index: int
    site_attempts: list[tuple[int, list[AttemptRecord]]]
    stats: CampaignStats
    telemetry: ShardTelemetry
    fault_report: FaultReport = field(default_factory=FaultReport)
    observation: ShardObservation | None = None


@dataclass
class CampaignRunResult:
    """Merged output of a sharded campaign run."""

    attempts: list[AttemptRecord]
    stats: CampaignStats
    telemetry: ShardTelemetry
    shard_results: list[ShardResult]
    wall_seconds: float
    workers: int
    shards: int
    executor: str
    fault_report: FaultReport = field(default_factory=FaultReport)
    #: Present when the run was observed (``obs_enabled``).  The
    #: journal's meta deliberately excludes workers/executor/wall time
    #: so its serialized bytes are identical for any worker count.
    journal: RunJournal | None = None
    #: Bytes-on-wire per shard index when the process backend shipped
    #: results through the compact codec; empty otherwise.  Lives here,
    #: not in the journal — it is executor-shaped operational data.
    wire_bytes: dict[int, int] = field(default_factory=dict)

    def exposed_attempts(self) -> list[AttemptRecord]:
        """Attempts where an identity was burned."""
        return [a for a in self.attempts if a.exposed]


def partition_sites(
    sites: list[RankedSite], shards: int
) -> list[tuple[tuple[RankedSite, ...], tuple[int, ...]]]:
    """Round-robin the list into ``shards`` (sites, positions) slices.

    Round-robin keeps shard loads even when eligibility correlates
    with rank (it does: top-ranked sites are crawled more heavily).
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    buckets: list[list[RankedSite]] = [[] for _ in range(shards)]
    positions: list[list[int]] = [[] for _ in range(shards)]
    for index, entry in enumerate(sites):
        buckets[index % shards].append(entry)
        positions[index % shards].append(index)
    return [
        (tuple(bucket), tuple(pos)) for bucket, pos in zip(buckets, positions)
    ]


def shared_specs(seed: int, population_size: int, world_store: str | None):
    """The spec source a run's listing and shards all read.

    The world store when one is named (validated against the run's
    world), else the seed's spec table from :mod:`repro.perf.warm`.
    Both hold the seed's prefix-closed specs, so the choice moves no
    output bit.
    """
    if world_store is None:
        return _warm.spec_table_for(seed)
    from repro.store import open_world_store

    store = open_world_store(world_store)
    store.require_world(seed, population_size)
    return store


def run_shard(plan: ShardPlan) -> ShardResult:
    """Execute one shard's campaign on a private world.

    Top-level (not a closure) so the process-pool backend can pickle
    it.  Identity provisioning is sized from the shard's site count:
    every site may take a hard attempt, a follow-up easy attempt and
    an occasional second hard attempt.

    Site specs come from :func:`shared_specs`: the world store when
    the plan names one, else the seed's spec table.
    """
    if plan.epoch == 0:
        namespace: tuple[object, ...] = ("shard", plan.shard_index)
    else:
        namespace = ("epoch", plan.epoch, "shard", plan.shard_index)
    system = TripwireSystem(
        seed=plan.seed,
        population_size=plan.population_size,
        start=plan.start,
        apparatus_namespace=namespace,
        fault_plan=plan.fault_plan,
        obs_enabled=plan.obs_enabled,
        specs=shared_specs(plan.seed, plan.population_size, plan.world_store),
    )
    provisioned = system.provision_identities(
        2 * len(plan.sites) + SPARE_IDENTITIES, PasswordClass.HARD
    )
    provisioned += system.provision_identities(
        len(plan.sites) + SPARE_IDENTITIES, PasswordClass.EASY
    )

    campaign = RegistrationCampaign(system, policy=plan.policy)
    site_attempts: list[tuple[int, list[AttemptRecord]]] = []
    with system.obs.span("shard.execute", shard=plan.shard_index, sites=len(plan.sites)):
        for position, entry in zip(plan.positions, plan.sites):
            before = len(campaign.attempts)
            campaign.run_batch([entry])
            site_attempts.append((position, campaign.attempts[before:]))

    burned = system.pool.count_by_state()[IdentityState.BURNED]
    telemetry = ShardTelemetry(
        transport_requests=system.transport.request_count,
        mail_stored=system.mail_server.stored_count,
        verification_pages_fetched=len(system.mail_server.saved_pages),
        identities_provisioned=provisioned,
        identities_burned=burned,
        pages_loaded=sum(a.outcome.pages_loaded for a in campaign.attempts),
        sim_seconds_elapsed=system.clock.now() - plan.start,
    )
    observation = (
        ShardObservation.capture(system.obs, plan.shard_index)
        if plan.obs_enabled
        else None
    )
    return ShardResult(
        shard_index=plan.shard_index,
        site_attempts=site_attempts,
        stats=campaign.stats,
        telemetry=telemetry,
        fault_report=system.fault_report,
        observation=observation,
    )


def run_shard_wire(plan: ShardPlan) -> bytes:
    """Run a shard and ship its result as one compact wire blob.

    Top-level so the process backend can pickle it.  Encoding in the
    worker means the pool transfers a single ``bytes`` object; the
    parent decodes as results stream in, and ``len()`` of the blob is
    the shard's exact bytes-on-wire.
    """
    return _wire.encode_shard_bytes(run_shard(plan))


class ShardResultMerger:
    """Incremental position-keyed fold of shard results.

    Results are added in *completion* order as the executor yields
    them; :meth:`finish` produces output invariant to that order —
    attempts sort on each site's position in the original ranked list
    and counters fold in shard-index order.  Appending per-site groups
    as they arrive (rather than re-concatenating an accumulator per
    shard) keeps the merge linear in total attempt count.
    """

    def __init__(self):
        self._results: list[ShardResult] = []
        self._indexed: list[tuple[int, list[AttemptRecord]]] = []
        self._finished = False

    def add(self, result: ShardResult) -> None:
        """Fold in one shard's output (any order, exactly once each)."""
        if self._finished:
            raise RuntimeError("merger already finished")
        self._results.append(result)
        self._indexed.extend(result.site_attempts)

    @property
    def results(self) -> list[ShardResult]:
        """Shard results added so far, in shard-index order."""
        return collect_shard_ordered(self._results, index_of=lambda r: r.shard_index)

    def finish(self) -> tuple[
        list[AttemptRecord], CampaignStats, ShardTelemetry, FaultReport
    ]:
        """The merged (attempts, stats, telemetry, fault report)."""
        self._finished = True
        self._indexed.sort(key=lambda pair: pair[0])
        attempts = [record for _position, group in self._indexed for record in group]
        ordered = self.results
        stats = sum_counter_dataclasses(CampaignStats, (r.stats for r in ordered))
        telemetry = sum_counter_dataclasses(
            ShardTelemetry, (r.telemetry for r in ordered)
        )
        fault_report = sum_counter_dataclasses(
            FaultReport, (r.fault_report for r in ordered)
        )
        return attempts, stats, telemetry, fault_report


def merge_shard_results(results: list[ShardResult]) -> tuple[
    list[AttemptRecord], CampaignStats, ShardTelemetry, FaultReport
]:
    """Merge shard outputs in input-list order (deterministic).

    Attempts come back ordered by each site's position in the original
    ranked list, with per-site attempt order preserved; stats,
    telemetry and fault reports merge by summation in shard-index
    order.  The result is invariant to the order ``results`` arrives
    in.  (The batch wrapper over :class:`ShardResultMerger`, which the
    runner itself feeds incrementally.)
    """
    merger = ShardResultMerger()
    for result in results:
        merger.add(result)
    return merger.finish()


class CampaignRunner:
    """Partition, fan out, merge — the production campaign surface.

    ``executor`` picks the backend: ``"serial"`` (the baseline the pool
    must match bit-for-bit) or ``"process"`` (true parallelism; shards
    rebuild their worlds in the worker process from the picklable plan
    and ship results back through the compact wire codec,
    :mod:`repro.perf.wire`).  One worker, or one plan, always runs
    serially.

    Used as a context manager, the runner keeps one process pool for
    the whole ``with`` block, so its workers keep their warm spec
    tables across :meth:`run`/:meth:`execute` calls; outside a ``with``
    block each call starts and shuts down its own pool.  Neither
    changes an output bit.
    """

    def __init__(
        self,
        seed: int = 7,
        population_size: int = 30000,
        shards: int = 1,
        workers: int = 1,
        executor: str = "serial",
        policy: RegistrationPolicy = RegistrationPolicy.HARD_FIRST,
        start: SimInstant = STUDY_START,
        fault_plan: FaultPlan | None = None,
        obs_enabled: bool = False,
        obs_meta: dict | None = None,
        world_store: str | None = None,
    ):
        check_execution(shards, workers, executor)
        self.seed = seed
        self.population_size = population_size
        self.shards = shards
        self.workers = workers
        self.executor = executor
        self.policy = policy
        self.start = start
        self.fault_plan = fault_plan
        self.obs_enabled = obs_enabled
        #: Extra journal-header fields (e.g. the CLI command).  Must
        #: never include worker counts, executor names or wall-clock
        #: values — they would break journal byte-identity.
        self.obs_meta = dict(obs_meta) if obs_meta else {}
        #: Execution-shaped, like ``workers``: never recorded in the
        #: journal meta, and must not change a bit of merged output.
        self.world_store = world_store
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    # -- planning -----------------------------------------------------------

    def plan(
        self,
        sites: list[RankedSite],
        *,
        epoch: int = 0,
        start: SimInstant | None = None,
    ) -> list[ShardPlan]:
        """The shard plans for a ranked list (empty shards dropped).

        Planning is pure — no worlds are built, no pools touched — so a
        scheduler can plan every epoch up front and re-dispatch each
        epoch's plans through :meth:`execute` when its sim window
        opens.  ``epoch`` namespaces the shards (and offsets their
        indices by ``epoch * shards`` so a multi-epoch journal keeps
        globally unique shard slots); ``start`` overrides the sim
        instant the shard worlds open at (the epoch's window start).
        """
        plans = []
        base = epoch * self.shards
        for index, (bucket, positions) in enumerate(partition_sites(sites, self.shards)):
            if not bucket:
                continue
            plans.append(
                ShardPlan(
                    shard_index=base + index,
                    shard_count=self.shards,
                    seed=self.seed,
                    population_size=self.population_size,
                    sites=bucket,
                    positions=positions,
                    policy=self.policy,
                    start=self.start if start is None else start,
                    fault_plan=self.fault_plan,
                    obs_enabled=self.obs_enabled,
                    world_store=self.world_store,
                    epoch=epoch,
                )
            )
        return plans

    # -- execution ----------------------------------------------------------

    def run(self, sites: list[RankedSite]) -> CampaignRunResult:
        """Execute the sharded campaign over a ranked list.

        The one-shot surface: plan a single epoch, execute it, build
        the journal.  Service mode (:mod:`repro.service`) calls
        :meth:`plan` / :meth:`execute` itself, once per scheduler
        epoch, inside one ``with`` block so every epoch uses one pool.
        """
        return self.execute(self.plan(sites), sites_count=len(sites))

    def execute(
        self,
        plans: list[ShardPlan],
        *,
        sites_count: int | None = None,
        build_journal: bool = True,
        meanwhile: Callable[[], object] | None = None,
    ) -> CampaignRunResult:
        """Dispatch prepared shard plans and merge their results.

        Re-entrant across epochs: inside a ``with`` block the same
        worker processes (and their warm spec tables) serve every
        call.  ``build_journal=False`` skips per-call journal assembly
        for callers that merge observations across epochs themselves.

        ``meanwhile`` is called once, in this process: on the pool
        after every plan is submitted and before any result is decoded
        (a shard failure surfaces after it returns; if it raises, the
        queued shards are cancelled), serially after the merge.
        """
        if sites_count is None:
            sites_count = sum(len(plan.sites) for plan in plans)
        merger = ShardResultMerger()
        wire_bytes: dict[int, int] = {}
        pooled = self.executor == "process" and self.workers > 1 and len(plans) > 1
        began = time.perf_counter()
        if pooled:
            self._run_pooled(plans, merger, wire_bytes, meanwhile)
        else:
            for plan in plans:
                merger.add(run_shard(plan))
        shard_results = merger.results
        attempts, stats, telemetry, fault_report = merger.finish()
        if meanwhile is not None and not pooled:
            meanwhile()
        wall = time.perf_counter() - began
        journal = (
            self._build_journal(sites_count, shard_results)
            if self.obs_enabled and build_journal
            else None
        )
        return CampaignRunResult(
            attempts=attempts,
            stats=stats,
            telemetry=telemetry,
            shard_results=shard_results,
            wall_seconds=wall,
            workers=self.workers,
            shards=self.shards,
            executor=self.executor,
            fault_report=fault_report,
            journal=journal,
            wire_bytes=wire_bytes,
        )

    def _build_journal(
        self, sites_count: int, shard_results: list[ShardResult]
    ) -> RunJournal:
        """The run journal for an observed run.

        Meta holds only worker-count-invariant facts — a journal from a
        4-worker process-pool run must byte-match the serial one.
        """
        meta = {
            "seed": self.seed,
            "population": self.population_size,
            "shards": self.shards,
            "sites": sites_count,
            "policy": self.policy.value,
            "fault_profile": self.fault_plan.profile if self.fault_plan else "off",
            "fault_seed": self.fault_plan.seed if self.fault_plan else 0,
            **self.obs_meta,
        }
        captures = [
            r.observation for r in shard_results if r.observation is not None
        ]
        return RunJournal(meta, captures)

    def __enter__(self) -> "CampaignRunner":
        """Open the pool that every call in the ``with`` block shares.

        Worker processes start on the first submitted shard, so a
        block whose calls all run serially starts none.
        """
        if self.executor == "process" and self.workers > 1:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _run_pooled(
        self,
        plans: list[ShardPlan],
        merger: ShardResultMerger,
        wire_bytes: dict[int, int],
        meanwhile: Callable[[], object] | None,
    ) -> None:
        """Fan shards out and fold results in as they complete.

        No barrier: each result merges the moment its future resolves
        (the position-keyed merger makes completion order irrelevant),
        and the first shard failure propagates immediately — remaining
        futures are cancelled rather than drained.  ``meanwhile`` runs
        between the last submit and the first collection.  Inside a
        ``with`` block the pool outlives the call; outside, it is shut
        down here.
        """
        pool = self._pool or concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers
        )
        try:
            futures = {pool.submit(run_shard_wire, plan): plan for plan in plans}
            try:
                if meanwhile is not None:
                    meanwhile()
                for future in concurrent.futures.as_completed(futures):
                    blob = future.result()
                    wire_bytes[futures[future].shard_index] = len(blob)
                    merger.add(_wire.decode_shard_bytes(blob))
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
        finally:
            if pool is not self._pool:
                pool.shutdown(wait=True, cancel_futures=True)
