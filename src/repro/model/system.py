"""The distributed database system: wiring, query life cycle, run control.

:class:`DistributedDatabase` assembles the full model of the paper's
Figure 1/Figure 2 — sites, terminals, token ring, load board, workload
generator, metrics — around one allocation policy, and exposes ``run()``
to produce a :class:`~repro.model.metrics.SystemResults`.

The query life cycle (Figure 2's flow) is implemented once, in
:meth:`DistributedDatabase.execute_query`:

1. the allocation policy picks an execution site from optimizer estimates
   and the load board (through a :class:`~repro.model.view.SystemView`);
2. the query is committed to that site on the load board;
3. if remote, the query descriptor crosses the token ring;
4. the query cycles ``actual_reads`` times through disk (FCFS) and CPU (PS);
5. if remote, the results cross the ring back to the home site;
6. the query is released from the load board and recorded by the metrics.

Extension mechanisms (:mod:`repro.model.mechanism`, passed as
``extensions=``) hook into these steps: per-query draws before step 1, a
stale load view and a restricted candidate set in step 1, per-site CPU
speeds in step 4, operation boundaries inside step 4 where a pipeline
stage or a migrating query may move (re-registered on the board, its
partial result shipped), and a commit hook after step 6.

With a :class:`~repro.faults.plan.FaultPlan` installed (see
:meth:`DistributedDatabase.install_faults`) the same life cycle degrades:
the view only offers *available* sites, a crash of the execution site
aborts the query and re-enters allocation with bounded retry and
exponential backoff, and subnet transfers consult the plan's message
faults.  Without a plan none of that code runs, and nothing changes —
byte-for-byte (a chaos-determinism test pins this).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Generator, Iterable, List, Optional, Tuple, Type, TypeVar

from repro.faults.errors import NoAvailableSiteError, SiteCrashedError
from repro.model.config import SystemConfig
from repro.model.loadboard import LoadBoard, LoadView
from repro.model.mechanism import Mechanism
from repro.model.metrics import MetricsCollector, SystemResults, summarize
from repro.model.query import Query
from repro.model.ring import Message
from repro.model.subnet import build_subnet
from repro.model.site import DBSite
from repro.model.view import SystemView
from repro.model.workload import WorkloadGenerator
from repro.workloads.driver import WorkloadDriver, start_workload
from repro.workloads.spec import WorkloadSpec, normalize_workload
from repro.policies.base import AllocationPolicy, CostBasedPolicy
from repro.sim.engine import Simulator
from repro.sim.process import Hold, WaitFor
from repro.sim.rng import bernoulli
from repro.telemetry.events import (
    AllocationDecided,
    MessageDropped,
    QueryAborted,
    QueryAllocated,
    QueryLost,
    QueryRetried,
    QueryTransferred,
    RunEnded,
    RunStarted,
    WarmupEnded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.extensions.migration import Migration
    from repro.extensions.partial_replication import PartialReplication
    from repro.extensions.stale_info import StaleLoadInfo
    from repro.extensions.subqueries import Subqueries
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

M = TypeVar("M", bound=Mechanism)


class DistributedDatabase:
    """A fully-replicated distributed database system under one policy.

    Args:
        config: Model parameters (see :mod:`repro.model.config`).
        policy: The allocation policy instance to drive; it is bound to
            this system.
        seed: Master seed for every random stream in the run.
        faults: Optional fault plan to install at time 0.  ``None`` (and
            a no-op plan) leave the query life cycle faultless.
        workload: Optional workload specification.  ``None`` (and the
            default closed spec, which normalizes to ``None``) drives
            the system with the paper's closed terminals, byte-identical
            to the seed; an open spec launches its arrival processes
            instead.  Workloads bind at construction — the arrival
            processes start at time 0 — so there is no
            ``install_workload`` analogue of :meth:`install_faults`.
        extensions: Extension mechanisms (:mod:`repro.extensions`), at
            most one of each kind; they bind in the order given.  No
            mechanisms (the default) is the paper's model.
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: AllocationPolicy,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
        workload: Optional[WorkloadSpec] = None,
        extensions: Iterable[Mechanism] = (),
    ) -> None:
        self.config = config
        self.policy = policy
        self.sim = Simulator(seed=seed)
        #: The active fault injector, or ``None`` for faultless runs.
        self.fault_injector: Optional["FaultInjector"] = None
        self.sites: List[DBSite] = [
            DBSite(self.sim, config, index) for index in range(config.num_sites)
        ]
        # Named "ring" for the paper's default topology; with
        # subnet_kind="mesh" it is a point-to-point network instead.
        self.ring = build_subnet(
            config.network.subnet_kind, self.sim, config.num_sites
        )
        self.load_board = LoadBoard(
            config.num_sites, bus=self.sim.bus, clock=self.sim
        )
        self.workload = WorkloadGenerator(self.sim, config)
        self.metrics = MetricsCollector(config, bus=self.sim.bus)
        #: The normalized workload spec (``None`` = the paper's closed model).
        self.workload_spec: Optional[WorkloadSpec] = normalize_workload(workload)
        #: Admission/shed accounting for open workloads (``None`` when closed).
        self.workload_driver: Optional[WorkloadDriver] = None
        #: The extension mechanisms, in the order given.
        self.extensions: Tuple[Mechanism, ...] = tuple(extensions)
        kinds = [type(mechanism) for mechanism in self.extensions]
        if len(set(kinds)) != len(kinds):
            raise ValueError("at most one mechanism of each kind per system")
        # Single-owner seams, claimed by mechanisms as they bind (None is
        # the paper's model): the stale load view, the data placement
        # behind candidate_sites, the subquery pipeline, and migration at
        # the boundaries inside one operation.
        self.load_info: Optional["StaleLoadInfo"] = None
        self.placement: Optional["PartialReplication"] = None
        self.pipeline: Optional["Subqueries"] = None
        self.migration: Optional["Migration"] = None
        for mechanism in self.extensions:
            mechanism.bind(self)
        policy.bind(self)
        self._measure_start = 0.0
        if faults is not None:
            self.install_faults(faults)
        start_workload(self)
        for mechanism in self.extensions:
            mechanism.on_start()

    def extension(self, kind: Type[M]) -> Optional[M]:
        """The installed mechanism of type *kind*, or ``None``."""
        for mechanism in self.extensions:
            if isinstance(mechanism, kind):
                return mechanism
        return None

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def install_faults(self, plan: Optional["FaultPlan"]) -> None:
        """Install *plan*, which degrades the query life cycle.

        A ``None`` plan — and a no-op plan (one with no outages and no
        message faults) — installs nothing: the run stays byte-identical
        to a faultless run.  Must be called at simulated time 0 (the
        constructor does this when ``faults=`` is passed), and at most
        once.
        """
        if plan is None or plan.is_noop:
            return
        if self.fault_injector is not None:
            raise RuntimeError("a fault plan is already installed")
        if self.sim.now != 0.0:
            raise RuntimeError(
                f"install_faults must be called at time 0, not {self.sim.now}"
            )
        from repro.faults.injector import FaultInjector

        self.fault_injector = FaultInjector(self, plan)

    def view_for(self, arrival_site: int) -> SystemView:
        """A :class:`SystemView` of this system for one decision."""
        return SystemView(self, arrival_site, injector=self.fault_injector)

    # ------------------------------------------------------------------
    # Load information (policies read through this indirection so the
    # stale-information mechanism can substitute a delayed view).
    # ------------------------------------------------------------------
    @property
    def load_view(self) -> LoadView:
        info = self.load_info
        return self.load_board if info is None else info.view

    def load_info_age(self) -> float:
        """Age of the load information policies currently see.

        ``0.0`` for the paper's free oracle (the load board is
        instantaneously current); with stale load information, the time
        since its last snapshot.
        """
        info = self.load_info
        return 0.0 if info is None else self.sim.now - info.refreshed_at

    def candidate_sites(self, query: Query):
        """Sites eligible to execute *query*.

        Fully replicated database: every site qualifies.  Under partial
        replication, the sites holding a copy of the query's data.
        """
        placement = self.placement
        if placement is None or query.data_item is None:
            return range(self.config.num_sites)
        return placement.replication.holders(query.data_item)

    # ------------------------------------------------------------------
    # Message-cost model (paper Table 3 / §5.1)
    # ------------------------------------------------------------------
    def _query_transfer_time(self, query: Query) -> float:
        network = self.config.network
        if network.msg_length is not None:
            return network.msg_length
        return query.spec.query_size * network.msg_time

    def _result_transfer_time(self, query: Query, reads: float) -> float:
        network = self.config.network
        if network.msg_length is not None:
            return network.msg_length
        result_bytes = query.spec.result_fraction * reads * network.page_size
        return result_bytes * network.msg_time

    def _result_bytes(self, query: Query, reads: float) -> int:
        return int(query.spec.result_fraction * reads * self.config.network.page_size)

    def estimated_transfer_time(self, query: Query) -> float:
        """Figure 6's ``Transfer_Time(q)`` (optimizer view)."""
        return self._query_transfer_time(query)

    def estimated_return_time(self, query: Query) -> float:
        """Figure 6's ``Return_Time(q)`` (optimizer view)."""
        return self._result_transfer_time(query, query.estimated_reads)

    # ------------------------------------------------------------------
    # Decision audit
    # ------------------------------------------------------------------
    def _emit_decision(
        self, query: Query, view: SystemView, chosen: int, attempt: int
    ) -> None:
        """Publish the decision-audit record for one allocation.

        Opt-in via ``wants_type`` (like :class:`TraceMessage`): catch-all
        subscribers never trigger construction, so existing event-stream
        digests are unchanged and the extra load-board reads only happen
        when a :class:`~repro.telemetry.tracing.decisions.DecisionAudit`
        is attached.
        """
        bus = self.sim.bus
        if not bus.active or not bus.wants_type(AllocationDecided):
            return
        seen = view.loads.query_distribution()
        true = self.load_board.query_distribution()
        candidates = view.candidates(query)
        est_service = query.estimated_cpu_demand + query.estimated_io_demand(
            self.config.site.disk_time
        )
        bus.emit(
            AllocationDecided(
                time=self.sim.now,
                qid=query.qid,
                class_name=query.spec.name,
                home_site=query.home_site,
                chosen_site=chosen,
                staleness=view.load_info_age(),
                seen_loads=",".join(map(str, seen)),
                true_loads=",".join(map(str, true)),
                candidates=",".join(map(str, candidates)),
                est_service=est_service,
                est_transfer=view.estimated_transfer_time(query),
                est_return=view.estimated_return_time(query),
                attempt=attempt,
            )
        )

    # ------------------------------------------------------------------
    # Query life cycle
    # ------------------------------------------------------------------
    def execute_query(self, query: Query, query_rng: random.Random):
        """Drive one query from allocation to results-at-home (a generator).

        Called from the terminal (or open-arrival) process via
        ``yield from``; the only implementation of Figure 2, see the
        module docstring for its steps and where mechanisms hook in.
        """
        sim = self.sim
        bus = sim.bus
        injector = self.fault_injector
        home = query.home_site
        for mechanism in self.extensions:
            mechanism.on_arrival(query, query_rng)
        placement = self.placement
        if placement is not None and query.stages is None:
            query.data_item = placement.draw_item(query_rng)
        stages = query.stages or ((query.actual_reads, query.data_item),)
        pipeline = self.pipeline
        migration = self.migration
        attempts = 0
        while True:
            # Where the query is registered on the load board (None while
            # it is still being allocated).
            site: Optional[int] = None
            try:
                view = self.view_for(home)
                if query.stages is None:
                    chosen = self.policy.select(query, view)
                    if not 0 <= chosen < self.config.num_sites:
                        raise ValueError(
                            f"policy {self.policy.name} chose invalid site {chosen}"
                        )
                else:
                    assert pipeline is not None
                    query.data_item = stages[0][1]
                    chosen = pipeline.place(query, home, stages[0][0])
                self._emit_decision(query, view, chosen, attempts)
                query.allocated_at = sim.now
                query.execution_site = chosen
                self.load_board.register(query, chosen)
                site = chosen
                if bus.active and bus.wants(QueryAllocated):
                    bus.emit(
                        QueryAllocated(
                            time=sim.now,
                            qid=query.qid,
                            class_name=query.spec.name,
                            home_site=home,
                            execution_site=site,
                        )
                    )
                if site != home:
                    yield from self._transfer(
                        query,
                        home,
                        site,
                        "query",
                        self._query_transfer_time(query),
                        query.spec.query_size,
                    )
                reads_done = 0
                for index, (reads, item) in enumerate(stages):
                    if index:
                        # A pipeline stage is placed when it starts; the
                        # intermediate result follows it if it moves.
                        assert pipeline is not None
                        query.data_item = item
                        target = pipeline.place(query, site, reads)
                        if target != site:
                            yield from self._relocate(
                                query, site, target, reads_done, "data-move"
                            )
                            site = target
                    left = reads
                    while left:
                        segment = left if migration is None else migration.segment(query, left)
                        yield from self._execute_at(site, query, query_rng, segment)
                        left -= segment
                        reads_done += segment
                        if left:
                            assert migration is not None
                            target = migration.target(query, site, left)
                            if target != site:
                                yield from self._relocate(
                                    query, site, target, reads_done, "migration"
                                )
                                site = target
            except (NoAvailableSiteError, SiteCrashedError):
                # Only a fault plan raises these: no eligible site is up,
                # or the site the query runs at crashed.
                assert injector is not None
                query.fault_exposure += 1
                attempts += 1
                if site is not None:
                    # Aborted: forfeit acquired service, release the board
                    # entry, and re-enter allocation.
                    self.load_board.deregister(query, site)
                    injector.queries_aborted += 1
                    query.service_acquired = 0.0
                    query.execution_site = None
                    query.started_at = None
                    query.finished_at = None
                    if bus.active and bus.wants(QueryAborted):
                        bus.emit(
                            QueryAborted(
                                time=sim.now, qid=query.qid, site=site, attempt=attempts
                            )
                        )
                plan = injector.plan
                if attempts > plan.max_retries:
                    injector.queries_lost += 1
                    if bus.active and bus.wants(QueryLost):
                        bus.emit(
                            QueryLost(time=sim.now, qid=query.qid, attempts=attempts)
                        )
                    return
                injector.queries_retried += 1
                backoff = plan.backoff(attempts)
                if bus.active and bus.wants(QueryRetried):
                    bus.emit(
                        QueryRetried(
                            time=sim.now, qid=query.qid, attempt=attempts, backoff=backoff
                        )
                    )
                yield Hold(backoff)
                continue
            break

        assert site is not None
        if site != home:
            yield from self._transfer(
                query,
                site,
                home,
                "result",
                self._result_transfer_time(query, query.actual_reads),
                self._result_bytes(query, query.actual_reads),
            )
        query.completed_at = sim.now
        self.load_board.deregister(query, site)
        if injector is not None:
            injector.record_completion(query)
        self.metrics.record(query)
        for mechanism in self.extensions:
            mechanism.on_commit(query)

    def _execute_at(self, site: int, query: Query, query_rng: random.Random, reads: int):
        """Run *reads* cycles of *query* at *site*, a crash victim under faults.

        The site may have crashed while the query was in flight toward
        it (in-flight processes are not crash victims: they execute
        nowhere yet).
        """
        injector = self.fault_injector
        if injector is None:
            yield from self.sites[site].execute(query, self.workload, query_rng, reads)
            return
        if not injector.is_up(site):
            raise SiteCrashedError(site)
        process = self.sim.current_process
        assert process is not None
        injector.begin_execution(site, process)
        try:
            yield from self.sites[site].execute(query, self.workload, query_rng, reads)
        finally:
            injector.end_execution(site, process)

    def redecide(
        self, query: Query, site: int, reads: int, threshold: float = 1.0
    ) -> int:
        """Where the next *reads* reads of *query* should run, seen from *site*.

        The operation-boundary decision shared by subquery stages and
        migration.  It re-costs a probe query of *reads* estimated reads
        (with the query's data item) at every site
        ``view.candidates(...)`` offers, and bypasses ``select``, so the
        round-robin scan offset does not advance.  With a cost-based
        policy the query moves only when the cheapest site's cost times
        *threshold* is below the cost of staying (staying is not an
        option when *site* is not a candidate).  Other policies stay when
        *site* is a candidate, else take the nearest candidate downstream.

        Raises:
            NoAvailableSiteError: When every candidate is down.
        """
        probe = Query(
            class_index=query.class_index,
            spec=query.spec,
            home_site=site,
            estimated_reads=float(reads),
            actual_reads=reads,
            io_bound=query.io_bound,
            qid=query.qid,
            data_item=query.data_item,
        )
        view = self.view_for(site)
        candidates = view.candidates(probe)
        policy = self.policy
        if not isinstance(policy, CostBasedPolicy):
            if site in candidates:
                return site
            num_sites = self.config.num_sites
            return min(candidates, key=lambda s: (s - site) % num_sites)
        # The probe's "arrival site" is where the query is now, so cost
        # models that price the network do so for the move.
        policy._view = view
        best, best_cost = site, math.inf
        if site in candidates:
            best_cost = policy.site_cost(probe, site)
        stay_cost = best_cost
        for candidate in candidates:
            if candidate == site:
                continue
            cost = policy.site_cost(probe, candidate)
            if cost < best_cost:
                best, best_cost = candidate, cost
        if best != site and best_cost * threshold < stay_cost:
            return best
        return site

    def _relocate(
        self, query: Query, source: int, target: int, reads_done: int, kind: str
    ):
        """Move a partly executed query: re-register it, ship the partial result."""
        self.load_board.deregister(query, source)
        self.load_board.register(query, target)
        partial = self._result_bytes(query, reads_done)
        network = self.config.network
        if network.msg_length is not None:
            transfer_time = network.msg_length
        else:
            transfer_time = (query.spec.query_size + partial) * network.msg_time
        yield from self._transfer(query, source, target, kind, transfer_time, partial)
        query.execution_site = target

    def _transfer(
        self,
        query: Query,
        source: int,
        destination: int,
        kind: str,
        transfer_time: float,
        size_bytes: int,
    ) -> Generator[object, object, None]:
        """One subnet transfer, under the plan's message faults if any.

        Lost messages are retransmitted after ``retransmit_timeout``,
        at most ``max_retransmits`` times; after that the transfer is
        forced through (the model's stand-in for an out-of-band repair).
        Every drop counts against the query's fault exposure.
        """
        sim = self.sim
        bus = sim.bus
        injector = self.fault_injector
        messages = injector.plan.messages if injector is not None else None
        if messages is not None and not messages.is_noop:
            assert injector is not None
            if messages.extra_delay > 0.0:
                yield Hold(messages.extra_delay)
            if messages.loss_prob > 0.0:
                rng = injector.net_rng
                drops = 0
                while drops < messages.max_retransmits and bernoulli(
                    rng, messages.loss_prob
                ):
                    drops += 1
                    injector.messages_dropped += 1
                    query.fault_exposure += 1
                    if bus.active and bus.wants(MessageDropped):
                        bus.emit(
                            MessageDropped(
                                time=sim.now,
                                source=source,
                                destination=destination,
                                kind=kind,
                                qid=query.qid,
                            )
                        )
                    yield Hold(messages.retransmit_timeout)
        if bus.active and bus.wants(QueryTransferred):
            bus.emit(
                QueryTransferred(
                    time=sim.now,
                    qid=query.qid,
                    source=source,
                    destination=destination,
                    kind=kind,
                    transfer_time=transfer_time,
                )
            )
        yield WaitFor(
            lambda resume: self.ring.send(
                Message(
                    source=source,
                    destination=destination,
                    transfer_time=transfer_time,
                    deliver=resume,
                    kind=kind,
                    size_bytes=size_bytes,
                )
            )
        )

    # ------------------------------------------------------------------
    # Run control and statistics
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Truncate every monitor (call at the end of warmup)."""
        self.metrics.reset()
        self.ring.reset_statistics()
        for site in self.sites:
            site.reset_statistics()
        if self.fault_injector is not None:
            self.fault_injector.reset_statistics()
        if self.workload_driver is not None:
            self.workload_driver.reset_statistics()
        self._measure_start = self.sim.now

    def run(self, warmup: float, duration: float) -> SystemResults:
        """Simulate ``warmup + duration`` time units and summarize.

        Statistics gathered during the warmup period are discarded; the
        returned results cover exactly the ``duration`` window.
        """
        if warmup < 0 or duration <= 0:
            raise ValueError("need warmup >= 0 and duration > 0")
        sim = self.sim
        bus = sim.bus
        if bus.active and bus.wants(RunStarted):
            bus.emit(
                RunStarted(
                    time=sim.now,
                    policy=self.policy.name,
                    seed=sim.seed,
                    warmup=warmup,
                    duration=duration,
                )
            )
        if warmup > 0:
            sim.run(until=warmup)
        self.reset_statistics()
        # Emitted *after* truncation so bus-driven consumers (e.g. the
        # timeline sampler) observe post-reset monitors at the boundary.
        if bus.active and bus.wants(WarmupEnded):
            bus.emit(WarmupEnded(time=sim.now))
        sim.run(until=warmup + duration)
        if bus.active and bus.wants(RunEnded):
            bus.emit(RunEnded(time=sim.now, completions=self.metrics.completions))
        return self.results()

    def results(self) -> SystemResults:
        """Summarize the statistics collected since the last reset."""
        sites = self.sites
        cpu_util = sum(s.cpu_utilization for s in sites) / len(sites)
        disk_util = sum(s.disk_utilization for s in sites) / len(sites)
        availability = (
            self.fault_injector.availability_summary()
            if self.fault_injector is not None
            else None
        )
        workload = (
            self.workload_driver.summary()
            if self.workload_driver is not None
            else None
        )
        return summarize(
            self.metrics,
            policy=self.policy.name,
            subnet_utilization=self.ring.utilization,
            cpu_utilization=cpu_util,
            disk_utilization=disk_util,
            measured_time=self.sim.now - self._measure_start,
            availability=availability,
            workload=workload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DistributedDatabase sites={self.config.num_sites} "
            f"policy={self.policy.name} t={self.sim.now:.6g}>"
        )


__all__ = ["DistributedDatabase"]
