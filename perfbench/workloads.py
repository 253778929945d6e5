"""The benchmark's three workloads and the checks on their outputs.

Every workload samples ``load("epinions_like", 0, scale=10.0)``
(26,000 users, ~118k edges) and estimates AVG degree.  A workload is a
sequence of independent *units* — MTO walks, planned fleet runs, or
service rounds — each fully determined by ``(seed, index)``.  Units are
assembled during set-up and executed one at a time in a closed loop; a
unit's timed region is its sampling plus its estimation.

Per-run figures aggregate over units so that they hold still across
seeds: host time and simulated pace are medians over units, estimate
quality is a mean over units.  One unit's final error or threshold
crossing is a single random draw whose spread across seeds is wider than
any usable bound (see README.md).

Functions here call into ``repro`` through module attributes
(``datasets.load``, ``compose.build_stack``, ``estimators.estimate_curve``)
so that the traced run's span wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List

import repro.compose as compose
import repro.core.estimators as estimators
import repro.datasets as datasets
from repro import AggregateQuery, MTOSampler, ground_truth
from repro.compose import FleetSpec, PlannerSpec, ProviderSpec, StackConfig, WalkSpec
from repro.datastore.kv import KeyValueStore
from repro.datastore.snapshot import decode_value
from repro.errors import ServiceError
from repro.interface.api import RestrictedSocialAPI
from repro.interface.telemetry import collect_telemetry
from repro.obs import TraceRecorder, reconcile_fleet, reconcile_interface
from repro.service import STATE_EXHAUSTED, SamplingService

DATASET = "epinions_like"
#: The network is one fixed Epinions stand-in, as the paper's Table I
#: datasets are fixed graphs; the run's seed picks walks, starts and
#: fleets.  A network per seed adds graph-to-graph variance to every
#: simulated figure that no number of units within a run averages out.
DATASET_SEED = 0
SCALE = 10.0
THRESHOLD = 0.05
AVG_DEGREE = AggregateQuery.average_degree()


class CheckFailed(Exception):
    """A workload's output failed one of the benchmark's checks."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Network:
    """The sampled network and what the checks compare against."""

    net: object
    truth: float
    nodes: list


def build_network() -> Network:
    net = datasets.load(DATASET, DATASET_SEED, scale=SCALE)
    truth = ground_truth(AVG_DEGREE, net.graph, net.profiles)
    return Network(net=net, truth=truth, nodes=sorted(net.graph.nodes()))


@dataclass
class UnitResult:
    """One executed unit: outputs for the metrics, counters for the layers."""

    samples: int
    requested: int
    queries: int
    sim_s: float
    q5: float
    settled: bool
    rel_error: float
    pace: float
    digest: str
    counters: Dict[str, float] = field(default_factory=dict)


def _curve_figures(bills: List[int], estimates: List[float], truth: float):
    """``(q5, settled, final_error)`` of one unit's running estimate.

    ``q5`` is the bill at which the estimate enters ``THRESHOLD`` relative
    error and stays there through the unit's last sample; a unit that
    never settles is charged its whole bill (``settled`` is then false),
    so the mean over units is a restricted mean of a censored quantity.
    """
    check(len(bills) == len(estimates) and estimates, "estimate curve is empty or misaligned")
    check(all(math.isfinite(e) for e in estimates), "an estimate is not finite")
    last_out = -1
    for i, value in enumerate(estimates):
        if abs(value - truth) > THRESHOLD * truth:
            last_out = i
    settled = last_out + 1 < len(bills)
    q5 = bills[last_out + 1] if settled else bills[-1]
    return q5, settled, abs(estimates[-1] - truth) / truth


def _p95(values: List[float]) -> float:
    """Nearest-rank 95th percentile, as ``SamplingService.fairness_report``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def pace_ratio(clocks_by_client: List[List[float]], clock: float) -> float:
    """The worst client's p95 per-sample pace over its fair share.

    ``SamplingService.fairness_report()["max_ratio"]`` for clients that
    all start at time 0: a client's pace at its ``k``-th sample is the
    simulated clock then divided by ``k``, and the fair share is
    ``clients * clock / samples``.
    """
    total = sum(len(clocks) for clocks in clocks_by_client)
    fair_share = len(clocks_by_client) * clock / total
    return max(
        _p95([t / k for k, t in enumerate(clocks, 1)]) for clocks in clocks_by_client if clocks
    ) / fair_share


class TickLog:
    """Scheduler watcher: the simulated clock and sample count after each tick."""

    def __init__(self, walkers) -> None:
        self.walkers = walkers
        self.ticks: List[tuple] = []

    def poll(self, now: float) -> None:
        self.ticks.append((now, self.walkers.samples_collected))

    def sample_clocks(self, run) -> List[List[float]]:
        """Per chain, the simulated clock at each of its samples."""
        chain_of = {
            id(sample): chain
            for chain, per_chain in enumerate(run.per_chain)
            for sample in per_chain.samples
        }
        clocks: List[List[float]] = [[] for _ in run.per_chain]
        index = 0
        for now, collected in self.ticks:
            while index < collected:
                clocks[chain_of[id(run.samples[index])]].append(now)
                index += 1
        check(index == len(run.samples), "tick log missed samples")
        return clocks


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _check_bill(records, query_cost: int, who: str) -> None:
    """§II-B: the bill is the number of distinct users billed, each once."""
    billed = [user for user, was_billed, _ in records if was_billed]
    check(
        len(billed) == len(set(billed)) == query_cost,
        f"{who}: {len(billed)} billed records, {len(set(billed))} distinct users, "
        f"query_cost {query_cost}",
    )


def _log_rows(api):
    return api.log.state_dict()["records"]


def _sample_rows(samples):
    return [(s.node, s.weight, s.query_cost, s.step) for s in samples]


class Workload:
    """A named sequence of units; subclasses define one unit."""

    name = ""
    #: Nominal host seconds per unit on the reference host; ``--seconds``
    #: divided by it sets how many units a run executes.
    unit_seconds = 1.0
    min_units = 3

    def units_for(self, seconds: float) -> int:
        return max(self.min_units, round(seconds / self.unit_seconds))

    def plan(self, network: Network, seed: int, units: int) -> list:
        raise NotImplementedError

    def assemble(self, network: Network, spec):
        raise NotImplementedError

    def execute(self, network: Network, built):
        """The timed region: sample, then estimate.  Returns raw outputs."""
        raise NotImplementedError

    def finish(self, network: Network, built, outputs) -> UnitResult:
        """Check the outputs and reduce them to a :class:`UnitResult`."""
        raise NotImplementedError


class MTOSerial(Workload):
    """The paper's algorithm alone: independent MTO walks, one at a time.

    Each walk has its own start node and seed and a fresh zero-latency
    in-memory interface, so its cache starts cold (miss-heavy).  No
    fleet, planner, scheduler, service or tracer is involved.
    """

    name = "mto_serial"
    walk_samples = 1500
    unit_seconds = 0.045

    def plan(self, network, seed, units):
        rng = random.Random(f"mto_serial:{seed}")
        return [
            (network.nodes[rng.randrange(len(network.nodes))], rng.getrandbits(32))
            for _ in range(units)
        ]

    def assemble(self, network, spec):
        start, walk_seed = spec
        return MTOSampler(network.net.interface(), start=start, seed=walk_seed)

    def execute(self, network, sampler):
        run = sampler.run(num_samples=self.walk_samples)
        curve = estimators.estimate_curve(AVG_DEGREE, run.samples, sampler.api)
        return run, curve

    def finish(self, network, sampler, outputs):
        run, curve = outputs
        api = sampler.api
        check(len(run.samples) == self.walk_samples, "walk delivered a short sample")
        _check_bill(_log_rows(api), api.query_cost, "mto walk")
        # Zero latency at one simulated second per billed query: the
        # clock at a sample is the bill it carries.
        check(api.clock.now() == api.query_cost, "walk clock is not its bill")
        q5, settled, error = _curve_figures(
            [cost for cost, _ in curve], [value for _, value in curve], network.truth
        )
        samples = len(run.samples)
        return UnitResult(
            samples=samples,
            requested=self.walk_samples,
            queries=api.query_cost,
            sim_s=api.clock.now(),
            q5=q5,
            settled=settled,
            rel_error=error,
            pace=pace_ratio([[float(s.query_cost) for s in run.samples]], api.clock.now()),
            digest=_digest(_sample_rows(run.samples)),
            counters={
                "cache_hits": api.cache_hits,
                "cache_misses": api.cache_misses,
            },
        )


class PlannedFleet(Workload):
    """8 SRW chains with a lookahead-4 planner on a skewed, flaky fleet.

    Four shards weighted ``(4, 1, 1, 1)`` with heavy-tailed latency
    spread across shards, admission every 0.05 simulated seconds, bursts
    of up to 8 and 5 % flaky responses.  Each unit is one run whose
    cache fills as it goes.  The only workload where prediction runs.
    """

    name = "planned_fleet"
    run_samples = 1000
    unit_seconds = 0.1

    def plan(self, network, seed, units):
        rng = random.Random(f"planned_fleet:{seed}")
        specs = []
        for _ in range(units):
            starts = tuple(network.nodes[rng.randrange(len(network.nodes))] for _ in range(8))
            specs.append(
                StackConfig(
                    fleet=FleetSpec(
                        num_shards=4,
                        seed=rng.getrandbits(32),
                        weights=(4.0, 1.0, 1.0, 1.0),
                        provider=ProviderSpec(
                            latency_distribution="heavy_tailed",
                            latency_scale=0.5,
                            failure_rate=0.05,
                        ),
                        shard_latency_spread=1.0,
                        admission_interval=0.05,
                        batch_cap=8,
                    ),
                    walk=WalkSpec(engine="srw", chains=8, seed=rng.getrandbits(32), starts=starts),
                    planner=PlannerSpec(lookahead=4),
                )
            )
        return specs

    def assemble(self, network, config):
        stack = compose.build_stack(config, network.net)
        ticks = TickLog(stack.walkers)
        stack.walkers.set_watcher(ticks)
        return stack, ticks

    def execute(self, network, built):
        stack, _ = built
        run = stack.run(num_samples=self.run_samples)
        curve = estimators.estimate_curve(AVG_DEGREE, run.samples, stack.api)
        return run, curve

    def finish(self, network, built, outputs):
        stack, ticks = built
        run, curve = outputs
        api = stack.api
        check(len(run.samples) == self.run_samples, "fleet run delivered a short sample")
        _check_bill(_log_rows(api), api.query_cost, "fleet run")
        check(run.queries == api.query_cost, "run result and interface disagree on the bill")
        ledger = stack.planner.ledger.summary()
        check(
            ledger["issued"] == ledger["used"] + ledger["wasted"] + ledger["outstanding"],
            f"prefetch ledger does not balance: {ledger}",
        )
        q5, settled, error = _curve_figures(
            [cost for cost, _ in curve], [value for _, value in curve], network.truth
        )
        shards = collect_telemetry(api).shards.values()
        prediction = stack.planner.summary()["prediction"].get("SimpleRandomWalk", {})
        samples = len(run.samples)
        return UnitResult(
            samples=samples,
            requested=self.run_samples,
            queries=api.query_cost,
            sim_s=run.sim_elapsed,
            q5=q5,
            settled=settled,
            rel_error=error,
            pace=pace_ratio(ticks.sample_clocks(run), run.sim_elapsed),
            digest=_digest((_sample_rows(run.samples), run.sim_elapsed)),
            counters={
                "cache_hits": api.cache_hits,
                "cache_misses": api.cache_misses,
                "retries": sum(s.retries for s in shards),
                "bursts": sum(s.bursts for s in shards),
                "events": run.events_processed,
                "prefetch_issued": ledger["issued"],
                "prefetch_used": ledger["used"],
                "prediction_hits": prediction.get("hits", 0),
                "prediction_misses": prediction.get("misses", 0),
            },
        )


@dataclass
class ServiceRound:
    service: SamplingService
    spill: KeyValueStore
    recorder: TraceRecorder


class ServiceTenants(Workload):
    """8 tenants of 4 SRW chains on one shared 4-shard fleet, two waves.

    Deficit round-robin admission (quantum 0.5), hot tenant ``t0`` asks
    for 10x the others, ``t7``'s §II-B budget runs out during wave 1 so
    its wave-2 request is refused, idle tenants spill to the key-value
    store after two idle rounds and wave 2 wakes them, and a trace
    recorder is attached throughout.
    """

    name = "service_tenants"
    tenants = 8
    chains = 4
    cold_samples = 30
    hot_skew = 10
    #: t7's budget: its 4 bootstrap queries plus 8 — far short of what
    #: ``cold_samples`` needs, so it always runs out in wave 1.
    exhausted_budget = 12
    unit_seconds = 0.11

    def _asks(self) -> List[int]:
        return [self.cold_samples * (self.hot_skew if i == 0 else 1) for i in range(self.tenants)]

    def plan(self, network, seed, units):
        rng = random.Random(f"service_tenants:{seed}")
        specs = []
        for _ in range(units):
            fleet = FleetSpec(
                num_shards=4,
                seed=rng.getrandbits(32),
                provider=ProviderSpec(latency_distribution="constant", latency_scale=0.5),
            )
            configs = []
            for i in range(self.tenants):
                starts = tuple(
                    network.nodes[rng.randrange(len(network.nodes))] for _ in range(self.chains)
                )
                configs.append(
                    StackConfig(
                        walk=WalkSpec(
                            engine="srw", chains=self.chains, seed=rng.getrandbits(32), starts=starts
                        ),
                        query_budget=self.exhausted_budget if i == self.tenants - 1 else None,
                    )
                )
            specs.append((fleet, configs))
        return specs

    def assemble(self, network, spec):
        fleet, configs = spec
        spill = KeyValueStore()
        recorder = TraceRecorder()
        service = SamplingService(
            network.net,
            fleet=fleet,
            quantum=0.5,
            idle_hibernate_after=2,
            spill_store=spill,
            recorder=recorder,
        )
        for i, config in enumerate(configs):
            service.register(f"t{i}", config)
        return ServiceRound(service=service, spill=spill, recorder=recorder)

    def _spilled(self, built: ServiceRound, tid: str):
        return decode_value(built.spill.get(("tenant", tid)))

    def execute(self, network, built):
        service = built.service
        refused = []
        for _wave in range(2):
            for i, ask in enumerate(self._asks()):
                try:
                    service.request(f"t{i}", ask)
                except ServiceError:
                    refused.append((f"t{i}", ask))
            service.run_pending()
        # The pooled stream: every tenant's samples in service-clock order,
        # billed at the sum of the tenants' bills carried so far.
        streams = []
        for i, tid in enumerate(service.tenant_ids):
            session = service.tenant(tid)
            if session.stack is not None:
                samples = session.stack.walkers.result().samples
            else:
                samples = list(self._spilled(built, tid)["walkers"]["merged"])
            streams.extend(
                (clock, i, k, sample)
                for k, (clock, sample) in enumerate(zip(session.sample_clock, samples))
            )
        streams.sort(key=lambda row: row[:3])
        pooled = [row[3] for row in streams]
        reader = RestrictedSocialAPI(service.fleet, cache=service.cache)
        curve = estimators.estimate_curve(AVG_DEGREE, pooled, reader)
        return refused, streams, reader, curve

    def finish(self, network, built, outputs):
        refused, streams, reader, curve = outputs
        service, recorder = built.service, built.recorder
        asks = self._asks()
        requested = 2 * sum(asks)
        last = f"t{self.tenants - 1}"
        check(
            [tid for tid, _ in refused] == [last],
            f"expected only {last}'s wave-2 request to be refused, got {refused}",
        )
        check(reader.query_cost == 0, "estimation billed a query: a sample was not cached")
        delivered = 0
        cache_hits = cache_misses = events = 0
        for i, tid in enumerate(service.tenant_ids):
            session = service.tenant(tid)
            if session.stack is not None:
                api = session.stack.api
                telemetry = collect_telemetry(api)
                records = _log_rows(api)
                events += session.stack.walkers.events_processed
            else:
                state = self._spilled(built, tid)
                telemetry = SimpleNamespace(
                    query_cost=session.query_cost,
                    latency_spent=state["api"]["latency_spent"],
                    cache_hits=state["api"]["cache_hits"],
                    cache_misses=state["api"]["cache_misses"],
                )
                records = state["api"]["log"]["records"]
                events += state["walkers"]["events"]
            _check_bill(records, session.query_cost, f"tenant {tid}")
            problems = reconcile_interface(recorder, telemetry, tenant=tid)
            check(not problems, f"tenant {tid} trace does not reconcile: {problems}")
            if tid == last:
                check(
                    session.state == STATE_EXHAUSTED
                    and session.samples < asks[i]
                    and session.query_cost == self.exhausted_budget,
                    f"{tid} should exhaust its budget during wave 1",
                )
            else:
                check(session.samples == 2 * asks[i], f"tenant {tid} delivered a short sample")
            check(
                len(session.sample_clock) == session.samples,
                f"tenant {tid} sample clock and sample count disagree",
            )
            delivered += session.samples
            cache_hits += telemetry.cache_hits
            cache_misses += telemetry.cache_misses
        shards = collect_telemetry(reader).shards
        problems = reconcile_fleet(recorder, shards)
        check(not problems, f"fleet trace does not reconcile: {problems}")
        check(
            sum(s.queries for s in shards.values()) == cache_misses,
            "shard books and tenant fetches disagree",
        )
        check(len(streams) == delivered, "pooled stream lost samples")
        bills = []
        carried: Dict[int, int] = {}
        for _clock, tenant, _k, sample in streams:
            carried[tenant] = sample.query_cost
            bills.append(sum(carried.values()))
        q5, settled, error = _curve_figures(bills, [value for _, value in curve], network.truth)
        hibernations = len(recorder.events_named("hibernate"))
        wakes = len(recorder.events_named("wake"))
        check(hibernations >= 1 and wakes >= 1, "no tenant spilled and woke")
        report = service.fairness_report()
        queries = sum(service.tenant(tid).query_cost for tid in service.tenant_ids)
        return UnitResult(
            samples=delivered,
            requested=requested,
            queries=queries,
            sim_s=service.clock,
            q5=q5,
            settled=settled,
            rel_error=error,
            pace=report["max_ratio"],
            digest=_digest(
                ([(r[1], r[3].node, r[3].weight, r[3].query_cost) for r in streams], service.clock)
            ),
            counters={
                "cache_hits": cache_hits,
                "cache_misses": cache_misses,
                "retries": sum(s.retries for s in shards.values()),
                "bursts": sum(s.bursts for s in shards.values()),
                "events": events,
                "hibernations": hibernations,
                "wakes": wakes,
                "obs_events": len(recorder),
            },
        )


WORKLOADS = {w.name: w for w in (MTOSerial(), PlannedFleet(), ServiceTenants())}
