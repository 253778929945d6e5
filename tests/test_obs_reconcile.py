"""Reconciliation audit tests: traces must reproduce the §II-B bill.

The ISSUE 9 acceptance check lives here: over a seeded skewed-fleet
multi-tenant run, replaying the recorded trace must reproduce each
tenant's ``query_cost``, ``latency_spent``, and cache hit/miss counts,
and the shared fleet's per-shard books, *exactly* — no tolerance.
"""

import dataclasses

import pytest

from repro.compose import (
    FleetSpec,
    PlannerSpec,
    ProviderSpec,
    StackConfig,
    WalkSpec,
    build_stack,
)
from repro.datasets import load
from repro.errors import ExperimentError, PrivateUserError, ProviderTimeoutError
from repro.experiments import run_obs_trace
from repro.fleet import ShardedProvider, ShardRouter
from repro.interface import FlakyProvider, InMemoryGraphProvider, collect_telemetry
from repro.obs import (
    EVENT_FETCH,
    EVENT_QUERY,
    TraceRecorder,
    export_jsonl,
    read_jsonl,
    reconcile_fleet,
    reconcile_interface,
    reconcile_run,
)
from repro.service import SamplingService


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.15)


def _skewed_fleet(seed=5):
    return FleetSpec(
        num_shards=3,
        seed=seed,
        weights=(0.6, 0.3, 0.1),
        shard_latency_spread=1.0,
        provider=ProviderSpec(latency_distribution="constant", latency_scale=0.5),
    )


class TestSingleStack:
    def test_planned_fleet_run_reconciles_exactly(self, network):
        config = StackConfig(
            fleet=_skewed_fleet(),
            walk=WalkSpec(engine="srw", chains=4, seed=11),
            planner=PlannerSpec(lookahead=2),
        )
        recorder = TraceRecorder()
        stack = build_stack(config, network, recorder=recorder)
        stack.run(num_samples=120)
        telemetry = collect_telemetry(stack.api)
        assert reconcile_run(recorder, telemetry) == []
        # The planner issued real prefetches and the audit covered them.
        assert telemetry.prefetched > 0

    def test_file_round_trip_reconciles_exactly(self, network, tmp_path):
        config = StackConfig(
            fleet=_skewed_fleet(),
            walk=WalkSpec(engine="mhrw", chains=2, seed=3),
        )
        recorder = TraceRecorder()
        stack = build_stack(config, network, recorder=recorder)
        stack.run(num_samples=60)
        path = tmp_path / "trace.jsonl"
        export_jsonl(recorder, path)
        events, metrics = read_jsonl(path)
        telemetry = collect_telemetry(stack.api)
        assert reconcile_run(events, telemetry, metrics=metrics) == []

    def test_bare_event_list_requires_metrics(self, network):
        config = StackConfig(walk=WalkSpec(engine="srw", chains=2, seed=3))
        recorder = TraceRecorder()
        stack = build_stack(config, network, recorder=recorder)
        stack.run(num_samples=20)
        telemetry = collect_telemetry(stack.api)
        with pytest.raises(ValueError, match="metrics registry"):
            reconcile_interface(list(recorder.events), telemetry)

    def test_tampered_trace_is_flagged(self, network):
        config = StackConfig(
            fleet=_skewed_fleet(),
            walk=WalkSpec(engine="srw", chains=2, seed=3),
        )
        recorder = TraceRecorder()
        stack = build_stack(config, network, recorder=recorder)
        stack.run(num_samples=40)
        telemetry = collect_telemetry(stack.api)
        assert reconcile_run(recorder, telemetry) == []

        queries = [e for e in recorder.events if e.name == EVENT_QUERY]
        fetches = [e for e in recorder.events if e.name == EVENT_FETCH]
        dropped_query = [e for e in recorder.events if e is not queries[0]]
        problems = reconcile_interface(dropped_query, telemetry, metrics=recorder.metrics)
        assert any("query_cost" in p for p in problems)

        dropped_fetch = [e for e in recorder.events if e is not fetches[0]]
        problems = reconcile_fleet(dropped_fetch, telemetry.shards)
        assert any("queries" in p for p in problems)

        rerouted = [
            dataclasses.replace(e, attrs=dict(e.attrs, shard=99))
            if e is fetches[0]
            else e
            for e in recorder.events
        ]
        problems = reconcile_fleet(rerouted, telemetry.shards)
        assert any("never saw" in p for p in problems)


class TestFailedFetches:
    def test_abandoned_and_refused_fetches_reconcile(self, network):
        """An abandoned fetch leaves a zero-latency mark, like a refusal."""
        users = list(network.graph.nodes())[:300]
        private = frozenset(users[:10])
        stacks = [
            FlakyProvider(
                InMemoryGraphProvider(network.graph, inaccessible=private),
                failure_rate=0.6,
                seed=seed,
                max_attempts=1,
            )
            for seed in range(2)
        ]
        fleet = ShardedProvider(stacks, ShardRouter(2, seed=3))
        recorder = TraceRecorder()
        fleet.set_recorder(recorder)
        for user in users:
            try:
                fleet.fetch(user)
            except (PrivateUserError, ProviderTimeoutError):
                pass
        abandoned = sum(stack.retry_stats.abandoned for stack in stacks)
        assert abandoned > 0
        fetches = [e for e in recorder.events if e.name == EVENT_FETCH]
        assert len(fetches) == len(users) == sum(s.queries for s in fleet.stats)
        marks = [e for e in fetches if e.attrs.get("abandoned")]
        assert len(marks) == abandoned
        assert all("latency" not in e.attrs and not e.dur for e in marks)
        assert any(e.attrs.get("refused") for e in fetches)
        assert reconcile_fleet(recorder, dict(enumerate(fleet.stats))) == []


class TestMultiTenantAcceptance:
    def test_skewed_fleet_multi_tenant_audit_is_exact(self, network):
        """ISSUE 9 acceptance: the full bill replays from events alone."""
        recorder = TraceRecorder()
        service = SamplingService(network, fleet=_skewed_fleet(), recorder=recorder)
        tenants = ("alice", "bob", "carol")
        for i, tenant in enumerate(tenants):
            service.register(
                tenant,
                StackConfig(
                    walk=WalkSpec(
                        engine="mhrw" if i % 2 else "srw", chains=2, seed=101 + i
                    )
                ),
            )
            service.request(tenant, 60 if i == 0 else 24)
        service.run_pending()

        shards = None
        for tenant in tenants:
            telemetry = collect_telemetry(service.tenant(tenant).stack.api)
            # Per-tenant §II-B bill, latency, and cache counters: exact.
            assert reconcile_interface(recorder, telemetry, tenant=tenant) == []
            assert telemetry.query_cost > 0
            shards = telemetry.shards
        # Shared-fleet per-shard books: exact across all tenants' events.
        assert set(shards) == {0, 1, 2}
        assert reconcile_fleet(recorder, shards) == []

    def test_hibernate_wake_cycle_still_reconciles(self, network):
        recorder = TraceRecorder()
        service = SamplingService(network, fleet=_skewed_fleet(), recorder=recorder)
        for i, tenant in enumerate(("alice", "bob")):
            service.register(
                tenant, StackConfig(walk=WalkSpec(engine="srw", chains=2, seed=31 + i))
            )
            service.request(tenant, 20)
        service.run_pending()
        service.hibernate("bob")
        service.request("bob", 20)  # wakes the tenant mid-trace
        service.run_pending()

        assert len(recorder.events_named("hibernate")) == 1
        assert len(recorder.events_named("wake")) == 1
        for tenant in ("alice", "bob"):
            telemetry = collect_telemetry(service.tenant(tenant).stack.api)
            assert reconcile_interface(recorder, telemetry, tenant=tenant) == []
        telemetry = collect_telemetry(service.tenant("alice").stack.api)
        assert reconcile_fleet(recorder, telemetry.shards) == []


class TestExperimentDriver:
    def test_run_obs_trace_audits_and_exports(self, network, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.json"
        result = run_obs_trace(
            network,
            num_samples=16,
            seed=2,
            jsonl_path=str(jsonl),
            chrome_path=str(chrome),
        )
        assert result.problems == []
        assert result.events == sum(result.events_by_name.values())
        assert set(result.query_cost_by_tenant) == {"t0", "t1", "t2"}
        assert jsonl.exists() and chrome.exists()
        events, _ = read_jsonl(jsonl)
        assert len(events) == result.events
        assert "audit clean" in str(result)

    def test_run_obs_trace_rejects_empty_workloads(self, network):
        with pytest.raises(ExperimentError):
            run_obs_trace(network, num_tenants=0)
