"""Span shims that time calls into each ``repro`` layer from outside it.

The traced run needs per-layer self time without touching ``src/``: each
public entry point listed in :data:`TARGETS` is replaced, for the length
of the traced run, by a wrapper that records one span around the call.
A layer's self time is its spans' wall time minus the spans nested inside
them (a ``walks`` step that fetches through ``interface`` pays only for
its own code).  Calls count *entries* into a layer: a span nested
directly inside a span of the same layer (``fetch_seq`` falling back to
``query``) is timed but not counted again.

Wrappers replace the attribute the caller actually resolves: the class
attribute for methods, and the calling module's global for functions a
module imported by name (the service spills through its own
``encode_value``; the benchmark calls ``repro.datasets.load`` through the
package).  Hot lanes pre-bind methods when stacks are built, so wrappers
go in before assembly; :meth:`LayerSpans.restore` puts every original
back and checks it is back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Dict, List, Tuple

from repro.errors import PrivateUserError, QueryBudgetExhaustedError

#: ``(layer, "module[:Class]", attribute)`` — every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("datasets", "repro.datasets", "load"),
    ("compose", "repro.compose", "build_stack"),
    ("compose", "repro.service.service", "build_stack"),
    ("compose", "repro.service.service:SamplingService", "__init__"),
    ("compose", "repro.service.service:SamplingService", "register"),
    ("walks", "repro.walks.srw:SimpleRandomWalk", "step"),
    ("walks", "repro.walks.mhrw:MetropolisHastingsWalk", "step"),
    ("walks", "repro.walks.nbrw:NonBacktrackingWalk", "step"),
    ("walks", "repro.core.mto:MTOSampler", "step"),
    ("core.overlay", "repro.core.overlay:OverlayGraph", "ensure_known"),
    ("core.overlay", "repro.core.overlay:OverlayGraph", "ensure_known_many"),
    ("core.overlay", "repro.core.overlay:OverlayGraph", "remove_edge"),
    ("core.overlay", "repro.core.overlay:OverlayGraph", "replace_edge"),
    ("core.overlay", "repro.core.overlay:OverlayGraph", "random_neighbor"),
    ("interface", "repro.interface.api:RestrictedSocialAPI", "query"),
    ("interface", "repro.interface.api:RestrictedSocialAPI", "query_many"),
    ("interface", "repro.interface.api:RestrictedSocialAPI", "fetch_seq"),
    ("datastore", "repro.datastore.kv:KeyValueStore", "get"),
    ("datastore", "repro.datastore.kv:KeyValueStore", "set"),
    ("datastore", "repro.datastore.kv:KeyValueStore", "contains"),
    ("datastore", "repro.service.service", "encode_value"),
    ("datastore", "repro.service.service", "decode_value"),
    ("fleet", "repro.fleet.provider:ShardedProvider", "fetch"),
    ("fleet.route", "repro.fleet.router:ShardRouter", "shard_of"),
    ("planning", "repro.planning.planner:DispatchPlanner", "note_step"),
    ("planning", "repro.planning.planner:DispatchPlanner", "speculative_targets"),
    ("planning", "repro.planning.planner:DispatchPlanner", "predict_next_fetch"),
    ("planning.predict", "repro.walks.srw:SimpleRandomWalk", "predict_next_fetch"),
    ("planning.predict", "repro.walks.mhrw:MetropolisHastingsWalk", "predict_next_fetch"),
    ("planning.predict", "repro.walks.nbrw:NonBacktrackingWalk", "predict_next_fetch"),
    ("planning.predict", "repro.core.mto:MTOSampler", "predict_next_fetch"),
    ("scheduler", "repro.walks.scheduler:EventDrivenWalkers", "run"),
    ("scheduler", "repro.walks.scheduler:EventDrivenWalkers", "begin_collect"),
    ("scheduler", "repro.walks.scheduler:EventDrivenWalkers", "collect_tick"),
    ("service", "repro.service.service:SamplingService", "request"),
    ("service", "repro.service.service:SamplingService", "run_pending"),
    ("service", "repro.service.service:SamplingService", "hibernate"),
    ("obs", "repro.obs.trace:TraceRecorder", "record"),
    ("obs", "repro.obs.trace:TraceRecorder", "count"),
    ("estimators", "repro.core.estimators", "estimate_curve"),
    ("estimators", "repro.core.estimators", "estimate"),
)

#: Every layer in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Exceptions an interface entry point raises to refuse a query.
REFUSALS = (PrivateUserError, QueryBudgetExhaustedError)


def resolve(owner: str):
    """The module or class named by a ``"module[:Class]"`` string."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class LayerSpans:
    """Per-layer call counts, self time and refusals, while installed.

    ``stats[layer]`` is ``[calls, self_ns, refusals]``.  Use as a context
    manager: entering installs every wrapper, leaving restores the
    originals.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[int]] = {layer: [0, 0, 0] for layer in LAYERS}
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    def __enter__(self) -> "LayerSpans":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        """Replace every target with its span wrapper."""
        if self._saved:
            raise RuntimeError("span wrappers are already installed")
        for layer, owner_name, attr in TARGETS:
            owner = resolve(owner_name)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def restore(self) -> None:
        """Put every original back; raises if one did not go back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    def snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        """A copy of the current per-layer counters."""
        return {layer: tuple(row) for layer, row in self.stats.items()}

    def reset(self) -> None:
        """Zero every counter (the traced run starts timing after set-up)."""
        for row in self.stats.values():
            row[:] = [0, 0, 0]

    @contextlib.contextmanager
    def paused(self):
        """Run a block (output checks) without it counting toward any layer."""
        saved = self.snapshot()
        try:
            yield
        finally:
            for layer, row in saved.items():
                self.stats[layer][:] = row

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        stack = self._stack
        now = time.perf_counter_ns

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            except REFUSALS:
                if parent is None or parent[0] is not layer:
                    stats[2] += 1
                raise
            finally:
                elapsed = now() - start
                stack.pop()
                stats[1] += elapsed - frame[1]
                if parent is None:
                    stats[0] += 1
                else:
                    parent[1] += elapsed
                    if parent[0] is not layer:
                        stats[0] += 1

        return functools.update_wrapper(span, fn)
