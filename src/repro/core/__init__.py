"""The paper's contribution: MTO-Sampler and its supporting theory.

* :mod:`repro.core.adjacency` — the numpy-backed compact adjacency store
  (id interning, arena rows, seeded draws) mirrored by the graph and
  overlay substrates;
* :mod:`repro.core.criteria` — the edge-manipulation theorems: the
  deterministic non-cross-cutting removal criterion (Theorem 3), its
  cached-degree extension (Theorem 5), and the degree-3 replacement rule
  (Theorem 4);
* :mod:`repro.core.overlay` — the virtual overlay topology the walk
  follows, plus the offline fixpoint construction of G*/G** used by the
  running example;
* :mod:`repro.core.mto` — Algorithm 1, the MTO-Sampler random walk;
* :mod:`repro.core.estimators` — importance-sampling aggregate estimation
  (§IV-A) shared by all samplers.

Re-exports resolve lazily (PEP 562): :mod:`repro.core.adjacency` is a
leaf module that :mod:`repro.graph.adjacency` imports at class-definition
time, so importing this package must not eagerly pull in
:mod:`repro.core.overlay` (which imports the graph substrate right back).
"""

from importlib import import_module
from typing import Any

_EXPORTS = {
    "extension_criterion": "repro.core.criteria",
    "is_removable": "repro.core.criteria",
    "removal_criterion": "repro.core.criteria",
    "replacement_allowed": "repro.core.criteria",
    "EstimationResult": "repro.core.estimators",
    "Estimator": "repro.core.estimators",
    "estimate": "repro.core.estimators",
    "MTOSampler": "repro.core.mto",
    "OverlayGraph": "repro.core.overlay",
    "build_overlay_fixpoint": "repro.core.overlay",
    "CompactAdjacency": "repro.core.adjacency",
    "NodeInterner": "repro.core.adjacency",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(module), name)
    try:
        return import_module(f"repro.core.{name}")
    except ModuleNotFoundError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
