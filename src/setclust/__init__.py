"""Constrained k-means clustering with oracle-generated constraint sets.

The toolkit has two stages: constraint generation (grid-driven must-link
candidates plus radius-gated cannot-link growth, answered by a simulated or
remote oracle) and penalty-based constrained clustering (weighted seeding,
partition merging for must-links, and matching-based local search for
cannot-links).

The names below are imported on first use (PEP 562), so that importing one
submodule, say ``setclust.dataset``, does not load scipy or requests.
"""

import importlib

_EXPORTS = {
    "CLSet": "setclust.constraints",
    "ClusteringResult": "setclust.clustering",
    "ConstraintCollection": "setclust.constraints",
    "Convergence": "setclust.clustering",
    "EmbeddedDataset": "setclust.dataset",
    "MLSet": "setclust.constraints",
    "Penalties": "setclust.clustering",
    "QueryLedger": "setclust.oracle",
    "SimulatedOracle": "setclust.oracle",
    "SyntheticSpec": "setclust.dataset",
    "TextRecord": "setclust.dataset",
    "ThresholdResult": "setclust.constraints",
    "generate_synthetic": "setclust.dataset",
    "load_dataset": "setclust.dataset",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
