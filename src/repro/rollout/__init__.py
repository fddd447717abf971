"""Zero-downtime label rollout: incremental relabeling + MVCC blue/green.

The rollout layer ties the paper's locality (only labels whose
net-hierarchy balls intersect a graph change need rebuilding) to the
serving tier's durability: a new label-table *generation* is staged
next to the live one, committed by a single atomic manifest replace,
and either survives a crash whole or rolls back whole.
"""

from repro.rollout.coordinator import (
    RolloutCoordinator,
    RolloutRecovery,
    recover_rollout,
    repair_manifest,
    sweep_generation,
)
from repro.rollout.incremental import (
    GraphChange,
    IncrementalRelabeler,
    RelabelPlan,
    apply_change,
)
from repro.rollout.lifecycle import EdgeRollouts
from repro.rollout.manifest import (
    GenerationEntry,
    RolloutManifest,
    decode_manifest,
    encode_manifest,
    generation_dir,
    initial_manifest,
    load_manifest,
    manifest_path,
    shard_dir,
    store_manifest,
)

__all__ = [
    "EdgeRollouts",
    "GenerationEntry",
    "GraphChange",
    "IncrementalRelabeler",
    "RelabelPlan",
    "RolloutCoordinator",
    "RolloutManifest",
    "RolloutRecovery",
    "apply_change",
    "decode_manifest",
    "encode_manifest",
    "generation_dir",
    "initial_manifest",
    "load_manifest",
    "manifest_path",
    "recover_rollout",
    "repair_manifest",
    "shard_dir",
    "store_manifest",
    "sweep_generation",
]
