"""What the benchmark measures, read from ``BENCHMARK.json``.

The manifest at the repository root is the one list of workloads,
metrics, units, directions and bounds; ``run.py`` prints exactly its
metric names and ``steady.py`` judges against its bounds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

MANIFEST: Dict[str, Any] = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
RUN_SECONDS: int = MANIFEST["run_seconds"]
WORKLOAD_NAMES: List[str] = [entry["name"] for entry in MANIFEST["workloads"]]
END_TO_END: Dict[str, Dict[str, Any]] = {
    entry["name"]: entry for entry in MANIFEST["end_to_end"]
}
PER_LAYER: Dict[str, Dict[str, Any]] = {
    entry["name"]: entry for entry in MANIFEST["per_layer"]
}


def metrics(trace: bool) -> Dict[str, Dict[str, Any]]:
    """Name → manifest entry of the metrics a run reports."""
    return PER_LAYER if trace else END_TO_END
