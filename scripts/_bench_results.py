"""One code path for benchmark artifacts.

:func:`write_results` serializes a benchmark's payload once and writes it
to ``benchmarks/results/<name>``, the only home of ``BENCH_*.json`` files.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Home of benchmark artifacts.
RESULTS_DIR = ROOT / "benchmarks" / "results"


def _obs_snapshot() -> dict | None:
    """The process-wide metrics registry at write time, if obs is usable."""
    try:
        from repro import obs
    except ImportError:
        return None
    registry = obs.registry()
    if not registry.enabled:
        return None
    return registry.snapshot()


def write_results(name: str, results: dict) -> Path:
    """Serialize ``results`` to ``benchmarks/results/<name>``; returns the path.

    Every artifact carries an ``obs_metrics`` snapshot of the process-wide
    registry — whatever the benchmark's saves/recovers incremented — so a
    result file is self-describing about cache hits, round trips, retries,
    and quorum behaviour during the run."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if "obs_metrics" not in results:
        snapshot = _obs_snapshot()
        if snapshot is not None:
            results = dict(results)
            results["obs_metrics"] = snapshot
    path = RESULTS_DIR / name
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return path
