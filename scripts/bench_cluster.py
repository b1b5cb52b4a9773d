#!/usr/bin/env python
"""Cluster-plane benchmark: recover throughput scaling and failover.

Builds a PUA (parameter-update) chain per cluster size over simulated
network members, then measures tip-model recovery with cold caches:

* **throughput scaling** — aggregate recover throughput is the bytes
  received across all member links divided by the cluster's link time
  (the *max* of the members' ``simulated_seconds`` — shards transfer in
  parallel, so the slowest link bounds wall-clock).  The acceptance bar:
  a 4-shard cluster recovers at >= 2x the single-shard baseline.
* **replica-down recovery** — with one member faulted into total outage
  (``error_rate=1.0``), reads fail over to the surviving replicas; the
  recovered state must be bitwise identical to the healthy recovery.

Writes ``BENCH_cluster.json`` into ``benchmarks/results/``.  Exit status
is non-zero unless both bars hold (``--no-check`` records without
enforcing).

Usage::

    python scripts/bench_cluster.py [--snapshots 5] [--scale 0.25]
                                    [--shards 1 2 4]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import ModelSaveInfo  # noqa: E402
from repro.core.save_info import ArchitectureRef  # noqa: E402
from repro.distsim import SharedStores, make_service  # noqa: E402
from repro.faults import FaultInjector  # noqa: E402
from repro.filestore import CELLULAR_LTE  # noqa: E402
from repro.nn.models import MODEL_REGISTRY, create_model  # noqa: E402

NUM_CLASSES = 100


def arch_ref(name: str, scale: float) -> ArchitectureRef:
    spec = MODEL_REGISTRY[name]
    return ArchitectureRef.from_factory(
        spec.factory.__module__,
        spec.factory.__name__,
        {"num_classes": NUM_CLASSES, "scale": scale},
    )


def perturb_classifier(model, level: float) -> None:
    """In-place partial update: only the final two layers change."""
    state = model.state_dict()
    for key in list(state)[-2:]:
        state[key] = state[key] + level
    model.load_state_dict(state)


def build_pua_chain(service, scale: float, snapshots: int) -> str:
    arch = arch_ref("mobilenetv2", scale)
    model = create_model("mobilenetv2", num_classes=NUM_CLASSES, scale=scale, seed=3)
    tip = service.save_model(ModelSaveInfo(model, arch))
    for level in range(1, snapshots):
        perturb_classifier(model, 0.01 * level)
        tip = service.save_model(ModelSaveInfo(model, arch, base_model_id=tip))
    return tip


def cluster_stores(workdir: Path, shards: int, args) -> SharedStores:
    return SharedStores.cluster_at(
        workdir,
        shards=shards,
        replicas=1 if shards == 1 else 2,
        network=CELLULAR_LTE,
        workers=args.workers,
        pipeline_depth=args.pipeline_depth,
        chunk_cache_bytes=args.chunk_cache_mb * 1024 * 1024,
    )


def measure_recover(service, stores: SharedStores, tip: str) -> dict:
    """Tip recovery with cold caches; returns the cluster link accounting."""
    files = stores.files
    if files.chunk_cache is not None:
        files.chunk_cache.clear()
    files.reset_accounting()
    recovered = service.recover_model(tip, verify=False)
    accounting = files.cluster_accounting()
    elapsed = accounting["simulated_seconds"]
    received = accounting["bytes_received"]
    return {
        "state": recovered.model.state_dict(),
        "simulated_seconds": round(elapsed, 6),
        "bytes_received": received,
        "throughput_mb_s": round(received / elapsed / 1e6, 3) if elapsed else None,
    }


def bench_scaling(workdir: Path, args) -> dict:
    results: dict = {}
    for shards in args.shards:
        stores = cluster_stores(workdir / f"shards-{shards}", shards, args)
        service = make_service("param_update", stores)
        tip = build_pua_chain(service, args.scale, args.snapshots)
        outcome = measure_recover(service, stores, tip)
        outcome.pop("state")
        results[str(shards)] = outcome
        print(
            f"  {shards} shard(s): {outcome['bytes_received']:,} bytes in "
            f"{outcome['simulated_seconds']:.3f}s link time -> "
            f"{outcome['throughput_mb_s']} MB/s"
        )
    return results


def bench_replica_down(workdir: Path, args) -> dict:
    """Healthy vs one-member-down recovery must agree bitwise."""
    stores = cluster_stores(workdir / "replica-down", 4, args)
    service = make_service("param_update", stores)
    tip = build_pua_chain(service, args.scale, args.snapshots)

    healthy = measure_recover(service, stores, tip)
    victim_name = sorted(stores.files.members)[0]
    stores.files.members[victim_name].faults = FaultInjector(seed=11, error_rate=1.0)
    degraded = measure_recover(service, stores, tip)

    healthy_state = healthy.pop("state")
    degraded_state = degraded.pop("state")
    identical = set(healthy_state) == set(degraded_state) and all(
        np.array_equal(healthy_state[key], degraded_state[key])
        for key in healthy_state
    )
    failovers = stores.files.cluster_stats["failover_reads"]
    print(
        f"  one member down: {failovers} failover reads, "
        f"bitwise identical: {identical}"
    )
    return {
        "victim": victim_name,
        "healthy": healthy,
        "degraded": degraded,
        "failover_reads": failovers,
        "read_repairs": stores.files.cluster_stats["read_repairs"],
        "bitwise_identical": bool(identical),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshots", type=int, default=5,
                        help="PUA chain length per cluster size")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="model width scale (1.0 = paper architectures)")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                        help="cluster sizes to measure (1 = unreplicated baseline)")
    parser.add_argument("--workers", type=int, default=8,
                        help="concurrent chunk transfers per batch")
    parser.add_argument("--pipeline-depth", type=int, default=8,
                        help="in-flight requests per latency window")
    parser.add_argument("--chunk-cache-mb", type=int, default=128,
                        help="hot-chunk cache budget on the sharded store")
    parser.add_argument("--no-check", action="store_true",
                        help="record results without enforcing acceptance bars")
    args = parser.parse_args()
    if 1 not in args.shards or 4 not in args.shards:
        args.shards = sorted(set(args.shards) | {1, 4})

    results: dict = {
        "generated_by": "scripts/bench_cluster.py",
        "config": {
            "snapshots": args.snapshots,
            "scale": args.scale,
            "shards": args.shards,
            "replicas": "1 for the 1-shard baseline, 2 otherwise",
            "link": "cellular LTE per member",
        },
    }

    workdir = Path(tempfile.mkdtemp(prefix="bench-cluster-"))
    try:
        print("== PUA recover throughput vs shard count ==")
        results["scaling"] = bench_scaling(workdir, args)
        print("== replica-down recovery ==")
        results["replica_down"] = bench_replica_down(workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    base = results["scaling"]["1"]["throughput_mb_s"]
    four = results["scaling"]["4"]["throughput_mb_s"]
    scaling = round(four / base, 3) if base and four else None
    results["acceptance"] = {
        "throughput_scaling_4x_over_1x": scaling,
        "meets_2x": bool(scaling and scaling >= 2.0),
        "replica_down_bitwise_identical": results["replica_down"]["bitwise_identical"],
    }
    print(f"4-shard over 1-shard recover throughput: x{scaling}")

    from _bench_results import write_results

    write_results("BENCH_cluster.json", results)

    failed = []
    if not args.no_check:
        if not results["acceptance"]["meets_2x"]:
            failed.append(
                f"4-shard recover throughput is only x{scaling} the "
                "1-shard baseline (bar: 2x)"
            )
        if not results["acceptance"]["replica_down_bitwise_identical"]:
            failed.append("replica-down recovery was not bitwise identical")
    for message in failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
