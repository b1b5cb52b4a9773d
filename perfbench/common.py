"""Shared plumbing: pinned environment, timing windows and metric assembly."""

from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

from ledger import percentile, percentile_or_zero, self_times, unattributed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Deployment defaults, pinned so a caller's environment cannot change them.
PINNED_ENV = {
    "REPRO_CHUNK_LAYOUT": "segments",
    "REPRO_CHUNK_CODEC": "none",
    "REPRO_CDC": "off",
    "REPRO_OBS": "on",
}

#: Goodput counts ok responses completed within this latency (seconds).
GOODPUT_LIMIT_S = 10.0

#: Each op type reporting a p90 needs this many samples per run.
MIN_SAMPLES = 100

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3

#: Registry counters read around the timed window.
COUNTERS = {
    "fsync_batches": "mmlib_segment_fsync_batches_total",
    "segment_appends": "mmlib_segment_appends_total",
    "logical": "mmlib_chunks_logical_bytes_total",
    "dedup": "mmlib_chunks_dedup_bytes_total",
    "stored": "mmlib_chunks_stored_bytes_total",
    "cache_hits": "mmlib_chunk_cache_hits_total",
    "cache_misses": "mmlib_chunk_cache_misses_total",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "save_ms_p50": "ms",
    "save_ms_p90": "ms",
    "recover_ms_p50": "ms",
    "recover_ms_p90": "ms",
    "ops_per_s": "1/s",
    "goodput_qps": "1/s",
    "ok_share": "ratio",
    "stored_bytes_per_logical_byte": "ratio",
    "peak_rss_mb": "MB",
}


class BenchFailure(Exception):
    """A correctness check failed; the run must exit non-zero."""


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise BenchFailure(f"program sources not found under {src}")
    sys.path.insert(0, str(src))


def registry_counters() -> dict[str, float]:
    from repro import obs

    reg = obs.registry()
    return {key: reg.value(name) for key, name in COUNTERS.items()}


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in COUNTERS}


def tree_bytes(*roots) -> int:
    total = 0
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for name in files:
                try:
                    total += os.stat(os.path.join(dirpath, name)).st_size
                except FileNotFoundError:
                    pass
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def end_to_end(
    setup_s: float,
    save_ms: list[float],
    recover_ms: list[float],
    ops_per_s: float,
    goodput_qps: float,
    ok_share: float,
    stored_per_logical: float,
    rss_mb: float,
) -> dict:
    values = {
        "setup_s": setup_s,
        "save_ms_p50": percentile(save_ms, 0.5),
        "save_ms_p90": percentile(save_ms, 0.9),
        "recover_ms_p50": percentile(recover_ms, 0.5),
        "recover_ms_p90": percentile(recover_ms, 0.9),
        "ops_per_s": ops_per_s,
        "goodput_qps": goodput_qps,
        "ok_share": ok_share,
        "stored_bytes_per_logical_byte": stored_per_logical,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS}


# -- per-layer ------------------------------------------------------------------

PER_LAYER_UNITS = {
    "core.environment.calls_per_save": "count",
    "core.environment.ms_per_save": "ms",
    "core.environment.docs_per_save": "count",
    "core.environment.share_of_save": "ratio",
    "core.hashing.ms_per_save": "ms",
    "core.hashing.mb_per_s": "MB/s",
    "core.merkle.ms_per_op": "ms",
    "core.merkle.comparisons_per_save": "count",
    "core.save_info.build_ms_per_recover": "ms",
    "core.abstract.save_self_ms": "ms",
    "core.abstract.recover_self_ms": "ms",
    "core.abstract.ttr_load_ms": "ms",
    "core.abstract.ttr_recover_ms": "ms",
    "core.abstract.ttr_check_hash_ms": "ms",
    "core.abstract.recover_depth_mean": "count",
    "filestore.save_chunks_ms_per_save": "ms",
    "filestore.recover_chunks_ms_per_recover": "ms",
    "filestore.blob_ms_per_op": "ms",
    "filestore.fsync_batches_per_save": "count",
    "filestore.segment_appends_per_save": "count",
    "filestore.dedup_ratio": "ratio",
    "filestore.stored_per_logical": "ratio",
    "filestore.chunk_cache_hit_ratio": "ratio",
    "os.fsync_per_save": "count",
    "os.fsync_calls": "count",
    "docstore.insert_ms_p50": "ms",
    "docstore.insert_ms_p90": "ms",
    "docstore.insert_ms_p50_first_tenth": "ms",
    "docstore.insert_ms_p50_last_tenth": "ms",
    "docstore.inserts": "count",
    "docstore.bytes_rewritten_per_insert": "bytes",
    "docstore.get_ms_p50": "ms",
    "docstore.gets_per_recover": "count",
    "docstore.find_ms_p50": "ms",
    "gateway.service_ms_p50": "ms",
    "gateway.wait_ms_p50": "ms",
    "gateway.wait_ms_p90": "ms",
    "gateway.shed_share": "ratio",
    "core.compaction.runs": "count",
    "core.compaction.ms_total": "ms",
    "loadgen.late_ms_p90": "ms",
    "loadgen.sent_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "ratio",
}

SAVE_ROOT = "core.abstract.save_model"
RECOVER_ROOT = "core.abstract.recover_model"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one wrapped call over a plain one (seconds)."""
    from ledger import Recorder
    from hooks import _wrap

    def plain(x):
        return x

    wrapped = _wrap(Recorder(), "calibrate.noop", plain)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for i in range(samples):
            plain(i)
        base = time.perf_counter() - started
        started = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        best = min(best, (time.perf_counter() - started - base) / samples)
    return max(best, 0.0)


def layer_metrics(spans, counters: dict, saves: int, recovers: int, *,
                  op_roots=(SAVE_ROOT, RECOVER_ROOT), window_s: float,
                  sent: int, late_ms=(), gateway_wait_ms=(), shed: int = 0,
                  attempted: int = 0) -> dict:
    """Every per-layer metric from the traced spans and registry deltas."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def op_of(span):
        """Nearest enclosing save/recover boundary: 'save', 'recover' or None."""
        current = span
        while current is not None:
            if current.name == SAVE_ROOT:
                return "save"
            if current.name == RECOVER_ROOT:
                return "recover"
            current = by_id.get(current.parent)
        return None

    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def each(name):
        return named.get(name, [])

    def total_ms(items, self_time=False):
        return sum((selfs[s.id] if self_time else s.duration) for s in items) * 1e3

    per_save = max(saves, 1)
    per_recover = max(recovers, 1)
    env = each("core.environment.collect")
    hashing = each("core.hashing.state_dict_hashes")
    merkle = [s for n in ("core.merkle.from_layer_hashes", "core.merkle.from_state_dict",
                          "core.merkle.diff") for s in each(n)]
    save_spans = each(SAVE_ROOT)
    recover_spans = each(RECOVER_ROOT)
    inserts = sorted(each("docstore.insert_one"), key=lambda s: s.start)
    insert_ms = [s.duration * 1e3 for s in inserts]
    tenth = max(1, len(inserts) // 10)
    blobs = each("filestore.save_bytes") + each("filestore.recover_bytes")
    gets = each("docstore.get") + each("docstore.get_many")
    execs = each("gateway.execute")
    compactions = each("core.compaction.run")
    fsyncs = each("os.fsync")
    hashed_s = sum(s.duration for s in hashing)
    written = counters["logical"] - counters["dedup"]
    cache_lookups = counters["cache_hits"] + counters["cache_misses"]
    residual_s, root_s = unattributed(spans, op_roots)
    overhead = span_cost_s() * len(spans)

    def timing(key):
        values = [s.attrs.get("timings", {}).get(key, 0.0) for s in recover_spans]
        return sum(values) * 1e3 / per_recover

    values = {
        "core.environment.calls_per_save": len(env) / per_save,
        "core.environment.ms_per_save": total_ms(env) / per_save,
        "core.environment.docs_per_save": sum(
            1 for s in inserts if s.attrs.get("collection", "").endswith("environments")
        ) / per_save,
        "core.environment.share_of_save": _ratio(
            total_ms([s for s in env if op_of(s) == "save"]), total_ms(save_spans)),
        "core.hashing.ms_per_save": total_ms(
            [s for s in hashing if op_of(s) == "save"], self_time=True) / per_save,
        "core.hashing.mb_per_s": _ratio(sum(s.attrs.get("bytes", 0) for s in hashing) / 1e6,
                                        hashed_s),
        "core.merkle.ms_per_op": _ratio(total_ms(merkle, self_time=True), len(merkle)),
        "core.merkle.comparisons_per_save": sum(
            s.attrs.get("comparisons", 0) for s in each("core.merkle.diff")) / per_save,
        "core.save_info.build_ms_per_recover": total_ms(
            [s for s in each("core.save_info.build") if op_of(s) == "recover"]) / per_recover,
        "core.abstract.save_self_ms": _ratio(total_ms(save_spans, self_time=True),
                                             len(save_spans)),
        "core.abstract.recover_self_ms": _ratio(total_ms(recover_spans, self_time=True),
                                                len(recover_spans)),
        "core.abstract.ttr_load_ms": timing("load"),
        "core.abstract.ttr_recover_ms": timing("recover"),
        "core.abstract.ttr_check_hash_ms": timing("check_hash"),
        "core.abstract.recover_depth_mean": _ratio(
            sum(s.attrs.get("depth", 0) for s in recover_spans), len(recover_spans)),
        "filestore.save_chunks_ms_per_save": total_ms(
            each("filestore.save_state_chunks")) / per_save,
        "filestore.recover_chunks_ms_per_recover": total_ms(
            [s for s in each("filestore.recover_state_chunks") if op_of(s) == "recover"]
        ) / per_recover,
        "filestore.blob_ms_per_op": _ratio(total_ms(blobs), len(blobs)),
        "filestore.fsync_batches_per_save": counters["fsync_batches"] / per_save,
        "filestore.segment_appends_per_save": counters["segment_appends"] / per_save,
        "filestore.dedup_ratio": _ratio(counters["logical"], written),
        "filestore.stored_per_logical": _ratio(counters["stored"], counters["logical"]),
        "filestore.chunk_cache_hit_ratio": _ratio(counters["cache_hits"], cache_lookups),
        "os.fsync_per_save": len(fsyncs) / per_save,
        "os.fsync_calls": len(fsyncs),
        "docstore.insert_ms_p50": percentile_or_zero(insert_ms, 0.5),
        "docstore.insert_ms_p90": percentile_or_zero(insert_ms, 0.9),
        "docstore.insert_ms_p50_first_tenth": percentile_or_zero(insert_ms[:tenth], 0.5),
        "docstore.insert_ms_p50_last_tenth": percentile_or_zero(insert_ms[-tenth:], 0.5),
        "docstore.inserts": len(inserts),
        "docstore.bytes_rewritten_per_insert": _ratio(
            sum(s.attrs.get("file_bytes", 0) for s in inserts), len(inserts)),
        "docstore.get_ms_p50": percentile_or_zero([s.duration * 1e3 for s in gets], 0.5),
        "docstore.gets_per_recover": sum(
            1 for s in gets if op_of(s) == "recover") / per_recover,
        "docstore.find_ms_p50": percentile_or_zero(
            [s.duration * 1e3 for s in each("docstore.find")], 0.5),
        "gateway.service_ms_p50": percentile_or_zero([s.duration * 1e3 for s in execs], 0.5),
        "gateway.wait_ms_p50": percentile_or_zero(list(gateway_wait_ms), 0.5),
        "gateway.wait_ms_p90": percentile_or_zero(list(gateway_wait_ms), 0.9),
        "gateway.shed_share": _ratio(shed, attempted),
        "core.compaction.runs": len(compactions),
        "core.compaction.ms_total": total_ms(compactions),
        "loadgen.late_ms_p90": percentile_or_zero(list(late_ms), 0.9),
        "loadgen.sent_per_s": _ratio(sent, window_s),
        "trace.overhead_pct": 100.0 * _ratio(overhead, root_s),
        "trace.unattributed_share": _ratio(residual_s, root_s),
    }
    return {name: {"value": float(values[name]), "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS}

