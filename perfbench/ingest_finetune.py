"""ingest_finetune: a closed-loop PUA fine-tuning chain into a growing catalog.

One client, one save at a time, against the library's public API with the
deployment defaults: an on-disk JSON-lines catalog, the segments chunk
layout with group fsync (one flush per save), no chunk cache, and the
``param_update`` approach.  After the saves, every acked version is
recovered in chain order (verify=True, one shared RecoveryCache) and
compared bitwise; those recovers are timed as the workload's recover
metrics.
"""

from __future__ import annotations

import shutil
import sys
import time

import numpy as np

from common import (
    GOODPUT_LIMIT_S,
    MIN_SAMPLES,
    SETUP_REPEATS,
    BenchFailure,
    counter_delta,
    end_to_end,
    layer_metrics,
    median,
    peak_rss_mb,
    registry_counters,
    tree_bytes,
)
from inputs import perturb, state_digest, update_kinds

ARCH = ("repro.nn.models.resnet", "resnet152", {"num_classes": 10, "scale": 0.25})
CLASSIFIER = "fc."
MAX_SAVES = 4096  # length of the pre-drawn update-kind sequence


def _open_service(path):
    from repro.core import ParameterUpdateSaveService
    from repro.docstore import DocumentStore
    from repro.filestore import FileStore

    if path.exists():
        shutil.rmtree(path)
    return ParameterUpdateSaveService(DocumentStore(path / "docs"), FileStore(path / "files"))


def _warm_up(workdir):
    """Imports, first environment enumeration, first model build, first save."""
    from repro.core.environment import collect_environment
    from repro.core.save_info import ArchitectureRef, ModelSaveInfo

    collect_environment()
    arch = ArchitectureRef.from_factory(*ARCH)
    model = arch.build()
    service = _open_service(workdir / "warmup")
    service.save_model(ModelSaveInfo(model, arch))
    shutil.rmtree(workdir / "warmup")
    return arch, model


def _save(service, model, arch, state, base, save_ms, recorder=None, rid=None):
    from repro.core.save_info import ModelSaveInfo

    model.load_state_dict(state)
    info = ModelSaveInfo(model, arch, base_model_id=base)
    if recorder is not None:
        recorder.set_rid(rid)
    started = time.perf_counter()
    model_id = service.save_model(info)
    save_ms.append((time.perf_counter() - started) * 1e3)
    return model_id


def _check_all(service, versions, recover_ms, recorder=None):
    """Recover every acked version (verify=True) and compare it bitwise."""
    from repro.core.cache import RecoveryCache

    cache = RecoveryCache(max_entries=2)
    for model_id, digest in versions:
        if recorder is not None:
            recorder.set_rid(f"recover-{len(recover_ms)}")
        started = time.perf_counter()
        info = service.recover_model(model_id, verify=True, cache=cache)
        recover_ms.append((time.perf_counter() - started) * 1e3)
        if info.verified is not True:
            raise BenchFailure(f"{model_id}: recovered without verification")
        if state_digest(info.model.state_dict()) != digest:
            raise BenchFailure(f"{model_id}: recovered state differs from the saved one")


def _fsck(service):
    from repro.core import ModelManager

    report = ModelManager(service).fsck(repair=False)
    if not report.clean:
        raise BenchFailure(f"fsck found issues: {report.summary()}")


def _log(message: str) -> None:
    print(f"ingest_finetune: {message}", file=sys.stderr, flush=True)


def _traced(trace):
    if not trace:
        return None, None
    from hooks import install
    from ledger import Recorder

    recorder = Recorder()
    return recorder, install(recorder)


def ingest_finetune(seed: int, seconds: float, trace: bool, workdir) -> dict:
    started = time.perf_counter()
    arch, model = _warm_up(workdir)
    one_time = time.perf_counter() - started
    rng = np.random.default_rng(seed)
    base_state = model.state_dict()
    logical = sum(a.nbytes for a in base_state.values())

    # set-up: an empty catalog plus the chain's root snapshot, repeated
    setups = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        service = _open_service(workdir / "store")
        state = perturb(base_state, "full", np.random.default_rng([seed, repeat]), CLASSIFIER)
        root = _save(service, model, arch, state, None, [])
        setups.append(time.perf_counter() - started)
    versions = [(root, state_digest(state))]

    kinds = update_kinds(rng, MAX_SAVES)
    recorder, hooks = _traced(trace)
    before = registry_counters()
    save_ms: list[float] = []
    window_start = time.perf_counter()
    while time.perf_counter() - window_start < seconds or len(save_ms) < MIN_SAMPLES:
        state = perturb(state, kinds[len(save_ms)], rng, CLASSIFIER)
        model_id = _save(service, model, arch, state, versions[-1][0], save_ms,
                         recorder, len(save_ms))
        versions.append((model_id, state_digest(state)))
    window = time.perf_counter() - window_start
    _log(f"window: {len(save_ms)} saves in {window:.2f}s")
    counters = counter_delta(before, registry_counters())

    recover_ms: list[float] = []
    try:
        _check_all(service, versions, recover_ms, recorder)
    finally:
        if hooks is not None:
            hooks.remove()
    _log(f"sweep: {len(recover_ms)} recovers in {sum(recover_ms) / 1e3:.2f}s")
    started = time.perf_counter()
    _fsck(service)
    _log(f"fsck: {time.perf_counter() - started:.2f}s")
    stored = tree_bytes(workdir / "store")
    result = {"attempted": len(save_ms), "failed": 0}
    if trace:
        result["metrics"] = layer_metrics(
            recorder.spans, counters, len(save_ms), len(recover_ms), window_s=window,
            sent=len(save_ms))
    else:
        result["metrics"] = end_to_end(
            setup_s=one_time + median(setups),
            save_ms=save_ms,
            recover_ms=recover_ms,
            ops_per_s=len(save_ms) / window,
            goodput_qps=sum(1 for v in save_ms if v <= GOODPUT_LIMIT_S * 1e3) / window,
            ok_share=1.0,
            stored_per_logical=stored / (logical * len(versions)),
            rss_mb=peak_rss_mb(),
        )
    return result
