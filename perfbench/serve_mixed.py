"""serve_mixed: mixed traffic through ``mmlib serve``, steady then overload.

The server runs in its own process (serve_launcher.py, default flags, two
tenants).  This process is the generator: one asyncio loop, one connection
per tenant, no extra threads.  The steady phase is one closed-loop client
sending each tenant's requests in a seeded order, one at a time, with an
idle compaction sweep after every round of ops; the overload phase sends
Poisson arrivals far above capacity and times every request from the
moment it was due to be sent, so a stall also charges the requests queued
behind it.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR,
    GOODPUT_LIMIT_S,
    MIN_SAMPLES,
    PINNED_ENV,
    RECOVER_ROOT,
    SAVE_ROOT,
    SETUP_REPEATS,
    BenchFailure,
    counter_delta,
    end_to_end,
    layer_metrics,
    median,
    tree_bytes,
)
from inputs import overload_schedule, perturb, state_digest, steady_ops, steady_ops_needed

TENANTS = ["acme", "globex"]
FACTORY = ("repro.workloads.serving", "serving_mlp")
CLASSIFIER = "2."      # serving_mlp's output Linear
# steady-phase ops: 150 saves and 300 recovers, half again the 100 samples
# a p90 needs, to narrow the run-to-run spread of the p90s
STEADY_OPS = steady_ops_needed(3 * MIN_SAMPLES // 2)
ROUND_OPS = 50         # steady-phase ops between two compaction sweeps
THINK_S = 0.005        # mean think time of the steady-phase client
# above the seed build's capacity (20-25 req/s on 2 cores) and above the
# 84 req/s seen with memoised environment capture
OVERLOAD_QPS = 100.0
OVERLOAD_S = 15.0
SEED_CHAIN = 4         # versions per tenant saved during set-up
REQUEST_DEADLINE_S = 30.0
SHED_KINDS = ("overloaded", "quota")


class Server:
    """One launcher process serving a deployment under ``root``."""

    def __init__(self, root: Path, trace: bool):
        self.root = root
        root.mkdir(parents=True)
        env = dict(os.environ, **PINNED_ENV)
        self.stderr = open(root / "server.err", "w")
        cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
               "--docs", str(root / "docs"), "--files", str(root / "files"),
               "--out", str(root)] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr,
                                     env=env, text=True)
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.stop()
            raise BenchFailure(f"server did not start: {line!r}, see {root}/server.err")
        self.port = int(line.split("serving on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
        self._answers = Counter()

    def _ask(self, sig, name: str) -> dict:
        """Signal the launcher; wait for the line it appends to ``name``."""
        self.proc.send_signal(sig)
        self._answers[name] += 1
        path = self.root / name
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if path.exists():
                lines = path.read_text().splitlines()
                if len(lines) >= self._answers[name] and lines[-1].endswith("}"):
                    return json.loads(lines[self._answers[name] - 1])
            time.sleep(0.005)
        raise BenchFailure(f"server did not answer in {name}")

    def snapshot(self) -> dict:
        """Registry counters of the server process, read now."""
        return self._ask(signal.SIGUSR1, "snapshots.jsonl")["counters"]

    def compact(self) -> int:
        """One idle compaction sweep; call only with no request outstanding."""
        return self._ask(signal.SIGUSR2, "compactions.jsonl")["models"]

    def stop(self) -> dict:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        exit_file = self.root / "exit.json"
        return json.loads(exit_file.read_text()) if exit_file.exists() else {}


def _encode(state) -> str:
    from repro.nn import serialization

    return base64.b64encode(serialization.dumps(state)).decode("ascii")


def _decode(payload: str) -> dict:
    from repro.nn import serialization

    return serialization.loads(base64.b64decode(payload))


async def _save(client, state, base, rid) -> str:
    response = await client.request(
        "save", deadline_s=REQUEST_DEADLINE_S, bench_rid=rid,
        factory_module=FACTORY[0], factory_name=FACTORY[1], factory_kwargs={},
        state_b64=_encode(state), **({"base": base} if base else {}))
    return response["model_id"]


async def _recover(client, model_id, digest, rid) -> None:
    response = await client.request(
        "recover", deadline_s=REQUEST_DEADLINE_S, bench_rid=rid,
        model_id=model_id, verify=True)
    if response.get("verified") is not True:
        raise BenchFailure(f"{model_id}: recovered without verification")
    if state_digest(_decode(response["state_b64"])) != digest:
        raise BenchFailure(f"{model_id}: recovered state differs from the saved one")


async def _seed_tenants(port, rng) -> dict:
    """Set-up: one PUA chain per tenant, then one recover each (warm-up)."""
    from repro.gateway import AsyncGatewayClient
    from repro.workloads.serving import serving_mlp

    acked = {}
    for tenant in TENANTS:
        async with AsyncGatewayClient("127.0.0.1", port, tenant) as client:
            state = perturb(serving_mlp().state_dict(), "full", rng, CLASSIFIER)
            versions, base = [], None
            for _ in range(SEED_CHAIN):
                base = await _save(client, state, base, None)
                versions.append((base, state, state_digest(state)))
                state = perturb(state, "partial", rng, CLASSIFIER)
            await _recover(client, versions[-1][0], versions[-1][2], None)
            acked[tenant] = versions
    return acked


async def _drive(server, seed, min_steady_s, overload, acked) -> tuple[list[dict], float]:
    """Run both phases; return one record per request and the steady seconds.

    Steady: one closed-loop client sending the seeded op sequence one
    request at a time, in rounds of ``ROUND_OPS`` with a compaction sweep
    between rounds (not timed).  Overload: every scheduled op is sent when
    it is due, whether or not earlier ones have been answered.
    """
    from repro.gateway import AsyncGatewayClient, GatewayRetryableError
    from repro.gateway.client import GatewayRequestError

    clients = {t: await AsyncGatewayClient("127.0.0.1", server.port, t).connect()
               for t in TENANTS}
    records: list[dict] = []
    violations: list[str] = []

    async def one(op, phase, due):
        rid = len(records)
        client, pool = clients[op["tenant"]], acked[op["tenant"]]
        record = {"rid": rid, "phase": phase, "kind": op["kind"], "due": due,
                  "sent": time.perf_counter(), "outcome": "ok"}
        records.append(record)
        try:
            if op["kind"] == "save":
                base_id, base_state, _ = pool[-1]
                state = perturb(base_state, op["update"],
                                np.random.default_rng(op["noise_seed"]), CLASSIFIER)
                model_id = await _save(client, state, base_id, rid)
                pool.append((model_id, state, state_digest(state)))
            elif op["kind"] == "recover":
                model_id, _, digest = pool[-1 - op["rank"] % len(pool)]
                await _recover(client, model_id, digest, rid)
            else:
                expected = {m for m, _, _ in pool}
                response = await client.request("find", deadline_s=REQUEST_DEADLINE_S,
                                                bench_rid=rid)
                missing = expected - {m["model_id"] for m in response["models"]}
                if missing:
                    raise BenchFailure(f"find lost acked models {sorted(missing)[:3]}")
        except BenchFailure as exc:
            violations.append(str(exc))
            record["outcome"] = "violation"
        except GatewayRetryableError as exc:
            record["outcome"] = "shed" if exc.kind in SHED_KINDS else f"failed:{exc.kind}"
            if exc.kind not in SHED_KINDS:
                _log(f"{op['kind']} failed: {exc}")
        except GatewayRequestError as exc:
            record["outcome"] = f"failed:{exc.kind}"
            _log(f"{op['kind']} failed: {exc}")
        record["done"] = time.perf_counter()

    try:
        ops = steady_ops(np.random.default_rng([seed, 0]), TENANTS, THINK_S)
        steady_s, compacted = 0.0, 0
        for rounds in itertools.count(1):
            started = time.perf_counter()
            for _ in range(ROUND_OPS):
                op = next(ops)
                await asyncio.sleep(op["think"])
                await one(op, "steady", time.perf_counter())
            steady_s += time.perf_counter() - started
            compacted += server.compact()
            if rounds * ROUND_OPS >= STEADY_OPS and steady_s >= min_steady_s:
                break
        _log(f"steady: {rounds * ROUND_OPS} requests in {steady_s:.2f}s, "
             f"{compacted} chains compacted")
        tasks = []
        started = time.perf_counter()
        for op in overload:
            due = started + op["at"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(op, "overload", due)))
        await asyncio.gather(*tasks)
    finally:
        for client in clients.values():
            await client.close()
    if violations:
        raise BenchFailure(violations[0])
    return records, steady_s


def _check_deployment(root: Path, acked: dict) -> None:
    """Recover every acked save from the stopped deployment; fsck it."""
    from repro.distsim.environment import SharedStores
    from repro.docstore import DocumentStore
    from repro.filestore import FileStore
    from repro.gateway import TenantRegistry

    scratch = root / "scratch"
    scratch.mkdir(exist_ok=True)
    stores = SharedStores(documents=DocumentStore(root / "docs"),
                          files=FileStore(root / "files"), scratch_dir=scratch)
    registry = TenantRegistry(stores, TENANTS)
    for tenant_name, versions in acked.items():
        tenant = registry.tenant(tenant_name)
        for model_id, _, digest in versions:
            info = tenant.service.recover_model(tenant.resolve(model_id), verify=True)
            if info.verified is not True or state_digest(info.model.state_dict()) != digest:
                raise BenchFailure(f"{model_id}: acked save does not recover bitwise")
    report = registry.admin_manager().fsck(repair=False)
    if not report.clean:
        raise BenchFailure(f"fsck found issues: {report.summary()}")


def serve_mixed(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    started = time.perf_counter()
    import repro.gateway  # noqa: F401  (generator-side imports count as set-up)

    one_time = time.perf_counter() - started
    rng = np.random.default_rng(seed)
    setups = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            root = workdir / f"deploy{repeat}"
            started = time.perf_counter()
            server = Server(root, trace=trace and repeat == SETUP_REPEATS - 1)
            acked = asyncio.run(_seed_tenants(server.port, np.random.default_rng([seed, repeat])))
            setups.append(time.perf_counter() - started)
            _log(f"set-up {repeat}: {setups[-1]:.2f}s")
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                shutil.rmtree(root)
                server = None

        overload = overload_schedule(rng, TENANTS, OVERLOAD_QPS, OVERLOAD_S)
        before = server.snapshot()
        window_start = time.perf_counter()
        records, steady_s = asyncio.run(_drive(server, seed, max(0.0, seconds - OVERLOAD_S),
                                               overload, acked))
        window = time.perf_counter() - window_start
        _log(f"window: {len(records)} requests in {window:.2f}s")
        counters = counter_delta(before, server.snapshot())
        exit_info = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
    started = time.perf_counter()
    _check_deployment(root, acked)
    _log(f"checks: {time.perf_counter() - started:.2f}s")

    steady = [r for r in records if r["phase"] == "steady"]

    def latencies(kind):
        return [(r["done"] - r["due"]) * 1e3 for r in steady
                if r["kind"] == kind and r["outcome"] == "ok"]

    # responses completed inside the overload phase, timed from when they were due
    overload_start = min(r["due"] for r in records if r["phase"] == "overload")
    overload_ok = [r for r in records if r["outcome"] == "ok"
                   and overload_start <= r["done"] < overload_start + OVERLOAD_S]
    outcomes = Counter(r["outcome"] for r in records)
    _log(f"outcomes: {dict(outcomes)}")
    ok, shed = outcomes["ok"], outcomes["shed"]
    result = {"attempted": len(records), "failed": len(records) - ok - shed}
    if trace:
        from ledger import load_spans

        spans = load_spans((root / "spans.jsonl").read_text().splitlines())
        spans = [s for s in spans if s.start >= window_start]
        service_s = {s.rid: s.duration for s in spans if s.name == "gateway.execute"}
        waits = [(r["done"] - r["sent"] - service_s[r["rid"]]) * 1e3
                 for r in records if r["outcome"] == "ok" and r["rid"] in service_s]
        served = {s.id for s in spans if s.name == "gateway.execute"}
        result["metrics"] = layer_metrics(
            spans, counters,
            saves=sum(1 for s in spans if s.name == SAVE_ROOT and s.parent in served),
            recovers=sum(1 for s in spans if s.name == RECOVER_ROOT and s.parent in served),
            op_roots=("gateway.execute",), window_s=window, sent=len(records),
            late_ms=[(r["sent"] - r["due"]) * 1e3 for r in records
                     if r["phase"] == "overload"],
            gateway_wait_ms=waits, shed=shed, attempted=len(records))
    else:
        result["metrics"] = end_to_end(
            setup_s=one_time + median(setups),
            save_ms=latencies("save"),
            recover_ms=latencies("recover"),
            ops_per_s=sum(1 for r in steady if r["outcome"] == "ok") / steady_s,
            goodput_qps=sum(1 for r in overload_ok
                            if r["done"] - r["due"] <= GOODPUT_LIMIT_S) / OVERLOAD_S,
            ok_share=ok / len(records),
            stored_per_logical=tree_bytes(root / "docs", root / "files") / _logical(acked),
            rss_mb=exit_info.get("peak_rss_mb", 0.0),
        )
    return result


def _log(message: str) -> None:
    print(f"serve_mixed: {message}", file=sys.stderr, flush=True)


def _logical(acked) -> int:
    return sum(sum(a.nbytes for a in state.values())
               for versions in acked.values() for _, state, _ in versions)
