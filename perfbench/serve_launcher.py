"""Runs ``mmlib serve`` (default flags) in its own process for serve_mixed.

    python3 perfbench/serve_launcher.py --docs D --files F --out DIR [--trace]

With ``--trace`` the layer wrappers, the gateway's included, are installed
in this process before the server starts.  SIGUSR1 appends a snapshot of
the registry counters to ``DIR/snapshots.jsonl``; SIGUSR2 runs one idle
compaction sweep and appends the models it compacted to
``DIR/compactions.jsonl``; SIGINT stops the server.  On exit the spans go
to ``DIR/spans.jsonl`` and the peak RSS to ``DIR/exit.json``.

The gateway's idle maintenance runs only on SIGUSR2.  Started from the
idle loop, a sweep runs on the worker pool while new requests are
admitted, and a recover that reads a chain being compacted can fail; the
generator sends SIGUSR2 only with no request outstanding and waits for
the answer, so each run compacts at the same points of its op sequence.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from common import peak_rss_mb, pin_environment, registry_counters

TENANTS = "acme,globex"


def _on_demand_maintenance():
    """Make ``mmlib serve`` build an idle maintenance that runs only when asked.

    Returns a function that runs one sweep now, with the gateway's own
    maintenance object and its depth trigger; the five-second cooldown is
    dropped because the generator decides when sweeps happen.
    """
    import repro.gateway

    built = []

    class OnDemandMaintenance(repro.gateway.IdleMaintenance):
        asked = False

        def __init__(self, registry, max_depth):
            super().__init__(registry, max_depth=max_depth, min_interval_s=0.0)
            built.append(self)

        def due(self) -> bool:
            return self.asked and super().due()

    def sweep() -> int:
        maintenance = built[0]
        maintenance.asked = True
        try:
            return maintenance.maybe_run()
        finally:
            maintenance.asked = False

    repro.gateway.IdleMaintenance = OnDemandMaintenance
    return sweep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--docs", required=True)
    parser.add_argument("--files", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    pin_environment()

    from repro import cli

    recorder = None
    if args.trace:
        from hooks import install
        from ledger import Recorder

        recorder = Recorder()
        install(recorder, gateway=True)

    def snapshot(signum, frame):
        line = {"t": time.perf_counter(), "counters": registry_counters()}
        with open(out / "snapshots.jsonl", "a") as handle:
            handle.write(json.dumps(line) + "\n")

    sweep = _on_demand_maintenance()

    def compact(signum, frame):
        line = {"t": time.perf_counter(), "models": sweep()}
        with open(out / "compactions.jsonl", "a") as handle:
            handle.write(json.dumps(line) + "\n")

    signal.signal(signal.SIGUSR1, snapshot)
    signal.signal(signal.SIGUSR2, compact)
    # a parent started in the background may hand down SIGINT ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        code = cli.main(["--docs", args.docs, "--files", args.files,
                         "serve", "--tenants", TENANTS, "--port", "0"])
    except KeyboardInterrupt:  # interrupted before the serve loop began
        code = 1
    if recorder is not None:
        recorder.write(out / "spans.jsonl")
    (out / "exit.json").write_text(json.dumps({"code": code, "peak_rss_mb": peak_rss_mb()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
