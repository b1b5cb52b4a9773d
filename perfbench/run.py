"""Repository benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload ingest_finetune --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
measured without instrumentation; ``--trace 1`` runs the same workload with
wrappers around every layer boundary and prints the per-layer metrics.  A
failed correctness check (bitwise mismatch, failed verify, unclean fsck)
exits with status 1 and prints no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback

from common import BENCH_DIR, BenchFailure, pin_environment

WORKLOADS = ("ingest_finetune", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = None
    try:
        pin_environment()
        workdir = BENCH_DIR / ".work"
        workdir.mkdir(exist_ok=True)
        workdir = type(workdir)(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
        # temporary files of this process and the server stay in the checkout
        (workdir / "tmp").mkdir()
        os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
        if args.workload == "serve_mixed":
            from serve_mixed import serve_mixed as run
        else:
            from ingest_finetune import ingest_finetune as run
        result = run(args.seed, args.seconds, bool(args.trace), workdir)
    except BenchFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
