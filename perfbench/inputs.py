"""Seeded inputs: update kinds, perturbations, Zipf picks and arrival times.

Everything a workload feeds the program derives from the ``--seed``
argument through these functions, so the same seed gives the same op
sequence.  The program only ever sees the generated states and ids.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "HELD_OUT_SEED",
    "update_kinds",
    "perturb",
    "steady_ops",
    "steady_ops_needed",
    "overload_schedule",
    "stratified_gaps",
    "state_digest",
]

#: Seed kept out of tuning; verify later claims on it as well.
HELD_OUT_SEED = 9173

FULL_EVERY = 4  # one update in four touches every layer


def update_kinds(rng: np.random.Generator, n: int) -> list[str]:
    """Exactly one ``"full"`` update in each block of four, at a seeded
    position; the rest ``"partial"`` (classifier only).  Stratifying keeps
    the written bytes of a run independent of the seed."""
    kinds = []
    while len(kinds) < n:
        block = ["partial"] * FULL_EVERY
        block[int(rng.integers(FULL_EVERY))] = "full"
        kinds.extend(block)
    return kinds[:n]


def perturb(state: dict, kind: str, rng: np.random.Generator, classifier_prefix: str) -> dict:
    """A fine-tuning step: nudge the classifier, or every float tensor."""
    out = dict(state)
    for name, array in state.items():
        if array.dtype.kind != "f":
            continue
        if kind == "full" or name.startswith(classifier_prefix):
            noise = rng.random(array.shape, dtype=np.float32) - np.float32(0.5)
            out[name] = array + (noise * np.float32(1e-3)).astype(array.dtype)
    return out


def stratified_gaps(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """``n`` Poisson inter-arrival gaps, stratified.

    The gaps are the exponential distribution's quantiles at the midpoints
    of ``n`` equal strata, in a seeded order: arrivals stay exponential
    and the seed decides how they cluster, but every run of a phase has
    the same mean rate and the same mix of short and long gaps.
    """
    quantiles = -np.log1p(-(np.arange(n) + 0.5) / n) / rate
    return rng.permutation(quantiles)


SERVE_MIX = (("save", 3), ("recover", 6), ("find", 1))


def _serve_op(rng, kind, tenant, at=None) -> dict:
    return {
        "at": at,
        "tenant": tenant,
        "kind": str(kind),
        "update": "full" if rng.random() < 1.0 / FULL_EVERY else "partial",
        "noise_seed": int(rng.integers(2**31)),
        "rank": int(rng.zipf(1.5)) - 1,
    }


def _kinds(rng: np.random.Generator):
    """Op kinds in shuffled blocks of 10 holding 3 saves, 6 recovers, 1 find."""
    block = [kind for kind, count in SERVE_MIX for _ in range(count)]
    while True:
        yield from rng.permutation(block)


def steady_ops(rng: np.random.Generator, tenants: list[str], think_s: float):
    """The endless op sequence the closed-loop client sends, tenants mixed.

    Each op carries the client's think time before it is sent
    (exponential, mean ``think_s``).
    """
    for kind in _kinds(rng):
        op = _serve_op(rng, kind, tenants[int(rng.integers(len(tenants)))])
        op["think"] = float(rng.exponential(think_s))
        yield op


def steady_ops_needed(min_per_kind: int) -> int:
    """Ops so the steady phase holds ``min_per_kind`` saves and recovers."""
    per_block = min(count for kind, count in SERVE_MIX if kind in ("save", "recover"))
    return -(-min_per_kind // per_block) * sum(count for _, count in SERVE_MIX)


def overload_schedule(rng: np.random.Generator, tenants: list[str], qps: float,
                      seconds: float) -> list[dict]:
    """Poisson arrivals at ``qps`` for ``seconds``; ``at`` is the offset in seconds."""
    n = int(round(qps * seconds))
    kinds = _kinds(rng)
    ops, t = [], 0.0
    for gap in stratified_gaps(rng, n, qps):
        t += float(gap)
        ops.append(_serve_op(rng, next(kinds), tenants[int(rng.integers(len(tenants)))], at=t))
    return ops


def state_digest(state: dict) -> str:
    """Bitwise digest of a state dict: names, dtypes, shapes and bytes."""
    digest = hashlib.sha1()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(f"{name}|{array.dtype.str}|{array.shape}".encode())
        digest.update(memoryview(array).cast("B") if array.nbytes else b"")
    return digest.hexdigest()
