"""The same seed gives the same op sequence and the same inputs."""

import numpy as np

from inputs import (
    overload_schedule,
    perturb,
    state_digest,
    steady_ops,
    steady_ops_needed,
    stratified_gaps,
    update_kinds,
)


def _steady(seed, n=40):
    ops = steady_ops(np.random.default_rng(seed), ["acme", "globex"], 0.02)
    return [next(ops) for _ in range(n)]


def _overload(seed):
    return overload_schedule(np.random.default_rng(seed), ["acme", "globex"], 60.0, 2.0)


def test_same_seed_same_op_sequence():
    assert _steady(5) == _steady(5)
    assert _steady(5) != _steady(6)
    assert _overload(5) == _overload(5)
    assert _overload(5) != _overload(6)


def test_op_mix_and_minimum_counts():
    ops = _steady(5, steady_ops_needed(20))
    assert len(ops) == 70
    assert sum(op["kind"] == "save" for op in ops) == 21
    assert sum(op["kind"] == "recover" for op in ops) == 42
    assert {op["tenant"] for op in ops} == {"acme", "globex"}
    times = [op["at"] for op in _overload(5)]
    assert len(times) == 120 and times == sorted(times) and times[-1] < 2.0


def test_stratified_gaps_keep_the_mean_rate():
    gaps = stratified_gaps(np.random.default_rng(1), 1000, 50.0)
    assert sorted(gaps) == sorted(stratified_gaps(np.random.default_rng(2), 1000, 50.0))
    assert abs(gaps.mean() - 1 / 50.0) < 0.001


def test_update_kinds_one_full_per_block_of_four():
    kinds = update_kinds(np.random.default_rng(3), 100)
    assert kinds == update_kinds(np.random.default_rng(3), 100)
    for block in range(25):
        assert kinds[4 * block:4 * block + 4].count("full") == 1


def test_perturbation_is_seeded():
    state = {"body.w": np.ones((3, 3), dtype=np.float32), "fc.w": np.ones(3, dtype=np.float32),
             "steps": np.array([1], dtype=np.int64)}
    a = perturb(state, "partial", np.random.default_rng(1), "fc.")
    b = perturb(state, "partial", np.random.default_rng(1), "fc.")
    assert state_digest(a) == state_digest(b)
    assert a["body.w"] is state["body.w"] and a["steps"] is state["steps"]
    full = perturb(state, "full", np.random.default_rng(1), "fc.")
    assert not np.array_equal(full["body.w"], state["body.w"])
    assert state_digest(full) != state_digest(a)
