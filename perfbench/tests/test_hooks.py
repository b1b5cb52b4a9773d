"""Installing the wrappers records spans; removing them restores the originals."""

import os
from collections import OrderedDict

import numpy as np

import repro.core.abstract as abstract
import repro.core.merkle as merkle
import repro.core.param_update as param_update
from hooks import BOUNDARIES, GATEWAY_BOUNDARY, _resolve, install
from ledger import Recorder


def _originals():
    found = {}
    for _, owner_spec, attr in BOUNDARIES + [GATEWAY_BOUNDARY]:
        owner = _resolve(owner_spec)
        value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        found[(owner_spec, attr)] = value
    return found


def test_install_then_remove_restores_every_original():
    before = _originals()
    installed = install(Recorder(), gateway=True)
    during = _originals()
    assert all(during[key] is not before[key] for key in before)
    installed.remove()
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def _looked_up_names():
    return (abstract.collect_environment, abstract.state_dict_hashes,
            param_update.state_dict_hashes, merkle.state_dict_hashes, os.fsync)


def test_names_are_patched_where_they_are_looked_up():
    originals = _looked_up_names()
    installed = install(Recorder())
    try:
        patched = _looked_up_names()
    finally:
        installed.remove()
    assert all(p is not o and p.__wrapped__ is o for p, o in zip(patched, originals))
    assert _looked_up_names() == originals


def test_wrapped_calls_nest_and_annotate():
    recorder = Recorder()
    installed = install(recorder)
    try:
        state = OrderedDict(a=np.ones(4, dtype=np.float32), b=np.zeros(2, dtype=np.float32))
        tree = merkle.MerkleTree.from_state_dict(state)
        other = merkle.MerkleTree.from_layer_hashes(
            OrderedDict(zip(tree.layer_names, tree.leaf_hashes)))
        diff = tree.diff(other)
    finally:
        installed.remove()
    names = {s.name: s for s in recorder.spans}
    hashing = names["core.hashing.state_dict_hashes"]
    assert hashing.parent == names["core.merkle.from_state_dict"].id
    assert hashing.attrs["bytes"] == 24
    assert names["core.merkle.diff"].attrs["comparisons"] == diff.comparisons
    assert names["core.merkle.from_layer_hashes"].parent is None
