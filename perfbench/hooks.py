"""Wrappers installed around the program's layer boundaries for the traced run.

Each boundary is patched where it is looked up: ``repro.core.abstract`` and
``repro.core.param_update`` import ``collect_environment`` and
``state_dict_hashes`` by name, so those module attributes are replaced, not
the defining ones.  Methods are patched on the class that defines them.
:func:`install` returns a handle whose :meth:`Installed.remove` puts every
original object back.
"""

from __future__ import annotations

import importlib
import os

__all__ = ["BOUNDARIES", "GATEWAY_BOUNDARY", "install"]

# (span name, "module[:Class]", attribute).  The span name's prefix up to
# the last dot names the layer.
BOUNDARIES = [
    ("core.environment.collect", "repro.core.abstract", "collect_environment"),
    ("core.hashing.state_dict_hashes", "repro.core.abstract", "state_dict_hashes"),
    ("core.hashing.state_dict_hashes", "repro.core.param_update", "state_dict_hashes"),
    ("core.hashing.state_dict_hashes", "repro.core.merkle", "state_dict_hashes"),
    ("core.merkle.from_layer_hashes", "repro.core.merkle:MerkleTree", "from_layer_hashes"),
    ("core.merkle.from_state_dict", "repro.core.merkle:MerkleTree", "from_state_dict"),
    ("core.merkle.diff", "repro.core.merkle:MerkleTree", "diff"),
    ("core.save_info.build", "repro.core.save_info:ArchitectureRef", "build"),
    ("core.abstract.save_model", "repro.core.abstract:AbstractSaveService", "save_model"),
    ("core.abstract.recover_model", "repro.core.abstract:AbstractSaveService", "recover_model"),
    ("filestore.save_state_chunks", "repro.filestore.store:FileStore", "save_state_chunks"),
    ("filestore.recover_state_chunks", "repro.filestore.store:FileStore", "recover_state_chunks"),
    ("filestore.save_bytes", "repro.filestore.store:FileStore", "save_bytes"),
    ("filestore.recover_bytes", "repro.filestore.store:FileStore", "recover_bytes"),
    ("os.fsync", "os", "fsync"),
    ("docstore.insert_one", "repro.docstore.engine:Collection", "insert_one"),
    ("docstore.replace_one", "repro.docstore.engine:Collection", "replace_one"),
    ("docstore.get", "repro.docstore.engine:Collection", "get"),
    ("docstore.get_many", "repro.docstore.engine:Collection", "get_many"),
    ("docstore.find", "repro.docstore.engine:Collection", "find"),
    ("core.compaction.run", "repro.core.compaction:ChainCompactor", "run"),
]

# gateway boundary, installed only in the server process
GATEWAY_BOUNDARY = ("gateway.execute", "repro.gateway.server:GatewayServer", "_execute")


def _resolve(owner_spec: str):
    module_name, _, class_name = owner_spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _annotate(name: str, span, args, kwargs, result) -> None:
    """Extra per-span facts the per-layer metrics need."""
    if name == "core.hashing.state_dict_hashes":
        state = args[0] if args else kwargs.get("state_dict", {})
        span.attrs["bytes"] = sum(getattr(a, "nbytes", 0) for a in state.values())
    elif name == "docstore.insert_one":
        span.attrs["collection"] = getattr(args[0], "name", "")
        path = getattr(args[0], "_persist_path", None)
        if path is not None:
            try:
                span.attrs["file_bytes"] = os.stat(path).st_size
            except OSError:
                pass
    elif name == "core.merkle.diff" and result is not None:
        span.attrs["comparisons"] = getattr(result, "comparisons", 0)
    elif name == "core.abstract.recover_model" and result is not None:
        span.attrs["depth"] = result.recovery_depth
        span.attrs["timings"] = dict(result.timings)


def _wrap(recorder, name: str, fn, takes_rid: bool = False):
    def wrapper(*args, **kwargs):
        if takes_rid:  # GatewayServer._execute(self, request, ...)
            recorder.set_rid(args[1].get("bench_rid"))
        span = recorder.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(span)
            _annotate(name, span, args, kwargs, result)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Installed:
    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []

    def patch(self, recorder, name: str, owner, attr: str, takes_rid=False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(_wrap(recorder, name, original.__func__))
        else:
            replacement = _wrap(recorder, name, original, takes_rid)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def install(recorder, gateway: bool = False) -> Installed:
    """Patch every boundary (plus the gateway's, in the server process)."""
    installed = Installed()
    boundaries = BOUNDARIES + ([GATEWAY_BOUNDARY] if gateway else [])
    for name, owner_spec, attr in boundaries:
        installed.patch(recorder, name, _resolve(owner_spec), attr,
                        takes_rid=name == "gateway.execute")
    return installed
