"""The content-addressed, ref-counted chunk store behind :class:`FileStore`.

Chunk payloads are appended as records to large append-only *segment*
files and located through an in-memory index
(``digest -> (segment, offset, length, crc)``), LSM-style:

* **Group fsync** — appends are acknowledged immediately and made
  durable by one batched :meth:`ChunkStore.flush` per save, so a
  thousand-chunk save costs one fsync instead of a thousand.  Sealing a
  segment, writing a compacted segment, and closing the store also
  fsync; nothing else does.
* **Sealed segments carry a footer** — a catalog of their records — so
  reopening a store bulk-loads the index from footers instead of
  rescanning payloads.  The index is also checkpointed incrementally to
  ``index.json``; on open, only bytes beyond each segment's checkpointed
  scan offset are re-examined, which both bounds recovery work and
  prevents deliberately deleted records from being resurrected.
* **Compaction** — segments whose live ratio drops below a threshold
  are rewritten into a fresh sealed segment.  The rewrite is journaled
  (``compaction.json``) and resumable: the atomic rename of the
  destination segment is the commit point, a crash before it rolls
  back, a crash after it rolls forward.

Reference counts track how many manifests point at each chunk and live
in ``refcounts.json``, serialized through an ``flock``-held lock file so
multiple processes can share one store directory.

On-disk format (all integers little-endian):

* segment header: ``MMSEG1\\n\\0`` magic, u32 version, u64 sequence,
  zero-padded to 32 bytes;
* record: ``MMRC`` magic, u16 digest length, u16 flags, u32 payload
  crc32, u64 payload length, then the digest bytes and the payload;
* footer (sealed segments only): ``MMFT`` magic, u32 catalog length,
  the JSON catalog, then a fixed tail of u64 records-end offset, u32
  catalog crc32, and ``MMSE`` end magic — parseable backwards from EOF.

A torn append is detected by the record crc at scan time and never
advances the logical end, so a retry overwrites the tear in place.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
import time
import uuid
import zlib
from pathlib import Path
from typing import Iterable, Mapping

from .. import obs
from ..errors import StoreCorruptionError
from . import codecs as chunk_codecs

try:
    import fcntl
except ImportError:  # non-posix platform: single-process locking only
    fcntl = None

__all__ = [
    "ChunkStore",
    "ChunkNotFoundError",
    "SegmentCompactor",
    "DEFAULT_SEGMENT_BYTES",
]

#: Tmp files younger than this are assumed in-flight and never reaped —
#: a concurrent saver may still be writing them.
DEFAULT_TMP_GRACE_S = 600.0

#: Segments roll (seal + start a new one) once records cross this size.
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Compaction rewrites sealed segments whose live ratio falls below this.
DEFAULT_COMPACT_THRESHOLD = 0.5

SEGMENT_SUFFIX = ".seg"
SEGMENT_MAGIC = b"MMSEG1\n\x00"
SEGMENT_VERSION = 1
#: Fixed-size segment header: magic + version + sequence, zero-padded.
HEADER = struct.Struct("<8sIQ12x")
RECORD_MAGIC = b"MMRC"
#: Record header: magic, digest length, flags, payload crc32, payload length.
RECORD_HEADER = struct.Struct("<4sHHIQ")
FOOTER_MAGIC = b"MMFT"
FOOTER_END_MAGIC = b"MMSE"
#: Footer tail: records-end offset, catalog crc32, end magic.
FOOTER_TAIL = struct.Struct("<QI4s")


class ChunkNotFoundError(KeyError):
    """Raised when fetching a chunk digest the store does not hold."""


def _buffer_nbytes(buffer) -> int:
    if isinstance(buffer, memoryview):
        return buffer.nbytes
    return len(buffer)


def _parse_seq(name: str) -> int | None:
    parts = name.split("-")
    if len(parts) >= 2 and parts[0] == "seg":
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


def _new_meta() -> dict:
    return {"scanned": 0, "total": 0, "sealed": False, "bad": False}


class ChunkStore:
    """Content-addressed, ref-counted chunk storage on append-only segments.

    Chunks are written exactly once per distinct digest.  Reference
    counts track how many manifests point at each chunk;
    :meth:`release_refs` deletes chunks whose count drops to zero, and
    :meth:`gc` sweeps orphans (e.g. chunks written by a save that crashed
    before its manifest) and then compacts.  See the module docstring for
    the on-disk format and the durability model.
    """

    def __init__(
        self,
        root: str | Path,
        tmp_grace_s: float = DEFAULT_TMP_GRACE_S,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
        codec: str | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._refs_path = self.root / "refcounts.json"
        self._lock_path = self.root / ".lock"
        self.tmp_grace_s = float(tmp_grace_s)
        self.segment_bytes = int(segment_bytes)
        self.compact_threshold = float(compact_threshold)
        #: At-rest compression codec for new chunk payloads.  Digests are
        #: always over the uncompressed bytes, and decode is driven by the
        #: payload frame, so stores with different codecs interoperate.
        self.codec = chunk_codecs.resolve_codec(codec)
        #: Optional chaos hook with the ``FaultInjector.fail_point``
        #: signature, consulted by long-running maintenance (compaction).
        self.fault_hook = None
        # dedup/compression accounting (in-process, like the network
        # store's transfer accounting): logical bytes offered by callers,
        # bytes skipped because the digest was already stored, and framed
        # bytes physically written
        self._acct_lock = threading.Lock()
        self.logical_bytes = 0
        self.dedup_bytes = 0
        self.stored_bytes = 0
        self.segments_dir = self.root / "segments"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self._checkpoint_path = self.root / "index.json"
        self._compaction_path = self.root / "compaction.json"
        self._mutex = threading.RLock()
        self._index: dict[str, tuple[str, int, int, int]] = {}
        self._segmeta: dict[str, dict] = {}
        self._active_name: str | None = None
        self._active_file = None
        self._active_end = 0
        self._dirty = False  # unsynced appends in the active segment
        self._index_dirty = False  # index mutations not yet checkpointed
        self._read_files: dict[str, object] = {}
        self._seq = 0
        registry = obs.registry()
        self._obs_fsyncs = registry.counter(
            "mmlib_chunk_fsyncs_total", "fsync calls issued for chunk durability")
        self._obs_logical = registry.counter(
            "mmlib_chunks_logical_bytes_total",
            "Uncompressed bytes offered to ChunkStore.put")
        self._obs_dedup = registry.counter(
            "mmlib_chunks_dedup_bytes_total",
            "Uncompressed bytes skipped because the chunk already existed")
        self._obs_stored = registry.counter(
            "mmlib_chunks_stored_bytes_total",
            "Framed (possibly compressed) bytes physically written")
        self._obs_appends = registry.counter(
            "mmlib_segment_appends_total", "Chunk records appended to segments")
        self._obs_batches = registry.counter(
            "mmlib_segment_fsync_batches_total", "Group fsync batches flushed")
        self._obs_rolls = registry.counter(
            "mmlib_segment_rolls_total", "Segment files sealed and rolled")
        self._obs_moves = registry.counter(
            "mmlib_segment_compaction_moves_total",
            "Live records rewritten by compaction")
        self._obs_seg_count = registry.gauge(
            "mmlib_segment_count", "Segment files on disk")
        self._obs_live_ratio = registry.gauge(
            "mmlib_segment_live_ratio",
            "Live payload bytes / total payload bytes across segments")
        self._obs_dead = registry.gauge(
            "mmlib_segment_dead_bytes",
            "Dead (compactable) payload bytes across segments")
        with self._mutex:
            self._load_checkpoint()
            self._resume_compaction_locked()
            self._refresh_locked()
            self._update_gauges_locked()

    # -- codec framing / dedup accounting ------------------------------------

    def _encode(self, buffer):
        """At-rest payload for one chunk (see :mod:`repro.filestore.codecs`).

        With the ``none`` codec the raw bytes pass through zero-copy
        unless they collide with the frame magic, which the codec layer
        escape-frames so decoding stays unambiguous.
        """
        if self.codec == "none":
            view = buffer if isinstance(buffer, bytes) else memoryview(buffer).cast("B")
            if bytes(view[:4]) != chunk_codecs.FRAME_MAGIC:
                return buffer
        return chunk_codecs.encode(self.codec, buffer)

    def _account_put(self, raw_nbytes: int, stored_nbytes: int | None = None) -> None:
        """Record one put: deduped when ``stored_nbytes`` is ``None``."""
        with self._acct_lock:
            self.logical_bytes += raw_nbytes
            if stored_nbytes is None:
                self.dedup_bytes += raw_nbytes
            else:
                self.stored_bytes += stored_nbytes
        self._obs_logical.inc(raw_nbytes)
        if stored_nbytes is None:
            self._obs_dedup.inc(raw_nbytes)
        else:
            self._obs_stored.inc(stored_nbytes)

    def dedup_stats(self) -> dict:
        """Dedup and compression accounting since this store was opened."""
        with self._acct_lock:
            logical = self.logical_bytes
            dedup = self.dedup_bytes
            stored = self.stored_bytes
        written = logical - dedup
        return {
            "codec": self.codec,
            "logical_bytes": logical,
            "dedup_bytes": dedup,
            "stored_bytes": stored,
            "dedup_ratio": round(logical / written, 4) if written else None,
            "compression_ratio": round(written / stored, 4) if stored else None,
        }

    def _tmp_expired(self, path: Path) -> bool:
        """In-flight files get a grace age before they count as orphans."""
        try:
            return path.stat().st_mtime <= time.time() - self.tmp_grace_s
        except FileNotFoundError:
            return False

    @staticmethod
    def _check_digest(digest: str) -> None:
        if not digest or "/" in digest or digest.startswith("."):
            raise ValueError(f"invalid chunk digest: {digest!r}")

    # -- locking / refcount persistence ------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        if fcntl is None:
            yield
            return
        with open(self._lock_path, "a+") as lock_file:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    def _load_refs(self) -> dict[str, int]:
        try:
            return json.loads(self._refs_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def _write_refs(self, refs: dict[str, int]) -> None:
        tmp = self._refs_path.with_name(f"refcounts-{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps(refs, sort_keys=True))
        tmp.replace(self._refs_path)

    # -- open / index maintenance -------------------------------------------

    def _load_checkpoint(self) -> None:
        try:
            data = json.loads(self._checkpoint_path.read_text())
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict) or data.get("version") != 1:
            return
        for digest, entry in data.get("entries", {}).items():
            if isinstance(entry, list) and len(entry) == 4:
                self._index[digest] = (
                    str(entry[0]), int(entry[1]), int(entry[2]), int(entry[3]))
        for name, meta in data.get("segments", {}).items():
            self._segmeta[name] = {
                "scanned": int(meta.get("scanned", 0)),
                "total": int(meta.get("total", 0)),
                "sealed": bool(meta.get("sealed", False)),
                "bad": False,
            }

    def _write_checkpoint_locked(self) -> None:
        segments = {}
        for name, meta in self._segmeta.items():
            scanned = self._active_end if name == self._active_name else meta["scanned"]
            segments[name] = {
                "scanned": scanned, "total": meta["total"], "sealed": meta["sealed"]}
        payload = {
            "version": 1,
            "entries": {d: list(entry) for d, entry in self._index.items()},
            "segments": segments,
        }
        self._write_json_atomic(self._checkpoint_path, payload)
        self._index_dirty = False

    def _write_json_atomic(self, path: Path, payload: dict) -> None:
        tmp = path.with_name(f"{path.name}-{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)

    def _refresh_locked(self) -> int:
        """Absorb on-disk changes beyond each segment's scan offset.

        Returns the number of index entries added.  Deliberately deleted
        records are *not* resurrected: the checkpoint advances ``scanned``
        past them, so only genuinely new bytes are examined.  Segments
        whose files vanished (compacted away) are dropped along with any
        index entries still pointing at them.
        """
        on_disk: dict[str, Path] = {}
        for path in self.segments_dir.glob(f"*{SEGMENT_SUFFIX}"):
            on_disk[path.name] = path
            seq = _parse_seq(path.name)
            if seq is not None and seq > self._seq:
                self._seq = seq
        for name in list(self._segmeta):
            if name not in on_disk and name != self._active_name:
                del self._segmeta[name]
                self._close_read_file(name)
                self._index_dirty = True
        for digest, entry in list(self._index.items()):
            if entry[0] not in self._segmeta:
                del self._index[digest]
                self._index_dirty = True
        added = 0
        for name in sorted(on_disk):
            if name == self._active_name:
                continue  # our own writer: the in-memory index is authoritative
            meta = self._segmeta.setdefault(name, _new_meta())
            added += self._absorb_segment_locked(on_disk[name], meta)
        return added

    def _absorb_segment_locked(self, path: Path, meta: dict) -> int:
        name = path.name
        if meta["bad"]:
            return 0
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return 0
        if meta["scanned"] >= size:
            return 0
        if size < HEADER.size:
            return 0  # header still being written: nothing to absorb yet
        added = 0
        try:
            with open(path, "rb") as fileobj:
                if meta["scanned"] < HEADER.size:
                    magic, version, _seq = HEADER.unpack(fileobj.read(HEADER.size))
                    if magic != SEGMENT_MAGIC or version != SEGMENT_VERSION:
                        meta["bad"] = True
                        return 0
                    meta["scanned"] = HEADER.size
                catalog = self._read_footer(fileobj, size)
                if catalog is not None:
                    # sealed: bulk-load the catalog, skipping already-scanned
                    # (possibly deleted) record ranges
                    for digest, off, length, crc in catalog.get("records", []):
                        start = off - RECORD_HEADER.size - len(str(digest).encode())
                        if start < meta["scanned"]:
                            continue
                        meta["total"] += int(length)
                        if digest not in self._index:
                            self._index[digest] = (
                                name, int(off), int(length), int(crc))
                            added += 1
                            self._index_dirty = True
                    meta["scanned"] = size
                    meta["sealed"] = True
                    return added
                added += self._scan_records_locked(fileobj, name, meta)
        except OSError:
            meta["bad"] = True
        return added

    def _scan_records_locked(self, fileobj, name: str, meta: dict) -> int:
        """Sequentially absorb crc-valid records; stop at the first tear."""
        added = 0
        offset = meta["scanned"]
        fileobj.seek(offset)
        while True:
            head = fileobj.read(RECORD_HEADER.size)
            if len(head) < RECORD_HEADER.size:
                break
            magic, dlen, _flags, crc, plen = RECORD_HEADER.unpack(head)
            if magic != RECORD_MAGIC:
                break  # footer or torn garbage: the valid prefix ends here
            digest_raw = fileobj.read(dlen)
            if len(digest_raw) < dlen:
                break
            payload = fileobj.read(plen)
            if len(payload) < plen or zlib.crc32(payload) != crc:
                break  # torn append: the record never completed
            digest = digest_raw.decode("utf-8", "replace")
            payload_off = offset + RECORD_HEADER.size + dlen
            meta["total"] += plen
            if digest not in self._index:
                self._index[digest] = (name, payload_off, plen, crc)
                added += 1
                self._index_dirty = True
            offset = payload_off + plen
        meta["scanned"] = offset
        return added

    def _read_footer(self, fileobj, size: int) -> dict | None:
        if size < HEADER.size + 8 + FOOTER_TAIL.size:
            return None
        fileobj.seek(size - FOOTER_TAIL.size)
        tail = fileobj.read(FOOTER_TAIL.size)
        if len(tail) < FOOTER_TAIL.size:
            return None
        records_end, crc, end_magic = FOOTER_TAIL.unpack(tail)
        if end_magic != FOOTER_END_MAGIC:
            return None
        if records_end < HEADER.size or records_end + 8 > size:
            return None
        fileobj.seek(records_end)
        head = fileobj.read(8)
        if len(head) < 8 or head[:4] != FOOTER_MAGIC:
            return None
        (length,) = struct.unpack("<I", head[4:])
        blob = fileobj.read(length)
        if len(blob) < length or zlib.crc32(blob) != crc:
            return None
        try:
            catalog = json.loads(blob.decode())
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(catalog, dict) or "records" not in catalog:
            return None
        return catalog

    def _close_read_file(self, name: str) -> None:
        fileobj = self._read_files.pop(name, None)
        if fileobj is not None:
            try:
                fileobj.close()
            except OSError:
                pass

    # -- append path ---------------------------------------------------------

    def _hook(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    def _next_segment_name(self) -> str:
        self._seq += 1
        return f"seg-{self._seq:010d}-{uuid.uuid4().hex[:8]}{SEGMENT_SUFFIX}"

    def _ensure_active_locked(self) -> None:
        if self._active_file is not None:
            return
        name = self._next_segment_name()
        path = self.segments_dir / name
        fileobj = open(path, "wb", buffering=0)  # every append lands in the OS
        fileobj.write(HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self._seq))
        self._active_name = name
        self._active_file = fileobj
        self._active_end = HEADER.size
        meta = _new_meta()
        meta["scanned"] = HEADER.size
        self._segmeta[name] = meta

    @staticmethod
    def _write_all(fileobj, data) -> None:
        view = memoryview(data)
        while view.nbytes:
            written = fileobj.write(view)
            if written is None or written >= view.nbytes:
                return
            view = view[written:]

    def put(self, digest: str, buffer) -> bool:
        self._check_digest(digest)
        with self._mutex:
            if digest in self._index:
                self._account_put(_buffer_nbytes(buffer))
                return False
            self._ensure_active_locked()
            digest_raw = digest.encode("utf-8")
            view = memoryview(buffer)
            if view.ndim != 1 or view.format != "B":
                view = (view.cast("B") if view.contiguous
                        else memoryview(bytes(view)))
            raw_nbytes = view.nbytes
            # records hold the *at-rest* payload: CRCs, index lengths, and
            # compaction all see framed bytes; get() decodes after the CRC
            encoded = self._encode(view)
            eview = encoded if isinstance(encoded, memoryview) else memoryview(encoded)
            crc = zlib.crc32(eview)
            head = RECORD_HEADER.pack(
                RECORD_MAGIC, len(digest_raw), 0, crc, eview.nbytes)
            fileobj = self._active_file
            fileobj.seek(self._active_end)  # overwrite any earlier torn tail
            self._write_all(fileobj, head)
            self._write_all(fileobj, digest_raw)
            self._write_all(fileobj, eview)
            payload_off = self._active_end + len(head) + len(digest_raw)
            self._index[digest] = (self._active_name, payload_off, eview.nbytes, crc)
            meta = self._segmeta[self._active_name]
            meta["total"] += eview.nbytes
            self._active_end = payload_off + eview.nbytes
            meta["scanned"] = self._active_end
            self._account_put(raw_nbytes, stored_nbytes=eview.nbytes)
            self._dirty = True
            self._index_dirty = True
            self._obs_appends.inc()
            if self._active_end >= self.segment_bytes:
                self._roll_locked()
        return True

    def write_torn(self, digest: str, buffer) -> Path:
        """Simulate a torn append: half a record lands past the logical end.

        The end pointer does not advance, so a retry overwrites the tear
        in place — and after a crash the scan's crc check rejects it.
        """
        self._check_digest(digest)
        data = bytes(buffer)
        with self._mutex:
            self._ensure_active_locked()
            digest_raw = digest.encode("utf-8")
            head = RECORD_HEADER.pack(
                RECORD_MAGIC, len(digest_raw), 0, zlib.crc32(data), len(data))
            record = head + digest_raw + data
            fileobj = self._active_file
            fileobj.seek(self._active_end)
            self._write_all(fileobj, record[: max(1, len(record) // 2)])
            return self.segments_dir / self._active_name

    def flush(self) -> int:
        """One group fsync for every append since the last flush."""
        with self._mutex:
            synced = 0
            if self._dirty and self._active_file is not None:
                os.fsync(self._active_file.fileno())
                self._dirty = False
                synced = 1
                self._obs_fsyncs.inc()
                self._obs_batches.inc()
            if self._index_dirty:
                self._write_checkpoint_locked()
            self._update_gauges_locked()
            return synced

    def _roll_locked(self) -> None:
        name = self._active_name
        fileobj = self._active_file
        meta = self._segmeta[name]
        fileobj.truncate(self._active_end)  # drop torn garbage past the end
        records = sorted(
            [d, e[1], e[2], e[3]]
            for d, e in self._index.items()
            if e[0] == name
        )
        footer = self._pack_footer({"end": self._active_end, "records": records})
        fileobj.seek(self._active_end)
        self._write_all(fileobj, footer)
        os.fsync(fileobj.fileno())
        self._obs_fsyncs.inc()
        if self._dirty:
            self._obs_batches.inc()
        fileobj.close()
        meta["sealed"] = True
        meta["scanned"] = self._active_end + len(footer)
        self._active_name = None
        self._active_file = None
        self._active_end = 0
        self._dirty = False
        self._obs_rolls.inc()
        self._write_checkpoint_locked()

    @staticmethod
    def _pack_footer(catalog: dict) -> bytes:
        blob = json.dumps(catalog, sort_keys=True).encode()
        return (
            FOOTER_MAGIC
            + struct.pack("<I", len(blob))
            + blob
            + FOOTER_TAIL.pack(catalog["end"], zlib.crc32(blob), FOOTER_END_MAGIC)
        )

    # -- read path -----------------------------------------------------------

    def has(self, digest: str) -> bool:
        self._check_digest(digest)
        with self._mutex:
            return digest in self._index

    def get(self, digest: str) -> bytes:
        self._check_digest(digest)
        refreshed = False
        while True:
            with self._mutex:
                entry = self._index.get(digest)
                if entry is None and not refreshed:
                    self._refresh_locked()  # another process may have appended
                    refreshed = True
                    entry = self._index.get(digest)
                if entry is None:
                    raise ChunkNotFoundError(
                        f"no stored chunk with digest {digest!r}")
                data = self._read_entry_locked(entry)
                if data is None and not refreshed:
                    self._refresh_locked()  # the segment moved (compaction)
                    refreshed = True
                    continue
            if data is None:
                raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
            if zlib.crc32(data) != entry[3]:
                raise StoreCorruptionError(
                    f"chunk {digest!r} is corrupt: segment record failed its "
                    f"CRC check")
            return chunk_codecs.decode(data)

    def _read_entry_locked(self, entry) -> bytes | None:
        name, off, length, _crc = entry
        fileobj = self._read_files.get(name)
        if fileobj is None:
            try:
                fileobj = open(self.segments_dir / name, "rb")
            except FileNotFoundError:
                return None
            self._read_files[name] = fileobj
        try:
            data = os.pread(fileobj.fileno(), length, off)
        except OSError:
            return None
        if len(data) != length:
            return None
        return data

    def size_of(self, digest: str) -> int | None:
        """At-rest size of one chunk, or ``None`` when it is not stored."""
        self._check_digest(digest)
        with self._mutex:
            entry = self._index.get(digest)
        return None if entry is None else entry[2]

    def locate(self, digest: str) -> tuple[Path, int, int]:
        """Physical location of one chunk: ``(segment path, offset, length)``.

        Lets tooling (fsck damage drills, debuggers) find the stored bytes.
        """
        with self._mutex:
            entry = self._index.get(digest)
            if entry is None:
                raise ChunkNotFoundError(f"no stored chunk with digest {digest!r}")
            return self.segments_dir / entry[0], entry[1], entry[2]

    # -- deletion --------------------------------------------------------------

    def _forget_locked(self, digest: str) -> int:
        """Drop one chunk's index entry; returns the payload bytes freed.

        The record stays in its segment as dead bytes until compaction
        rewrites (or drops) the segment.
        """
        entry = self._index.pop(digest, None)
        if entry is None:
            return 0
        self._index_dirty = True
        return entry[2]

    def _checkpoint_if_dirty_locked(self) -> None:
        if self._index_dirty:
            self._write_checkpoint_locked()
            self._update_gauges_locked()

    def drop(self, digest: str) -> bool:
        """Delete one chunk regardless of refcounts; True iff it existed.

        Low-level repair/rollback primitive — normal deletion goes through
        :meth:`release_refs`.
        """
        self._check_digest(digest)
        with self._mutex:
            if digest not in self._index:
                return False
            self._forget_locked(digest)
            self._checkpoint_if_dirty_locked()
        return True

    # -- reference counting --------------------------------------------------

    def add_refs(self, digests: Iterable[str]) -> None:
        """Increment refcounts for ``digests`` (one batched update)."""
        digests = list(digests)
        if not digests:
            return
        with self._locked():
            refs = self._load_refs()
            for digest in digests:
                refs[digest] = refs.get(digest, 0) + 1
            self._write_refs(refs)

    def release_refs(self, digests: Iterable[str]) -> list[str]:
        """Decrement refcounts; delete and return chunks that hit zero."""
        digests = list(digests)
        if not digests:
            return []
        removed: list[str] = []
        with self._locked():
            refs = self._load_refs()
            for digest in digests:
                count = refs.get(digest, 0) - 1
                if count > 0:
                    refs[digest] = count
                else:
                    refs.pop(digest, None)
                    removed.append(digest)
            self._write_refs(refs)
            with self._mutex:
                for digest in removed:
                    self._forget_locked(digest)
                self._checkpoint_if_dirty_locked()
        return removed

    def refcount(self, digest: str) -> int:
        return self._load_refs().get(digest, 0)

    def export_refs(self) -> dict[str, int]:
        """Snapshot of every stored refcount (rebalance/repair plumbing)."""
        with self._locked():
            return self._load_refs()

    def import_refs(self, counts: Mapping[str, int]) -> None:
        """Set refcounts for the given digests (overwriting existing ones).

        Used when chunk ownership moves between stores: the receiving
        store inherits the relinquishing store's counts verbatim instead
        of replaying one :meth:`add_refs` per historical manifest.
        """
        counts = {d: int(c) for d, c in counts.items() if c > 0}
        if not counts:
            return
        with self._locked():
            refs = self._load_refs()
            refs.update(counts)
            self._write_refs(refs)

    def forget_refs(self, digests: Iterable[str]) -> None:
        """Drop refcount entries without touching chunk payloads.

        The relinquishing side of a chunk migration: the bytes were
        already handed to the new owner, so decrement-and-delete
        (:meth:`release_refs`) would be wrong.
        """
        digests = set(digests)
        if not digests:
            return
        with self._locked():
            refs = self._load_refs()
            remaining = {d: c for d, c in refs.items() if d not in digests}
            if len(remaining) != len(refs):
                self._write_refs(remaining)

    def gc(self) -> dict[str, int]:
        """Delete unreferenced chunks and *expired* partial segments, then
        compact; returns a stats dict.

        Partial ``*.tmp`` segments younger than ``tmp_grace_s`` are left
        alone: a concurrent compaction may still be writing them.
        """
        removed = 0
        freed = 0
        with self._locked():
            refs = self._load_refs()
            live = {d for d, count in refs.items() if count > 0}
            if live != set(refs):
                self._write_refs({d: refs[d] for d in live})
            with self._mutex:
                for digest in [d for d in self._index if d not in live]:
                    freed += self._forget_locked(digest)
                    removed += 1
                # orphaned partial segments left by a crash mid-roll or
                # mid-compaction
                for path in self.segments_dir.glob("*.tmp"):
                    if not self._tmp_expired(path):
                        continue
                    try:
                        size = path.stat().st_size
                    except FileNotFoundError:
                        continue
                    path.unlink(missing_ok=True)
                    removed += 1
                    freed += size
                self._drop_dead_segments_locked()
                self._write_checkpoint_locked()
                self._update_gauges_locked()
        return {
            "chunks_removed": removed,
            "bytes_freed": freed,
            "segments_compacted": self.compact()["segments_compacted"],
        }

    def reconcile(self, expected_refs: Mapping[str, int], repair: bool = True) -> dict:
        """Cross-check stored refcounts against ``expected_refs`` (fsck).

        ``expected_refs`` is the ground truth recomputed from the live
        manifests.  Reports (and with ``repair`` fixes) leaked or missing
        refcounts and deletes orphan chunks nothing references.
        """
        expected = {d: int(c) for d, c in expected_refs.items() if c > 0}
        with self._locked():
            refs = self._load_refs()
            ref_fixes = {
                digest: (refs.get(digest, 0), expected.get(digest, 0))
                for digest in set(refs) | set(expected)
                if refs.get(digest, 0) != expected.get(digest, 0)
            }
            with self._mutex:
                orphans = sorted(d for d in self._index if d not in expected)
                orphan_bytes = sum(self._index[d][2] for d in orphans)
                if repair:
                    if ref_fixes:
                        self._write_refs(expected)
                    for digest in orphans:
                        self._forget_locked(digest)
                    self._checkpoint_if_dirty_locked()
        return {
            "ref_fixes": ref_fixes,
            "orphan_chunks_removed": orphans,
            "orphan_bytes": orphan_bytes,
        }

    # -- accounting -----------------------------------------------------------

    def chunk_ids(self) -> list[str]:
        with self._mutex:
            return sorted(self._index)

    def total_bytes(self) -> int:
        """At-rest bytes held by live chunk payloads (deduplicated storage)."""
        with self._mutex:
            return sum(entry[2] for entry in self._index.values())

    def __len__(self) -> int:
        with self._mutex:
            return len(self._index)

    def _drop_dead_segments_locked(self) -> None:
        """Unlink segments no index entry references.

        Unsealed segments only fall once they outlive the tmp grace age:
        a concurrent writer refreshes its segment's mtime with every
        append, so a young unsealed segment may be someone's live tail.
        """
        live_segments = {entry[0] for entry in self._index.values()}
        for name, meta in list(self._segmeta.items()):
            if name == self._active_name or name in live_segments:
                continue
            path = self.segments_dir / name
            if not meta["sealed"] and not self._tmp_expired(path):
                continue
            self._close_read_file(name)
            path.unlink(missing_ok=True)
            del self._segmeta[name]
            self._index_dirty = True

    # -- compaction -----------------------------------------------------------

    def compact(self, threshold: float | None = None) -> dict:
        """Rewrite low-live-ratio sealed segments into one fresh segment.

        Journaled and resumable: ``compaction.json`` names the victims
        and the destination; the destination's atomic rename is the
        commit point.  Returns move/reclaim statistics.
        """
        threshold = self.compact_threshold if threshold is None else float(threshold)
        stats = {"segments_compacted": 0, "records_moved": 0, "bytes_reclaimed": 0}
        with self._mutex:
            if self._compaction_path.exists():
                self._resume_compaction_locked()
            self._drop_dead_segments_locked()
            victims = self._compaction_victims_locked(threshold)
            if not victims:
                if self._index_dirty:
                    self._write_checkpoint_locked()
                self._update_gauges_locked()
                return stats
            return self._compact_locked(victims)

    def _compaction_victims_locked(self, threshold: float) -> list[str]:
        live_by_seg: dict[str, int] = {}
        for seg, _off, length, _crc in self._index.values():
            live_by_seg[seg] = live_by_seg.get(seg, 0) + length
        victims = []
        for name, meta in sorted(self._segmeta.items()):
            if name == self._active_name or meta["bad"] or not meta["sealed"]:
                continue
            seg_live = live_by_seg.get(name, 0)
            seg_total = max(meta["total"], seg_live)
            if seg_total == 0 or seg_live == 0:
                continue  # fully dead: _drop_dead_segments handles it
            if seg_live / seg_total < threshold:
                victims.append(name)
        return victims

    def _compact_locked(self, victims: list[str]) -> dict:
        self._hook("chunk.compact")
        dest = self._next_segment_name()
        self._write_json_atomic(
            self._compaction_path, {"victims": victims, "dest": dest})
        self._hook("chunk.compact")
        victim_set = set(victims)
        moves = [
            (digest, entry)
            for digest, entry in sorted(self._index.items())
            if entry[0] in victim_set
        ]
        dead = sum(self._segmeta[v]["total"] for v in victims) - sum(
            entry[2] for _d, entry in moves)
        tmp_path = self.segments_dir / (dest + ".tmp")
        new_entries: dict[str, tuple[str, int, int, int]] = {}
        offset = HEADER.size
        total_live = 0
        try:
            with open(tmp_path, "wb") as out:
                out.write(HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, self._seq))
                for digest, entry in moves:
                    payload = self._read_entry_locked(entry)
                    if payload is None or zlib.crc32(payload) != entry[3]:
                        raise StoreCorruptionError(
                            f"chunk {digest!r} is corrupt: compaction read "
                            f"failed its CRC check")
                    digest_raw = digest.encode("utf-8")
                    out.write(RECORD_HEADER.pack(
                        RECORD_MAGIC, len(digest_raw), 0, entry[3], entry[2]))
                    out.write(digest_raw)
                    out.write(payload)
                    payload_off = offset + RECORD_HEADER.size + len(digest_raw)
                    new_entries[digest] = (dest, payload_off, entry[2], entry[3])
                    offset = payload_off + entry[2]
                    total_live += entry[2]
                    self._obs_moves.inc()
                    self._hook("chunk.compact")
                records = sorted(
                    [d, e[1], e[2], e[3]] for d, e in new_entries.items())
                out.write(self._pack_footer({"end": offset, "records": records}))
                out.flush()
                os.fsync(out.fileno())
                self._obs_fsyncs.inc()
        except BaseException:
            # crash/corruption before the commit point: the journal and a
            # partial tmp remain; resume (or the grace sweep) rolls back
            raise
        self._hook("chunk.compact")
        tmp_path.replace(self.segments_dir / dest)  # commit point
        self._hook("chunk.compact")
        size = (self.segments_dir / dest).stat().st_size
        self._segmeta[dest] = {
            "scanned": size, "total": total_live, "sealed": True, "bad": False}
        self._index.update(new_entries)
        self._index_dirty = True
        self._write_checkpoint_locked()
        self._hook("chunk.compact")
        for name in victims:
            self._close_read_file(name)
            (self.segments_dir / name).unlink(missing_ok=True)
            self._segmeta.pop(name, None)
        self._compaction_path.unlink(missing_ok=True)
        self._write_checkpoint_locked()
        self._update_gauges_locked()
        return {
            "segments_compacted": len(victims),
            "records_moved": len(moves),
            "bytes_reclaimed": max(0, dead),
        }

    def _resume_compaction_locked(self) -> str | None:
        """Finish or undo an interrupted compaction; returns the action."""
        try:
            journal = json.loads(self._compaction_path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError):
            self._compaction_path.unlink(missing_ok=True)
            return "rolled_back"
        dest = journal.get("dest")
        victims = set(journal.get("victims", []))
        if not dest:
            self._compaction_path.unlink(missing_ok=True)
            return "rolled_back"
        dest_path = self.segments_dir / dest
        tmp_path = self.segments_dir / (dest + ".tmp")
        if not dest_path.exists():
            # the rename never committed: forget the attempt entirely
            tmp_path.unlink(missing_ok=True)
            self._compaction_path.unlink(missing_ok=True)
            return "rolled_back"
        # committed: repoint victim entries at the destination and finish
        catalog = None
        try:
            size = dest_path.stat().st_size
            with open(dest_path, "rb") as fileobj:
                catalog = self._read_footer(fileobj, size)
        except OSError:
            catalog = None
        if catalog is not None:
            meta = self._segmeta.setdefault(dest, _new_meta())
            meta.update(scanned=size, sealed=True, bad=False)
            total = 0
            for digest, off, length, crc in catalog.get("records", []):
                total += int(length)
                current = self._index.get(digest)
                if current is None or current[0] in victims:
                    self._index[digest] = (dest, int(off), int(length), int(crc))
            meta["total"] = total
            seq = _parse_seq(dest)
            if seq is not None and seq > self._seq:
                self._seq = seq
        for digest, entry in list(self._index.items()):
            if entry[0] in victims:
                del self._index[digest]  # not in the catalog: was dead data
        for name in victims:
            self._close_read_file(name)
            (self.segments_dir / name).unlink(missing_ok=True)
            self._segmeta.pop(name, None)
        self._index_dirty = True
        self._write_checkpoint_locked()
        self._compaction_path.unlink(missing_ok=True)
        return "rolled_forward"

    # -- audit / stats ---------------------------------------------------------

    def audit(self, repair: bool = True, verify: bool = False) -> dict:
        """Segment-layer fsck step: footers, tears, index bounds, crcs.

        Resumes an interrupted compaction (with ``repair``), absorbs any
        unindexed records, truncates torn tails, drops index entries that
        point outside their segment, and reaps expired partial segments.
        With ``verify`` every live record's payload is crc-checked.
        """
        outcome = {
            "layout": "segments",
            "segments_checked": 0,
            "torn_segments": [],
            "tmp_segments_removed": 0,
            "entries_added": 0,
            "entries_dropped": [],
            "crc_failures": [],
            "compaction": None,
        }
        with self._mutex:
            if self._compaction_path.exists():
                if repair:
                    outcome["compaction"] = self._resume_compaction_locked()
                else:
                    outcome["compaction"] = "pending"
            outcome["entries_added"] = self._refresh_locked()
            for name, meta in sorted(self._segmeta.items()):
                outcome["segments_checked"] += 1
                path = self.segments_dir / name
                if meta["bad"]:
                    outcome["torn_segments"].append(name)
                    if repair and name != self._active_name:
                        self._close_read_file(name)
                        path.unlink(missing_ok=True)
                        del self._segmeta[name]
                        self._index_dirty = True
                    continue
                try:
                    size = path.stat().st_size
                except FileNotFoundError:
                    continue
                if name == self._active_name:
                    logical = self._active_end
                    if size > logical:
                        outcome["torn_segments"].append(name)
                        if repair:
                            self._active_file.truncate(logical)
                elif not meta["sealed"] and size > meta["scanned"]:
                    # trailing garbage from a dead writer; a *live* writer
                    # keeps its mtime fresh, so respect the grace age
                    if self._tmp_expired(path):
                        outcome["torn_segments"].append(name)
                        if repair:
                            os.truncate(path, meta["scanned"])
            for digest, entry in sorted(self._index.items()):
                name, off, length, _crc = entry
                meta = self._segmeta.get(name)
                out_of_bounds = meta is None or meta["bad"]
                if not out_of_bounds:
                    try:
                        size = (self.segments_dir / name).stat().st_size
                    except FileNotFoundError:
                        size = -1
                    out_of_bounds = off + length > size
                if out_of_bounds:
                    outcome["entries_dropped"].append(digest)
                    if repair:
                        del self._index[digest]
                        self._index_dirty = True
                    continue
                if verify:
                    data = self._read_entry_locked(entry)
                    if data is None or zlib.crc32(data) != entry[3]:
                        outcome["crc_failures"].append(digest)
            for path in self.segments_dir.glob("*.tmp"):
                if self._tmp_expired(path):
                    outcome["tmp_segments_removed"] += 1
                    if repair:
                        path.unlink(missing_ok=True)
            if repair:
                if self._index_dirty:
                    self._write_checkpoint_locked()
                self._update_gauges_locked()
        return outcome

    def segment_stats(self) -> dict:
        """Gauge-style snapshot: counts, live ratio, compaction debt."""
        with self._mutex:
            live_by_seg: dict[str, int] = {}
            for seg, _off, length, _crc in self._index.values():
                live_by_seg[seg] = live_by_seg.get(seg, 0) + length
            live = sum(live_by_seg.values())
            total = 0
            debt = 0
            for name, meta in self._segmeta.items():
                seg_live = live_by_seg.get(name, 0)
                seg_total = max(meta["total"], seg_live)
                total += seg_total
                if name == self._active_name or seg_total == 0:
                    continue
                if seg_live / seg_total < self.compact_threshold:
                    debt += seg_total - seg_live
            return {
                "layout": "segments",
                "segment_count": len(self._segmeta),
                "sealed_segments": sum(
                    1 for m in self._segmeta.values() if m["sealed"]),
                "chunks": len(self._index),
                "live_bytes": live,
                "dead_bytes": max(0, total - live),
                "live_ratio": (live / total) if total else 1.0,
                "compaction_debt_bytes": debt,
                "pending_compaction": self._compaction_path.exists(),
            }

    def _update_gauges_locked(self) -> None:
        stats = self.segment_stats()
        self._obs_seg_count.set(stats["segment_count"])
        self._obs_live_ratio.set(stats["live_ratio"])
        self._obs_dead.set(stats["dead_bytes"])

    def close(self) -> None:
        """Seal nothing, just release file handles (tests/bench hygiene)."""
        with self._mutex:
            if self._active_file is not None:
                if self._dirty:
                    os.fsync(self._active_file.fileno())
                    self._obs_fsyncs.inc()
                    self._dirty = False
                self._active_file.close()
                self._active_file = None
                self._active_name = None
                self._active_end = 0
            for name in list(self._read_files):
                self._close_read_file(name)
            if self._index_dirty:
                self._write_checkpoint_locked()


class SegmentCompactor:
    """Background thread that periodically compacts a segment store.

    Mirrors the cluster rebalancer's lifecycle: ``start``/``stop`` (or a
    ``with`` block) around a loop of :meth:`run_once` calls, each of
    which delegates to :meth:`ChunkStore.compact` and records the
    result.  Compaction errors are reported as obs events, never raised
    into the host process.
    """

    def __init__(self, store, interval_s: float = 30.0,
                 threshold: float | None = None):
        self.store = store
        self.interval_s = float(interval_s)
        self.threshold = threshold
        self.runs = 0
        self.errors = 0
        self.last_result: dict | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def run_once(self) -> dict:
        if self.threshold is None:
            result = self.store.compact()
        else:
            result = self.store.compact(self.threshold)
        self.runs += 1
        self.last_result = result
        return result

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.run_once()
            except Exception as exc:  # keep the host process alive
                self.errors += 1
                obs.events().emit("compactor_error", error=str(exc))

    def start(self) -> "SegmentCompactor":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="segment-compactor", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "SegmentCompactor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
