"""Content-addressed, corruption-detecting campaign result store.

Every completed campaign point is persisted as one small JSON file whose
**name is its cache key** — ``objects/<hh>/<spec_hash>.<engine>.v<schema>
.json`` — and whose bytes are a pure function of the computation: the
canonical-JSON :class:`~repro.engine.base.EngineResult` payload plus
point provenance (label, seeds, key), wrapped with a sha256 of the body.
No timestamps, hostnames, or campaign names ever enter an entry, which
is what makes the store's byte-identity contract composable:

* a **rerun** of the same campaign writes byte-identical files, so a
  resume after a crash/``kill -9`` merges indistinguishably from a
  from-scratch run;
* two **shards** of one campaign write disjoint entries, and
  :func:`merge_stores` unions them — overlapping keys must match
  byte-for-byte or the merge refuses;
* two **campaigns** sharing a point (same spec hash + engine + schema)
  share the cache entry.

Writes are atomic (temp file + ``os.replace`` in the same directory),
so a killed run leaves either a complete entry or none — and if the
filesystem still manages to truncate or flip bits, the body hash check
turns the damage into a recomputable cache miss
(:class:`CorruptEntryError`), never a silently served wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterator

from repro.engine.base import EngineResult, GroupStats

__all__ = [
    "CorruptEntryError",
    "MergeConflictError",
    "ResultStore",
    "StoreEntry",
    "decode_result",
    "encode_entry",
    "merge_stores",
]


class CorruptEntryError(RuntimeError):
    """A store entry exists but fails integrity or shape validation."""


class MergeConflictError(RuntimeError):
    """Two stores hold different bytes for the same cache key."""


class StoreEntry:
    """A decoded store entry: the result plus its provenance metadata."""

    __slots__ = ("result", "meta")

    def __init__(self, result: EngineResult, meta: dict[str, Any]) -> None:
        self.result = result
        self.meta = meta


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` durably and all-or-nothing: a synced
    temp file in the same directory, then ``os.replace`` — a killed
    writer leaves either the complete entry or none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def encode_entry(
    key: tuple[str, str, int],
    result: EngineResult,
    meta: dict[str, Any],
) -> bytes:
    """Serialise one entry to its canonical on-disk bytes.

    The body carries the key fields redundantly so a mis-filed entry
    (wrong name for its contents) is detected on load, and the outer
    ``body_sha256`` covers the whole body so truncation or bit flips
    are detected before anything is deserialised into results.
    """
    spec_hash, engine, schema = key
    body = {
        "engine": engine,
        "meta": meta,
        "result": asdict(result),
        "schema": schema,
        "spec_hash": spec_hash,
    }
    body_canon = _canonical(body)
    digest = hashlib.sha256(body_canon.encode("utf-8")).hexdigest()
    return (
        '{"body":' + body_canon + ',"body_sha256":"' + digest + '"}\n'
    ).encode("utf-8")


def decode_result(data: dict[str, Any]) -> EngineResult:
    """Rebuild an :class:`EngineResult` from its ``asdict`` JSON form."""
    return EngineResult(
        engine=data["engine"],
        offered_load=data["offered_load"],
        accepted_load=data["accepted_load"],
        avg_latency=data["avg_latency"],
        p90_latency=data["p90_latency"],
        p99_latency=data["p99_latency"],
        max_latency=data["max_latency"],
        packets_measured=data["packets_measured"],
        cycles=data["cycles"],
        groups=tuple(
            (name, GroupStats(**stats)) for name, stats in data["groups"]
        ),
        # a series-valued extra is a JSON array; back to a float tuple
        extras=tuple(
            (name, tuple(value) if isinstance(value, list) else value)
            for name, value in data["extras"]
        ),
    )


class ResultStore:
    """A directory of content-addressed campaign results.

    The layout is ``<root>/objects/<hh>/<spec_hash>.<engine>.v<n>.json``
    (two-hex-digit fan-out so large campaigns don't pile thousands of
    files into one directory).  The store is safe to share between
    shards of the same campaign and between campaigns.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: tuple[str, str, int]) -> Path:
        spec_hash, engine, schema = key
        return (
            self.objects_dir
            / spec_hash[:2]
            / f"{spec_hash}.{engine}.v{schema}.json"
        )

    # -- read ----------------------------------------------------------

    def load(self, key: tuple[str, str, int]) -> StoreEntry | None:
        """The verified entry for ``key``, or ``None`` when absent.

        Raises :class:`CorruptEntryError` when the file exists but is
        truncated, bit-flipped, mis-filed, or of the wrong schema shape
        — callers treat that as a miss and recompute over it.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        return self._decode(raw, key, path)

    def _decode(
        self, raw: bytes, key: tuple[str, str, int], path: Path
    ) -> StoreEntry:
        spec_hash, engine, schema = key
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptEntryError(f"{path}: unreadable entry ({exc})") from exc
        if (
            not isinstance(doc, dict)
            or "body" not in doc
            or "body_sha256" not in doc
        ):
            raise CorruptEntryError(f"{path}: missing body/body_sha256")
        body = doc["body"]
        digest = hashlib.sha256(
            _canonical(body).encode("utf-8")
        ).hexdigest()
        if digest != doc["body_sha256"]:
            raise CorruptEntryError(
                f"{path}: body hash mismatch (stored {doc['body_sha256']!r}, "
                f"recomputed {digest!r})"
            )
        if (
            body.get("spec_hash") != spec_hash
            or body.get("engine") != engine
            or body.get("schema") != schema
        ):
            raise CorruptEntryError(
                f"{path}: entry identity does not match its cache key"
            )
        try:
            result = decode_result(body["result"])
        except (KeyError, TypeError) as exc:
            raise CorruptEntryError(f"{path}: malformed result ({exc})") from exc
        return StoreEntry(result, dict(body.get("meta", {})))

    def get(self, key: tuple[str, str, int]) -> StoreEntry | None:
        """Like :meth:`load` but mapping corruption to a miss (``None``).

        Prefer :meth:`load` in the executor, which wants to *count*
        corrupt entries; ``get`` is the fire-and-forget consumer path.
        """
        try:
            return self.load(key)
        except CorruptEntryError:
            return None

    # -- write ---------------------------------------------------------

    def put(
        self,
        key: tuple[str, str, int],
        result: EngineResult,
        meta: dict[str, Any],
    ) -> Path:
        """Persist one entry atomically (overwriting any corrupt body)."""
        path = self.path_for(key)
        _write_atomic(path, encode_entry(key, result, meta))
        return path

    # -- enumeration ---------------------------------------------------

    def entry_paths(self) -> Iterator[Path]:
        """Every entry file, in sorted (deterministic) path order."""
        if not self.objects_dir.is_dir():
            return
        for bucket in sorted(self.objects_dir.iterdir()):
            if not bucket.is_dir():
                continue
            for path in sorted(bucket.iterdir()):
                if path.suffix == ".json":
                    yield path

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_paths())


def merge_stores(
    sources: list[str | Path], dest: str | Path
) -> tuple[int, int]:
    """Union source stores into ``dest``; returns (copied, identical).

    Entries are copied byte-for-byte, so a merged store is
    indistinguishable from one written by a single-process run.  A key
    present on both sides must already be byte-identical — anything else
    means two *different* computations claimed one cache key, which is a
    determinism violation worth refusing loudly
    (:class:`MergeConflictError`).  A source without an ``objects/``
    directory is not a store (:class:`NotADirectoryError` naming it): a
    mistyped shard path must not silently yield a partial merge.
    """
    dest_store = ResultStore(dest)
    stores = [ResultStore(source) for source in sources]
    for src_store in stores:
        if not src_store.objects_dir.is_dir():
            raise NotADirectoryError(
                f"{src_store.root} is not a result store (no objects/ "
                "directory)"
            )
    copied = identical = 0
    for src_store in stores:
        for src_path in src_store.entry_paths():
            rel = src_path.relative_to(src_store.objects_dir)
            dst_path = dest_store.objects_dir / rel
            data = src_path.read_bytes()
            if dst_path.exists():
                if dst_path.read_bytes() != data:
                    raise MergeConflictError(
                        f"{rel}: source {src_path} disagrees with existing "
                        f"{dst_path} — same cache key, different bytes"
                    )
                identical += 1
                continue
            _write_atomic(dst_path, data)
            copied += 1
    return copied, identical
