"""Atomic per-cell checkpoint records behind ``--checkpoint``/``--resume``.

A :class:`CheckpointStore` is a directory holding one JSONL ledger
(``cells.jsonl``) plus one ``.npz`` blob per cell that carries arrays.
Every :meth:`record` republishes the whole ledger through the atomic
write helper, so an interrupt (SIGINT, SIGKILL, power loss) at *any*
instant leaves either the previous or the new ledger — never a torn
one.  A torn trailing line from a pre-atomic writer is tolerated on
load (skipped), matching the crash model; any other line that is not a
well-formed fingerprint or cell record raises ``ValueError`` naming it.

Exactness: scalars ride JSON (``repr``-based float formatting
round-trips every float64 exactly) and arrays ride ``.npz`` (raw
dtype bytes), so a restored cell is bit-identical to a recomputed one —
the property the ``--resume`` byte-identity pin leans on.

The ledger's first record is a *fingerprint* of the run configuration
(datasets, grid, seed, worlds…).  ``--resume`` against a store written
by a different configuration is refused loudly rather than silently
mixing grids.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.resilience.atomic import atomic_write_bytes, atomic_write_text

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Keyed, atomic, resumable per-cell results under one directory."""

    def __init__(self, directory):
        self.dir = Path(directory)
        self.ledger = self.dir / "cells.jsonl"
        self.arrays_dir = self.dir / "arrays"
        self._records: dict[str, dict] = {}
        self._fingerprint: dict | None = None
        self._load()

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        if not self.ledger.exists():
            return
        lines = [
            (number, line)
            for number, line in enumerate(self.ledger.read_text().splitlines(), 1)
            if line.strip()
        ]
        for i, (number, line) in enumerate(lines):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    # A torn trailing line from an interrupted legacy
                    # write: drop it; the cell recomputes deterministically.
                    break
                rec = None
            if self._is_fingerprint(rec):
                self._fingerprint = rec["config"]
            elif self._is_cell(rec):
                self._records[rec["key"]] = rec["payload"]
            else:
                raise ValueError(
                    f"checkpoint ledger {self.ledger}, line {number}: not a "
                    "well-formed fingerprint or cell record"
                )

    @staticmethod
    def _is_fingerprint(rec) -> bool:
        return (
            isinstance(rec, dict)
            and rec.keys() == {"kind", "config"}
            and rec["kind"] == "fingerprint"
            and (rec["config"] is None or isinstance(rec["config"], dict))
        )

    def _is_cell(self, rec) -> bool:
        """A cell record under a new key whose blob, if any, is its own."""
        if not (
            isinstance(rec, dict)
            and rec.keys() == {"kind", "key", "payload"}
            and rec["kind"] == "cell"
            and isinstance(rec["key"], str)
            and isinstance(rec["payload"], dict)
        ):
            return False
        key = rec["key"]
        blob = rec["payload"].get("__arrays__", self._blob_name(key))
        return key not in self._records and blob == self._blob_name(key)

    # -- lifecycle -----------------------------------------------------
    def begin(self, fingerprint: dict, *, resume: bool) -> None:
        """Open the store for a run described by ``fingerprint``.

        With ``resume=False`` any prior records are discarded; with
        ``resume=True`` records are kept but a fingerprint mismatch —
        a different grid/seed/scale — raises ``ValueError`` instead of
        resuming the wrong run.
        """
        if resume and self._fingerprint is not None and self._fingerprint != fingerprint:
            raise ValueError(
                f"checkpoint at {self.dir} was written by a different run "
                f"configuration; refusing --resume "
                f"(stored {self._fingerprint!r} != current {fingerprint!r})"
            )
        if not resume:
            self._records = {}
            if self.arrays_dir.exists():
                for blob in self.arrays_dir.glob("*.npz"):
                    blob.unlink()
        self._fingerprint = fingerprint
        self._flush()

    # -- records -------------------------------------------------------
    def record(self, key: str, payload: dict, arrays: dict | None = None) -> None:
        """Persist one completed cell (atomically, immediately)."""
        payload = dict(payload)
        if arrays:
            blob_name = self._blob_name(key)
            buf = io.BytesIO()
            np.savez(buf, **{k: np.asarray(v) for k, v in arrays.items()})
            atomic_write_bytes(self.arrays_dir / blob_name, buf.getvalue())
            payload["__arrays__"] = blob_name
        self._records[key] = payload
        self._flush()

    def restore(self, key: str):
        """``(payload, arrays)`` for a completed cell, else ``None``."""
        payload = self._records.get(key)
        if payload is None:
            return None
        payload = dict(payload)
        arrays = {}
        blob_name = payload.pop("__arrays__", None)
        if blob_name is not None:
            blob_path = self.arrays_dir / blob_name
            try:
                # Our own handle: np.load(path) leaks the file it opened
                # when a torn zip makes its constructor raise.
                with open(blob_path, "rb") as fh, np.load(fh) as npz:
                    arrays = {k: npz[k] for k in npz.files}
            except (FileNotFoundError, ValueError, OSError, zipfile.BadZipFile):
                # The ledger committed but the blob did not (or is
                # torn): treat the cell as incomplete and recompute.
                return None
        return payload, arrays

    def completed_keys(self) -> set:
        return set(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- internals -----------------------------------------------------
    @staticmethod
    def _blob_name(key: str) -> str:
        return hashlib.blake2b(key.encode(), digest_size=8).hexdigest() + ".npz"

    def _flush(self) -> None:
        lines = [json.dumps({"kind": "fingerprint", "config": self._fingerprint}, sort_keys=True)]
        for key in sorted(self._records):
            lines.append(
                json.dumps(
                    {"kind": "cell", "key": key, "payload": self._records[key]},
                    sort_keys=True,
                )
            )
        atomic_write_text(self.ledger, "\n".join(lines) + "\n")
