"""Content-addressed on-disk result store.

One JSON file per trial, addressed by the trial key (hash of config +
seed + code version, see :mod:`repro.campaign.spec`).  Re-running a
campaign looks each trial up here first, so completed trials are served
from cache and an interrupted campaign resumes where it stopped.

Writes are atomic (temp file + :func:`os.replace`) so a killed worker
never leaves a half-written entry that a resume would trust.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.campaign.spec import TrialSpec, canonical_json

DEFAULT_STORE_ENV = "REPRO_CAMPAIGN_DIR"
DEFAULT_STORE_DIR = ".repro-campaigns"


def default_store_root() -> Path:
    return Path(os.environ.get(DEFAULT_STORE_ENV, DEFAULT_STORE_DIR))


class ResultStore:
    """Keyed trial results on disk, sharded by key prefix."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None: a corrupt entry (not
        JSON, or not an object with a ``result``) is a miss."""
        raw = self.get_bytes(key)
        if raw is None:
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(payload, dict) or "result" not in payload:
            return None
        return payload

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Raw stored bytes, for byte-identity audits."""
        path = self._path(key)
        try:
            return path.read_bytes()
        except OSError:
            return None

    def put(
        self,
        spec: TrialSpec,
        result: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist one trial result atomically; returns the entry path."""
        path = self._path(spec.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": spec.key,
            "campaign": spec.campaign,
            "trial": spec.trial,
            "params": dict(spec.params),
            "seed": spec.seed,
            "result": result,
            "meta": dict(meta or {}),
        }
        payload["meta"].setdefault("created", time.time())
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=str(path.parent), suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(canonical_json(payload))
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for entry in sorted(self.root.glob("*/*.json")):
            yield entry.stem

    def clean(self, keys: Optional[Iterator[str]] = None) -> int:
        """Remove the given entries (or every entry); returns the count."""
        removed = 0
        targets = list(self.keys()) if keys is None else list(keys)
        for key in targets:
            path = self._path(key)
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
            try:
                path.parent.rmdir()  # drop empty shards
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        entries = 0
        nbytes = 0
        for key in self.keys():
            entries += 1
            try:
                nbytes += self._path(key).stat().st_size
            except OSError:
                pass
        return {"entries": entries, "bytes": nbytes}
