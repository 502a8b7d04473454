"""Content-addressed on-disk cache for simulation results.

Every simulation cell in the experiment harness is a pure function of its
:class:`~repro.experiments.parallel.ReplicationTask` — config, policy name,
mechanisms, and the run's seed, warmup, duration, fault plan and
workload — so
its :class:`~repro.model.metrics.SystemResults` can be cached on disk and
reused across runs, scales that share cells, processes, and (with a shared
directory) machines.  The cache is *content addressed*: the key
(:func:`task_key`) is a SHA-256 hash over the canonical JSON encoding of
the task, so any single-field change — a different think time, seed,
warmup, policy, or extension parameter — produces a different key, and two
configs that are equal as dataclasses always produce the same key
regardless of how they were constructed.

Robustness properties:

* **Versioned entries.** Each entry embeds ``entry_version`` (and the
  key hash itself); entries written by an incompatible version, or whose
  stored key disagrees with their filename, are treated as misses and
  silently rewritten.
* **Atomic writes.** Entries are written to a unique temp file in the
  destination directory and published with :func:`os.replace`, so readers
  never observe a half-written entry and concurrent writers of the same
  key cannot corrupt it (last writer wins with identical content).
* **Graceful degradation.** Corrupt, truncated, unreadable, or malformed
  entries are never fatal — they count as misses (see
  :attr:`CacheStats.errors`) and are replaced on the next write.

Typical use goes through the execution backend
(:mod:`repro.experiments.parallel`) or the CLI flags ``--cache-dir`` /
``--no-cache``; direct use::

    cache = ResultCache(default_cache_dir())
    key = ReplicationTask(config, "LERT", run=RunSpec(500.0, 2000.0, seed=1)).key()
    hit = cache.get(key)           # None on miss
    cache.put(key, results)        # atomic
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.codec import encode
from repro.model.metrics import SystemResults
from repro.model.serialization import results_from_dict, results_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only (parallel imports this)
    from repro.experiments.parallel import ReplicationTask

#: Version of the cache-entry layout *and* the key derivation.  Bumping it
#: invalidates every existing entry (old entries become misses).
CACHE_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """The default on-disk cache root.

    ``$REPRO_CACHE_DIR`` when set, otherwise ``~/.cache/repro/results``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "results"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable float repr.

    Two payloads that are equal as Python objects serialize to the same
    string regardless of dict insertion order, which makes hashes of the
    output content addresses.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def task_key(task: "ReplicationTask") -> str:
    """Content address of one simulation run.

    The SHA-256 hex digest of the canonical JSON of the task's encoding
    (:func:`repro.codec.encode`) plus ``cache_version``.  Every field of
    :class:`~repro.experiments.parallel.ReplicationTask` is in it, so any
    input that changes the run changes the key.  An empty mechanism list
    and the run's unset fault plan and workload are left out (the run
    normalizes no-op plans and the closed default to ``None``), so a run
    of the paper's model is keyed by its config, policy, window and seed.
    """
    payload = encode(task)
    payload["cache_version"] = CACHE_VERSION
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.errors} errors"
        )


class ResultCache:
    """Content-addressed store of :class:`SystemResults`, one file per key.

    Entries live at ``root/<key[:2]>/<key>.json`` (two-level sharding keeps
    directories small).  All failure modes degrade to cache misses.
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        *,
        version: int = CACHE_VERSION,
    ) -> None:
        self.root = pathlib.Path(root)
        self.version = version
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SystemResults]:
        """The cached result for *key*, or ``None`` on any kind of miss."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("entry is not a JSON object")
            if data.get("entry_version") != self.version:
                raise ValueError("entry version mismatch")
            if data.get("key") != key:
                raise ValueError("entry key mismatch")
            result = results_from_dict(data["result"])
        except Exception:
            # Corrupt / stale / truncated entry: a miss, never fatal.  The
            # entry stays on disk and is overwritten by the next put().
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: SystemResults) -> None:
        """Store *result* under *key* atomically (temp file + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "entry_version": self.version,
            "key": key,
            "result": results_to_dict(result),
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, version={self.version})"


__all__ = [
    "CACHE_VERSION",
    "CACHE_DIR_ENV",
    "CacheStats",
    "ResultCache",
    "canonical_json",
    "task_key",
    "default_cache_dir",
]
