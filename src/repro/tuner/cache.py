"""Persistent result cache for the tuner (the *cache* stage).

Tuning is deterministic but expensive (each candidate is a full
discrete-event simulation), so results are memoised on disk: a JSON file
mapping a cache key to the winning candidate and its simulated time.  The
key is built from everything that changes the answer —

    kernel name | shape key | world size | HardwareSpec.fingerprint()
    | SearchSpace.fingerprint() [| search signature]

so retuning happens exactly when the workload, the simulated hardware, or
the candidate space itself changes.  Restricted searches (model-guided,
capped ``max_trials``) carry a signature suffix so their possibly-weaker
winners never alias a later full exhaustive search (see ``tune()``).
Repeated bench runs hit the cache and skip simulation entirely, which
also makes published numbers reproducible: the cache file records *which*
config produced them.

The default location is ``$REPRO_TUNE_CACHE`` or
``~/.cache/repro-tilelink/tune_cache.json``; pass an explicit path for
hermetic runs (tests use ``tmp_path``).  Writes are atomic
(write-temp-then-rename); every flush takes an exclusive ``flock`` on a
sidecar lockfile and re-reads + merges the on-disk entries before
renaming, so two processes tuning different kernels against one cache
file cannot drop each other's results.  A corrupt/foreign file is
treated as empty rather than raising.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.tuner.space import TunerError
from repro.util.jsonstore import VersionedJsonStore

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

_VERSION = 1

#: Environment override for the default on-disk location.
ENV_CACHE_PATH = "REPRO_TUNE_CACHE"


def default_cache_path() -> Path:
    env = os.environ.get(ENV_CACHE_PATH)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tilelink" / "tune_cache.json"


def make_key(kernel: str, shape_key: str, world: int, spec_fingerprint: str,
             space_fingerprint: str) -> str:
    return "|".join([kernel, shape_key, f"w{world}", spec_fingerprint,
                     space_fingerprint])


class TuneCache(VersionedJsonStore):
    """Dict-like persistent store of tuning results.

    Entries are plain JSON objects ``{"best": candidate, "time_s": float,
    "meta": {...}}``.  The file is re-read lazily on first access and
    rewritten atomically on every :meth:`put` (tuning writes are rare and
    small; durability beats batching here).  The storage discipline
    (lazy read, corrupt-as-empty, atomic rename, readonly) lives in
    :class:`~repro.util.jsonstore.VersionedJsonStore`; this class layers
    the flock-protected read-merge flush on top.
    """

    _version = _VERSION

    def __init__(self, path: str | os.PathLike | None = None, *,
                 readonly: bool = False):
        super().__init__(path if path is not None else default_cache_path(),
                         readonly=readonly)

    # -- storage ------------------------------------------------------------

    @contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Exclusive inter-process lock spanning one read-merge-rename.

        Without it two processes could interleave their disk re-reads and
        renames and still lose an update; ``flock`` on a sidecar lockfile
        closes that window.  Degrades to unlocked (merge-on-flush only) on
        platforms without :mod:`fcntl`.
        """
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_name(self.path.name + ".lock")
        with open(lock_path, "w") as lock_fh:
            fcntl.flock(lock_fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_fh, fcntl.LOCK_UN)

    def _flush(self, merge: bool = True) -> None:
        if self.readonly:
            return
        entries = self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._write_lock():
            if merge:
                # Another process may have written since our lazy read; a
                # blind read-modify-write of the whole file would drop its
                # entries.  Re-read under the lock and merge, our entries
                # winning any key conflict (we hold the freshest result
                # for keys we tuned).
                on_disk = self._read_disk()
                if on_disk:
                    entries = {**on_disk, **entries}
                    self._entries = entries
            self._atomic_write(entries)

    # -- dict-ish API -------------------------------------------------------

    def get(self, key: str) -> dict | None:
        entry = self._load().get(key)
        return dict(entry) if entry is not None else None

    def put(self, key: str, best: dict, time_s: float,
            meta: dict[str, Any] | None = None) -> None:
        self._load()[key] = {"best": dict(best), "time_s": float(time_s),
                             "meta": dict(meta or {})}
        self._flush()

    def merge_from(self, *sources: "TuneCache | str | os.PathLike") -> int:
        """Absorb every entry of ``sources`` (caches or cache-file paths)
        into this cache with **one** flush; returns the number merged.

        This is the parallel sweep's result funnel: each worker tunes
        against its own cache file, and the parent folds the finished
        files into the shared cache through the same flock-protected
        read-merge-rename path every other write takes — one rewrite for
        the whole batch, not one per file.  Source entries win key
        conflicts (they are the freshest results), later sources winning
        over earlier ones.  Only entries that are new or actually differ
        count (and trigger the flush): re-merging identical files is a
        free no-op.

        Merging into a ``readonly`` cache raises: ``_flush`` would
        silently no-op while the in-memory view mutated and a positive
        merged count told the caller the entries persisted.
        """
        if self.readonly:
            raise TunerError(
                f"cannot merge into readonly cache {self.path}: the "
                f"merged entries would never be flushed to disk")
        entries = self._load()
        merged = 0
        for source in sources:
            src = (source if isinstance(source, TuneCache)
                   else TuneCache(source))
            for key, entry in src._load().items():
                if entries.get(key) != entry:
                    entries[key] = dict(entry)
                    merged += 1
        if merged:
            self._flush()
        return merged

    def clear(self) -> None:
        """Empty the cache file (no merge: clearing means clearing).

        Clearing a ``readonly`` cache raises for the same reason merging
        into one does: the file would keep its entries while this
        handle's in-memory view reads empty — a silently diverged handle.
        """
        if self.readonly:
            raise TunerError(
                f"cannot clear readonly cache {self.path}: the file would "
                f"keep its entries while this handle reads empty")
        self._entries = {}
        self._flush(merge=False)
