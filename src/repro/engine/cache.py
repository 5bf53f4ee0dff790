"""Content-addressed on-disk cache for experiment design points.

A cache entry is addressed by ``(experiment name, parameter digest,
code-version salt)``:

* the *parameter digest* is a SHA-256 over a canonical encoding of the
  point's parameters (dataclasses, enums, numpy arrays and plain
  containers all canonicalise deterministically);
* the *code salt* hashes the source text of the modules an experiment
  declares as its implementation, so editing the study code invalidates
  its cached results without touching anyone else's.

Values are stored as pickles under ``<root>/<experiment>/<digest>.pkl``
with atomic replace, so concurrent writers (parallel sweeps, CI jobs
sharing a cache volume) never observe torn entries.  The root defaults
to ``.repro-cache/`` in the working directory and can be overridden
with the ``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import os
import pickle
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every cached result at once (format changes).
CACHE_FORMAT_VERSION = 1


class CacheMiss(KeyError):
    """Raised by :meth:`ResultCache.get` when a key is absent."""


def canonical(value):
    """Deterministic, hash-stable canonical form of a parameter value.

    Supports the types experiment parameters are built from: ``None``,
    ``bool``/``int``/``float``/``str``/``bytes``, enums, (frozen)
    dataclasses, numpy arrays and scalars, and lists/tuples/dicts of
    the above.  Anything else raises ``TypeError`` — silent fallback
    reprs would make cache keys unstable across processes.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, bytes):
        return ("bytes", hashlib.sha256(value).hexdigest())
    if isinstance(value, Enum):
        return ("enum", type(value).__qualname__, value.name)
    if is_dataclass(value) and not isinstance(value, type):
        # Fields declared volatile (wall-clock timings and other
        # measured-not-computed values) are excluded, so content
        # digests stay deterministic run to run.
        return (
            "dataclass",
            type(value).__qualname__,
            tuple(
                (f.name, canonical(getattr(value, f.name)))
                for f in fields(value)
                if not f.metadata.get("volatile", False)
            ),
        )
    if isinstance(value, np.ndarray):
        blob = np.ascontiguousarray(value).tobytes()
        return (
            "ndarray",
            str(value.dtype),
            value.shape,
            hashlib.sha256(blob).hexdigest(),
        )
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical(v) for v in value))
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return ("map", tuple((str(k), canonical(v)) for k, v in items))
    raise TypeError(
        f"cannot canonicalise {type(value).__qualname__} for cache keying"
    )


def param_digest(experiment: str, params: dict, salt: str = "") -> str:
    """Content digest of one design point's parameters."""
    blob = repr((CACHE_FORMAT_VERSION, experiment, salt, canonical(params)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def result_digest(value) -> str:
    """Content digest of a result *by value*.

    Pickle bytes vary with object-graph sharing (a result that crossed
    a process boundary pickles differently from an identical one built
    in-process), so byte-identity checks — ``repro sweep`` prints this
    digest for exactly that purpose — go through :func:`canonical`.
    """
    return hashlib.sha256(repr(canonical(value)).encode("utf-8")).hexdigest()[:32]


@lru_cache(maxsize=None)
def code_salt(module_names: tuple[str, ...]) -> str:
    """Hash of the source text of the named modules.

    Experiments declare the modules that implement them; editing any of
    those files changes the salt and invalidates the cached results.
    """
    import repro

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode("utf-8"))
    for name in sorted(set(module_names)):
        module = importlib.import_module(name)
        digest.update(name.encode("utf-8"))
        try:
            digest.update(inspect.getsource(module).encode("utf-8"))
        except OSError:
            # Source unavailable (frozen/zipapp): fall back to the
            # package version captured above.
            continue
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CacheKey:
    """Address of one cached design-point result."""

    experiment: str
    digest: str


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counters for one cache instance.

    ``scans`` counts full directory walks (every entry stat-ed): the
    running size estimate keeps bounded ``put`` amortised-scan-free,
    and an evicting put performs exactly ONE walk — the regression
    tests pin both.

    ``per_namespace`` splits hits/misses/stores by cache namespace
    (``profile.tensor``, ``profile.entries``, design-point experiments, ...)
    as ``name -> [hits, misses, stores]``, so reports can show which
    artifact class a warm run actually reused.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    scans: int = 0
    per_namespace: dict = field(default_factory=dict, compare=False)

    def bump(self, namespace: str, slot: int) -> None:
        """Count one hit (0) / miss (1) / store (2) in a namespace."""
        row = self.per_namespace.setdefault(namespace, [0, 0, 0])
        row[slot] += 1

    def as_json(self) -> dict:
        """JSON-shaped counters (the advisor service's stats report)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "scans": self.scans,
            "per_namespace": {
                namespace: {"hits": row[0], "misses": row[1], "stores": row[2]}
                for namespace, row in sorted(self.per_namespace.items())
            },
        }

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.scans += other.scans
        for namespace, row in other.per_namespace.items():
            mine = self.per_namespace.setdefault(namespace, [0, 0, 0])
            for slot, count in enumerate(row):
                mine[slot] += count


@dataclass
class CacheUsage:
    """On-disk footprint of a cache root at one point in time."""

    entries: int
    bytes: int
    evictions: int  # lifetime evictions recorded at this root
    per_experiment: dict[str, tuple[int, int]]  # name -> (entries, bytes)


#: Sidecar file recording lifetime evictions at a cache root (runtime
#: stats die with the process; ``repro cache`` reports across runs).
_EVICTION_LOG = ".evictions"


class ResultCache:
    """Pickle-backed content-addressed cache on the local filesystem.

    Args:
        root: Cache directory (default ``$REPRO_CACHE_DIR`` or
            ``.repro-cache/``).
        max_bytes: Size budget; when a store pushes the root above it,
            least-recently-used entries (hits refresh recency) are
            evicted until the cache fits again.  ``None`` = unbounded.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_bytes: int | None = None,
    ) -> None:
        root = root or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        # Running on-disk size estimate so bounded puts do not rescan
        # the whole tree each time; None until the first bounded put.
        # Concurrent writers make it approximate — evict() rescans and
        # resynchronises whenever the estimate crosses the budget.
        self._approx_bytes: int | None = None

    def path_for(self, key: CacheKey) -> Path:
        return self.root / key.experiment / f"{key.digest}.pkl"

    def contains(self, key: CacheKey) -> bool:
        return self.path_for(key).is_file()

    def get(self, key: CacheKey):
        """Load a cached value; raises :class:`CacheMiss` if absent."""
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            self.stats.bump(key.experiment, 1)
            raise CacheMiss(f"{key.experiment}/{key.digest}") from None
        try:
            value = pickle.loads(blob)
        except Exception:
            # A torn or stale entry is a miss, not an error; drop it so
            # the rerun repairs the cache.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            self.stats.bump(key.experiment, 1)
            raise CacheMiss(f"{key.experiment}/{key.digest} (corrupt)") from None
        self.stats.hits += 1
        self.stats.bump(key.experiment, 0)
        # Touch the entry so LRU eviction sees the hit as recent use.
        with contextlib.suppress(OSError):
            os.utime(path, None)
        return value

    def put(self, key: CacheKey, value) -> None:
        """Store a value atomically (write temp file, then replace)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.stats.stores += 1
        self.stats.bump(key.experiment, 2)
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                # First bounded put: one walk inside evict() both
                # measures the root (resynchronising the estimate) and
                # trims it if it is already over budget — never a
                # measure-then-evict double scan.
                self.evict(self.max_bytes, keep=path)
            else:
                with contextlib.suppress(OSError):
                    self._approx_bytes += path.stat().st_size
                if self._approx_bytes > self.max_bytes:
                    self.evict(self.max_bytes, keep=path)

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """Every entry file under the root."""
        if not self.root.is_dir():
            return []
        return list(self.root.rglob("*.pkl"))

    def usage(self) -> CacheUsage:
        """Entries and bytes on disk, per experiment and total."""
        self.stats.scans += 1
        per_experiment: dict[str, tuple[int, int]] = {}
        total_entries = 0
        total_bytes = 0
        for path in self.entries():
            try:
                size = path.stat().st_size
            except OSError:
                continue  # raced with an eviction or concurrent clear
            experiment = path.parent.name
            count, occupied = per_experiment.get(experiment, (0, 0))
            per_experiment[experiment] = (count + 1, occupied + size)
            total_entries += 1
            total_bytes += size
        return CacheUsage(
            entries=total_entries,
            bytes=total_bytes,
            evictions=self._read_eviction_log(),
            per_experiment=dict(sorted(per_experiment.items())),
        )

    def evict(self, max_bytes: int, keep: Path | None = None) -> int:
        """LRU-evict entries until the root fits ``max_bytes``.

        ``keep`` (the just-written entry) is never evicted, so a budget
        smaller than one entry degrades to keeping only the newest.
        Returns the number of entries removed; concurrent writers may
        race deletions, which is tolerated.

        Usage is computed ONCE per evict: the single walk below feeds
        both the size measurement and the LRU ordering, and its result
        resynchronises the running estimate bounded puts maintain.
        """
        self.stats.scans += 1
        aged = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            aged.append((stat.st_mtime, stat.st_size, path))
        evicted = 0
        aged.sort(key=lambda item: item[0])
        for _, size, path in aged:
            if total <= max_bytes:
                break
            if keep is not None and path == keep:
                continue
            path.unlink(missing_ok=True)
            total -= size
            evicted += 1
        self._approx_bytes = total  # resynchronise the running estimate
        if evicted:
            self.stats.evictions += evicted
            self._bump_eviction_log(evicted)
        return evicted

    def _eviction_log_path(self) -> Path:
        return self.root / _EVICTION_LOG

    def _read_eviction_log(self) -> int:
        # One increment per line (see _bump_eviction_log).
        try:
            text = self._eviction_log_path().read_text()
        except OSError:
            return 0
        total = 0
        for line in text.split():
            with contextlib.suppress(ValueError):
                total += int(line)
        return total

    def _bump_eviction_log(self, count: int) -> None:
        # O_APPEND write of one short line: concurrent evictors append
        # rather than read-modify-write, so increments are never lost
        # and readers never observe a truncated counter.
        with contextlib.suppress(OSError):
            with open(self._eviction_log_path(), "a") as handle:
                handle.write(f"{count}\n")

    def clear(self, experiment: str | None = None) -> int:
        """Delete cached entries; returns the number removed."""
        roots = [self.root / experiment] if experiment else [self.root]
        removed = 0
        for root in roots:
            if not root.is_dir():
                continue
            for path in root.rglob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
