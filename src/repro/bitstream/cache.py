"""Content-addressed on-disk cache of compiled bitstreams.

Layout (under the cache root, default ``~/.cache/repro`` or
``$REPRO_CACHE_DIR``):

    <root>/bitstreams-v<SCHEMA_VERSION>/<key[:2]>/<key>.json

where ``key`` is :func:`~repro.bitstream.artifact.compile_key` — a hash
over (schema, app, scale, architecture params, compiler options).  The
schema version is baked into the directory name, so bumping it orphans
(never misreads) old entries; a corrupt or truncated file is treated as
a miss and overwritten on the next put.

Writes are atomic (temp file + rename), so concurrent workers compiling
the same app race benignly: last writer wins with identical bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.bitstream.artifact import SCHEMA_VERSION, Bitstream
from repro.errors import ConfigError, IRError


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries present on disk but undecodable (truncated write, schema
    #: drift, hand-edited file) — dropped and recompiled, counted apart
    #: from plain misses so corruption is visible in reports
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses + self.corrupt

    def to_dict(self) -> dict:
        """Counters as a plain dict (JSON-able snapshot)."""
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt,
                "lookups": self.lookups}

    def summary(self) -> str:
        """One-line report, e.g. ``3 hits, 1 miss (1 compiled)``."""
        compiled = self.misses + self.corrupt
        plural = "" if self.misses == 1 else "es"
        line = (f"{self.hits} hit{'' if self.hits == 1 else 's'}, "
                f"{self.misses} miss{plural} ({compiled} compiled)")
        if self.corrupt:
            line += f", {self.corrupt} corrupt"
        return line


class CompileCache:
    """A content-addressed store of :class:`Bitstream` artifacts."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.dir = self.root / f"bitstreams-v{SCHEMA_VERSION}"
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """Where an artifact with this compile key lives."""
        return self.dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Bitstream]:
        """The cached artifact for ``key``, or None (caller recompiles).

        Outcomes are kept distinct: an absent entry is a miss; a
        *transient* read failure (EIO, EACCES, ...) is a miss but the
        entry — which may be perfectly fine — is left in place; an
        undecodable entry (truncated write, schema drift inside a
        versioned directory, a malformed program) is dropped and
        counted in ``stats.corrupt``.  Anything else is a programming
        bug and propagates instead of masquerading as a cache miss.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            # transient read error: do NOT unlink — the entry may be
            # intact and readable on the next lookup
            self.stats.misses += 1
            return None
        try:
            artifact = Bitstream.from_bytes(raw)
        except (ConfigError, IRError):
            # undecodable entry (ConfigError covers bytes that are not
            # JSON, a schema mismatch and any malformed field, IRError
            # a malformed program): drop it so the next put can
            # rewrite it
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return artifact

    def put(self, artifact: Bitstream,
            blob: Optional[bytes] = None) -> Path:
        """Store an artifact under its own compile key (atomic).

        ``blob`` is the artifact's ``to_bytes()`` when the caller
        already holds it (see :meth:`Bitstream.save`).

        Safe under multi-process races: concurrent writers of the same
        key each write a uniquely named temp file and atomically rename
        it into place — the artifact bytes are canonical, so the second
        rename wins silently with identical content.  Each ``put`` call
        counts exactly one store regardless of how the race resolves.
        """
        path = self.path_for(artifact.key)
        artifact.save(path, blob)
        self.stats.stores += 1
        return path

    def entries(self) -> int:
        """Number of artifacts currently stored."""
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self.dir.glob("*/*.json"))

    def __repr__(self):
        return f"CompileCache({str(self.dir)!r})"
