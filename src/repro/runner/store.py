"""Persistent sweep results: content-addressed cache plus JSONL logs.

The :class:`ResultStore` is a flat on-disk cache under ``.repro-cache/``
(git-ignored).  A point's cached values live at::

    .repro-cache/points/<kk>/<key>.json

where ``key = sha256(point_hash : kernel_name : fingerprint)`` -- the
point's content hash (parameters), the kernel that computed it, and the
:func:`store_fingerprint`: the :func:`cost_model_fingerprint` of the
configured cost models joined to the :func:`source_fingerprint` of the
simulator's own code.  Touching any cycle budget, engine clock or link
rate -- or any byte of ``repro/**/*.py`` -- changes the fingerprint and
silently invalidates every cached point, so a warm cache can never
serve results from a different model of the hardware or from an older
simulator.

Floats survive the round trip bit-exactly: ``json`` serialises doubles
via the shortest-round-trip ``repr`` and parses them back to the same
IEEE-754 value, which is what lets a cache-warm re-run reproduce a
sweep byte for byte.

A :class:`RunLog` is the sweep's flight recorder: one JSON object per
line (``sweep_started``, ``point_cached`` / ``point_completed`` /
``point_failed`` per point, ``sweep_completed`` with the executor's
counters).  Durations come from ``time.perf_counter`` deltas -- wall
timestamps stay out so logs carry no entropy beyond scheduling.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, IO, Mapping, Optional

from repro.runner.spec import Point

#: Bump to invalidate every cache entry on a layout/semantics change.
SCHEMA_VERSION = 1

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def cost_model_fingerprint() -> str:
    """A short digest of everything the cost models charge.

    Covers both preset design points (STS-3c and STS-12c): per-operation
    transmit/receive budgets, engine clocks, link rates, DMA timings,
    and host OS/interrupt costs.  Any edit to those tables yields a new
    fingerprint -- and therefore a cold cache -- without the store
    having to understand the models themselves.
    """
    from dataclasses import asdict

    from repro.nic.config import aurora_oc3, aurora_oc12

    payload: Dict[str, Any] = {"schema": SCHEMA_VERSION}
    for label, config in (("oc3", aurora_oc3()), ("oc12", aurora_oc12())):
        payload[label] = {
            "tx_budget": config.tx_costs.breakdown(),
            "rx_budget": config.rx_costs.breakdown(),
            "tx_clock_hz": config.tx_engine.clock_hz,
            "rx_clock_hz": config.rx_engine.clock_hz,
            "link": [
                config.link.name,
                config.link.line_rate_bps,
                config.link.payload_rate_bps,
            ],
            "dma": asdict(config.dma),
            "bus": asdict(config.bus),
            "os": asdict(config.os_costs),
            "interrupt": asdict(config.interrupt),
            "host_clock_hz": config.host_cpu.clock_hz,
        }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def source_fingerprint(package_dir: Optional[os.PathLike] = None) -> str:
    """A short digest of the simulator's source code.

    Hashes every ``*.py`` file under *package_dir* (default: the
    installed ``repro`` package), by relative path and content, in
    sorted order -- so the digest depends on the code alone, not on
    where the tree lives or on compiled byte-code beside it.
    """
    if package_dir is None:
        import repro

        package_dir = Path(repro.__file__).parent
    root = Path(package_dir)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def store_fingerprint(package_dir: Optional[os.PathLike] = None) -> str:
    """The default cache fingerprint: cost models plus source code."""
    return f"{cost_model_fingerprint()}.{source_fingerprint(package_dir)}"


class ResultStore:
    """Content-addressed persistence for executed sweep points."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_CACHE_DIR)
        self.fingerprint = (
            fingerprint if fingerprint is not None else store_fingerprint()
        )

    # -- keys --------------------------------------------------------------

    def key(self, point: Point, kernel_name: str) -> str:
        """Cache key: point identity x kernel x store fingerprint."""
        blob = f"{point.hash}:{kernel_name}:{self.fingerprint}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / "points" / key[:2] / f"{key}.json"

    # -- cache -------------------------------------------------------------

    def get(self, point: Point, kernel_name: str) -> Optional[Dict[str, Any]]:
        """The cached values for *point*, or None on a miss.

        A corrupt or unreadable entry is a miss, never an error: the
        point simply re-executes and overwrites it.
        """
        path = self._path(self.key(point, kernel_name))
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or "values" not in payload:
            return None
        values = payload["values"]
        return values if isinstance(values, dict) else None

    def put(
        self, point: Point, kernel_name: str, values: Mapping[str, Any]
    ) -> Path:
        """Persist *values* for *point*; returns the entry's path.

        The write goes through a same-directory temp file and an atomic
        rename, so a crashed run never leaves a half-written entry for
        :meth:`get` to trip over.
        """
        path = self._path(self.key(point, kernel_name))
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment": point.experiment,
            "params": dict(point.params),
            "point_hash": point.hash,
            "kernel": kernel_name,
            "fingerprint": self.fingerprint,
            "values": dict(values),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )
        tmp.replace(path)
        return path

    def __contains__(self, item) -> bool:
        point, kernel_name = item
        return self._path(self.key(point, kernel_name)).exists()

    def entries(self) -> int:
        """Number of cached points on disk."""
        base = self.root / "points"
        if not base.exists():
            return 0
        return sum(1 for _ in base.rglob("*.json"))

    def run_log_path(self, name: str) -> Path:
        """The default location for a named run log."""
        return self.root / "runs" / f"{name}.jsonl"


class RunLog:
    """Append-only JSONL journal of one sweep execution."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = None
        self.events_written = 0

    def event(self, name: str, **fields: Any) -> None:
        """Write one event line (opens the file lazily, truncating)."""
        if self._fh is None:
            self._fh = self.path.open("w", encoding="utf-8")
        record = {"event": name}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
