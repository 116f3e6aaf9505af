"""Content-addressable memory for VCI-to-context steering.

The receive engine must map each arriving cell's (VPI, VCI) to its
reassembly context in a handful of cycles.  A CAM does the match in
hardware; the alternative -- a software hash probe on the engine -- is
an order of magnitude more cycles and is modelled through the cost
model's ``vci_lookup_software`` budget (the CAM-less ablation).

Functionally the CAM is an associative table of bounded size; the
bound matters because it caps the number of *simultaneously open* VCs
the receive path can serve at full rate.  Two policies exist for the
moment the bound is hit:

- ``"none"`` (the default, and the seed behaviour): programming a new
  entry into a full CAM raises :class:`CamFullError` -- the driver must
  refuse the VC, which is what admission control is for;
- ``"lru"``: the least recently *matched* entry is silently evicted to
  make room, the way drivers manage a CAM smaller than the connection
  table under massive multiplexing (see ``docs/SCALE.md``).  Cells for
  an evicted-but-open VC then miss -- tallied separately as
  :attr:`Cam.capacity_misses` so a scale run can distinguish "VC never
  opened" from "CAM too small".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Optional, Set, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Legal values for :attr:`Cam.eviction`.
EVICTION_POLICIES = ("none", "lru")


class CamFullError(RuntimeError):
    """No free CAM entry for a new key."""


class Cam(Generic[K, V]):
    """A fixed-capacity associative lookup table."""

    def __init__(
        self, capacity: int, name: str = "cam", eviction: str = "none"
    ) -> None:
        if capacity < 1:
            raise ValueError("CAM capacity must be >= 1")
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r} (use {EVICTION_POLICIES})"
            )
        self.capacity = capacity
        self.name = name
        self.eviction = eviction
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Entries displaced by the LRU policy since start.
        self.evictions = 0
        #: Misses for keys that *were* programmed but lost their entry
        #: to eviction -- the capacity pressure signal a scale run
        #: charts against CAM size.
        self.capacity_misses = 0
        #: Keys evicted and not since reprogrammed or removed.
        self._evicted: Set[K] = set()
        #: Keys the LRU policy must never displace (system channels:
        #: signalling, OAM).  See :meth:`pin`.
        self._pinned: Set[K] = set()
        #: Called with (key, value) when the LRU policy displaces an
        #: entry, so the owner (e.g. the NIC) can account for it.
        self.on_evict: Optional[Callable[[K, V], None]] = None
        #: Fault-injection hook: when set and it returns True for a key,
        #: the lookup reports a miss even though the entry is programmed
        #: (a flaky comparand array / parity-disabled entry).  Forced
        #: misses are tallied separately from genuine ones.
        self.fault_hook: Optional[Callable[[K], bool]] = None
        self.forced_misses = 0
        #: Observability hook (repro.obs): a TraceRecorder, or None;
        #: the owning interface copies its simulator's.  Lookups then
        #: emit ``rx.cam.hit`` / ``rx.cam.miss`` events, and LRU
        #: displacement emits ``rx.cam.evict``.
        self.trace = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    @property
    def free_entries(self) -> int:
        return self.capacity - len(self._entries)

    def pin(self, key: K) -> None:
        """Exempt *key* from LRU displacement (signalling/OAM channels).

        A full CAM whose entries are all pinned behaves like the
        ``"none"`` policy: the next install raises
        :class:`CamFullError`.
        """
        self._pinned.add(key)

    def _evict_lru(self) -> Tuple[K, V]:
        for victim in self._entries:
            if victim not in self._pinned:
                break
        else:
            raise CamFullError(
                f"{self.name}: every entry is pinned (capacity "
                f"{self.capacity})"
            )
        value = self._entries.pop(victim)
        self.evictions += 1
        self._evicted.add(victim)
        if self.trace is not None:
            self.trace.emit("rx.cam.evict", actor=self.name, vc=victim)
        if self.on_evict is not None:
            self.on_evict(victim, value)
        return victim, value

    def install(self, key: K, value: V) -> None:
        """Program an entry.

        A full CAM raises :class:`CamFullError` under the ``"none"``
        policy and displaces the least recently matched entry under
        ``"lru"``.
        """
        if key not in self._entries and len(self._entries) >= self.capacity:
            if self.eviction == "none":
                raise CamFullError(
                    f"{self.name}: no free entry for {key!r} "
                    f"(capacity {self.capacity})"
                )
            self._evict_lru()
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._evicted.discard(key)

    def remove(self, key: K) -> Optional[V]:
        """Invalidate an entry; returns its value or None."""
        self._evicted.discard(key)
        self._pinned.discard(key)
        return self._entries.pop(key, None)

    def lookup(self, key: K) -> Optional[V]:
        """Associative match; None on miss (cell for an unknown VC)."""
        if self.fault_hook is not None and self.fault_hook(key):
            self.forced_misses += 1
            self.misses += 1
            if self.trace is not None:
                self.trace.emit(
                    "rx.cam.miss", actor=self.name, vc=key, forced=True
                )
            return None
        value = self._entries.get(key)
        if value is None and key not in self._entries:
            self.misses += 1
            if key in self._evicted:
                self.capacity_misses += 1
            if self.trace is not None:
                self.trace.emit("rx.cam.miss", actor=self.name, vc=key)
            return None
        self.hits += 1
        if self.eviction == "lru":
            self._entries.move_to_end(key)
        if self.trace is not None:
            self.trace.emit("rx.cam.hit", actor=self.name, vc=key)
        return value

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
