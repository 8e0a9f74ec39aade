"""Size-, count- and age-capped LRU eviction, shared by every store backend.

The policy is pure data (:class:`EvictionPolicy`) and the planner is a pure
function over entry metadata (:func:`plan_eviction`), so all backends — and
their tests — share one implementation: a backend only has to report
``(key, size_bytes, last_used)`` triples and delete the keys the planner
picks.  Least-recently-*used* entries go first; a cache hit refreshes an
entry's ``last_used``, so the working set of a warm sweep survives eviction.

Two cap families compose:

* **LRU caps** (``max_entries`` / ``max_bytes``) bound the store's size and
  retire the oldest entries until both caps hold;
* **TTL expiry** (``ttl_seconds``, URI parameter ``?ttl=``) retires any
  entry whose ``last_used`` is older than the horizon, *regardless* of the
  size caps — a long-lived shared store ages results out even when it never
  fills up.  TTL is enforced wherever ``plan_eviction`` runs: on every
  bounded ``put`` and on explicit ``evict`` calls.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.store.base import EntryInfo

__all__ = ["EvictionPolicy", "parse_duration", "parse_size", "plan_eviction"]

_SIZE_RE = re.compile(r"^(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[a-z]*)$")

#: Byte-size suffixes.  Binary prefixes (``KiB``/``MiB``/…) and the bare
#: single-letter forms (``K``/``M``/…, the historical spelling) are powers
#: of 1024; the decimal suffixes (``kB``/``MB``/…) are powers of 1000, as
#: SI defines them — ``1kB`` is 1000 bytes, not 1024 (the old parser
#: consulted only the first unit letter and silently read every ``*b``
#: spelling as binary).
_SIZE_UNITS = {
    "": 1,
    "b": 1,
    "k": 1024,
    "ki": 1024,
    "kib": 1024,
    "kb": 1000,
    "m": 1024**2,
    "mi": 1024**2,
    "mib": 1024**2,
    "mb": 1000**2,
    "g": 1024**3,
    "gi": 1024**3,
    "gib": 1024**3,
    "gb": 1000**3,
    "t": 1024**4,
    "ti": 1024**4,
    "tib": 1024**4,
    "tb": 1000**4,
}

_DURATION_RE = re.compile(r"^(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[a-z]*)$")
_DURATION_UNITS = {
    "": 1.0,
    "s": 1.0,
    "m": 60.0,
    "min": 60.0,
    "h": 3600.0,
    "d": 86400.0,
}


def parse_size(text: str | int) -> int:
    """Parse a human byte size (``"512MiB"``, ``"1G"``, ``"65536"``) to bytes.

    Binary suffixes (``KiB``, ``MiB``, ``GiB``, ``TiB`` — and bare ``K``,
    ``M``, ``G``, ``T``) are powers of 1024; decimal suffixes (``kB``,
    ``MB``, ``GB``, ``TB``) are powers of 1000.  Unknown suffixes raise
    rather than guess.
    """
    if isinstance(text, int):
        return text
    match = _SIZE_RE.match(text.strip().lower())
    if match is None:
        raise ValueError(
            f"unparseable size {text!r}; expected e.g. 65536, 512MiB, 1G, 2kB"
        )
    unit = match["unit"]
    if unit not in _SIZE_UNITS:
        raise ValueError(
            f"unknown size unit {unit!r} in {text!r}; binary: K/KiB/M/MiB/G/GiB/"
            "T/TiB (powers of 1024), decimal: kB/MB/GB/TB (powers of 1000)"
        )
    return int(float(match["num"]) * _SIZE_UNITS[unit])


def parse_duration(text: str | int | float) -> float:
    """Parse a human duration (``"30s"``, ``"10m"``, ``"1.5h"``, ``"600"``)
    to seconds.  Bare numbers are seconds; ``d`` is days."""
    if isinstance(text, (int, float)):
        return float(text)
    match = _DURATION_RE.match(text.strip().lower())
    if match is None:
        raise ValueError(
            f"unparseable duration {text!r}; expected e.g. 600, 30s, 10m, 2h, 1d"
        )
    unit = match["unit"]
    if unit not in _DURATION_UNITS:
        raise ValueError(
            f"unknown duration unit {unit!r} in {text!r}; "
            f"options: {sorted(u for u in _DURATION_UNITS if u)}"
        )
    return float(match["num"]) * _DURATION_UNITS[unit]


def _format_seconds(seconds: float) -> str:
    """Canonical ``ttl=`` query value: integral seconds stay integral."""
    return str(int(seconds)) if seconds == int(seconds) else str(seconds)


@dataclass(frozen=True)
class EvictionPolicy:
    """Caps on a result store; ``None`` leaves a dimension unbounded.

    ``ttl_seconds`` expires entries by age since last use, on top of the
    LRU size caps.
    """

    max_entries: int | None = None
    max_bytes: int | None = None
    ttl_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_entries", "max_bytes", "ttl_seconds"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def bounded(self) -> bool:
        """Whether the policy constrains anything at all."""
        return (
            self.max_entries is not None
            or self.max_bytes is not None
            or self.ttl_seconds is not None
        )

    def as_query(self) -> str:
        """The policy as a URI query suffix (``""`` when unbounded).

        Inverse of :meth:`from_query`: appending this to a store's location
        makes its URI round-trip caps included.
        """
        parts = []
        if self.max_entries is not None:
            parts.append(f"max_entries={self.max_entries}")
        if self.max_bytes is not None:
            parts.append(f"max_bytes={self.max_bytes}")
        if self.ttl_seconds is not None:
            parts.append(f"ttl={_format_seconds(self.ttl_seconds)}")
        return "?" + "&".join(parts) if parts else ""

    @classmethod
    def from_query(cls, params: dict[str, str]) -> "EvictionPolicy":
        """Build a policy from URI query parameters (unknown keys rejected)."""
        known = {"max_entries", "max_bytes", "ttl"}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(f"unknown store URI parameters {unknown}; options: {sorted(known)}")
        return cls(
            max_entries=int(params["max_entries"]) if "max_entries" in params else None,
            max_bytes=parse_size(params["max_bytes"]) if "max_bytes" in params else None,
            ttl_seconds=parse_duration(params["ttl"]) if "ttl" in params else None,
        )


def plan_eviction(
    entries: Iterable["EntryInfo"],
    policy: EvictionPolicy,
    now: float | None = None,
) -> list[str]:
    """Keys to evict (least recently used first) to satisfy ``policy``.

    Entries are retired oldest-``last_used`` first until both the entry-count
    and total-byte caps hold; with a TTL, every entry last used before
    ``now - ttl_seconds`` is retired regardless of the caps.  ``now``
    defaults to the current time and exists as a parameter so the planner
    stays a pure, testable function.  With an unbounded policy nothing is
    evicted.
    """
    if not policy.bounded:
        return []
    if now is None:
        # mas-lint: disable=determinism(TTL horizon is LRU bookkeeping against wall-clock last_used stamps, never part of a result payload)
        now = time.time()
    horizon = None if policy.ttl_seconds is None else now - policy.ttl_seconds
    ordered = sorted(entries, key=lambda e: (e.last_used, e.key))
    count = len(ordered)
    total = sum(e.size_bytes for e in ordered)
    evicted: list[str] = []
    for entry in ordered:
        expired = horizon is not None and entry.last_used < horizon
        over_count = policy.max_entries is not None and count > policy.max_entries
        over_bytes = policy.max_bytes is not None and total > policy.max_bytes
        if not expired and not over_count and not over_bytes:
            # Ordered by last_used ascending: every later entry is newer
            # (not expired) and the caps already hold, so nothing else goes.
            break
        evicted.append(entry.key)
        count -= 1
        total -= entry.size_bytes
    return evicted
