"""Moving entries between stores (and entry schemas) without losing work.

``migrate_store`` copies every entry of one store into another, upgrading
old-schema payloads on the way (:func:`repro.store.schema.normalize_payload`).
Keys are preserved verbatim — a cache key never depends on the entry schema
or the backend — so a sweep that was warm against the source is warm against
the destination: this is how an early JSON directory becomes a shared
SQLite store (and back) with zero entry loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store.base import ResultStore
from repro.store.schema import normalize_payload

__all__ = ["MigrationReport", "migrate_store"]

#: Entries written per ``put_many`` call: a bounded destination runs its
#: eviction scan once per batch instead of once per entry.
MIGRATE_BATCH_SIZE = 64


@dataclass
class MigrationReport:
    """Outcome of one store migration."""

    source: str
    destination: str
    migrated: int = 0
    upgraded: int = 0
    skipped_stale: list[str] = field(default_factory=list)
    skipped_existing: int = 0

    def summary(self) -> str:
        parts = [
            f"migrated {self.migrated} entries {self.source} -> {self.destination}"
        ]
        if self.upgraded:
            parts.append(f"{self.upgraded} upgraded to the current entry schema")
        if self.skipped_existing:
            parts.append(f"{self.skipped_existing} already present (kept)")
        if self.skipped_stale:
            parts.append(f"{len(self.skipped_stale)} stale entries skipped")
        return "; ".join(parts)


def migrate_store(
    source: ResultStore,
    destination: ResultStore,
    overwrite: bool = False,
) -> MigrationReport:
    """Copy every usable entry of ``source`` into ``destination``.

    Old-schema payloads are upgraded in transit (counted in ``upgraded``);
    entries with an unknown schema cannot be converted and are skipped but
    *listed* in the report, so nothing disappears silently.  Existing
    destination entries are kept unless ``overwrite`` is set — with
    content-hash keys both sides carry the same result anyway, and keeping
    the destination's copy preserves its LRU state.
    """
    report = MigrationReport(source=source.uri(), destination=destination.uri())
    # One listing up front: probing membership per key would read (and for
    # the JSON backend, parse) a full destination payload per source entry,
    # making re-runs of a mostly-complete migration slower than the first.
    existing = set() if overwrite else set(destination.keys())
    todo = []
    for key in sorted(source.keys()):
        if key in existing:
            # Skip before reading: resuming a mostly-complete migration must
            # not re-parse every already-copied payload.
            report.skipped_existing += 1
        else:
            todo.append(key)
    for start in range(0, len(todo), MIGRATE_BATCH_SIZE):
        batch: dict[str, dict] = {}
        for key in todo[start : start + MIGRATE_BATCH_SIZE]:
            payload, status = normalize_payload(source.read(key))
            if payload is None:
                report.skipped_stale.append(key)
                continue
            batch[key] = payload
            report.migrated += 1
            report.upgraded += status == "upgraded"
        if batch:
            destination.put_many(batch)
    return report
