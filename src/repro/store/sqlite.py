"""Single-file SQLite result store: shared, indexed, eviction-friendly.

The scalable backend of the result-store subsystem: one ``.db`` file in WAL
mode holds every entry, safe for the concurrent worker processes of a
:class:`~repro.exec.runner.ParallelRunner` (WAL readers never block the
writer; writers serialize through a busy-timeout).  Compared to a directory
of JSON files it adds

* **indexed metadata** — scheduler / workload / strategy / suite columns are
  extracted from each payload and indexed, so ``cache ls``-style queries
  don't parse every blob;
* **cheap LRU accounting** — ``last_used`` / ``size_bytes`` columns make
  eviction one ordered query instead of a directory scan;
* **one file to share** — a single DB can be mounted or copied between
  hosts.

Every worker process opens its own connection (connections are created from
the store URI inside the worker, never pickled).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import weakref
from pathlib import Path
from typing import Any

from repro.store.base import EntryInfo, ResultStore
from repro.store.eviction import EvictionPolicy
from repro.store.retry import RetryPolicy, call_with_retry
from repro.store.schema import entry_meta, normalize_payload

__all__ = ["SqliteStore", "is_sqlite_busy"]


def is_sqlite_busy(exc: BaseException) -> bool:
    """Whether an exception is SQLite lock contention (transient, retryable).

    ``SQLITE_BUSY``/``SQLITE_LOCKED`` surface as ``OperationalError`` with
    these messages; anything else (read-only database, malformed file, bad
    SQL) is permanent and must escape immediately.
    """
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "database is locked" in message or "database is busy" in message

#: Layout version of the database itself (tables/columns, not entry payloads).
DB_FORMAT_VERSION = 1

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS store_meta (
    name  TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS entries (
    key        TEXT PRIMARY KEY,
    schema     INTEGER,
    scheduler  TEXT,
    workload   TEXT,
    strategy   TEXT,
    suite      TEXT,
    payload    TEXT NOT NULL,
    size_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL,
    last_used  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_entries_scheduler ON entries (scheduler);
CREATE INDEX IF NOT EXISTS idx_entries_workload  ON entries (workload);
CREATE INDEX IF NOT EXISTS idx_entries_strategy  ON entries (strategy);
CREATE INDEX IF NOT EXISTS idx_entries_suite     ON entries (suite);
CREATE INDEX IF NOT EXISTS idx_entries_last_used ON entries (last_used);
"""


#: Every live store with a (possibly) open connection, so the at-fork hook
#: below can find them.  Weak references: registration must not keep stores
#: alive.
_LIVE_STORES: "weakref.WeakSet[SqliteStore]" = weakref.WeakSet()


def _discard_inherited_connections() -> None:  # pragma: no cover - fork hook
    """After ``fork()``, forget (do not use) connections the child inherited.

    A SQLite connection must never be *used* across ``fork()``.  Clearing
    ``_conn`` in the child means any later use of an inherited store opens a
    fresh connection, instead of sharing the parent's handle — the hazard
    the PR-1 cache's close-before-fork discipline exists for, now enforced
    structurally.  (The inherited handle is left for the child's GC: with
    per-offset I/O and per-process POSIX locks, a plain close from another
    process is an ordinary multi-process event for SQLite.)
    """
    for store in list(_LIVE_STORES):
        store._conn = None


if hasattr(os, "register_at_fork"):  # POSIX only; harmless to skip elsewhere
    os.register_at_fork(after_in_child=_discard_inherited_connections)


class SqliteStore(ResultStore):
    """Result store over a single SQLite database file (WAL mode)."""

    backend = "sqlite"

    def __init__(
        self,
        path: str | Path,
        policy: EvictionPolicy | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(policy)
        self.path = Path(path).expanduser()
        #: Backoff schedule for writes that still hit SQLITE_BUSY after the
        #: connection's busy timeout — e.g. a writer starved by a long
        #: transaction, through :func:`repro.store.retry.call_with_retry`.
        self.retry = retry or RetryPolicy()
        self._conn: sqlite3.Connection | None = None

    def _retrying(self, fn):
        """Run one statement batch, retrying on lock contention only."""
        return call_with_retry(fn, policy=self.retry, should_retry=is_sqlite_busy)

    def uri(self) -> str:
        path = str(self.path)
        # ``sqlite:///abs/path.db`` for absolute paths, ``sqlite:rel.db`` else.
        base = f"sqlite://{path}" if path.startswith("/") else f"sqlite:{path}"
        return base + self.policy.as_query()

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
            conn.execute("PRAGMA busy_timeout = 30000")
            try:
                conn.execute("PRAGMA journal_mode = WAL")
                conn.execute("PRAGMA synchronous = NORMAL")
            except sqlite3.DatabaseError:
                pass  # odd filesystem or not-a-database file; reads decide below
            try:
                with conn:
                    conn.executescript(_SCHEMA_SQL)
                    conn.execute(
                        "INSERT OR IGNORE INTO store_meta (name, value) VALUES (?, ?)",
                        ("db_format", str(DB_FORMAT_VERSION)),
                    )
            except sqlite3.DatabaseError:
                # Read-only database (a mounted shared cache, a CI artifact):
                # serve whatever schema it already carries — lookups must
                # work; writes will fail loudly at the call that attempts
                # them, exactly like a read-only JSON directory.
                pass
            self._conn = conn
            _LIVE_STORES.add(self)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __getstate__(self) -> dict[str, Any]:
        # Workers rebuild the connection from the path; never pickle handles.
        return {"path": self.path, "policy": self.policy, "retry": self.retry, "_conn": None}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Backend primitives
    # ------------------------------------------------------------------ #
    def read(self, key: str) -> dict[str, Any] | None:
        try:
            row = self._connect().execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError:
            # No entries table (a read-only file that was never a store) or
            # a file that is not a SQLite database at all: nothing usable is
            # stored there, so every lookup is a plain miss.
            return None
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except json.JSONDecodeError:  # pragma: no cover - requires external corruption
            return None
        return payload if isinstance(payload, dict) else None

    def write(self, key: str, payload: dict[str, Any]) -> Path:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        normalized, status = normalize_payload(payload)
        usable = status in ("ok", "upgraded")
        meta = entry_meta(normalized if usable else {})
        # mas-lint: disable=determinism(LRU last_used bookkeeping, never part of a result payload)
        now = time.time()

        def insert() -> None:
            with self._connect() as conn:
                conn.execute(
                    """
                    INSERT INTO entries
                        (key, schema, scheduler, workload, strategy, suite,
                         payload, size_bytes, created_at, last_used)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    ON CONFLICT (key) DO UPDATE SET
                        schema = excluded.schema,
                        scheduler = excluded.scheduler,
                        workload = excluded.workload,
                        strategy = excluded.strategy,
                        suite = excluded.suite,
                        payload = excluded.payload,
                        size_bytes = excluded.size_bytes,
                        last_used = excluded.last_used
                    """,
                    (
                        key,
                        # NULL for stale payloads, so stats/ls agree with lookup
                        payload.get("schema") if usable else None,
                        meta["scheduler"],
                        meta["workload"],
                        meta["strategy"],
                        meta["suite"],
                        text,
                        len(text.encode()),
                        now,
                        now,
                    ),
                )

        self._retrying(insert)
        return self.path

    def delete(self, key: str) -> bool:
        def run() -> sqlite3.Cursor:
            with self._connect() as conn:
                return conn.execute("DELETE FROM entries WHERE key = ?", (key,))

        return self._retrying(run).rowcount > 0

    def keys(self) -> list[str]:
        try:
            return [row[0] for row in self._connect().execute("SELECT key FROM entries")]
        except sqlite3.DatabaseError:  # schema-less or not-a-database file
            return []

    def exists(self, key: str) -> bool:
        # Indexed existence probe: no payload fetch, no JSON parse.
        try:
            row = self._connect().execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError:  # schema-less or not-a-database file
            return False
        return row is not None

    def touch(self, key: str) -> None:
        def run() -> None:
            with self._connect() as conn:
                conn.execute(
                    # mas-lint: disable=determinism(LRU last_used bookkeeping, never part of a result payload)
                    "UPDATE entries SET last_used = ? WHERE key = ?", (time.time(), key)
                )

        try:
            self._retrying(run)
        except sqlite3.DatabaseError:
            # Read-only or unusable database file (or contention that outlived
            # the retry schedule): LRU freshness is best-effort, the lookup
            # that triggered the touch must not fail.
            pass

    def clear(self) -> int:
        # One statement instead of the base class's per-key DELETEs (each an
        # auto-committed write): clearing a large store stays one statement.
        def run() -> sqlite3.Cursor:
            with self._connect() as conn:
                return conn.execute("DELETE FROM entries")

        return self._retrying(run).rowcount

    def entries(self, **filters: str | None) -> list[EntryInfo]:
        """Entry metadata; filters become indexed equality constraints."""
        active = self._check_entry_filters(filters)
        clauses = [f"{column} = ?" for column in active]
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        try:
            rows = self._connect().execute(
                "SELECT key, schema, scheduler, workload, strategy, suite, "
                f"size_bytes, last_used FROM entries{where}",
                list(active.values()),
            )
        except sqlite3.DatabaseError:  # schema-less or not-a-database file
            return []
        return [EntryInfo(*row) for row in rows]

    def _list_entries(self) -> list[EntryInfo]:
        return self.entries()
