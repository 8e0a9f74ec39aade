"""Tests for the store layer's retry-with-backoff helper
(:mod:`repro.store.retry`) and the SQLite busy handling that goes through it.

The backend *contract* of :class:`~repro.store.sqlite.SqliteStore` is covered
by the parametrized matrix in ``tests/test_store.py``; this file covers the
transient-failure path: the backoff schedule, give-up semantics, the
busy-error classifier and a writer riding out lock contention.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.store import RetryPolicy, SqliteStore, call_with_retry, make_payload
from repro.store.sqlite import is_sqlite_busy


def payload_for(key: str, value: int = 0) -> dict:
    return make_payload(
        key,
        {
            "scheduler": "mas",
            "workload": f"wl-{value}",
            "strategy": "mcts+ga",
            "budget": value,
        },
    )


# ---------------------------------------------------------------------- #
# Retry with backoff (SQLite busy handling)
# ---------------------------------------------------------------------- #
class TestRetryHelper:
    def test_returns_first_success_without_sleeping(self):
        sleeps: list[float] = []
        assert call_with_retry(lambda: 42, sleep=sleeps.append) == 42
        assert sleeps == []

    def test_backoff_schedule_and_eventual_success(self):
        sleeps: list[float] = []
        attempts = iter([True, True, False])  # fail, fail, succeed

        def flaky():
            if next(attempts):
                raise TimeoutError("transient")
            return "done"

        policy = RetryPolicy(attempts=5, base_delay=0.1, backoff=2.0, max_delay=10.0)
        assert call_with_retry(flaky, policy=policy, sleep=sleeps.append) == "done"
        assert sleeps == [0.1, 0.2]  # exponential, one sleep per failure

    def test_gives_up_after_attempts_and_reraises_last(self):
        sleeps: list[float] = []

        def always_fails():
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError, match="still down"):
            call_with_retry(
                always_fails, policy=RetryPolicy(attempts=3, base_delay=0.01),
                sleep=sleeps.append,
            )
        assert len(sleeps) == 2  # attempts-1 sleeps

    def test_non_transient_errors_escape_immediately(self):
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            call_with_retry(
                fails,
                should_retry=lambda exc: isinstance(exc, TimeoutError),
                sleep=lambda s: None,
            )
        assert len(calls) == 1

    def test_delay_caps_at_max(self):
        policy = RetryPolicy(attempts=10, base_delay=1.0, backoff=10.0, max_delay=3.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 3.0  # 10.0 capped
        assert policy.delay(5) == 3.0

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class _FlakyConnection:
    """Wraps a sqlite connection; the first ``failures`` statements raise BUSY."""

    def __init__(self, real: sqlite3.Connection, failures: int) -> None:
        self._real = real
        self.failures = failures
        self.attempts = 0

    def execute(self, *args, **kwargs):
        self.attempts += 1
        if self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError("database is locked")
        return self._real.execute(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._real.__exit__(*exc_info)


class TestSqliteBusyRetry:
    def test_busy_classifier(self):
        assert is_sqlite_busy(sqlite3.OperationalError("database is locked"))
        assert is_sqlite_busy(sqlite3.OperationalError("database is busy"))
        assert not is_sqlite_busy(
            sqlite3.OperationalError("attempt to write a readonly database")
        )
        assert not is_sqlite_busy(ValueError("database is locked"))  # wrong type

    def test_write_rides_out_lock_contention(self, tmp_path):
        store = SqliteStore(
            tmp_path / "c.db", retry=RetryPolicy(attempts=4, base_delay=0.001)
        )
        flaky = _FlakyConnection(store._connect(), failures=2)
        store._conn = flaky  # type: ignore[assignment]
        store.write("k", payload_for("k", 7))
        assert flaky.attempts == 3  # two BUSY failures, then success
        store._conn = flaky._real
        assert store.get("k")["meta"]["budget"] == 7
        store.close()

    def test_persistent_lock_error_escapes(self, tmp_path):
        store = SqliteStore(
            tmp_path / "c.db", retry=RetryPolicy(attempts=2, base_delay=0.001)
        )
        flaky = _FlakyConnection(store._connect(), failures=99)
        store._conn = flaky  # type: ignore[assignment]
        with pytest.raises(sqlite3.OperationalError):
            store.write("k", payload_for("k"))
        store._conn = flaky._real
        store.close()
