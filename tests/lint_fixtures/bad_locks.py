"""Seeded lock-discipline violations — every access below the lock is a bug."""

import threading


class Racy:  # mas-lint: disable=fork-safety(fixture seeds lock-discipline findings only)
    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}
        self.total = 0

    def bump(self, key):
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self.total += 1

    def peek(self, key):
        return self._counts.get(key, 0)  # read outside the lock

    def reset(self):
        self._counts.clear()  # mutator call outside the lock
        self.total = 0  # write outside the lock

    def _drain_locked(self):
        self._counts.clear()

    def drain(self):
        return self._drain_locked()  # *_locked helper called without the lock

