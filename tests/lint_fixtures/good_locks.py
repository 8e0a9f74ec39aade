"""Lock-discipline compliant twin of ``bad_locks.py``."""

import threading


class Disciplined:  # mas-lint: disable=fork-safety(test fixture, never crosses a process boundary)
    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}
        self.total = 0

    def bump(self, key):
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self.total += 1

    def peek(self, key):
        with self._lock:
            return self._counts.get(key, 0)

    def reset(self):
        with self._lock:
            self._drain_locked()

    def _drain_locked(self):
        self._counts.clear()
        self.total = 0

