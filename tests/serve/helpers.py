"""Helpers shared by the serving tests."""

from __future__ import annotations

import time


def wait(predicate, timeout=10.0, interval=0.01):
    """Poll *predicate* until it holds or *timeout* seconds pass;
    returns its last value."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
