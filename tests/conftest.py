"""Fixtures shared by the test modules."""
from __future__ import annotations

import threading

import numpy as np
import pytest


@pytest.fixture
def helper_threads(monkeypatch) -> list[threading.Thread]:
    """Record each helper thread that projection_energy starts beside the
    calling thread; the threads still run. Returns the list of them."""
    started: list[threading.Thread] = []

    class RecordedThread(threading.Thread):
        def start(self) -> None:
            started.append(self)
            super().start()

    monkeypatch.setattr("tubelab.projections.Thread", RecordedThread)
    return started


class HelperFault(RuntimeError):
    pass


@pytest.fixture
def helper_fault(monkeypatch) -> type[HelperFault]:
    """Make np.reciprocal, which only the energy kernel at s = 1 calls,
    raise HelperFault("helper task") on the first helper thread that calls
    it, at 4 CPUs. The calling thread waits for that fault before its own
    first call, so a helper is sure to take a task. Returns the type."""
    real = np.reciprocal
    failed = threading.Event()

    def reciprocal(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(30), "no helper thread reached the kernel"
        elif not failed.is_set():
            failed.set()
            raise HelperFault("helper task")
        return real(*args, **kwargs)

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(np, "reciprocal", reciprocal)
    return HelperFault
