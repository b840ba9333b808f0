"""Fixtures shared by the test modules."""
from __future__ import annotations

import pytest


@pytest.fixture
def inline_pool(monkeypatch) -> list[int]:
    """Replace the projections' ThreadPoolExecutor with one that records
    each max_workers it is given and runs the tasks on the calling thread,
    so no thread starts. Returns the list of recorded values."""
    requested: list[int] = []

    class InlinePool:
        def __init__(self, max_workers: int) -> None:
            requested.append(max_workers)

        def __enter__(self) -> "InlinePool":
            return self

        def __exit__(self, *exc) -> None:
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("tubelab.projections.ThreadPoolExecutor", InlinePool)
    return requested
