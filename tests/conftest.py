"""Shared fixtures."""

import pytest

import segreg.geometry as geometry


@pytest.fixture
def fallback_rows(monkeypatch):
    """Record every neighbor-table row recomputed by the exact per-row query."""
    rows = []
    exact_row = geometry._exact_row

    def spy(point, *args, **kwargs):
        rows.append(point)
        return exact_row(point, *args, **kwargs)

    monkeypatch.setattr(geometry, "_exact_row", spy)
    return rows
