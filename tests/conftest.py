"""Shared fixtures."""

import pytest

import segreg.geometry as geometry
from segreg.gradcheck import run_checks


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


@pytest.fixture
def gradcheck_rows_pass():
    """Assert that the named rows of one ``segreg gradcheck`` component pass.
    The finite-difference checks are written once, as rows of
    ``segreg.gradcheck``; a test of an op's gradient runs its row."""
    def check(component, *names):
        results = {r.name: r for r in run_checks(component)}
        failing = [f"{n}: max_rel_error {results[n].max_rel_error:.3e} "
                   f">= tolerance {results[n].tolerance:.0e}"
                   for n in names if not results[n].passed]
        assert not failing, f"{component} checks fail: {failing}"
    return check
