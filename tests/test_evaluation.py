"""Evaluation statistics: parity of the Wilcoxon test with scipy, and the CLI
starting without scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import wilcoxon

import segreg
from segreg.evaluation import wilcoxon_signed_rank


def test_wilcoxon_matches_scipy_normal_approximation_with_ties():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(8, 40))
        a = rng.integers(0, 20, size=n).astype(float)
        b = a + rng.integers(-6, 8, size=n)       # small integers: ties and zeros
        n_nonzero = int(np.sum(a != b))
        if n_nonzero < 6:
            continue
        ref = wilcoxon(a, b, method="approx", correction=True)
        p, r = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(ref.pvalue, rel=1e-12)
        assert r == pytest.approx(abs(ref.zstatistic) / np.sqrt(n_nonzero), rel=1e-12)
        checked += 1
    assert checked > 250


def test_wilcoxon_statistic_at_its_mean_has_no_effect():
    """W+ = W- = n(n+1)/4: the continuity correction does not push Z off 0."""
    a = np.zeros(6)
    p, r = wilcoxon_signed_rank(a, np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0]))
    assert (p, r) == (1.0, 0.0)


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes longer to import than the whole CLI, so only the
    Wilcoxon test loads it."""
    src = str(Path(segreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, segreg.cli; "
             "print([m for m in sys.modules if m.startswith('scipy.stats')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
