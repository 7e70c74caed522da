"""Evaluation statistics: parity of the Wilcoxon test with scipy."""

import numpy as np
import pytest
from scipy.stats import wilcoxon

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
        if ref.statistic == n_nonzero * (n_nonzero + 1) / 4.0:
            continue                              # scipy drops the correction here
        p, _ = wilcoxon_signed_rank(a, b)
        assert p == pytest.approx(ref.pvalue, rel=1e-12)
        checked += 1
    assert checked > 250
