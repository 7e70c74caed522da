"""The finite-difference suite: every row of ``segreg gradcheck`` passes,
and every tape op of ``autodiff`` has a row of its own."""

import pytest

from segreg import autodiff
from segreg.gradcheck import COMPONENTS, run_checks

# names in autodiff.__all__ that record no tape node of their own
NOT_TAPE_OPS = {"Tensor", "Tape", "RowMap", "backward", "NonFiniteError", "require_finite",
                "quiet", "scatter_add_rows", "record_custom", "accumulate_grad"}


@pytest.mark.parametrize("component", COMPONENTS)
def test_every_gradient_check_passes(component):
    failing = [f"{r.name}: max_rel_error {r.max_rel_error:.3e} >= tolerance {r.tolerance:.0e}"
               for r in run_checks(component) if not r.passed]
    assert not failing, f"{component} checks fail: {failing}"


def test_every_tape_op_has_its_own_row():
    rows = {r.name for r in run_checks("tensor")}
    assert rows == set(autodiff.__all__) - NOT_TAPE_OPS
