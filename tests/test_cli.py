"""Command-line entry point, run in-process."""

import json

from segreg.cli import main


def test_gradcheck_command_writes_all_passing_checks(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert len(doc) == 16
    assert all(entry["passed"] for entry in doc)
