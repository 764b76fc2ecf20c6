"""CLI integration: ``repro chaos`` and the rerun of its report.

A chaos report is deterministic end to end, so its own ``context``
block must reproduce it exactly: the rerun equals the written document
and a candidate-less ``obs-diff`` passes.
"""

import json

from repro.cli import main
from repro.obs.context import RunContext


def test_chaos_report_reruns_exactly_from_its_context(tmp_path, capsys):
    report = tmp_path / "chaos_report.json"
    argv = [
        "chaos", "--n", "1500", "--queries", "12", "--batches", "1",
        "--rates", "0.0,0.1", "--out", str(report),
    ]
    assert main(argv) == 0
    doc = json.loads(report.read_text())
    assert doc["context"]["bench"] == "chaos"
    assert RunContext.from_document(doc).rerun() == doc
    assert main(["obs-diff", str(report)]) == 0
    assert "rate=0.1" in capsys.readouterr().out
