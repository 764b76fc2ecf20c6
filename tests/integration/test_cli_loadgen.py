"""CLI integration: ``repro loadgen`` and the ``obs-diff`` load path.

Small virtual-clock sweeps keep these fast; they pin the contract the
CI ``load-smoke`` job relies on: byte-identical virtual documents, a
schema-valid artifact, a candidate-less ``obs-diff`` that rebuilds the
run from the baseline's own context block, and a nonzero exit on a
doctored tail or on a baseline row the rerun left unchecked.
"""

import json

from repro.cli import main
from repro.obs.schema import validate_bench_load

FAST = [
    "--family", "uniform", "--n", "300", "--rates", "50,100",
    "--queries", "40", "--clock", "virtual",
]


def run_loadgen(tmp_path, name, extra=()):
    out = tmp_path / name
    assert main(["loadgen", *FAST, *extra, "--out", str(out)]) == 0
    return out


class TestLoadgenCommand:
    def test_virtual_sweep_writes_valid_document(self, tmp_path, capsys):
        out = run_loadgen(tmp_path, "load.json")
        doc = json.loads(out.read_text())
        validate_bench_load(doc)
        assert doc["context"]["bench"] == "load"
        assert doc["context"]["n"] == 300
        assert len(doc["rows"]) == 2
        stdout = capsys.readouterr().out
        assert "open-loop load sweep" in stdout
        assert "saturation knee" in stdout

    def test_virtual_runs_are_byte_identical(self, tmp_path, capsys):
        a = run_loadgen(tmp_path, "a.json")
        b = run_loadgen(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_knee_reported_when_sweep_crosses_capacity(self, tmp_path, capsys):
        # batch_max=1, 2 workers, 2.5ms/query => capacity 800 q/s.
        run_loadgen(
            tmp_path, "knee.json",
            extra=["--rates", "200,400,1600", "--batch-max", "1",
                   "--arrival", "constant", "--queries", "120"],
        )
        assert "saturation knee: ~" in capsys.readouterr().out


class TestObsDiffLoadPath:
    def test_self_compare_via_fresh_context_rerun(self, tmp_path, capsys):
        baseline = run_loadgen(tmp_path, "base.json")
        # No candidate: obs-diff rebuilds the sweep from the baseline's
        # context block; virtual clock => exact, full-strictness match.
        assert main(["obs-diff", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out.lower()

    def test_doctored_tail_fails_nonzero(self, tmp_path, capsys):
        baseline = run_loadgen(tmp_path, "base.json")
        doc = json.loads(baseline.read_text())
        for row in doc["rows"]:
            for key in ("p95_latency_ms", "p99_latency_ms"):
                row[key] = round(row[key] * 4.0, 4)
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        assert main(["obs-diff", str(baseline), str(doctored)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_baseline_row_the_rerun_lacks_fails_unless_declared(
        self, tmp_path, capsys
    ):
        baseline = run_loadgen(tmp_path, "base.json")
        doc = json.loads(baseline.read_text())
        extra = dict(doc["rows"][0], rate=999.0)
        doc["rows"].append(extra)
        doctored = tmp_path / "extra_row.json"
        doctored.write_text(json.dumps(doc))
        assert main(["obs-diff", str(doctored)]) == 1
        out = capsys.readouterr().out
        assert "UNCHECKED" in out
        assert "2 rows compared, 1 unmatched: 1 unchecked" in out
        assert out.rstrip().endswith("FAIL")
        extra["rerun_exempt"] = "hand-made row"
        doctored.write_text(json.dumps(doc))
        assert main(["obs-diff", str(doctored)]) == 0
        out = capsys.readouterr().out
        assert "(not rerun: hand-made row)" in out
        assert "2 rows compared, 1 unmatched: 0 unchecked" in out

    def test_explicit_fresh_load_flag(self, tmp_path, capsys):
        baseline = run_loadgen(tmp_path, "base.json")
        assert main(["obs-diff", str(baseline), "--fresh", "load"]) == 0


class TestFlightrecSpillFlag:
    def test_spill_flag_writes_jsonl_and_reports(self, tmp_path, capsys):
        spill = tmp_path / "spill.jsonl"
        rc = main([
            "flightrec", "--family", "uniform", "--n", "300",
            "--rate", "0.4", "--queries", "12", "--cap", "800",
            "--spill", str(spill),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spilled" in out
        if spill.exists() and spill.stat().st_size:
            for line in spill.read_text().splitlines():
                assert "kind" in json.loads(line)
