import argparse
import json

import numpy as np
import pytest

from auxcount import (
    ConfusionCounts,
    Frame,
    confusion_counts,
    estimate_f1_two_stratum,
    f1_from_counts,
    hh_estimate,
    load_frame,
    load_sample,
    population_loss,
    pps_wr,
    srs_estimate,
    srs_wor,
    stratify_by_prediction,
    write_sample,
)
from auxcount.cli import (
    _COMMANDS, _read_record_rows, audit_to_config_lines, build_parser, main, read_audit,
)

from conftest import _ids


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def frame_dir(tmp_path):
    out = tmp_path / "gen"
    out.mkdir()
    code = run(
        "generate", "--N", 300, "--positives", 12, "--a1", 4, "--b1", 1,
        "--a0", 0.5, "--b0", 3, "--seed", 21, "--out", out,
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_loadable_frame(self, frame_dir):
        frame = load_frame(frame_dir / "frame.csv")
        assert frame.N == 300
        assert frame.true_total == 12
        audit = read_audit(frame_dir / "frame.csv")
        assert audit["command"] == "generate"
        assert audit["seed"] == "21"

    def test_deterministic(self, frame_dir, tmp_path):
        again = tmp_path / "again"
        again.mkdir()
        run(
            "generate", "--N", 300, "--positives", 12, "--a1", 4, "--b1", 1,
            "--a0", 0.5, "--b0", 3, "--seed", 21, "--out", again,
        )
        assert (again / "frame.csv").read_bytes() == (frame_dir / "frame.csv").read_bytes()

    def test_calibrated_run_reruns_from_audit(self, tmp_path):
        first = tmp_path / "first"
        first.mkdir()
        assert run(
            "generate", "--N", 400, "--positives", 20, "--target-loss", 0.3,
            "--seed", 33, "--out", first,
        ) == 0
        # the audit records the calibrated shapes, so the rerun skips
        # calibration and still lands on the same bytes
        audit = read_audit(first / "frame.csv")
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text("\n".join(audit_to_config_lines(audit)) + "\n")
        second = tmp_path / "second"
        second.mkdir()
        assert run("generate", "--config", cfg, "--out", second) == 0
        assert (second / "frame.csv").read_bytes() == (first / "frame.csv").read_bytes()

    def test_conflicting_targets_rejected(self, tmp_path):
        assert run(
            "generate", "--N", 100, "--positives", 5, "--target-loss", 0.3,
            "--target-f1", 0.5, "--seed", 1, "--out", tmp_path,
        ) == 2
        assert run(
            "generate", "--N", 100, "--positives", 5, "--seed", 1, "--out", tmp_path,
        ) == 2


class TestMetrics:
    def test_matches_library_values(self, frame_dir):
        assert run(
            "metrics", "--frame", frame_dir / "frame.csv", "--tau", 0.5,
            "--out", frame_dir,
        ) == 0
        doc = json.loads((frame_dir / "metrics.json").read_text())
        frame = load_frame(frame_dir / "frame.csv")
        counts = confusion_counts(frame, 0.5)
        assert doc["tp"] == counts.tp
        assert doc["fn"] == counts.fn
        assert doc["f1"] == pytest.approx(f1_from_counts(counts))
        assert doc["loss_total"] == pytest.approx(population_loss(frame))
        assert doc["audit"]["command"] == "metrics"


class TestSampleAndEstimate:
    def test_pps_sample_then_hh_estimate(self, frame_dir):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "pps",
            "--n", 40, "--seed", 3, "--out", frame_dir,
        ) == 0
        sample = load_sample(frame_dir / "sample.csv")
        assert sample.design == "PPS_WR"
        assert sample.n == 40

        assert run(
            "estimate", "--sample", frame_dir / "sample.csv", "--estimator", "hh",
            "--out", frame_dir,
        ) == 0
        row = _read_record_rows(frame_dir / "record.csv")[0]
        want = hh_estimate(sample)
        assert float(row["total"]) == pytest.approx(want.total)
        assert float(row["se"]) == pytest.approx(want.se)
        assert float(row["z"]) == 1.96
        assert row["deff"] == ""

    def test_stratified_sample_writes_two_files(self, frame_dir):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "stratified",
            "--n", 40, "--allocation", "proportional", "--seed", 6,
            "--out", frame_dir, "--out-sample", "s.csv",
        ) == 0
        one = load_sample(frame_dir / "s_one.csv")
        zero = load_sample(frame_dir / "s_zero.csv")
        assert one.stratum == "one"
        assert zero.stratum == "zero"
        assert one.n + zero.n == 40

        assert run(
            "estimate", "--sample-one", frame_dir / "s_one.csv",
            "--sample-zero", frame_dir / "s_zero.csv", "--zero-estimator", "diff",
            "--paper-mode", "--out", frame_dir,
        ) == 0
        row = _read_record_rows(frame_dir / "record.csv")[0]
        assert row["estimator"] == "STRAT"
        assert float(row["z"]) == 2.0
        assert read_audit(frame_dir / "record.csv")["paper_mode"] == "true"

    def test_exit_codes(self, frame_dir, tmp_path):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "cluster",
            "--n", 10, "--seed", 1, "--out", tmp_path,
        ) == 2

        # a single PPS draw has a total but no variance: numerical failure
        frame = load_frame(frame_dir / "frame.csv")
        tiny = pps_wr(frame, 1, seed=2)
        write_sample(tiny, tmp_path / "tiny.csv")
        assert run(
            "estimate", "--sample", tmp_path / "tiny.csv", "--estimator", "hh",
            "--out", tmp_path,
        ) == 3

        assert run(
            "estimate", "--sample", tmp_path / "tiny.csv",
            "--sample-one", tmp_path / "tiny.csv",
            "--sample-zero", tmp_path / "tiny.csv", "--out", tmp_path,
        ) == 2

    def test_swapped_stratum_files_are_refused(self, frame_dir):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "stratified",
            "--n", 40, "--allocation", "proportional", "--seed", 6, "--out", frame_dir,
        ) == 0
        one, zero = frame_dir / "sample_one.csv", frame_dir / "sample_zero.csv"
        swapped = ["--sample-one", zero, "--sample-zero", one]
        assert run("estimate", *swapped, "--out", frame_dir) == 2
        assert run(
            "f1", *swapped, "--flagged-tp", 10, "--flagged-fn", 2, "--c", 30,
            "--out", frame_dir,
        ) == 2
        assert run("estimate", "--sample-one", one, "--sample-zero", zero, "--out", frame_dir) == 0

    def test_config_precedence(self, frame_dir, tmp_path):
        cfg = tmp_path / "sample.cfg"
        cfg.write_text(
            f"frame = {frame_dir / 'frame.csv'}\ndesign = srs\nn = 10\nseed = 4\n"
        )
        assert run("sample", "--config", cfg, "--n", 20, "--out", tmp_path) == 0
        assert load_sample(tmp_path / "sample.csv").n == 20

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = 5\n")
        assert run("sample", "--config", cfg, "--out", tmp_path) == 2


class TestParser:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_flags_are_the_spec(self, command):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {f for a in sub.choices[command]._actions for f in a.option_strings}
        spec_flags = {"--" + key.replace("_", "-") for key in _COMMANDS[command][1]}
        assert flags == {"-h", "--help", "--config", "--out"} | spec_flags

    def test_flags_a_command_does_not_read_are_refused(self, frame_dir, tmp_path):
        frame = frame_dir / "frame.csv"
        for argv in (["metrics", "--frame", frame, "--seed", 1], ["simulate", "--workers", 2]):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--out", tmp_path)
            assert exc.value.code == 2
        # audit headers never held workers, so only hand-written configs meet this
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"frame = {frame}\ndesign = srs\nestimator = srs\n"
                       "n = 10\nR = 5\nseed = 1\nworkers = 2\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 2


class TestSimulate:
    def test_rerun_from_audit_is_byte_identical(self, frame_dir, tmp_path):
        kw = [
            "simulate", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--estimator", "srs", "--n", 20, "--R", 30, "--seed", 9,
        ]
        assert run(*kw, "--out", frame_dir) == 0
        audit = read_audit(frame_dir / "report.json")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("\n".join(audit_to_config_lines(audit)) + "\n")
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        assert run("simulate", "--config", cfg, "--out", rerun) == 0
        for name in ("report.json", "replicates.csv", "histogram.csv"):
            assert (rerun / name).read_bytes() == (frame_dir / name).read_bytes()

    def test_report_payload(self, frame_dir):
        assert run(
            "simulate", "--frame", frame_dir / "frame.csv", "--design", "pps",
            "--estimator", "hh", "--n", 15, "--R", 40, "--seed", 12,
            "--out", frame_dir,
        ) == 0
        doc = json.loads((frame_dir / "report.json").read_text())
        assert doc["R"] == 40
        assert doc["true_total"] == 12
        assert sum(row[2] for row in doc["histogram"]) == 40
        hist_rows = [
            line for line in (frame_dir / "histogram.csv").read_text().splitlines()
            if line and not line.startswith(("#", "bin_lo"))
        ]
        assert sum(int(r.rsplit(",", 1)[1]) for r in hist_rows) == 40


class TestF1Command:
    def test_matches_library(self, tmp_path):
        rng = np.random.default_rng(2)
        one_frame = Frame(_ids("a", 20), np.full(20, 0.8), np.r_[np.ones(6), np.zeros(14)])
        zero_frame = Frame(
            _ids("z", 60), rng.uniform(0.01, 0.4, 60), np.r_[np.ones(3), np.zeros(57)]
        )
        one = srs_wor(one_frame, 10, seed=5)
        zero = pps_wr(zero_frame, 25, seed=6)
        write_sample(one, tmp_path / "one.csv")
        write_sample(zero, tmp_path / "zero.csv")

        assert run(
            "f1", "--sample-one", tmp_path / "one.csv",
            "--sample-zero", tmp_path / "zero.csv",
            "--flagged-tp", 10, "--flagged-fn", 2, "--c", 30, "--out", tmp_path,
        ) == 0
        doc = json.loads((tmp_path / "f1.json").read_text())
        want_f1, want_se = estimate_f1_two_stratum(
            srs_estimate(one), hh_estimate(zero),
            ConfusionCounts(tp=10, fp=0, fn=2, tn=0), 30.0,
        )
        assert doc["f1"] == pytest.approx(want_f1)
        assert doc["se"] == pytest.approx(want_se)


class TestReport:
    def test_table_merges_records(self, frame_dir, capsys):
        for est, out_name in (("hh", "r_hh.csv"), ("srs", "r_srs.csv")):
            design = "pps" if est == "hh" else "srs"
            assert run(
                "sample", "--frame", frame_dir / "frame.csv", "--design", design,
                "--n", 30, "--seed", 8, "--out", frame_dir,
            ) == 0
            assert run(
                "estimate", "--sample", frame_dir / "sample.csv", "--estimator", est,
                "--out", frame_dir, "--out-record", out_name,
            ) == 0
        assert run(
            "report", "--inputs", frame_dir / "r_hh.csv", frame_dir / "r_srs.csv",
            "--out", frame_dir,
        ) == 0
        shown = capsys.readouterr().out
        lines = shown.strip().splitlines()
        assert lines[0].split()[:3] == ["estimator", "total", "se"]
        assert {line.split()[0] for line in lines[1:]} == {"HH", "SRS"}
        table = (frame_dir / "table.txt").read_text()
        assert shown in table

    def test_paper_mode_rounds_to_integers(self, frame_dir, capsys):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--n", 25, "--seed", 14, "--out", frame_dir,
        ) == 0
        assert run(
            "estimate", "--sample", frame_dir / "sample.csv", "--estimator", "srs",
            "--paper-mode", "--out", frame_dir,
        ) == 0
        assert run(
            "report", "--inputs", frame_dir / "record.csv", "--paper-mode",
            "--out", frame_dir,
        ) == 0
        body = capsys.readouterr().out.strip().splitlines()[1]
        cells = body.split()
        for cell in cells[1:5]:
            assert "." not in cell

    def test_paper_mode_reruns_from_audit(self, frame_dir, tmp_path):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--n", 25, "--seed", 14, "--out", frame_dir,
        ) == 0
        assert run(
            "estimate", "--sample", frame_dir / "sample.csv", "--estimator", "srs",
            "--out", frame_dir,
        ) == 0
        assert run(
            "report", "--inputs", frame_dir / "record.csv", "--paper-mode",
            "--out", frame_dir,
        ) == 0
        audit = read_audit(frame_dir / "table.txt")
        assert audit["paper_mode"] == "true"
        cfg = tmp_path / "report.cfg"
        cfg.write_text("\n".join(audit_to_config_lines(audit)) + "\n")
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        assert run("report", "--config", cfg, "--out", rerun) == 0
        assert (rerun / "table.txt").read_bytes() == (frame_dir / "table.txt").read_bytes()

    def test_empty_inputs_fail(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("estimator,total\n")
        assert run("report", "--inputs", empty, "--out", tmp_path) == 2
        missing = tmp_path / "none.csv"
        assert run("report", "--inputs", missing, "--out", tmp_path) == 2
