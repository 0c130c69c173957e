import argparse
import itertools
import json
import os
import re
import subprocess
import sys

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
    write_frame,
    write_sample,
)
from auxcount import classifier_sim, designs, estimators, montecarlo
from auxcount.estimators import RECORD_FIELDS
from auxcount.cli import (
    _COMMANDS, REQUIRED, _read_record_rows, audit_to_config_lines, build_parser, main, read_audit,
)

from conftest import _ids


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _cell_edits(text, column) -> list[str]:
    """Texts to put in place of one cell of a sample or record file: junk,
    numbers near and far from its value, and other cells of its column."""
    edits = {"", "x", "nan", "inf", "-1", "0", "1", "1.5", f" {text} ", text + "0",
             column[0], column[-1]}
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        edits.update(repr(v) for v in (np.nextafter(value, 2.0), value * 2, value / 2))
    edits.discard(text)
    return sorted(edits)


# a simulate run's settings but its design and estimator; the frame does not exist
_SIMULATE = {"frame": "none.csv", "n": 5, "R": 2, "seed": 1}

# each form of a command whose settings differ from its others', as the
# settings of a run of it; _MISSING stands for an input file that does not exist
_MISSING = "missing.csv"
_SHAPES = {"a1": 4, "b1": 1, "a0": 0.5, "b0": 3}
_FORMS = {
    ("generate", "shapes"): {"N": 50, "positives": 5, **_SHAPES, "seed": 1},
    ("generate", "target_loss"): {"N": 50, "positives": 5, "target_loss": 0.3, "seed": 1},
    **{("sample", design): {"frame": _MISSING, "design": design, "n": 5, "seed": 1}
       for design in ("pps", "srs")},
    ("sample", "stratified"): {"frame": _MISSING, "design": "stratified", "n": 5, "seed": 1,
                               "allocation": "equal"},
    ("simulate", "pps"): {**_SIMULATE, "frame": _MISSING, "design": "pps", "estimator": "hh"},
    ("simulate", "srs"): {**_SIMULATE, "frame": _MISSING, "design": "srs", "estimator": "srs"},
    ("simulate", "stratified"): {**_SIMULATE, "frame": _MISSING, "design": "stratified",
                                 "estimator": "strat_srs", "allocation": "equal"},
    ("estimate", "one sample"): {"sample": _MISSING, "estimator": "hh"},
    ("estimate", "stratum samples"): {"sample_one": _MISSING, "sample_zero": _MISSING},
}
# settings a form needs that the command's other forms do not read
_FORM_NEEDS = {
    ("sample", "stratified"): ["allocation"],
    ("simulate", "stratified"): ["allocation"],
    ("estimate", "one sample"): ["sample", "estimator"],
}
# every setting that a form of its command does not read, though another
# form does, with a value that form would take
_UNREAD = [
    ("generate", "shapes", "target_loss", 0.3),
    ("generate", "shapes", "target_f1", 0.7),
    ("generate", "shapes", "tau", 0.5),
    ("generate", "target_loss", "tau", 0.5),
    *[(command, design, key, value) for command in ("sample", "simulate")
      for design in ("pps", "srs") for key, value in (("tau", 0.5), ("allocation", "equal"))],
    ("estimate", "one sample", "zero_estimator", "srs"),
    ("estimate", "one sample", "zero_estimator", "diff"),
    ("estimate", "stratum samples", "sample", _MISSING),
    ("estimate", "stratum samples", "estimator", "hh"),
]


def _settings(tmp_path, source, given) -> list:
    """Arguments that give the settings ``given`` as flags or in a config file."""
    if source == "flags":
        return [a for k, v in given.items() for a in ("--" + k.replace("_", "-"), v)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in given.items()))
    return ["--config", cfg]


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

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("target", [["--target-loss", 0.3], ["--target-f1", 0.7]])
    def test_calibrated_run_reruns_from_audit(self, tmp_path, monkeypatch, target, cpus):
        monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: cpus)
        first = tmp_path / "first"
        first.mkdir()
        assert run(
            "generate", "--N", 400, "--positives", 20, *target, "--seed", 33, "--out", first,
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

    @pytest.mark.parametrize(
        "shapes",
        [["--a1", 40], ["--a1", 4, "--b1", 1], ["--a1", 4, "--b1", 1, "--a0", 0.5]],
    )
    @pytest.mark.parametrize("target", [[], ["--target-f1", 0.7]])
    def test_partial_shapes_refused(self, tmp_path, capsys, shapes, target):
        assert run(
            "generate", "--N", 100, "--positives", 5, *shapes, *target,
            "--seed", 1, "--out", tmp_path,
        ) == 2
        assert "give all of a1,b1,a0,b0" in capsys.readouterr().err
        assert not (tmp_path / "frame.csv").exists()

    def test_an_infinite_loss_target_is_refused(self, tmp_path, capsys):
        assert run(
            "generate", "--N", 5, "--positives", 1, "--target-loss", "inf",
            "--seed", 1, "--out", tmp_path,
        ) == 2
        assert "target_loss must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "frame.csv").exists()

    def test_empty_frame_refused(self, tmp_path, capsys):
        assert run(
            "generate", "--N", 0, "--positives", 0, "--a1", 4, "--b1", 1,
            "--a0", 0.5, "--b0", 3, "--seed", 1, "--out", tmp_path,
        ) == 2
        assert "N must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "frame.csv").exists()


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
            "--z", 2, "--out", frame_dir,
        ) == 0
        row = _read_record_rows(frame_dir / "record.csv")[0]
        assert row["estimator"] == "STRAT"
        assert float(row["z"]) == 2.0
        assert read_audit(frame_dir / "record.csv")["z"] == "2.0"

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

    @pytest.mark.parametrize("z", ["-0.0", "-1"])
    def test_negative_or_signed_zero_z_is_refused(self, frame_dir, tmp_path, capsys, z):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--n", 40, "--seed", 6, "--out", tmp_path,
        ) == 0
        capsys.readouterr()
        argv = ["--sample", tmp_path / "sample.csv", "--estimator", "srs", "--out", tmp_path]
        assert run("estimate", *argv, "--z", z) == 2
        err = capsys.readouterr().err
        assert f"z must be nonnegative with no minus sign, got {float(z)!r}" in err
        assert not (tmp_path / "record.csv").exists()
        assert run("estimate", *argv, "--z", "0.0") == 0

    @pytest.mark.parametrize("z", ["nan", "inf", "1e308"])
    def test_z_without_a_finite_interval_is_refused(self, frame_dir, tmp_path, capsys, z):
        # report would refuse the record: a NaN or infinite z or interval end
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--n", 40, "--seed", 6, "--out", tmp_path,
        ) == 0
        assert load_sample(tmp_path / "sample.csv").y.sum() > 0  # so se > 0
        capsys.readouterr()
        argv = ["--sample", tmp_path / "sample.csv", "--estimator", "srs", "--out", tmp_path]
        assert run("estimate", *argv, "--z", z) == 2
        want = rf"z {re.escape(repr(float(z)))} and se \S+ give no finite interval\n$"
        assert re.search(want, capsys.readouterr().err)
        assert not (tmp_path / "record.csv").exists()

    @pytest.mark.parametrize(
        "design,pi,aux_total,estimator",
        [
            ("PPS_WR", "nan", "2.0", "hh"),
            ("SRS_WOR", "0.2", "nan", "diff"),
            ("SRS_WOR", "0.2", "-5", "diff"),
        ],
    )
    def test_hand_edited_values_out_of_range_are_refused(
        self, tmp_path, design, pi, aux_total, estimator
    ):
        path = tmp_path / "edited.csv"
        path.write_text(
            f"# sample_design = {design}\n# parent_N = 10\n# parent_aux_total = {aux_total}\n"
            f"draw_index,unit_id,pi,y,p_hat\n0,a,{pi},1,0.4\n1,b,0.2,0,0.3\n"
        )
        argv = ["estimate", "--sample", path, "--estimator", estimator, "--out", tmp_path]
        assert run(*argv) == 2
        assert not (tmp_path / "record.csv").exists()

    @pytest.mark.parametrize("stratified", [False, True], ids=["diff", "stratified-diff"])
    def test_srs_unit_drawn_twice_is_refused(self, tmp_path, capsys, stratified):
        facts = "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
        header = "draw_index,unit_id,pi,y,p_hat\n"
        zero = "# stratum = zero\n" if stratified else ""
        path = tmp_path / "twice.csv"
        path.write_text(f"{facts}{zero}{header}0,a,0.3,1,0.4\n1,b,0.3,0,0.3\n2,a,0.3,1,0.4\n")
        argv = ["--sample", path, "--estimator", "diff"]
        if stratified:
            one = tmp_path / "one.csv"
            one.write_text(f"{facts}# stratum = one\n{header}0,c,0.2,1,0.8\n1,d,0.2,0,0.7\n")
            argv = ["--sample-one", one, "--sample-zero", path, "--zero-estimator", "diff"]
        assert run("estimate", *argv, "--out", tmp_path) == 2
        assert f"{path}: draw 3: unit 'a'" in capsys.readouterr().err
        assert not (tmp_path / "record.csv").exists()

    @pytest.mark.parametrize("design,estimator", [("pps", "hh"), ("srs", "srs")])
    def test_one_edited_cell_is_refused_or_changes_nothing(
        self, frame_dir, tmp_path, capsys, design, estimator
    ):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", design,
            "--n", 8, "--seed", 3, "--out", tmp_path,
        ) == 0
        path, out = tmp_path / "sample.csv", tmp_path / "out"
        out.mkdir()
        lines = path.read_text().splitlines(keepends=True)
        top = lines.index("draw_index,unit_id,pi,y,p_hat\n") + 1
        rows = [line.rstrip("\n").split(",") for line in lines[top:]]

        def estimate():
            (out / "record.csv").unlink(missing_ok=True)
            code = run("estimate", "--sample", path, "--estimator", estimator, "--out", out)
            return code, capsys.readouterr().err

        assert estimate() == (0, "")
        want = (out / "record.csv").read_bytes()
        refused = re.compile(rf"auxcount: error: {re.escape(str(path))}: draw \d+: ")
        # y, and p_hat under SRS, are free data: editing them may change the
        # estimate.  The PPS draws hold positives and draw unit u5 twice.
        columns = (0, 1, 2, 4) if design == "pps" else (0, 1, 2)
        for i, j in itertools.product(range(len(rows)), columns):
            text = rows[i][j]
            for edit in _cell_edits(text, [row[j] for row in rows]):
                edited = [row[:j] + [edit] + row[j + 1:] if k == i else row
                          for k, row in enumerate(rows)]
                path.write_text("".join(lines[:top] + [",".join(row) + "\n" for row in edited]))
                code, err = estimate()
                what = f"draw {i + 1}, column {j}: {text!r} -> {edit!r}: exit {code} {err}"
                if code == 2:
                    assert refused.match(err), what
                else:
                    assert code == 0 and (out / "record.csv").read_bytes() == want, what

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

    def test_estimator_with_stratum_samples_is_refused(self, frame_dir, tmp_path):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "stratified",
            "--n", 40, "--allocation", "proportional", "--seed", 6, "--out", frame_dir,
        ) == 0
        strata = [
            "--sample-one", frame_dir / "sample_one.csv",
            "--sample-zero", frame_dir / "sample_zero.csv", "--out", tmp_path,
        ]
        # the record would use SRS in both strata under an audit saying hh
        assert run("estimate", *strata, "--estimator", "hh") == 2
        assert not (tmp_path / "record.csv").exists()
        assert run("estimate", *strata, "--zero-estimator", "diff") == 0

    def test_unknown_zero_estimator_is_refused(self, frame_dir, tmp_path, capsys):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "stratified",
            "--n", 40, "--allocation", "proportional", "--seed", 6, "--out", frame_dir,
        ) == 0
        out = tmp_path / "out"
        out.mkdir()
        strata = [
            "--sample-one", frame_dir / "sample_one.csv",
            "--sample-zero", frame_dir / "sample_zero.csv", "--out", out,
        ]
        for bad in ("bogus", "hh"):
            assert run("estimate", *strata, "--zero-estimator", bad) == 2
            want = f"unknown zero_estimator {bad!r}; choose from ('srs', 'diff')"
            assert want in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("command, key", [
        (command, key) for command, (_, spec, _) in _COMMANDS.items()
        for key, row in spec.items() if row[1] is REQUIRED
    ])
    def test_a_missing_required_setting_is_named(self, tmp_path, capsys, source, command, key):
        spec = _COMMANDS[command][1]
        given = {k: row[2][0] if len(row) > 2 else {int: "1", float: "1.0"}.get(row[0], "x")
                 for k, row in spec.items() if row[1] is REQUIRED and k != key}
        out = tmp_path / "out"
        out.mkdir()
        assert run(command, *_settings(tmp_path, source, given), "--out", out) == 2
        assert capsys.readouterr().err == f"auxcount: error: missing required settings: {[key]}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("command, key, choices, given", [
        ("sample", "design", montecarlo.DESIGN_CHOICES, {"frame": "none.csv", "n": 5, "seed": 1}),
        ("sample", "allocation", designs.ALLOCATION_RULES,
         {"frame": "none.csv", "design": "stratified", "n": 5, "seed": 1}),
        ("estimate", "estimator", tuple(estimators.PAIRINGS), {"sample": "none.csv"}),
        ("estimate", "zero_estimator", tuple(n[1] for n in estimators.STRATIFIED.values()),
         {"sample_one": "none.csv", "sample_zero": "none.csv"}),
        # a value outside the choices is refused first, in the form that reads none
        ("estimate", "zero_estimator", tuple(n[1] for n in estimators.STRATIFIED.values()),
         {"sample": "none.csv", "estimator": "hh"}),
        ("simulate", "design", montecarlo.DESIGN_CHOICES, {**_SIMULATE, "estimator": "hh"}),
        ("simulate", "estimator", montecarlo.ESTIMATOR_CHOICES, {**_SIMULATE, "design": "pps"}),
        ("simulate", "allocation", designs.ALLOCATION_RULES,
         {**_SIMULATE, "design": "stratified", "estimator": "strat_srs"}),
    ])
    def test_a_value_outside_its_choices_is_refused_before_input_is_read(
        self, tmp_path, capsys, source, command, key, choices, given
    ):
        given = {**given, key: "bogus"}  # the input files do not exist
        assert run(command, *_settings(tmp_path, source, given), "--out", tmp_path) == 2
        want = f"auxcount: error: unknown {key} 'bogus'; choose from {choices}\n"
        assert capsys.readouterr().err == want
        assert _COMMANDS[command][1][key][2] == choices

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("command, form, key", [
        (command, form, key) for (command, form), needs in _FORM_NEEDS.items() for key in needs
    ])
    def test_a_setting_its_form_needs_is_named_before_input_is_read(
        self, tmp_path, capsys, source, command, form, key
    ):
        given = {k: v for k, v in _FORMS[command, form].items() if k != key}
        given = {k: tmp_path / "missing.csv" if v == _MISSING else v for k, v in given.items()}
        out = tmp_path / "out"
        out.mkdir()
        assert run(command, *_settings(tmp_path, source, given), "--out", out) == 2
        assert capsys.readouterr().err == f"auxcount: error: missing required settings: {[key]}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("command, form, key, value", _UNREAD)
    def test_a_setting_its_form_does_not_read_is_refused_before_input_is_read(
        self, tmp_path, capsys, source, command, form, key, value
    ):
        missing = tmp_path / "missing.csv"
        given = {k: missing if v == _MISSING else v
                 for k, v in {**_FORMS[command, form], key: value}.items()}
        out = tmp_path / "out"
        out.mkdir()
        assert run(command, *_settings(tmp_path, source, given), "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("auxcount: error: ") and err.endswith(f" does not read {[key]}\n")
        assert str(missing) not in err
        assert list(out.iterdir()) == []

    # a missing frame: each run setting is refused before the frame is read
    @pytest.mark.parametrize("given, want", [
        ({"design": "pps", "estimator": "diff"},
         f"no run pairs design 'pps' with estimator 'diff'; valid runs: {montecarlo._VALID_PAIRS}"),
        ({"design": "stratified", "estimator": "hh", "allocation": "equal"},
         "no run pairs design 'stratified' with estimator 'hh'"),
        ({"n": 1}, "n must be at least 2 so variances exist"),
        ({"R": 0}, "R must be at least 1"),
        ({"R": 2**32}, "R must be below 2**32, so each replicate index is one seed word"),
        ({"baseline_se": 0.0}, "baseline SE must be positive"),
        ({"baseline_se": "inf"}, "baseline SE must be positive and finite"),
    ])
    def test_run_settings_are_checked_before_the_frame_is_read(
        self, tmp_path, capsys, given, want
    ):
        missing = tmp_path / "missing.csv"
        settings = {"frame": missing, "design": "pps", "estimator": "hh", "n": 5, "R": 2,
                    "seed": 1, **given}
        assert run("simulate", *_settings(tmp_path, "flags", settings), "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"auxcount: error: {want}") and str(missing) not in err
        assert list(tmp_path.iterdir()) == []

    # a missing input: a setting wrong whatever the input is refused first,
    # by the library's own rule and message
    @pytest.mark.parametrize("command, given, want", [
        ("estimate", {**_FORMS["estimate", "one sample"], "z": -1},
         "z must be nonnegative with no minus sign, got -1.0"),
        ("metrics", {"frame": _MISSING, "tau": 7},
         "threshold must lie strictly inside (0, 1), got 7.0"),
        ("sample", {**_FORMS["sample", "stratified"], "tau": 7},
         "threshold must lie strictly inside (0, 1), got 7.0"),
        ("simulate", {**_FORMS["simulate", "stratified"], "tau": 7},
         "threshold must lie strictly inside (0, 1), got 7.0"),
        ("sample", {**_FORMS["sample", "pps"], "seed": -3}, "expected non-negative integer"),
        ("simulate", {**_FORMS["simulate", "srs"], "seed": -1}, "expected non-negative integer"),
        ("f1", {"sample_one": _MISSING, "sample_zero": _MISSING, "flagged_tp": -1,
                "flagged_fn": 1, "c": 3}, "confusion counts must be nonnegative"),
        ("sample", {**_FORMS["sample", "srs"], "n": 0}, "need n >= 1 draws, got n=0"),
        ("sample", {**_FORMS["sample", "stratified"], "n": -2}, "need n >= 1 draws, got n=-2"),
        # c counts every predicted positive, the flagged true positives among them
        ("f1", {"sample_one": _MISSING, "sample_zero": _MISSING, "flagged_tp": 0,
                "flagged_fn": 1, "c": -1}, "c=-1 must be at least flagged_tp=0"),
        ("f1", {"sample_one": _MISSING, "sample_zero": _MISSING, "flagged_tp": 5,
                "flagged_fn": 1, "c": 3}, "c=3 must be at least flagged_tp=5"),
    ])
    def test_a_setting_wrong_for_any_input_is_refused_before_input_is_read(
        self, tmp_path, capsys, command, given, want
    ):
        missing = tmp_path / "missing.csv"
        given = {k: missing if v == _MISSING else v for k, v in given.items()}
        out = tmp_path / "out"
        out.mkdir()
        assert run(command, *_settings(tmp_path, "flags", given), "--out", out) == 2
        assert capsys.readouterr().err == f"auxcount: error: {want}\n"
        assert list(out.iterdir()) == []

    def test_flags_a_command_does_not_read_are_refused(self, frame_dir, tmp_path):
        frame = frame_dir / "frame.csv"
        for argv in (["metrics", "--frame", frame, "--seed", 1], ["simulate", "--workers", 2],
                     ["estimate", "--sample", "none.csv", "--estimator", "hh", "--paper-mode"]):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--out", tmp_path)
            assert exc.value.code == 2
        # audit headers never held workers, so only hand-written configs meet this
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"frame = {frame}\ndesign = srs\nestimator = srs\n"
                       "n = 10\nR = 5\nseed = 1\nworkers = 2\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 2
        # estimate's z is the one setting of its interval: paper_mode is report's alone
        cfg.write_text("sample = none.csv\nestimator = hh\npaper_mode = true\n")
        assert run("estimate", "--config", cfg, "--out", tmp_path) == 2
        assert not (tmp_path / "record.csv").exists()


class TestRefusals:
    """Settings and inputs that every command refuses with exit 2 and a message."""

    RECORD = "SRS,54.5,6.25,200,2000,2.0,42.0,67.0,\n"

    def test_a_config_line_without_an_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# a comment\nn = 5\nseed 4\n")
        assert run("sample", "--config", cfg, "--out", tmp_path) == 2
        assert f"{cfg}:3: expected 'key = value'" in capsys.readouterr().err

    def test_an_unreadable_config(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert run("sample", "--config", missing, "--out", tmp_path) == 2
        assert f"cannot read config {missing}: " in capsys.readouterr().err

    def test_a_config_value_that_does_not_parse(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = abc\n")
        assert run("sample", "--config", cfg, "--out", tmp_path) == 2
        assert f"{cfg}: key n: invalid literal for int()" in capsys.readouterr().err

    @pytest.mark.parametrize("text, code", [("no", 0), ("maybe", 2)])
    def test_paper_mode_reads_only_a_boolean(self, tmp_path, capsys, text, code):
        (tmp_path / "record.csv").write_text(",".join(RECORD_FIELDS) + "\n" + self.RECORD)
        cfg = tmp_path / "report.cfg"
        cfg.write_text(f"inputs = {tmp_path / 'record.csv'}\npaper_mode = {text}\n")
        assert run("report", "--config", cfg, "--out", tmp_path) == code
        out, err = capsys.readouterr()
        if code:
            assert f"{cfg}: key paper_mode: not a boolean: 'maybe'" in err
        else:  # not rounded to integers, as --paper-mode would
            assert out.splitlines()[1].split()[:3] == ["SRS", "54.5", "6.25"]

    def test_generate_with_more_positives_than_units(self, tmp_path, capsys):
        assert run(
            "generate", "--N", 10, "--positives", 11, "--a1", 4, "--b1", 1, "--a0", 0.5,
            "--b0", 3, "--seed", 1, "--out", tmp_path,
        ) == 2
        assert "positives=11 must lie in [0, N=10]" in capsys.readouterr().err
        assert not (tmp_path / "frame.csv").exists()

    def test_generate_with_shapes_whose_scores_are_nan(self, tmp_path, capsys):
        # betaincinv gives NaN for these shapes; no frame may hold a NaN score
        assert run(
            "generate", "--N", 10, "--positives", 2, "--a1", 1e308, "--b1", 1e308, "--a0", 0.5,
            "--b0", 3, "--seed", 1, "--out", tmp_path,
        ) == 2
        assert capsys.readouterr().err == "auxcount: error: aux_prob values must lie in [0, 1]\n"
        assert list(tmp_path.iterdir()) == []

    def test_metrics_on_a_frame_with_blank_labels(self, tmp_path, capsys):
        frame = tmp_path / "frame.csv"
        frame.write_text("id,label,p_hat\na,,0.5\nb,1,0.5\n")
        assert run("metrics", "--frame", frame, "--out", tmp_path) == 2
        assert "metrics needs a fully labeled frame" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_report_on_a_record_file_with_only_a_header(self, tmp_path, capsys):
        (tmp_path / "record.csv").write_text(",".join(RECORD_FIELDS) + "\n")
        assert run("report", "--inputs", tmp_path / "record.csv", "--out", tmp_path) == 2
        assert "no estimate records found in the inputs" in capsys.readouterr().err
        assert not (tmp_path / "table.txt").exists()


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

    def test_design_refuses_an_estimator_it_does_not_pair_with(self, frame_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run(
            "simulate", "--frame", frame_dir / "frame.csv", "--design", "pps",
            "--estimator", "diff", "--n", 20, "--R", 5, "--seed", 1, "--out", out,
        ) == 2
        assert "no run pairs design 'pps' with estimator 'diff'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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


    def test_overflowed_deff_is_written_as_strict_json(self, frame_dir):
        assert run(
            "simulate", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--estimator", "diff", "--n", 30, "--R", 20, "--seed", 3,
            "--baseline-se", "1e-200", "--out", frame_dir,
        ) == 0

        def refuse(token):
            raise ValueError(f"{token} is not strict JSON")

        doc = json.loads((frame_dir / "report.json").read_text(), parse_constant=refuse)
        assert doc["deff_vs_srs"] == "inf"


class TestF1Command:
    def test_matches_library(self, tmp_path):
        rng = np.random.default_rng(2)
        # the two strata's units, "one" in rows 0-19 and "zero" in rows 20-79
        frame = Frame(
            _ids("a", 20) + _ids("z", 60),
            np.r_[np.full(20, 0.8), rng.uniform(0.01, 0.4, 60)],
            np.r_[np.ones(6), np.zeros(14), np.ones(3), np.zeros(57)],
        )
        one = srs_wor(frame, 10, seed=5, stratum=("one", np.arange(20)))
        zero = pps_wr(frame, 25, seed=6, stratum=("zero", np.arange(20, 80)))
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

    def test_sample_without_stratum_line_is_refused(self, tmp_path):
        # whole-frame samples hold both strata's positives: taken as the zero
        # stratum's, the PPS one gave fn_hat 47.9 against a true fn of 7
        assert run(
            "generate", "--N", 5000, "--positives", 50, "--a1", 4, "--b1", 1.5,
            "--a0", 0.2, "--b0", 8, "--seed", 3, "--out", tmp_path,
        ) == 0
        frame = tmp_path / "frame.csv"
        assert run(
            "sample", "--frame", frame, "--design", "stratified", "--n", 200,
            "--allocation", "proportional", "--seed", 4, "--out", tmp_path,
        ) == 0
        for design in ("pps", "srs"):
            assert run(
                "sample", "--frame", frame, "--design", design, "--n", 200, "--seed", 5,
                "--out", tmp_path, "--out-sample", f"whole_{design}.csv",
            ) == 0
        one = ["--sample-one", tmp_path / "sample_one.csv", "--out", tmp_path]
        f1 = ["--sample-zero", tmp_path / "whole_pps.csv", "--flagged-tp", 0, "--flagged-fn", 0]
        assert run("f1", *one, *f1, "--c", 45) == 2
        assert run("estimate", *one, "--sample-zero", tmp_path / "whole_srs.csv") == 2
        assert not (tmp_path / "f1.json").exists()
        assert not (tmp_path / "record.csv").exists()


class TestStratumPairs:
    """The two stratum files of one estimate must come from one sample run."""

    STRATIFIED = ["--design", "stratified", "--allocation", "proportional", "--n", 200]

    @pytest.fixture()
    def runs(self, tmp_path, monkeypatch):
        # relative paths, so that audits and records hold the same text anywhere
        monkeypatch.chdir(tmp_path)
        shapes = ["--a1", 4, "--b1", 1.5, "--a0", 0.2, "--b0", 8]
        for seed, out in ((3, "frame.csv"), (4, "other.csv")):
            assert run(
                "generate", "--N", 2000, "--positives", 60, *shapes, "--seed", seed,
                "--out-frame", out,
            ) == 0
        for stem, frame, seed, tau in (
            ("a", "frame.csv", 5, 0.5), ("b", "frame.csv", 5, 0.9),
            ("c", "frame.csv", 6, 0.5), ("d", "other.csv", 5, 0.5),
            ("e", "./frame.csv", 5, 0.5),
        ):
            assert run(
                "sample", "--frame", frame, *self.STRATIFIED, "--seed", seed, "--tau", tau,
                "--out-sample", f"{stem}.csv",
            ) == 0
        return tmp_path

    # b: the same run at tau 0.9, whose strata overlap a's, so the pair's
    # N was 2,046 for this 2,000-unit frame and its total 144.5 (truth 60);
    # c: another seed; d: another frame
    @pytest.mark.parametrize("zero,key", [("b", "tau"), ("c", "seed"), ("d", "frame")])
    def test_a_pair_from_two_runs_is_refused(self, runs, capsys, zero, key):
        pair = ["--sample-one", "a_one.csv", "--sample-zero", f"{zero}_zero.csv"]
        flagged = ["--flagged-tp", 10, "--flagged-fn", 2, "--c", 30]
        for argv in (["estimate", *pair], ["f1", *pair, *flagged]):
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert f"a_one.csv and {zero}_zero.csv come from two sample runs: {key} " in err
        assert not (runs / "record.csv").exists() and not (runs / "f1.json").exists()

    def test_a_pair_from_one_run_keeps_its_record_bytes(self, runs):
        assert run(
            "estimate", "--sample-one", "a_one.csv", "--sample-zero", "a_zero.csv",
            "--zero-estimator", "diff",
        ) == 0
        assert (runs / "record.csv").read_text() == (
            "# command = estimate\n"
            "# sample_one = a_one.csv\n"
            "# sample_zero = a_zero.csv\n"
            "# z = 1.96\n"
            "# zero_estimator = diff\n"
            "estimator,total,se,n,N,z,ci_lo,ci_hi,deff\n"
            "STRAT,54.55188091671503,6.153112395410319,200,2000,1.96,"
            "42.4917806217108,66.61198121171925,\n"
        )

    def test_a_frame_path_spelled_another_way_pairs(self, runs):
        # e is a's run with the frame given as ./frame.csv: the same file
        for zero in ("a", "e"):
            assert run(
                "estimate", "--sample-one", "a_one.csv", "--sample-zero", f"{zero}_zero.csv",
                "--out-record", f"record_{zero}.csv",
            ) == 0
        rows = [(runs / f"record_{zero}.csv").read_text().split("estimator,")[1]
                for zero in ("a", "e")]
        assert rows[0] == rows[1]

    def test_files_without_audit_lines_pair(self, runs):
        # the library writes files with no audit lines, as the README's PPS
        # zero-stratum sample for f1: nothing in them shows another run
        frame = load_frame("frame.csv")
        one, zero = stratify_by_prediction(frame, 0.5).items()  # (name, rows) pairs
        rng = np.random.default_rng(1)
        write_sample(srs_wor(frame, 20, rng, stratum=one), "hand_one.csv")
        write_sample(srs_wor(frame, 20, rng, stratum=zero), "hand_zero.csv")
        write_sample(pps_wr(frame, 20, rng, stratum=zero), "hand_zero_pps.csv")
        hand_zero = ["--sample-zero", "hand_zero.csv"]
        assert run("estimate", "--sample-one", "hand_one.csv", *hand_zero) == 0
        assert run("estimate", "--sample-one", "a_one.csv", *hand_zero) == 0
        assert run(
            "f1", "--sample-one", "a_one.csv", "--sample-zero", "hand_zero_pps.csv",
            "--flagged-tp", 0, "--flagged-fn", 0, "--c", 54,
        ) == 0


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
            "--z", 2, "--out", frame_dir,
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

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("total", "abc", "total 'abc' is not a number"),
            ("se", "x", "se 'x' is not a nonnegative number"),
            ("ci_lo", "1..2", "ci_lo '1..2' is not a number"),
            ("ci_hi", " ", "ci_hi ' ' is not a number"),
            ("deff", "abc", "deff 'abc' is not a nonnegative number"),
            ("se", "-5", "se '-5' is not a nonnegative number"),
            ("se", "nan", "se 'nan' is not a nonnegative number"),
            ("total", "nan", "total 'nan' is not a number"),
            ("ci_lo", "nan", "ci_lo 'nan' is not a number"),
            ("ci_hi", "NaN", "ci_hi 'NaN' is not a number"),
            ("deff", "nan", "deff 'nan' is not a nonnegative number"),
            ("total", "inf", "total 'inf' is not finite"),
            ("total", "-inf", "total '-inf' is not finite"),
            ("se", "inf", "se 'inf' is not finite"),
            ("ci_lo", "-inf", "ci_lo '-inf' is not finite"),
            ("ci_hi", "Infinity", "ci_hi 'Infinity' is not finite"),
            # only deff may be blank
            ("total", "", "total '' is not a number"),
            ("se", "", "se '' is not a nonnegative number"),
            ("ci_lo,ci_hi", "", "ci_lo '' is not a number"),
            ("z", "", "z '' is not a nonnegative number"),
            ("z", "abc", "z 'abc' is not a nonnegative number"),
            ("z", "-1", "z '-1' is not a nonnegative number"),
            ("z", "nan", "z 'nan' is not a nonnegative number"),
            ("z", "inf", "z 'inf' is not finite"),
            # the interval is total -/+ z*se of the row's own doubles
            ("ci_lo", "-1000", "ci_lo '-1000', expected -10.518685574429071"),
            ("ci_hi", "34.52", "ci_hi '34.52', expected 34.51868557442907"),
            ("total", "13.0", "ci_lo '-10.518685574429071', expected -9.518685574429071"),
            ("se", "0", "ci_lo '-10.518685574429071', expected 12.0"),
            ("z", "2.0", "ci_lo '-10.518685574429071', expected -10.978250586152114"),
            ("ci_lo,ci_hi", "12.0", "ci_lo '12.0', expected -10.518685574429071"),
            # labels that estimate writes, as it writes them
            ("estimator", "srs", "unknown estimator 'srs'"),
            ("estimator", " SRS", "unknown estimator ' SRS'"),
            ("estimator", "", "unknown estimator ''"),
        ],
    )
    def test_bad_record_names_file_and_row(self, frame_dir, capsys, field, text, message):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--n", 25, "--seed", 14, "--out", frame_dir,
        ) == 0
        assert run(
            "estimate", "--sample", frame_dir / "sample.csv", "--estimator", "srs",
            "--baseline-se", 3.0, "--out", frame_dir,
        ) == 0
        good = frame_dir / "record.csv"
        lines = good.read_text().splitlines()
        header = lines[-2].split(",")
        cells = lines[-1].split(",")
        for name in field.split(","):
            cells[header.index(name)] = text
        bad = frame_dir / "bad.csv"
        bad.write_text("\n".join(lines[:-1] + [lines[-1], ",".join(cells)]) + "\n")
        capsys.readouterr()
        assert run("report", "--inputs", good, bad, "--out", frame_dir) == 2
        assert capsys.readouterr().err == f"auxcount: error: {bad}: row 3: {message}\n"
        assert not (frame_dir / "table.txt").exists()

    @pytest.mark.parametrize(
        "design, n, N, message",
        [
            ("pps", "abc", "-1", "n 'abc' is not a positive integer"),
            ("srs", "999999", "3", "n 999999 exceeds N 3"),
            ("srs", "25", "-1", "N '-1' is not a positive integer"),
            ("srs", "0", "300", "n '0' is not a positive integer"),
            ("pps", "2.5", "300", "n '2.5' is not a positive integer"),
            ("pps", "25", "", "N '' is not a positive integer"),
            ("pps", "999999", "3", None),  # PPS draws, with replacement, may outnumber units
        ],
    )
    def test_record_sizes_are_checked(self, frame_dir, capsys, design, n, N, message):
        estimator = {"pps": "hh", "srs": "srs"}[design]
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", design,
            "--n", 25, "--seed", 14, "--out", frame_dir,
        ) == 0
        assert run(
            "estimate", "--sample", frame_dir / "sample.csv", "--estimator", estimator,
            "--out", frame_dir,
        ) == 0
        path = frame_dir / "record.csv"
        assert run("report", "--inputs", path, "--out", frame_dir) == 0
        want = (frame_dir / "table.txt").read_bytes()
        lines = path.read_text().splitlines()
        header, cells = lines[-2].split(","), lines[-1].split(",")
        cells[header.index("n")], cells[header.index("N")] = n, N
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        (frame_dir / "table.txt").unlink()
        capsys.readouterr()
        if message is None:
            assert run("report", "--inputs", path, "--out", frame_dir) == 0
            assert (frame_dir / "table.txt").read_bytes() == want
            return
        assert run("report", "--inputs", path, "--out", frame_dir) == 2
        assert capsys.readouterr().err == f"auxcount: error: {path}: row 2: {message}\n"
        assert not (frame_dir / "table.txt").exists()

    def test_pps_record_with_more_draws_than_units_is_reported(self, frame_dir, capsys):
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "pps",
            "--n", 400, "--seed", 14, "--out", frame_dir,
        ) == 0
        assert run(
            "estimate", "--sample", frame_dir / "sample.csv", "--estimator", "hh",
            "--out", frame_dir,
        ) == 0
        record = _read_record_rows(frame_dir / "record.csv")[0]
        assert (record["n"], record["N"]) == ("400", "300")
        assert run("report", "--inputs", frame_dir / "record.csv", "--out", frame_dir) == 0

    def test_an_infinite_baseline_se_is_refused_before_the_sample_is_read(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "missing.csv"
        assert run(
            "estimate", "--sample", missing, "--estimator", "hh", "--baseline-se", "inf",
            "--out", tmp_path,
        ) == 2
        err = capsys.readouterr().err
        assert err == "auxcount: error: baseline SE must be positive and finite\n"
        assert list(tmp_path.iterdir()) == []

    def test_infinite_deff_is_accepted(self, frame_dir, capsys):
        # a valid, tiny baseline SE overflows the squared SE ratio to inf:
        # at 1e-320 the ratio itself, at 1e-160 (ratio about 1e161) its square
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", "--design", "srs",
            "--n", 25, "--seed", 14, "--out", frame_dir,
        ) == 0
        for baseline_se in (1e-320, 1e-160):
            assert run(
                "estimate", "--sample", frame_dir / "sample.csv", "--estimator", "srs",
                "--baseline-se", baseline_se, "--out", frame_dir,
            ) == 0
            assert _read_record_rows(frame_dir / "record.csv")[0]["deff"] == "inf"
            capsys.readouterr()
            assert run("report", "--inputs", frame_dir / "record.csv", "--out", frame_dir) == 0
            assert capsys.readouterr().out.splitlines()[1].split()[-1] == "inf"

    @pytest.mark.parametrize("rows, message", [
        (["estimator,total,n,N", "HH,5,3,10"],
         f"row 1: expected columns {','.join(RECORD_FIELDS)}"),
        ([",".join(RECORD_FIELDS), "SRS,12.0,11.489125293076057,25,300,1.96,"
          "-10.518685574429071,34.51868557442907,", "SRS,12.0"], "row 3: expected 9 fields"),
        # -0.0 == 0.0, but the table would print it as -0
        ([",".join(RECORD_FIELDS), "SRS,0.0,0.0,25,300,1.96,0.0,0.0,",
          "SRS,0.0,0.0,25,300,1.96,-0.0,0.0,"], "row 3: ci_lo '-0.0', expected 0.0"),
        # a signed zero se or z gives the same interval, but is refused by its sign bit
        ([",".join(RECORD_FIELDS), "SRS,0.0,0.0,25,300,1.96,0.0,0.0,",
          "SRS,0.0,-0.0,25,300,1.96,0.0,0.0,"], "row 3: se '-0.0' is not a nonnegative number"),
        ([",".join(RECORD_FIELDS), "SRS,0.0,-0.0,25,300,1.96,0.0,0.0,"],
         "row 2: se '-0.0' is not a nonnegative number"),
        ([",".join(RECORD_FIELDS), "SRS,0.0,0.0,25,300,-0.0,0.0,0.0,"],
         "row 2: z '-0.0' is not a nonnegative number"),
        # deff is a squared SE ratio: a sign bit refuses it as it does se and z
        ([",".join(RECORD_FIELDS), "SRS,0.0,0.0,25,300,1.96,0.0,0.0,-1"],
         "row 2: deff '-1' is not a nonnegative number"),
        ([",".join(RECORD_FIELDS), "SRS,0.0,0.0,25,300,1.96,0.0,0.0,-0.0"],
         "row 2: deff '-0.0' is not a nonnegative number"),
        # the first bad row is named, though a ragged row lies below it
        ([",".join(RECORD_FIELDS), "SRS,12.0,abc,25,300,1.96,-10.5,34.5,", "SRS,12.0"],
         "row 2: se 'abc' is not a nonnegative number"),
    ])
    def test_hand_written_record_names_file_and_row(self, tmp_path, capsys, rows, message):
        path = tmp_path / "other.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run("report", "--inputs", path, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"auxcount: error: {path}: {message}\n"
        assert not (tmp_path / "table.txt").exists()

    @pytest.mark.parametrize("estimator", ["hh", "srs", "diff", "strat"])
    def test_one_edited_cell_is_refused_or_changes_nothing(
        self, frame_dir, tmp_path, capsys, estimator
    ):
        sample = ["--design", {"hh": "pps", "strat": "stratified"}.get(estimator, "srs")]
        argv = ["--sample", tmp_path / "sample.csv", "--estimator", estimator]
        if estimator == "strat":
            sample += ["--allocation", "proportional"]
            argv = ["--sample-one", tmp_path / "sample_one.csv",
                    "--sample-zero", tmp_path / "sample_zero.csv", "--zero-estimator", "diff"]
        # seed 6 draws positives under every design, so no record has se 0 and a free z
        assert run(
            "sample", "--frame", frame_dir / "frame.csv", *sample, "--n", 40, "--seed", 6,
            "--out", tmp_path,
        ) == 0
        assert run("estimate", *argv, "--baseline-se", 3.0, "--out", tmp_path) == 0
        path, out = tmp_path / "record.csv", tmp_path / "out"
        out.mkdir()
        lines = path.read_text().splitlines(keepends=True)
        top = lines.index(",".join(RECORD_FIELDS) + "\n") + 1
        rows = [line.rstrip("\n").split(",") for line in lines[top:]]

        def report():
            (out / "table.txt").unlink(missing_ok=True)
            code = run("report", "--inputs", path, "--out", out)
            return code, capsys.readouterr().err

        assert report() == (0, "")
        want = (out / "table.txt").read_bytes()
        refused = re.compile(rf"auxcount: error: {re.escape(str(path))}: row 2: ")
        # deff is free: the baseline SE it divides by is audited, not stored per row
        columns = [j for j, name in enumerate(RECORD_FIELDS) if name != "deff"]
        for i, j in itertools.product(range(len(rows)), columns):
            text = rows[i][j]
            for edit in _cell_edits(text, [row[j] for row in rows]):
                edited = [row[:j] + [edit] + row[j + 1:] if k == i else row
                          for k, row in enumerate(rows)]
                path.write_text("".join(lines[:top] + [",".join(row) + "\n" for row in edited]))
                code, err = report()
                what = f"row {i + 2}, {RECORD_FIELDS[j]}: {text!r} -> {edit!r}: exit {code} {err}"
                if code == 2:
                    assert refused.match(err), what
                else:
                    assert code == 0 and (out / "table.txt").read_bytes() == want, what

    def test_empty_inputs_fail(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("estimator,total\n")
        assert run("report", "--inputs", empty, "--out", tmp_path) == 2
        missing = tmp_path / "none.csv"
        assert run("report", "--inputs", missing, "--out", tmp_path) == 2


_SHAPE_FLAGS = _settings(None, "flags", _SHAPES)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A frame and the samples and record that the audit cases read."""
    d = tmp_path_factory.mktemp("inputs")
    frame = d / "frame.csv"
    assert run("generate", "--N", 300, "--positives", 12, *_SHAPE_FLAGS,
               "--seed", 21, "--out", d) == 0
    assert run("sample", "--frame", frame, "--design", "pps", "--n", 40, "--seed", 3,
               "--out", d) == 0
    assert run("sample", "--frame", frame, "--design", "stratified", "--n", 40,
               "--allocation", "proportional", "--seed", 6, "--out", d) == 0
    loaded = load_frame(frame)
    zero = ("zero", stratify_by_prediction(loaded, 0.5)["zero"])
    write_sample(pps_wr(loaded, 25, seed=7, stratum=zero), d / "zero_pps.csv")
    assert run("estimate", "--sample", d / "sample.csv", "--estimator", "hh", "--out", d) == 0
    return d


_GENERATED = {"N", "positives", *_SHAPES, "seed"}
_STRATA = ["--sample-one", "{d}/sample_one.csv", "--sample-zero", "{d}/sample_zero.csv"]
_SIMULATED = {"frame", "design", "estimator", "n", "R", "seed"}
_SIMULATE_FILES = ["report.json", "replicates.csv", "histogram.csv"]
# (id, argv with {d} for the inputs' directory, artifacts, audited settings):
# one run of each form of each command.  A calibrated generate audits the
# shapes it found, which is what its rerun reads, and no target or tau.
_AUDITED = [
    ("generate-shapes", ["generate", "--N", 300, "--positives", 12,
                         *_SHAPE_FLAGS, "--seed", 21],
     ["frame.csv"], _GENERATED),
    ("generate-target-loss", ["generate", "--N", 400, "--positives", 20, "--target-loss", 0.3,
                              "--seed", 33], ["frame.csv"], _GENERATED),
    ("generate-target-f1-tau", ["generate", "--N", 2000, "--positives", 40, "--target-f1", 0.7,
                                "--tau", 0.4, "--seed", 11], ["frame.csv"], _GENERATED),
    ("metrics", ["metrics", "--frame", "{d}/frame.csv"], ["metrics.json"], {"frame", "tau"}),
    ("sample-pps", ["sample", "--frame", "{d}/frame.csv", "--design", "pps", "--n", 30,
                    "--seed", 4], ["sample.csv"], {"frame", "design", "n", "seed"}),
    ("sample-srs", ["sample", "--frame", "{d}/frame.csv", "--design", "srs", "--n", 30,
                    "--seed", 4], ["sample.csv"], {"frame", "design", "n", "seed"}),
    ("sample-stratified", ["sample", "--frame", "{d}/frame.csv", "--design", "stratified",
                           "--n", 30, "--allocation", "neyman_oracle", "--seed", 5],
     ["sample_one.csv", "sample_zero.csv"], {"frame", "design", "n", "tau", "allocation", "seed"}),
    ("estimate-one", ["estimate", "--sample", "{d}/sample.csv", "--estimator", "hh"],
     ["record.csv"], {"sample", "estimator", "z"}),
    ("estimate-one-baseline", ["estimate", "--sample", "{d}/sample.csv", "--estimator", "hh",
                               "--baseline-se", 3.5], ["record.csv"],
     {"sample", "estimator", "z", "baseline_se"}),
    ("estimate-strata", ["estimate", *_STRATA], ["record.csv"],
     {"sample_one", "sample_zero", "zero_estimator", "z"}),
    ("estimate-strata-diff-z2", ["estimate", *_STRATA, "--zero-estimator", "diff", "--z", 2],
     ["record.csv"], {"sample_one", "sample_zero", "zero_estimator", "z"}),
    ("simulate-srs", ["simulate", "--frame", "{d}/frame.csv", "--design", "srs",
                      "--estimator", "diff", "--n", 20, "--R", 30, "--seed", 9],
     _SIMULATE_FILES, _SIMULATED),
    ("simulate-pps-baseline", ["simulate", "--frame", "{d}/frame.csv", "--design", "pps",
                               "--estimator", "hh", "--n", 20, "--R", 30, "--seed", 9,
                               "--baseline-se", 5.0], _SIMULATE_FILES, {*_SIMULATED, "baseline_se"}),
    ("simulate-stratified", ["simulate", "--frame", "{d}/frame.csv", "--design", "stratified",
                             "--estimator", "strat_diff", "--n", 20, "--R", 30, "--seed", 9,
                             "--allocation", "equal", "--tau", 0.4],
     _SIMULATE_FILES, {*_SIMULATED, "tau", "allocation"}),
    ("f1", ["f1", "--sample-one", "{d}/sample_one.csv", "--sample-zero", "{d}/zero_pps.csv",
            "--flagged-tp", 10, "--flagged-fn", 2, "--c", 30], ["f1.json"],
     {"sample_one", "sample_zero", "flagged_tp", "flagged_fn", "c"}),
    ("report", ["report", "--inputs", "{d}/record.csv"], ["table.txt"], {"inputs"}),
    ("report-paper-mode", ["report", "--inputs", "{d}/record.csv", "--paper-mode"],
     ["table.txt"], {"inputs", "paper_mode"}),
]
# a sample file's own lines below its audit
_SAMPLE_FACTS = {"sample_design", "parent_N", "parent_aux_total", "stratum"}


class TestAudits:
    """An artifact's audit holds the settings its run read, and reruns it."""

    @staticmethod
    def _first_run(inputs, tmp_path, argv):
        first = tmp_path / "first"
        first.mkdir()
        assert run(*(str(a).format(d=inputs) for a in argv), "--out", first) == 0
        return first

    @pytest.mark.parametrize("argv, artifacts, keys",
                             [case[1:] for case in _AUDITED], ids=[case[0] for case in _AUDITED])
    def test_an_audit_holds_exactly_the_settings_its_run_read(
        self, inputs, tmp_path, argv, artifacts, keys
    ):
        first = self._first_run(inputs, tmp_path, argv)
        for name in artifacts:
            audit = read_audit(first / name)
            assert audit["command"] == argv[0]
            assert set(audit) - {"command"} - _SAMPLE_FACTS == keys, name

    @pytest.mark.parametrize("argv, artifacts",
                             [case[1:3] for case in _AUDITED], ids=[case[0] for case in _AUDITED])
    def test_an_artifact_reruns_byte_for_byte_from_its_audit(
        self, inputs, tmp_path, argv, artifacts
    ):
        first = self._first_run(inputs, tmp_path, argv)
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text("\n".join(audit_to_config_lines(read_audit(first / artifacts[0]))) + "\n")
        second = tmp_path / "second"
        second.mkdir()
        assert run(argv[0], "--config", cfg, "--out", second) == 0
        for name in artifacts:
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_an_old_pps_sample_audit_with_tau_is_refused_on_rerun(self, inputs, tmp_path, capsys):
        # PPS and SRS sample audits carried tau = 0.5, which no such draw reads
        first = self._first_run(inputs, tmp_path, _AUDITED[4][1])
        path = first / "sample.csv"
        path.write_text(path.read_text().replace("# seed = 4\n", "# seed = 4\n# tau = 0.5\n"))
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text("\n".join(audit_to_config_lines(read_audit(path))) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run("sample", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == "auxcount: error: design 'pps' does not read ['tau']\n"
        assert list(out.iterdir()) == []

    def test_a_config_key_given_twice_is_refused(self, inputs, tmp_path, capsys):
        cfg = tmp_path / "metrics.cfg"
        cfg.write_text(f"frame = {inputs / 'frame.csv'}\ntau = 0.3\n# again\ntau = 0.7\n")
        assert run("metrics", "--config", cfg, "--out", tmp_path) == 2
        assert capsys.readouterr().err == f"auxcount: error: {cfg}:4: tau given twice\n"
        assert not (tmp_path / "metrics.json").exists()


def test_artifact_bytes_do_not_depend_on_the_locale(tmp_path):
    # ids with å, ä and ö, as Swedish police report ids carry.  Under the C
    # locale, with neither UTF-8 mode nor locale coercion, Python's default
    # text encoding is ASCII; the paths stay ASCII
    rng = np.random.default_rng(7)
    ids = [f"{c}{i}" for i in range(40) for c in ("å", "ä", "ö", "u")]
    labels = rng.random(len(ids)) < 0.3
    write_frame(Frame(ids, rng.random(len(ids)), labels), tmp_path / "frame.csv")
    src = os.path.dirname(os.path.dirname(designs.__file__))
    commands = [
        ["sample", "--frame", "../frame.csv", "--design", "pps", "--n", "30", "--seed", "2"],
        ["estimate", "--sample", "sample.csv", "--estimator", "hh", "--out-record", "pps.csv"],
        ["sample", "--frame", "../frame.csv", "--design", "stratified",
         "--allocation", "proportional", "--n", "40", "--seed", "3"],
        ["estimate", "--sample-one", "sample_one.csv", "--sample-zero", "sample_zero.csv",
         "--out-record", "strat.csv"],
    ]
    written = {}
    for name, env in [("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
                      ("utf8", {"LC_ALL": "C.UTF-8"})]:
        out = tmp_path / name
        out.mkdir()
        for argv in commands:
            subprocess.run([sys.executable, "-m", "auxcount.cli", *argv], cwd=out, check=True,
                           env={**os.environ, "PYTHONPATH": src, **env})
        written[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(written["ascii"]) == ["pps.csv", "sample.csv", "sample_one.csv",
                                        "sample_zero.csv", "strat.csv"]
    assert written["ascii"] == written["utf8"]
    assert "å".encode() in written["ascii"]["sample.csv"]
