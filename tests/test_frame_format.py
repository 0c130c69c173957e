"""Property tests for the frame and sample CSV formats.

Frames written with awkward ids (commas, quotes, line breaks, a leading
``#``, non-ASCII text) must read back exactly, and a malformed body must
be refused at the same row, with the same message, as the plain
row-by-row reader below, which states the format's rules one row at a
time.
"""

import codecs
import contextlib
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from auxcount import (
    DESIGN_PPS,
    DESIGN_SRS,
    PROB_FLOOR,
    ConfigError,
    Frame,
    IngestionError,
    Sample,
    load_frame,
    load_sample,
    pps_wr,
    srs_wor,
    write_frame,
    write_sample,
)
from auxcount import classifier_sim, cli, designs, estimators, population
from auxcount.cli import main

from conftest import piped


def reference_problem(path):
    """(row number, message) of the first problem in a frame file, or None.

    Comment lines only above the header; blank lines skipped; each row
    checked in turn for its width, an empty, NUL-holding or repeated id,
    an unparsable or out-of-range probability, and a label outside
    {0, 1, blank}.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        header = next(csv.reader([line]), [])
        rows = [row for row in csv.reader(io.StringIO(fh.read(), newline="")) if row]
    seen = set()
    for row_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            return row_no, f"expected {len(header)} fields"
        fields = dict(zip(header, row))
        uid = fields["id"].strip()
        if not uid:
            return row_no, "empty id"
        if "\0" in uid:
            return row_no, f"NUL in id {uid!r}"
        if uid in seen:
            return row_no, f"duplicate id {uid!r}"
        seen.add(uid)
        raw_p = fields["p_hat"].strip()
        try:
            p = float(raw_p)
        except ValueError:
            return row_no, f"bad probability {raw_p!r}"
        if not 0.0 <= p <= 1.0:
            return row_no, f"probability {p} outside [0, 1]"
        raw_y = fields["label"].strip()
        if raw_y not in ("", "0", "1"):
            return row_no, f"label {raw_y!r} not in {{0, 1, blank}}"
    return None


def _id_text(alphabet):
    return st.text(alphabet, min_size=1, max_size=8).filter(lambda s: s == s.strip())


# plain ids keep some bodies free of quotes, so both tokenisers run; a NUL,
# which Python 3.10's csv module can neither write nor read, is refused in an id
IDS = st.one_of(
    _id_text("abu019_."),
    _id_text("ab#,\"é \n\r\t"),
    _id_text(st.characters(codec="utf-8", exclude_characters="\x00")),
)
PROBS = st.floats(0.0, 1.0)
LABELS = st.sampled_from([0.0, 1.0, np.nan])


@st.composite
def frames(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=20, unique=True))
    n = len(ids)
    probs = draw(st.lists(PROBS, min_size=n, max_size=n))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    return Frame(ids, probs, labels)


@contextlib.contextmanager
def _scratch(name):
    """A path in a fresh temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory() as d:
        yield os.path.join(d, name)


@settings(max_examples=150, deadline=None)
@given(frames())
def test_write_then_load_is_exact(frame):
    with _scratch("frame.csv") as path:
        write_frame(frame, path, ["seed = 1"])
        back = load_frame(path)
        assert back.ids.tolist() == frame.ids.tolist()
        assert np.array_equal(back.aux_probs, frame.aux_probs)
        assert np.array_equal(back.labels, frame.labels, equal_nan=True)
        assert reference_problem(path) is None


@settings(max_examples=100, deadline=None)
@given(frames(), st.data())
def test_sample_write_then_load_is_exact(frame, data):
    sample = srs_wor(frame, data.draw(st.integers(1, frame.N)), seed=3)
    with _scratch("sample.csv") as path:
        write_sample(sample, path)
        back = load_sample(path)
        assert back.unit_ids.tolist() == sample.unit_ids.tolist()
        assert np.array_equal(back.pi, sample.pi)
        assert np.array_equal(back.y, sample.y, equal_nan=True)
        assert np.array_equal(back.p_hat, sample.p_hat)


@settings(max_examples=100, deadline=None)
@given(frames(), st.integers(1, 60))
def test_pps_sample_write_then_load_is_exact(frame, n):
    # repeated draws of one unit, unlabeled ones too, pass the load's pi and repeat checks
    sample = pps_wr(frame, n, seed=3)
    with _scratch("sample.csv") as path:
        write_sample(sample, path)
        back = load_sample(path)
        assert back.unit_ids.tolist() == sample.unit_ids.tolist()
        assert np.array_equal(back.pi, sample.pi)
        assert np.array_equal(back.y, sample.y, equal_nan=True)
        assert np.array_equal(back.p_hat, sample.p_hat)


@st.composite
def sample_fields(draw, design=None):
    """Keyword arguments of a hand-built Sample: PPS draws with replacement
    from a pool of units, each with one y and p_hat, or SRS draws of
    distinct units."""
    design = design or draw(st.sampled_from([DESIGN_PPS, DESIGN_SRS]))
    pool = draw(st.lists(IDS, min_size=1, max_size=12, unique=True))
    score = st.floats(PROB_FLOOR, 1.0)
    if design == DESIGN_SRS:
        score = st.one_of(PROBS, st.just(np.nan))
    units = [(uid, draw(LABELS), draw(score)) for uid in pool]
    if design == DESIGN_PPS:
        units = draw(st.lists(st.sampled_from(units), min_size=1, max_size=20))
    ids, y, p_hat = zip(*units)
    n = len(ids)
    if design == DESIGN_PPS:
        aux_total = max(p_hat) + draw(st.floats(0.0, 100.0))
    else:
        aux_total = draw(st.floats(0.0, 1e6))
    return dict(
        design=design,
        unit_ids=np.array(ids, dtype=object),
        y=np.array(y),
        p_hat=np.array(p_hat),
        parent_N=draw(st.integers(n, n + 1000)),
        parent_aux_total=aux_total,
        stratum=draw(st.sampled_from([None, "one", "zero"])),
    )


@settings(max_examples=100, deadline=None)
@given(sample_fields())
def test_hand_built_sample_write_then_load_is_exact(fields):
    sample = Sample(**fields)
    with _scratch("sample.csv") as path:
        write_sample(sample, path)
        back = load_sample(path)
    for name in ("design", "parent_N", "parent_aux_total", "stratum"):
        assert getattr(back, name) == getattr(sample, name), name
    assert back.unit_ids.tolist() == sample.unit_ids.tolist()
    assert np.array_equal(back.pi, sample.pi)
    assert np.array_equal(back.y, sample.y, equal_nan=True)
    assert np.array_equal(back.p_hat, sample.p_hat, equal_nan=True)


# 2.0 is the code label_texts gives NaN, so it was once written as a blank label
@pytest.mark.parametrize("design", [DESIGN_SRS, DESIGN_PPS])
@pytest.mark.parametrize(
    "y, row", [([2.0, 0.0], 1), ([0.5, 1.0], 1), ([1.0, -1.0], 2), ([0.0, np.inf], 2)]
)
def test_hand_built_sample_refuses_a_label_outside_0_1_nan(design, y, row):
    with pytest.raises(ValueError, match=rf"^draw {row}: label {y[row - 1]} not in "):
        Sample(design=design, unit_ids=np.array(["a", "b"], dtype=object), y=np.array(y),
               p_hat=np.array([0.4, 0.3]), parent_N=10, parent_aux_total=2.0)


def test_hand_built_sample_holds_read_only_copies():
    ids, y, p_hat = np.array(["a", "b"], dtype=object), np.array([1.0, 0.0]), np.array([0.4, 0.3])
    sample = Sample(design=DESIGN_SRS, unit_ids=ids, y=y, p_hat=p_hat, parent_N=10,
                    parent_aux_total=2.0)
    ids[0], y[0], p_hat[1] = "b", 7.0, -4.0  # the caller's arrays, not the sample's
    assert (sample.unit_ids.tolist(), sample.y.tolist(), sample.p_hat.tolist()) == (
        ["a", "b"], [1.0, 0.0], [0.4, 0.3])
    for column, value in ((sample.unit_ids, "b"), (sample.y, 7.0), (sample.p_hat, -4.0)):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = value
    with _scratch("sample.csv") as path:
        write_sample(sample, path)
        assert load_sample(path).y.tolist() == [1.0, 0.0]


@settings(max_examples=100, deadline=None)
@given(sample_fields(DESIGN_PPS), st.data())
def test_pps_sample_without_a_score_or_repeating_another_y_is_refused(fields, data):
    ids, y, p_hat = fields["unit_ids"], fields["y"], fields["p_hat"]
    row = data.draw(st.integers(0, len(ids) - 1))
    unscored = p_hat.copy()
    unscored[row] = np.nan
    with pytest.raises(ValueError, match=f"^draw {row + 1}: "):
        Sample(**{**fields, "p_hat": unscored})
    other = data.draw(LABELS.filter(lambda v: not np.array_equal(v, y[row], equal_nan=True)))
    with pytest.raises(ValueError) as info:
        again = np.array([*ids, ids[row]], dtype=object)
        Sample(**{**fields, "unit_ids": again, "y": np.append(y, other),
                  "p_hat": np.append(p_hat, p_hat[row])})
    assert str(info.value).startswith(f"draw {len(ids) + 1}: unit {ids[row]!r} drawn before")


def reference_write_table(path, comments, header, rows, ids=()) -> None:
    """csv.writer's bytes, which write_table must reproduce: QUOTE_MINIMAL,
    or QUOTE_ALL when an id holds a carriage return."""
    quoting = csv.QUOTE_ALL if "\r" in "".join(map(str, ids)) else csv.QUOTE_MINIMAL
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)


def _assert_reference_bytes(module, write):
    """write(path) with write_table, then with reference_write_table
    standing in for it in ``module``; the two files must match."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write(got)
        with mock.patch.object(module, "write_table", reference_write_table):
            write(want)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


AWKWARD = Frame(["a,b", 'q"x', "l\nm", "#h", "é", "plain"], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                [1.0, 0.0, np.nan, 1.0, 0.0, np.nan])
CARRIAGE = Frame(["r\r\nn", "c\rd", "e"], [0.25, 1.0, 0.0], [0.0, 1.0, np.nan])


@settings(max_examples=150, deadline=None)
@given(frames(), st.data())
@example(AWKWARD, None)
@example(CARRIAGE, None)
def test_frame_and_sample_bytes_match_the_csv_module(frame, data):
    _assert_reference_bytes(population, lambda p: write_frame(frame, p, ["seed = 1"]))
    n = frame.N if data is None else data.draw(st.integers(1, frame.N))
    sample = srs_wor(frame, n, seed=3)
    _assert_reference_bytes(designs, lambda p: write_sample(sample, p, ["seed = 1"]))


@pytest.mark.parametrize("quoted", ["a,b", 'q"x', "l\nm", "c\rd"])
def test_a_frame_past_one_chunk_with_a_quoted_id_matches_the_csv_module(quoted):
    # QUOTE_MINIMAL, or QUOTE_ALL for the carriage return, over more than
    # one chunk of rows; the id needing quotes lies in the second chunk
    N = 2 * population.CHUNK_ROWS + 100
    ids = [f"u{i}" for i in range(N)]
    ids[population.CHUNK_ROWS + 7] = quoted
    rng = np.random.default_rng(4)
    frame = Frame(ids, rng.random(N), rng.integers(0, 2, N))
    _assert_reference_bytes(population, lambda p: write_frame(frame, p, ["seed = 1"]))
    sample = srs_wor(frame, N - 1, seed=3)
    _assert_reference_bytes(designs, lambda p: write_sample(sample, p, ["seed = 1"]))
    with _scratch("frame.csv") as path:
        write_frame(frame, path)
        assert load_frame(path).ids.tolist() == ids


def test_estimate_record_bytes_match_the_csv_module(tmp_path):
    labeled = Frame(["a", "b", "c", "d", "e"], [0.9, 0.2, 0.6, 0.1, 0.3], [1, 0, 1, 0, 0])
    sample = srs_wor(labeled, 4, seed=1)
    record = estimators.estimate_record(estimators.srs_estimate(sample))
    assert record["deff"] is None
    audit = {"command": "estimate", "seed": 1}
    cli._write_record_csv(tmp_path / "got.csv", audit, [record])
    # csv writes None as an empty field and any other value as its str()
    fields = estimators.RECORD_FIELDS
    reference_write_table(tmp_path / "want.csv", cli._audit_lines(audit), fields,
                          [[record[f] for f in fields]])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("design", [["pps", "--estimator", "hh"], [
    "stratified", "--estimator", "strat_diff", "--allocation", "proportional"]])
def test_simulate_table_bytes_match_the_csv_module(tmp_path, monkeypatch, design):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--N", "400", "--positives", "12", "--a1", "4", "--b1", "1.5",
                 "--a0", "0.2", "--b0", "8", "--seed", "3"]) == 0
    argv = ["simulate", "--frame", "frame.csv", "--design", *design,
            "--n", "40", "--R", "300", "--seed", "5"]
    assert main(argv) == 0
    got = {name: (tmp_path / name).read_bytes() for name in ("replicates.csv", "histogram.csv")}
    with mock.patch.object(cli, "write_table", reference_write_table):
        assert main(argv) == 0
    for name, data in got.items():
        assert (tmp_path / name).read_bytes() == data, name


@st.composite
def malformed_rows(draw):
    """Rows of a frame body with one to three faults planted."""
    ids = draw(st.lists(IDS, min_size=1, max_size=12, unique=True))
    rows = [
        [
            uid,
            draw(st.sampled_from(["0", "1", "", " 1", "0 "])),
            repr(draw(PROBS)),
        ]
        for uid in ids
    ]
    kinds = st.sampled_from(["prob", "label", "empty", "repeat", "short", "long"])
    faults = [
        (i, kind)
        for i, row_kinds in draw(
            st.lists(
                st.tuples(st.integers(0, len(rows) - 1), st.lists(kinds, min_size=1, max_size=2)),
                min_size=1,
                max_size=3,
            )
        )
        for kind in row_kinds
    ]
    # width faults last, so that field faults find their field
    for i, fault in sorted(faults, key=lambda f: f[1] in ("short", "long")):
        if fault == "prob":
            rows[i][2] = draw(st.sampled_from(["x", "1.5", "-0.25", "nan", "inf", "", "0.5.1"]))
        elif fault == "label":
            rows[i][1] = draw(st.sampled_from(["2", "x", "01", "1.0", "-1"]))
        elif fault == "empty":
            rows[i][0] = draw(st.sampled_from(["", " ", "\t"]))
        elif fault == "repeat":
            rows[i][0] = rows[draw(st.integers(0, max(i - 1, 0)))][0]
        elif fault == "short":
            rows[i] = rows[i][: draw(st.integers(1, 2))]
        else:
            rows[i] = rows[i] + [draw(st.sampled_from(["", "x", "0"]))]
    return rows


@settings(max_examples=300, deadline=None)
@given(malformed_rows())
# the labels "01" and "" join to as many characters as two one-character
# labels: a label parser that checks only the joined length passes them
@example(rows=[["0", "01", "0.0"], ["1", "", "0.0"]])
def test_malformed_body_fails_at_the_reference_row(rows):
    with _scratch("frame.csv") as path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("# seed = 1\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label", "p_hat"])
            writer.writerows(rows)
        expected = reference_problem(path)
        if expected is None:  # the planted faults cancelled out
            assert load_frame(path).N == len(rows)
            return
        row_no, message = expected
        with pytest.raises(IngestionError) as info:
            load_frame(path)
        assert str(info.value) == f"{path}: row {row_no}: {message}"


def test_generate_bytes_are_pinned(tmp_path, monkeypatch):
    # digests of the files this command sequence wrote before the
    # columnar reader and writer; ids that need no quoting keep their bytes.
    # Samples audit the frame's path, so the run stays in one relative layout.
    # The frame and the PPS sample were re-recorded when their audits dropped
    # the tau that neither run reads; only that audit line changed.
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["generate", "--N", "5000", "--positives", "25", "--a1", "4", "--b1", "1.5",
         "--a0", "0.2", "--b0", "8", "--seed", "3"],
        ["sample", "--frame", "frame.csv", "--design", "pps", "--n", "50", "--seed", "4"],
        ["sample", "--frame", "frame.csv", "--design", "stratified",
         "--allocation", "neyman_proxy", "--n", "50", "--seed", "5"],
    ):
        assert main(argv) == 0
    digests = {
        "frame.csv": "3a8d0c4e2ddd282381ff72ed5cc037f3900003d434f238e281ef8f6b32780956",
        "sample.csv": "7c1e97569e145accb1a05111995ef3ae29417a672d4be918ecd2e01523e67b11",
        "sample_one.csv": "8bb0aa3665a023aec2e1a2cb07cef278139ca37cdb55398a42f216487c92b50e",
        "sample_zero.csv": "8f353e88d15e7da60816b75f4647caf3828871962d2334ce4e20533b348803c4",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


_GENERATE_20K = ["generate", "--N", "20000", "--positives", "400", "--a1", "4", "--b1", "1.5",
                 "--a0", "0.2", "--b0", "8", "--seed", "2022"]


def test_generate_bytes_do_not_depend_on_the_cpu_count_or_range_size(tmp_path, monkeypatch):
    # generate scores ranges of units on other threads while the caller
    # writes the ranges already scored; 700 units a range make 29 of them
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter often
    try:
        for rows in (cli._GENERATE_ROWS, 700):
            for cpus in (1, 2, 3, 7):
                monkeypatch.setattr(cli, "_GENERATE_ROWS", rows)
                monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: cpus)
                assert main([*_GENERATE_20K, "--out", str(tmp_path)]) == 0
                runs.append(hashlib.sha256((tmp_path / "frame.csv").read_bytes()).hexdigest())
    finally:
        sys.setswitchinterval(interval)
    # the digest of the frame generate wrote when it scored every unit
    # before it wrote the first row
    assert runs == ["5ee08c229422a03e1b4a24567205f4c2a42d1553aab3bc68b56a535f4a4720f5"] * 8
    assert os.listdir(tmp_path) == ["frame.csv"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("failing", ["score", "write"])
@pytest.mark.parametrize("form", [[], ["--target-f1", "0.7"], ["--target-loss", "0.05"]])
def test_a_failing_generate_leaves_no_frame_and_no_thread(tmp_path, monkeypatch, capsys,
                                                         cpus, failing, form):
    # the third range to be scored fails, or the writer once its third chunk is written;
    # a calibrated run scores its frame as the shapes run does, and a loss
    # calibration scores ranges of its own before it
    calls, lock = [], threading.Lock()
    if failing == "score":
        runner = classifier_sim._run_ranges

        def run_ranges(run, stop, k, rows=None):
            def run_or_fail(lo, hi):
                with lock:
                    calls.append(lo)
                    if len(calls) == 3:
                        raise ValueError("a score range failed")
                run(lo, hi)

            return runner(run_or_fail, stop, k, rows)

        monkeypatch.setattr(classifier_sim, "_run_ranges", run_ranges)
    else:
        texts = population.float_texts

        def float_texts(values):
            calls.append(len(values))
            if len(calls) == 3:
                raise OSError("no space left")
            return texts(values)

        monkeypatch.setattr(population, "float_texts", float_texts)
    monkeypatch.setattr(cli, "_GENERATE_ROWS", 700)
    monkeypatch.setattr(population, "CHUNK_ROWS", 300)
    monkeypatch.setattr(classifier_sim, "_usable_cpus", lambda: cpus)
    before = threading.active_count()
    # a calibrated run keeps the N, positives and seed of _GENERATE_20K
    argv = [*_GENERATE_20K[:5], *form, *_GENERATE_20K[-2:]] if form else _GENERATE_20K
    assert main([*argv, "--out", str(tmp_path)]) == 2
    want = "a score range failed" if failing == "score" else "no space left"
    assert capsys.readouterr().err == f"auxcount: error: {want}\n"
    assert threading.active_count() == before
    assert os.listdir(tmp_path) == []


def _failing_rows(rows, after):
    yield from rows[:after]
    raise KeyboardInterrupt


@pytest.mark.parametrize("quoted", [False, True])
def test_a_table_is_replaced_whole_or_left_as_it_was(tmp_path, quoted):
    # a write interrupted past its first chunk of rows keeps the old file's
    # bytes, and leaves no temporary file beside it
    path = tmp_path / "frame.csv"
    write_frame(Frame(["a", "b"], [0.25, 0.5], [1, 0]), path)
    old = path.read_bytes()
    ids = [f"u,{i}" if quoted else f"u{i}" for i in range(3 * population.CHUNK_ROWS)]
    rows = [(uid, "0", "0.5") for uid in ids]
    with pytest.raises(KeyboardInterrupt):
        population.write_table(path, ["a = b"], ["id", "label", "p_hat"],
                               _failing_rows(rows, population.CHUNK_ROWS + 5), ids)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["frame.csv"]
    population.write_table(path, ["a = b"], ["id", "label", "p_hat"], rows, ids)
    assert load_frame(path).ids.tolist() == ids
    assert os.listdir(tmp_path) == ["frame.csv"]


def test_a_file_that_cannot_replace_its_path_is_removed(tmp_path):
    (tmp_path / "out.json").mkdir()  # a directory, which no file replaces
    with pytest.raises(OSError):
        cli._write_json(tmp_path / "out.json", {"command": "metrics"}, {})
    assert os.listdir(tmp_path) == ["out.json"]
    assert os.listdir(tmp_path / "out.json") == []


def test_artifact_bytes_are_pinned(tmp_path, monkeypatch):
    # digests of every other artifact kind the CLI writes, recorded before
    # the writers and the stratified plan were shared between commands.  The
    # single-sample records and the SRS simulate files were re-recorded when
    # their audits dropped the zero_estimator, paper_mode and tau those runs
    # do not read; only those audit lines changed.
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["generate", "--N", "5000", "--positives", "25", "--a1", "4", "--b1", "1.5",
         "--a0", "0.2", "--b0", "8", "--seed", "3"],
        ["metrics", "--frame", "frame.csv"],
        ["sample", "--frame", "frame.csv", "--design", "pps", "--n", "50", "--seed", "4"],
        ["sample", "--frame", "frame.csv", "--design", "srs", "--n", "60", "--seed", "6",
         "--out-sample", "srs.csv"],
        ["sample", "--frame", "frame.csv", "--design", "stratified",
         "--allocation", "neyman_proxy", "--n", "50", "--seed", "5"],
        ["estimate", "--sample", "sample.csv", "--estimator", "hh", "--baseline-se", "3.5",
         "--out-record", "hh.csv"],
        ["estimate", "--sample", "srs.csv", "--estimator", "diff", "--z", "2",
         "--out-record", "diff.csv"],
        ["estimate", "--sample-one", "sample_one.csv", "--sample-zero", "sample_zero.csv",
         "--out-record", "strat.csv"],
        ["report", "--inputs", "hh.csv", "diff.csv", "strat.csv"],
        ["simulate", "--frame", "frame.csv", "--design", "srs", "--estimator", "srs",
         "--n", "50", "--R", "300", "--seed", "7", "--out", "srs"],
        ["simulate", "--frame", "frame.csv", "--design", "stratified",
         "--estimator", "strat_diff", "--allocation", "proportional", "--n", "50",
         "--R", "300", "--seed", "8", "--baseline-se", "6.5", "--out", "strat"],
    ):
        if "--out" in argv:
            os.mkdir(argv[-1])
        assert main(argv) == 0
    frame = load_frame("frame.csv")
    zero = population.stratify_by_prediction(frame, 0.5)["zero"]
    write_sample(designs.pps_wr(frame, 40, 9, stratum=("zero", zero)), "zero_pps.csv")
    assert main(["f1", "--sample-one", "sample_one.csv", "--sample-zero", "zero_pps.csv",
                 "--flagged-tp", "3", "--flagged-fn", "1", "--c", "40"]) == 0
    digests = {
        "metrics.json": "e0ca16085a18635bfaaf40bd39fda7341df4686424f21740ec35de4153a20dfc",
        "hh.csv": "b4753d4f391b2246619b18f6f12caad70557e2ad8316fb3215c4f9b242a7fd9b",
        "diff.csv": "ce6991dadc59bfdc2d1e70c836e158b3be07e212535ef0f96294b6e1aa0f9322",
        "strat.csv": "68b969bba9b55d10dfbc576abea7e294039872aba8be3d61694d575858637ad3",
        "table.txt": "915edb0ff48630d74a4f374955f275dc4cbcb9e1916f95ee25f72940add6d51c",
        "srs/report.json": "c4bfa751be3f0dac24f695a9e2dd9bc76e38f34d1104effe8fb3ff9a5625f93a",
        "srs/replicates.csv": "dae8fbd4e544e5d8dd7c14c118f01128ab27e0532b84a387f7cff576b66c56a5",
        "srs/histogram.csv": "9fb5bb9cb505e74bba8fd22cd6c3a63c82ee497b2eb1c99093603c68c57ecd7a",
        "strat/report.json": "5fe0d1c2631d31abe25edd80fdf188d24d4ca857d038562694d56ad93ab937f7",
        "strat/replicates.csv": "e8982f31d7e686fb12038bbaebd5a09f0ddb0dace293bce727ab2505c17ed51e",
        "strat/histogram.csv": "2f47a03ba5ad20326f7c7c3a3853465f29a48f6bfc1b40ea522fa4395bbb821d",
        "f1.json": "7382dd80d0c08f231c3d7b6a25422d1085b614c06fb1ff9cdcd960a9d22f054a",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize(
    "target, digest",
    [
        (["--target-f1", "0.7", "--seed", "11"],
         "e644ade2a254f16b6b4b106fcdc0f8f6d9768e1cdb0d8e6e275fb217d598c997"),
        (["--target-loss", "0.05", "--seed", "3"],
         "b1ddffe33436e1068b076dc883627ed0d089126d428c22dc5f2d246a35a558c3"),
        # calibration accepts sharpness 1, its first step
        (["--target-loss", "1.0", "--seed", "3"],
         "996c6db6ec6cfd334718cdf171a4284442e30370b17ede761bfbcc3182e69125"),
    ],
)
def test_calibrated_generate_bytes_are_pinned(tmp_path, target, digest):
    # digests of the frames written when generate simulated the calibrated
    # profile a second time instead of keeping the frame calibration measured,
    # re-recorded when their audits dropped the target and tau, which a rerun
    # from the audited shapes does not read; only those audit lines changed
    assert main(["generate", "--N", "5000", "--positives", "25", *target,
                 "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "frame.csv").read_bytes()).hexdigest() == digest


# Bodies are read and written a chunk at a time: CHUNK_ROWS rows, or
# CHUNK_CHARS characters of unquoted text and the rest of their last line.
# With both at one, two or three, every awkward id, fault and byte above
# falls on or across a chunk boundary somewhere.
CHUNKS = [1, 2, 3]


def _chunks(size):
    return mock.patch.multiple(population, CHUNK_ROWS=size, CHUNK_CHARS=size)


@pytest.mark.parametrize("size", CHUNKS)
@pytest.mark.parametrize(
    "test",
    [test_malformed_body_fails_at_the_reference_row, test_write_then_load_is_exact,
     test_frame_and_sample_bytes_match_the_csv_module],
    ids=lambda test: test.__name__,
)
def test_chunk_size_changes_no_result(size, test):
    with _chunks(size):
        test()


def _load_error(path):
    with pytest.raises(IngestionError) as info:
        load_frame(path)
    return str(info.value).removeprefix(f"{path}: ")


# unquoted bodies only: Python 3.10's csv.reader refuses any line holding a NUL
@pytest.mark.parametrize("size", [None, *CHUNKS])
@pytest.mark.parametrize(
    "body, message",
    [
        ("a,1,0.5\nb\x00c,0,0.2\nd,0,x\n", "row 3: NUL in id 'b\\x00c'"),
        # a NUL outranks a bad probability on its row, and ranks with an empty id
        ("a,1,0.5\n\x00,0,x\n ,0,0.3\n", "row 3: NUL in id '\\x00'"),
        ("a,1,0.5\n ,0,0.2\nb\x00,0,0.3\n", "row 3: empty id"),
        # the first NUL of its chunk, before a repeat of it
        ("a,1,0.5\nb,0,0.2\nc\x00,0,0.3\nc\x00,1,0.4\n", "row 4: NUL in id 'c\\x00'"),
    ],
    ids=["inner", "before_a_bad_probability", "after_an_empty_id", "repeated"],
)
def test_a_nul_in_an_id_is_refused_at_its_row(tmp_path, size, body, message):
    path = tmp_path / "frame.csv"
    path.write_text("id,label,p_hat\n" + body, newline="")
    sizes = contextlib.nullcontext() if size is None else _chunks(size)
    with sizes:
        assert _load_error(path) == message


def test_a_nul_in_a_sample_id_is_refused(tmp_path):
    fields = dict(design=DESIGN_SRS, y=[1.0, 0.0], p_hat=[0.5, 0.25], parent_N=4,
                  parent_aux_total=1.5)
    with pytest.raises(ValueError, match=r"^draw 2: unit 'b\\x00' holds a NUL$"):
        Sample(unit_ids=["a", "b\x00"], **fields)
    path = tmp_path / "sample.csv"
    write_sample(Sample(unit_ids=["a", "b"], **fields), path)
    path.write_text(path.read_text().replace(",b,", ",b\x00,"), newline="")
    with pytest.raises(IngestionError) as info:
        load_sample(path)
    assert str(info.value) == f"{path}: draw 2: unit 'b\\x00' holds a NUL"


@pytest.mark.parametrize("uid", [1, None, b"b", "", " b", "b "],
                         ids=["int", "none", "bytes", "empty", "leading_space", "trailing_space"])
def test_a_sample_refuses_an_id_that_frame_refuses(uid):
    # each would construct, then fail to be written or load back as another id
    fields = dict(design=DESIGN_SRS, y=[1.0, 0.0], p_hat=[0.5, 0.25], parent_N=4,
                  parent_aux_total=1.5)
    with pytest.raises(ValueError, match=rf"^draw 2: unit {re.escape(repr(uid))} is not a "
                                         r"nonempty, unpadded str$"):
        Sample(unit_ids=["a", uid], **fields)
    with pytest.raises(ValueError, match=r"^unit ids must be "):
        Frame(["a", uid], [0.5, 0.25], [1, 0])


def test_load_sample_strips_ids_as_load_frame_does(tmp_path):
    path = tmp_path / "sample.csv"
    header = "# sample_design = SRS_WOR\n# parent_N = 4\n# parent_aux_total = 1.5\n"
    columns = "draw_index,unit_id,pi,y,p_hat\n"
    path.write_text(header + columns + "0, a ,0.5,1,0.5\n1,b,0.5,0,0.25\n")
    assert load_sample(path).unit_ids.tolist() == ["a", "b"]
    # one unit counted twice is not two SRS draws
    path.write_text(header + columns + "0,a,0.5,1,0.5\n1,a ,0.5,1,0.5\n")
    with pytest.raises(IngestionError) as info:
        load_sample(path)
    assert str(info.value) == f"{path}: draw 2: unit 'a' drawn before; SRS draws are distinct units"


@pytest.mark.parametrize("size", CHUNKS)
@pytest.mark.parametrize(
    "body, message",
    [
        # a quoted id holding a line break, its lines split between chunks
        ('a,1,0.5\n"b\nc",0,0.25\nd,,0.75\n"e\n\nf",x,0.1\n',
         "row 5: label 'x' not in {0, 1, blank}"),
        ('a,1,0.5\nb,0,0.2\n"c\nd",0,0.25\ne,,0.75\nf,x,0.1\n',
         "row 6: label 'x' not in {0, 1, blank}"),
        # blank lines between chunks, before and after a switch to quoted rows
        ("a,1,0.5\n\n\nb,0,0.2\n\n\nc,2,0.1\n", "row 4: label '2' not in {0, 1, blank}"),
        ('a,1,0.5\n\n\n"b",0,0.2\n\n\nc,2,0.1\n', "row 4: label '2' not in {0, 1, blank}"),
        # a ragged seventh row, which opens a chunk at every size
        ("a,1,0.5\nb,0,0.2\nc,0,0.3\nd,1,0.4\ne,0,0.5\nf,,0.6\ng,0\nh,1\n",
         "row 8: expected 3 fields"),
        ('a,1,0.5\nb,0,0.2\nc,0,0.3\nd,1,0.4\ne,0,0.5\nf,,0.6\n"g",0\nh,1\n',
         "row 8: expected 3 fields"),
        # a duplicate of an id first used in an earlier chunk
        ("a,1,0.5\nb,0,0.2\nc,0,0.3\nd,0,0.4\nb,1,0.9\n", "row 6: duplicate id 'b'"),
        # that duplicate before a fault later in its own chunk
        ("a,1,0.5\nb,0,0.2\nc,0,0.3\nb,1,0.9\ne,0,1.5\n", "row 5: duplicate id 'b'"),
        # a late fault on the row of a duplicate: the duplicate's lower rank wins
        ("a,1,0.5\nb,0,0.2\nc,0,0.3\nd,0,0.4\nb,7,x\n", "row 6: duplicate id 'b'"),
        # an empty id outranks a bad probability on its row
        ("a,1,0.5\nb,0,0.2\nc,0,0.3\n ,0,x\n", "row 5: empty id"),
    ],
)
def test_faults_at_chunk_boundaries(tmp_path, size, body, message):
    path = tmp_path / "frame.csv"
    path.write_text("# seed = 1\nid,label,p_hat\n" + body, newline="")
    assert reference_problem(path) == (int(message.split()[1][:-1]), message.split(": ", 1)[1])
    with _chunks(size):
        assert _load_error(path) == message
    assert _load_error(path) == message


@pytest.mark.parametrize(
    "body",
    [
        "0,a,0.5,1,0.4\n\n1,b,0.5,0,0.3\n2,c,0.5\n3,d,0.5,,0.2\n",
        '0,"a\nb",0.5,1,0.4\n\n1,b,0.5,0,0.3\n2,c,0.5,1,0.1,x\n',
        "0,a,0.5,1,0.4\r\n1,b,0.5,0,0.3\r\n\r\n2,c,0.5,1,0.1\r\n",
    ],
)
def test_whole_table_is_the_same_at_every_chunk_size(tmp_path, body):
    # load_sample and report read a table whole, its chunks joined
    path = tmp_path / "table.csv"
    path.write_text("# parent_N = 9\ndraw_index,unit_id,pi,y,p_hat\n" + body, newline="")
    want = population.read_table(path)
    for size in CHUNKS:
        with _chunks(size):
            assert population.read_table(path) == want, size


LIMIT = csv.field_size_limit()


def _long_id_tables(tmp_path, length, long_first):
    """{path: (loader, id column)} of a frame and a sample file, each holding
    one unquoted id of ``length`` characters and one quoted id, the long id
    before or after the quote."""
    ids = ["x" * length, "q,1"] if long_first else ["q,1", "x" * length]
    write_frame(Frame(ids, [0.5, 0.25], [1, 0]), tmp_path / "frame.csv")
    sample = Sample(design=DESIGN_SRS, unit_ids=ids, y=[1, 0], p_hat=[0.5, 0.25],
                    parent_N=2, parent_aux_total=0.75)
    write_sample(sample, tmp_path / "sample.csv")
    return {tmp_path / "frame.csv": (load_frame, "ids"),
            tmp_path / "sample.csv": (load_sample, "unit_ids")}


@pytest.mark.parametrize("size", [None, *CHUNKS])
@pytest.mark.parametrize("long_first", [True, False], ids=["before_quote", "after_quote"])
def test_a_field_at_the_csv_limit_loads_and_one_past_it_is_refused(tmp_path, size, long_first):
    # csv.reader refuses a field past its limit; unquoted chunks refuse it too
    sizes = contextlib.nullcontext() if size is None else _chunks(size)
    tables = _long_id_tables(tmp_path, LIMIT, long_first)
    with sizes:
        for path, (load, column) in tables.items():
            ids = getattr(load(path), column).tolist()
            assert ids.index("x" * LIMIT) == (0 if long_first else 1)
    tables = _long_id_tables(tmp_path, LIMIT + 1, long_first)
    with sizes:
        for path, (load, _) in tables.items():
            with pytest.raises(IngestionError) as info:
                load(path)
            assert str(info.value) == f"{path}: field larger than field limit ({LIMIT})"


def test_a_header_field_past_the_csv_limit_is_refused(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("id,label,p_hat," + "x" * (LIMIT + 1) + "\na,1,0.5,\n", newline="")
    with pytest.raises(IngestionError) as info:
        load_frame(path)
    assert str(info.value) == f"{path}: field larger than field limit ({LIMIT})"


# load_frame holds ids as a byte column, one fixed-width ASCII string a unit,
# while every id is ASCII and at most population._COMPACT_WIDTH bytes wide;
# readers see the same str ids, messages and bytes from either column.
WIDEST = population._COMPACT_WIDTH


def _frame_file(path, ids):
    rng = np.random.default_rng(4)
    labels = (rng.random(len(ids)) < 0.3).astype(float)
    write_frame(Frame(ids, rng.random(len(ids)), labels), path)
    return path


def _str_column():
    """load_frame as it reads a frame that breaks the byte column's rule."""
    return mock.patch.object(population, "_COMPACT_WIDTH", 0)


def test_short_ascii_ids_load_as_a_byte_column(tmp_path):
    ids = [f"u{i}" for i in range(50)] + ["#a", "x" * WIDEST]
    frame = load_frame(_frame_file(tmp_path / "frame.csv", ids))
    assert frame._ids.dtype.kind == "S"
    assert frame.ids.tolist() == ids
    assert all(type(uid) is str for uid in frame.ids)
    assert frame.ids is frame.ids
    assert frame.ids.dtype == object and not frame.ids.flags.writeable


@pytest.mark.parametrize("last", ["é1", "x" * (WIDEST + 1)], ids=["non_ascii", "too_wide"])
def test_one_id_past_the_rule_in_the_last_chunk_keeps_str_ids(tmp_path, monkeypatch, last):
    ids = [f"u{i}" for i in range(400)] + [last]
    path = _frame_file(tmp_path / "frame.csv", ids)
    monkeypatch.setattr(population, "CHUNK_CHARS", 256)
    assert len(list(population.read_chunks(path))) > 10  # the header, then many chunks
    frame = load_frame(path)
    assert frame._ids.dtype == object
    assert frame.ids.tolist() == ids


@pytest.mark.parametrize("size", [None, 2])
@pytest.mark.parametrize(
    "ids, message",
    [
        (["a", "b", "c", "b", "a"], "row 5: duplicate id 'b'"),
        # ids past 8 bytes are keyed by their words mixed; with no mixing,
        # those sharing a last word collide, and only equal ones repeat
        (["aaaaaaaa-1", "bbbbbbbb-1", "cccccccc-2", "bbbbbbbb-1"],
         "row 5: duplicate id 'bbbbbbbb-1'"),
        (["aaaaaaaa-1", "bbbbbbbb-1", "cccccccc-1"], None),
    ],
    ids=["short", "colliding", "colliding_distinct"],
)
def test_a_duplicate_is_named_alike_on_byte_and_str_columns(tmp_path, monkeypatch, size, ids,
                                                           message):
    monkeypatch.setattr(population, "_MIX", np.uint64(0))
    path = tmp_path / "frame.csv"
    path.write_text("id,label,p_hat\n" + "".join(f"{uid},0,0.5\n" for uid in ids))
    repeat = None if message is None else int(message.split()[1][:-1]) - 2
    assert population.first_repeat(np.array(ids, "S")) == population.first_repeat(ids) == repeat
    sizes = contextlib.nullcontext() if size is None else _chunks(size)
    for kind, reading in [("S", contextlib.nullcontext()), ("O", _str_column())]:
        with sizes, reading:
            if message is None:
                assert load_frame(path)._ids.dtype.kind == kind
            else:
                assert _load_error(path) == message


def test_quoted_ascii_ids_round_trip_byte_for_byte(tmp_path):
    ids = ["a,b", 'say "c"', "#d"] + [f"u{i}" for i in range(5000)]
    path = _frame_file(tmp_path / "frame.csv", ids)
    frame = load_frame(path)
    assert frame._ids.dtype.kind == "S"
    write_frame(frame, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "argv, files",
    [(["--design", "pps"], ["sample.csv"]),
     (["--design", "stratified", "--allocation", "neyman_proxy"],
      ["sample_one.csv", "sample_zero.csv"])],
    ids=["pps", "stratified"],
)
def test_samples_from_byte_and_str_columns_write_the_same_bytes(tmp_path, argv, files):
    frame = tmp_path / "frame.csv"
    assert main(["generate", "--N", "3000", "--positives", "60", "--a1", "4", "--b1", "1.5",
                 "--a0", "0.2", "--b0", "8", "--seed", "5", "--out", str(tmp_path)]) == 0
    assert load_frame(frame)._ids.dtype.kind == "S"
    written = []
    for column in (contextlib.nullcontext(), _str_column()):
        out = tmp_path / str(len(written))
        out.mkdir()
        with column:
            assert main(["sample", "--frame", str(frame), "--n", "300", "--seed", "2",
                         *argv, "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in files])
    assert written[0] == written[1]


def _bom_copy(path):
    """A copy of ``path`` beside it, with a UTF-8 BOM in front, as Excel's
    "CSV UTF-8" export writes one."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def test_a_leading_bom_reads_as_if_it_had_none(tmp_path, capsys):
    ids = ["u1", "å2", "a,b"]
    frame = _frame_file(tmp_path / "frame.csv", ids)
    bom = _bom_copy(frame)
    assert load_frame(bom).ids.tolist() == ids
    assert cli.read_audit(bom) == cli.read_audit(frame)
    # a config file read from a BOM: the sample it draws is the one the flags draw
    settings = f"frame = {frame}\ndesign = pps\nn = 4\nseed = 2\n"
    (tmp_path / "sample.cfg").write_bytes(codecs.BOM_UTF8 + settings.encode())
    for out, argv in [("flags", ["--frame", str(frame), "--design", "pps", "--n", "4",
                                 "--seed", "2"]),
                      ("config", ["--config", str(tmp_path / "sample.cfg")])]:
        (tmp_path / out).mkdir()
        assert main(["sample", *argv, "--out", str(tmp_path / out)]) == 0
    sample = tmp_path / "flags" / "sample.csv"
    assert (tmp_path / "config" / "sample.csv").read_bytes() == sample.read_bytes()
    # a sample read with a BOM gives the estimate it gives without one
    records = []
    for path in (sample, _bom_copy(sample)):
        records.append(tmp_path / f"record-{path.name}")
        assert main(["estimate", "--sample", str(path), "--estimator", "hh",
                     "--out-record", records[-1].name, "--out", str(tmp_path)]) == 0
    assert cli._read_record_rows(records[0]) == cli._read_record_rows(records[1])
    # a record read with a BOM: report prints the table it prints without one
    for path in (records[0], _bom_copy(records[0])):
        assert main(["report", "--inputs", str(path), "--out", str(tmp_path)]) == 0
    tables = capsys.readouterr().out.splitlines()
    assert tables[:2] == tables[2:]
    # no writer writes a BOM
    for path in tmp_path.glob("**/*"):
        if path.is_file() and not path.name.startswith(("bom-", "sample.cfg")):
            assert not path.read_bytes().startswith(codecs.BOM_UTF8), path.name


_NOT_UTF8 = [
    (b"id,label,p_hat\nu\xe5,1,0.5\n", 2),  # latin-1 å
    (b"# seed = \xe5\nid,label,p_hat\nu1,1,0.5\n", 1),
    (b"\xef\xbb\xbfid,label,p_hat\nu1,1,0.5\n\n\"u\xc3\",0,0.25\n", 4),  # a sequence cut off
    (b"id,label,p_hat\n" + b"".join(b"u%d,0,0.5\n" % i for i in range(9000))
     + b"x\xed\xa0\x80,1,0.5\n", 9002),  # an encoded surrogate, past the first read
]


@pytest.mark.parametrize("size", [None, 64])
@pytest.mark.parametrize("body, line", _NOT_UTF8,
                         ids=["latin-1", "comment", "cut-off", "surrogate"])
def test_bytes_that_are_not_utf8_are_refused_at_their_line(tmp_path, body, line, size):
    path = tmp_path / "frame.csv"
    path.write_bytes(body)
    with contextlib.nullcontext() if size is None else _chunks(size):
        assert _load_error(path) == f"line {line}: not UTF-8"


@pytest.mark.parametrize("body, line", _NOT_UTF8,
                         ids=["latin-1", "comment", "cut-off", "surrogate"])
def test_a_pipe_that_is_not_utf8_is_refused_by_its_path(body, line):
    # a pipe cannot be read again to find the line that a file names
    with piped(body) as path:
        with pytest.raises(IngestionError) as info:
            load_frame(path)
    assert str(info.value) == f"{path}: not UTF-8"


def test_a_piped_config_or_sample_that_is_not_utf8_is_refused_by_its_path():
    with piped(b"n = 5\n# \xe4\n") as path:
        with pytest.raises(ConfigError, match=f"^{path}: not UTF-8$"):
            cli.read_config_file(path)
    with piped(b"# design = srs\nunit_id,y,p_hat\n\xe5,1,0.5\n") as path:
        with pytest.raises(IngestionError, match=f"^{path}: not UTF-8$"):
            load_sample(path)


@pytest.mark.parametrize("stdin", ["pipe", "file"])
def test_metrics_names_stdin_that_is_not_utf8(tmp_path, stdin):
    body = b"id,label,p_hat\na,0,0.5\n\xff\xfe,1,0.7\n"
    (tmp_path / "bad.csv").write_bytes(body)
    src = os.path.dirname(os.path.dirname(population.__file__))
    with open(tmp_path / "bad.csv", "rb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "auxcount.cli", "metrics", "--frame", "/dev/stdin",
             "--out", str(tmp_path)],
            input=body if stdin == "pipe" else None, stdin=None if stdin == "pipe" else fh,
            capture_output=True, env={**os.environ, "PYTHONPATH": src},
        )
    where = "" if stdin == "pipe" else "line 3: "  # a redirected file can seek
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"auxcount: error: /dev/stdin: {where}not UTF-8\n"


def test_a_sample_record_or_config_that_is_not_utf8_is_refused(tmp_path, capsys):
    _frame_file(tmp_path / "frame.csv", [f"u{i}" for i in range(20)])
    assert main(["sample", "--frame", str(tmp_path / "frame.csv"), "--design", "srs",
                 "--n", "5", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert main(["estimate", "--sample", str(tmp_path / "sample.csv"), "--estimator", "srs",
                 "--out", str(tmp_path)]) == 0
    sample, record, cfg = (tmp_path / name for name in ("sample.csv", "record.csv", "bad.cfg"))
    text = sample.read_bytes()
    sample.write_bytes(text.replace(b",u", b",\xe5", 1))  # the first draw's id
    bad = text[: text.index(b",u")].count(b"\n") + 1
    with pytest.raises(IngestionError, match=re.escape(f"{sample}: line {bad}: not UTF-8")):
        load_sample(sample)
    record.write_bytes(record.read_bytes() + b"SRS\xff\n")
    lines = record.read_bytes().count(b"\n")
    assert main(["report", "--inputs", str(record), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"auxcount: error: {record}: line {lines}: not UTF-8\n"
    cfg.write_bytes(b"n = 5\n# \xe4\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 2: not UTF-8")):
        cli.read_config_file(cfg)
