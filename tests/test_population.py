import contextlib
import csv
import os
import re
import tracemalloc

import numpy as np
import pytest

from auxcount import (
    Frame,
    IngestionError,
    NEYMAN_ORACLE,
    NEYMAN_PROXY,
    PROB_FLOOR,
    PROPORTIONAL,
    STRATUM_ONE,
    STRATUM_ZERO,
    clamp_probs,
    load_frame,
    srs_wor,
    stratify_by_prediction,
    write_frame,
)
from auxcount import population
from auxcount.classifier_sim import confusion_counts, population_loss
from auxcount.cli import main
from auxcount.designs import sampling_plan
from auxcount.population import first_repeat

from conftest import piped, traced


def test_frame_aggregates():
    fr = Frame(["a", "b", "c"], [0.9, 0.2, 0.1], [1, 0, 0])
    assert fr.N == 3
    assert fr.aux_total == pytest.approx(1.2)
    assert fr.true_total == 1
    assert fr.fully_labeled


def test_clamp_pulls_endpoints_in():
    fr = Frame(["a", "b"], [1.0, 0.0], [1, 0])
    assert fr.aux_probs[0] == 1.0 - PROB_FLOOR
    assert fr.aux_probs[1] == PROB_FLOOR


def test_clamp_idempotent():
    probs = np.array([0.0, 1e-9, 0.4, 1.0])
    once = clamp_probs(probs)
    assert np.array_equal(clamp_probs(once), once)


def test_blank_label_leaves_true_total_undefined():
    fr = Frame(["a", "b"], [0.5, 0.5], [1, np.nan])
    assert not fr.fully_labeled
    assert fr.true_total is None


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Frame(["a", "b"], [0.5, 1.5])
    with pytest.raises(ValueError):
        Frame(["a", "a"], [0.5, 0.5])
    with pytest.raises(ValueError):
        Frame(["a", "b"], [0.5, 0.5], [1, 2])
    with pytest.raises(ValueError):
        Frame(["a"], [0.5, 0.5])


def test_rejects_nan_scores():
    # NaN fails every comparison, so a range check must be written to catch it
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        Frame(["a", "b", "c", "d"], [0.2, np.nan, 0.7, 0.9], [0, 1, 1, 0])
    fr = Frame(["a", "b"], [0.2, 0.7], [0, 1])
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        fr.replace_probs([np.nan, 0.5])


@pytest.mark.parametrize(
    "ids", [[" a", "a"], [" b"], ["b\t"], [""], ["a", "\u3000c"], ["a", "b\x00c"], ["\x00"]]
)
def test_refuses_ids_load_frame_would_not_read_back(ids):
    # load_frame strips padding from an id and refuses an empty one, or one
    # holding a NUL, which Python 3.10's csv module can neither write nor read
    with pytest.raises(ValueError, match="nonempty and unpadded, with no NUL"):
        Frame(ids, np.full(len(ids), 0.5))


@pytest.mark.parametrize(
    "ids, odd", [([1, 2], "1"), ([b"a", b"b"], "b'a'"), (["a", None], "None"), (["a", 2.5], "2.5")]
)
def test_refuses_an_id_that_is_not_str(ids, odd):
    # named, where a str method would fail on it or call it empty
    with pytest.raises(ValueError, match=f"^unit ids must be str, got {re.escape(odd)}$"):
        Frame(ids, np.full(len(ids), 0.5))


def test_accepts_numpy_str_ids():
    fr = Frame(np.array(["a", "b"]), [0.5, 0.5])
    assert fr.ids.tolist() == ["a", "b"]


def test_keeps_inner_whitespace_in_ids(tmp_path):
    fr = Frame(["a b", "c\td", "e\nf"], [0.5, 0.5, 0.5])
    write_frame(fr, tmp_path / "frame.csv")
    assert load_frame(tmp_path / "frame.csv").ids.tolist() == fr.ids.tolist()


def test_arrays_are_read_only():
    fr = Frame(["a", "b"], [0.5, 0.5], [1, 0])
    with pytest.raises(ValueError):
        fr.aux_probs[0] = 0.1
    with pytest.raises(ValueError):
        fr.labels[0] = 0.0


def test_frame_holds_a_copy_of_the_callers_labels():
    y = np.array([0.0, 1.0, 0.0])
    view = y[:]
    fr = Frame(["a", "b", "c"], [0.1, 0.2, 0.3], y)
    assert y.flags.writeable
    view[0] = 7.0  # the caller's array, not the frame's
    assert (fr.labels.tolist(), fr.true_total) == ([0.0, 1.0, 0.0], 1)
    # derived frames share the columns the package owns
    assert fr.replace_probs([0.4, 0.5, 0.6]).labels is fr.labels


def test_derived_frames_are_read_only():
    fr = Frame(["a", "b", "c"], [0.9, 0.2, 0.6], [1, 0, 1])
    strat = stratify_by_prediction(fr.replace_probs([0.8, 0.1, 1.0]), 0.5)
    derived = fr.replace_probs([0.1, 0.2, 0.3])
    for arr in (derived.ids, derived.aux_probs, derived.labels, *strat.values()):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert fr.replace_probs([0.1, 0.2, 1.0]).aux_probs[2] == 1.0 - PROB_FLOOR
    with pytest.raises(ValueError):
        fr.replace_probs([0.1, 0.2, 1.5])


def test_predicted_classes_threshold_is_inclusive():
    fr = Frame(["a", "b", "c"], [0.5, 0.49, 0.51])
    assert fr.predicted_classes(0.5).tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        fr.predicted_classes(1.0)


def test_stratify_refuses_an_empty_frame():
    with pytest.raises(ValueError, match="^cannot stratify an empty frame$"):
        stratify_by_prediction(Frame([], []), 0.5)


def test_stratify_threshold_rule():
    fr = Frame(["a", "b", "c"], [0.9, 0.2, 0.6], [1, 0, 1])
    strat = stratify_by_prediction(fr, 0.5)
    assert list(strat) == [STRATUM_ONE, STRATUM_ZERO]
    one, zero = strat[STRATUM_ONE], strat[STRATUM_ZERO]
    assert one.dtype == zero.dtype == np.intp
    assert one.tolist() == [0, 2] and zero.tolist() == [1]  # ascending rows of the frame
    assert fr.aux_probs[one].tolist() == [0.9, 0.6]


def test_stratify_keeps_empty_stratum():
    fr = Frame(["a", "b"], [0.1, 0.2], [0, 0])
    strat = stratify_by_prediction(fr, 0.5)
    assert {h: rows.tolist() for h, rows in strat.items()} == {
        STRATUM_ONE: [], STRATUM_ZERO: [0, 1]
    }


def test_stratify_partitions_ids():
    rng = np.random.default_rng(7)
    fr = Frame([f"u{i}" for i in range(500)], rng.random(500))
    strat = stratify_by_prediction(fr, 0.3)
    assert np.array_equal(np.sort(np.concatenate(list(strat.values()))), np.arange(500))


def _write(tmp_path, text, name="frame.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_frame_basic(tmp_path):
    path = _write(tmp_path, "id,label,p_hat\na,1,0.9\nb,0,0.2\nc,,0.1\n")
    fr = load_frame(path)
    assert fr.N == 3
    assert fr.true_total is None  # one blank label
    assert fr.aux_probs.tolist() == [0.9, 0.2, 0.1]


def test_load_frame_reads_columns_by_name(tmp_path):
    path = _write(tmp_path, "p_hat,extra,label,id\n0.9,x,1,a\n0.2,y,,b\n")
    fr = load_frame(path)
    assert fr.ids.tolist() == ["a", "b"]
    assert fr.aux_probs.tolist() == [0.9, 0.2]
    assert np.array_equal(fr.labels, [1.0, np.nan], equal_nan=True)
    missing = _write(tmp_path, "id,score,label\na,0.9,1\n", "m.csv")
    with pytest.raises(IngestionError, match=r"missing columns \['p_hat'\]"):
        load_frame(missing)


@pytest.mark.parametrize("column", ["id", "label", "p_hat"])
def test_load_frame_refuses_a_column_named_twice(tmp_path, column):
    header = ["id", "label", "p_hat", column]
    rows = {"id": ["b", "a"], "label": ["0", "1"], "p_hat": ["0.25", "0.5"]}[column]
    path = _write(tmp_path, ",".join(header) + f"\na,1,0.5,{rows[0]}\nb,0,0.25,{rows[1]}\n")
    with pytest.raises(IngestionError) as info:
        load_frame(path)
    assert str(info.value) == f"{path}: row 1: column {column!r} named twice"


def test_load_frame_errors_name_the_row(tmp_path):
    bad_prob = _write(tmp_path, "id,label,p_hat\na,1,0.9\nb,0,1.7\n", "p.csv")
    with pytest.raises(IngestionError, match="row 3"):  # header is row 1
        load_frame(bad_prob)
    bad_label = _write(tmp_path, "id,label,p_hat\na,2,0.9\n", "l.csv")
    with pytest.raises(IngestionError, match="row 2"):
        load_frame(bad_label)
    dup = _write(tmp_path, "id,label,p_hat\na,1,0.9\na,0,0.2\n", "d.csv")
    with pytest.raises(IngestionError, match="duplicate"):
        load_frame(dup)
    empty = _write(tmp_path, "id,label,p_hat\n", "e.csv")
    with pytest.raises(IngestionError):
        load_frame(empty)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    fr = Frame(
        [f"u{i}" for i in range(40)],
        rng.random(40),
        np.where(rng.random(40) < 0.5, 1.0, np.nan),
    )
    path = tmp_path / "out.csv"
    write_frame(fr, path)
    back = load_frame(path)
    assert np.array_equal(back.aux_probs, fr.aux_probs)
    assert np.array_equal(back.labels, fr.labels, equal_nan=True)
    assert back.ids.tolist() == fr.ids.tolist()
    # a second cycle changes nothing: clamping already applied
    write_frame(back, path)
    again = load_frame(path)
    assert np.array_equal(again.aux_probs, back.aux_probs)


def test_load_frame_skips_comment_header(tmp_path):
    path = _write(tmp_path, "# seed = 4\n# command = generate\nid,label,p_hat\na,1,0.9\n")
    assert load_frame(path).N == 1


def test_ids_needing_quotes_round_trip(tmp_path):
    fr = Frame(
        ["a,b", 'say "c"', "d\ne", "f\rg", "c"], [0.4, 0.6, 0.1, 0.2, 0.3], [1, 0, np.nan, 0, 1]
    )
    path = tmp_path / "q.csv"
    write_frame(fr, path)
    back = load_frame(path)
    assert back.ids.tolist() == fr.ids.tolist()
    assert np.array_equal(back.labels, fr.labels, equal_nan=True)


def test_hash_marks_a_comment_only_above_the_header(tmp_path):
    fr = Frame(["#a", "b"], [0.4, 0.6], [1, 0])
    path = tmp_path / "h.csv"
    write_frame(fr, path, ["seed = 4"])
    back = load_frame(path)
    assert (back.N, back.true_total) == (2, 1)
    assert back.ids.tolist() == ["#a", "b"]


def test_load_frame_refuses_ragged_rows(tmp_path):
    # a long row and a short row hold the right number of fields between them
    path = _write(tmp_path, "id,label,p_hat\na,1,0.9\nb,0,0.2,x\nc,0\n")
    with pytest.raises(IngestionError, match="row 3: expected 3 fields"):
        load_frame(path)
    quoted = _write(tmp_path, 'id,label,p_hat\n"a",1,0.9\n"b",0\n', "q.csv")
    with pytest.raises(IngestionError, match="row 3: expected 3 fields"):
        load_frame(quoted)


def test_load_frame_skips_blank_lines_and_reads_crlf(tmp_path):
    path = _write(tmp_path, "id,label,p_hat\n\na,1,0.9\n\n\nb,,0.2\n\n", "blank.csv")
    assert load_frame(path).ids.tolist() == ["a", "b"]
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(b"# seed = 1\r\nid,label,p_hat\r\na,1,0.9\r\nb,x,0.2\r\n")
    with pytest.raises(IngestionError, match="row 3: label 'x'"):
        load_frame(crlf)


class Colliding(str):
    """A str whose hash is the same for every text: only equality tells
    two of them apart."""

    def __hash__(self):
        return 7


def test_colliding_hashes_still_find_the_first_repeat(tmp_path):
    distinct = [Colliding(t) for t in ("a", "b", "c", "d")]
    assert first_repeat(distinct) is None
    assert Frame(distinct, np.full(4, 0.5)).ids.tolist() == ["a", "b", "c", "d"]
    repeated = [Colliding(t) for t in ("a", "b", "c", "b", "a")]
    assert first_repeat(repeated) == 3
    with pytest.raises(ValueError, match="^duplicate unit ids$"):
        Frame(repeated, np.full(5, 0.5))
    path = _write(tmp_path, "id,label,p_hat\na,1,0.5\nb,0,0.5\nc,,0.5\nb,1,0.5\n")
    with pytest.raises(IngestionError, match="row 5: duplicate id 'b'$"):
        load_frame(path)


# Traced bytes of frame reading and writing beyond the frame they keep, as
# multiples of one float64 column of it (480,000 bytes).  While a frame kept
# one str object an id, 4,730,603 bytes here, reading the whole body and its
# fields at once peaked at 2.64 times those bytes, and converting whole
# columns to text took 0.90 times them more while writing; read and written
# a chunk at a time, 1.62 and 0.26, and 1.27 to read once each column's
# chunks are dropped as it is joined.  Those bounds, a peak of 1.4 times the
# frame and a write transient of 0.5 times it, allowed 1.89 MB beyond the
# frame while reading and 2.37 MB while writing.  A frame whose ids are a
# byte column keeps 1.32 MB, so the same bytes are stated against its score
# column, which is the same in either form.  Tracing slows allocation about
# sevenfold, so the frame is kept small.
MEMORY_ROWS = 60_000
LOAD_TRANSIENT = 3.9
WRITE_TRANSIENT = 4.9
# a frame whose ids are a byte column keeps, a unit, the widest id's bytes
# and two float64 columns, scores and labels, and a few arrays' headers
KEPT_PER_UNIT = 16
KEPT_OVERHEAD = 1 << 16
# Stratifying peaked at 1.71 times the strata's bytes while each stratum's
# columns were clamped and their labels checked again, and 1.38 with the
# columns stored as taken, 24 bytes a unit kept; with strata as row indices,
# 8 bytes a unit, 1.13 (1.25 with the class mask negated into a copy).
STRATIFY_PEAK = 1.5
# A stratified sample's plan and its two strata's SRS draws, as `sample
# --design stratified` takes them, peaked at 4.13 times one float64 column
# of the frame while each stratum was a frame of its own copied columns, a
# peak this bound refuses; with strata as row indices, 2.0 under
# neyman_proxy, which gathers a stratum's scores for their spread, and 1.59
# under proportional.  neyman_oracle peaked at 2.51 while it gathered each
# stratum's scores as well as the labels it reads.
STRATIFIED_SAMPLE_PEAK = 2.5
# Counting the confusion table and summing the loss peaked at 2.25 and 4.0
# times one float64 column of the frame with int64 copies and y * log p
# products; from boolean masks and one log column filled in place, 0.375
# and 1.125.
COUNTS_PEAK = 0.5
LOSS_PEAK = 1.5
# `generate` with Beta shapes peaked at 13.8 times one float64 column of
# its frame while it built every id and a frame before it wrote a row; as
# it writes each range once it is scored, 6.1: its uniforms, labels and
# class mask, 17 bytes a unit, and one chunk of row text.
GENERATE_PEAK = 7.5


def _memory_frame():
    rng = np.random.default_rng(3)
    ids = [f"u{i}" for i in range(MEMORY_ROWS)]
    return Frame(ids, rng.random(MEMORY_ROWS), rng.random(MEMORY_ROWS) < 0.01)


def test_frame_io_holds_one_chunk_of_text(tmp_path):
    frame = _memory_frame()
    write_frame(frame, tmp_path / "frame.csv")
    tracemalloc.start()
    try:
        back = load_frame(tmp_path / "frame.csv")
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_frame(back, tmp_path / "again.csv")
        after, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column = back.aux_probs.nbytes
    assert peak - kept <= LOAD_TRANSIENT * column
    assert write_peak - after <= WRITE_TRANSIENT * column
    assert back._ids.dtype.kind == "S"
    assert kept <= (back._ids.itemsize + KEPT_PER_UNIT) * MEMORY_ROWS + KEPT_OVERHEAD
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "frame.csv").read_bytes()


def test_the_load_bound_refuses_a_whole_body_read(tmp_path, monkeypatch):
    write_frame(_memory_frame(), tmp_path / "frame.csv")
    size = (tmp_path / "frame.csv").stat().st_size
    monkeypatch.setattr(population, "CHUNK_CHARS", size)
    limit = csv.field_size_limit(size)  # a chunk holds at most this many characters
    try:
        assert len(list(population.read_chunks(tmp_path / "frame.csv"))) == 2  # header, body
        back, kept, peak = traced(lambda: load_frame(tmp_path / "frame.csv"))
    finally:
        csv.field_size_limit(limit)
    assert peak - kept > LOAD_TRANSIENT * back.aux_probs.nbytes


def test_load_frame_fills_its_columns_in_place(tmp_path, monkeypatch):
    # 16-byte rows with ids of one width, so that no chunk widens the id
    # column: 512 rows a chunk, 40 chunks
    rows, chunk_rows = 20_000, 512
    write_frame(Frame([f"u{i:07d}" for i in range(rows)], np.full(rows, 0.25),
                      np.arange(rows) % 2), tmp_path / "frame.csv")
    monkeypatch.setattr(population, "CHUNK_CHARS", 16 * chunk_rows)
    traced_before, parse = [], population.parse_floats  # parse_floats runs once a chunk

    def parse_floats(texts):
        traced_before.append(tracemalloc.get_traced_memory()[0])
        return parse(texts)

    monkeypatch.setattr(population, "parse_floats", parse_floats)
    back, _, _ = traced(lambda: load_frame(tmp_path / "frame.csv"))
    assert len(traced_before) >= rows // chunk_rows
    # one chunk's ids, labels and scores as the frame keeps them: columns
    # kept as a list of chunks would grow memory by this much a chunk
    chunk_columns = (back._ids.itemsize + 16) * chunk_rows
    assert max(np.diff(traced_before[1:])) < chunk_columns / 2
    assert back.ids.tolist() == [f"u{i:07d}" for i in range(rows)]


@contextlib.contextmanager
def _served(text, tmp_path, pipe):
    """A path that reads as ``text``: a file, or a pipe, whose size reads 0."""
    if pipe:
        with piped(text.encode()) as path:
            assert os.stat(path).st_size == 0
            yield path
    else:
        (tmp_path / "frame.csv").write_text(text, encoding="utf-8")
        yield tmp_path / "frame.csv"


def _sizing_case(case):
    """(ids, labels, score texts, chunk size, pipe) of a frame that takes one
    path of sizing its columns."""
    rows = 100_000 if case == "widening" else 3_000
    ids = [f"u{i}" for i in range(rows)]
    labels = [("1", "0", "")[i % 3] for i in range(rows)]
    scores = [repr((i % 997) / 996) for i in range(rows)]
    padded = [text + "0" * 80 if "." in text else text for text in scores]
    if case == "long-first":  # the estimate from the first chunk falls short
        scores[:100] = padded[:100]
    elif case == "short-first":  # and runs long
        scores[100:] = padded[100:]
    elif case in ("non-ascii", "too-wide"):  # the ids go back to str
        ids[2_500] = "\u00e9t\u00e9" if case == "non-ascii" else "w" * 60
    return ids, labels, scores, 4096 if case == "widening" else 1024, case == "pipe"


SIZING_CASES = ["pipe", "long-first", "short-first", "widening", "non-ascii", "too-wide"]


@pytest.mark.parametrize("case", SIZING_CASES)
def test_each_sizing_path_loads_the_frame_built_directly(tmp_path, monkeypatch, case):
    ids, labels, scores, size, pipe = _sizing_case(case)
    monkeypatch.setattr(population, "CHUNK_CHARS", size)
    text = "id,label,p_hat\n" + "".join(map("{},{},{}\n".format, ids, labels, scores))
    with _served(text, tmp_path, pipe) as path:
        back = load_frame(path)
    built = Frame(ids, list(map(float, scores)), [float(y) if y else np.nan for y in labels])
    assert back.ids.tolist() == built.ids.tolist()
    compact = case not in ("non-ascii", "too-wide")
    assert back._ids.dtype == (np.array(ids, "S").dtype if compact else object)
    assert back.aux_probs.view(np.uint64).tolist() == built.aux_probs.view(np.uint64).tolist()
    assert np.array_equal(back.labels, built.labels, equal_nan=True)


@pytest.mark.parametrize("case", SIZING_CASES)
@pytest.mark.parametrize("fault", ["score", "duplicate"])
def test_each_sizing_path_refuses_a_late_bad_row(tmp_path, monkeypatch, case, fault):
    ids, labels, scores, size, pipe = _sizing_case(case)
    monkeypatch.setattr(population, "CHUNK_CHARS", size)
    row = len(ids) - 7
    if fault == "score":
        scores[row], message = "x", f"row {row + 2}: bad probability 'x'"
    else:
        ids[row], message = ids[3], f"row {row + 2}: duplicate id '{ids[3]}'"
    text = "id,label,p_hat\n" + "".join(map("{},{},{}\n".format, ids, labels, scores))
    with _served(text, tmp_path, pipe) as path:
        with pytest.raises(IngestionError) as info:
            load_frame(path)
    assert str(info.value) == f"{path}: {message}"


def test_generate_holds_its_columns_and_one_chunk_of_text(tmp_path):
    def generate(N):
        return main(["generate", "--N", str(N), "--positives", str(N // 50), "--a1", "4",
                     "--b1", "1.5", "--a0", "0.2", "--b0", "8", "--seed", "3",
                     "--out", str(tmp_path)])

    assert generate(10) == 0  # what the first run imports is not traced
    code, _, peak = traced(lambda: generate(MEMORY_ROWS))
    assert code == 0
    assert peak <= GENERATE_PEAK * 8 * MEMORY_ROWS
    assert load_frame(tmp_path / "frame.csv").N == MEMORY_ROWS


def test_stratify_holds_little_beyond_its_strata():
    frame = _memory_frame()
    strata, kept, peak = traced(lambda: stratify_by_prediction(frame, 0.5))
    assert peak <= STRATIFY_PEAK * kept
    assert sum(rows.size for rows in strata.values()) == MEMORY_ROWS


@pytest.mark.parametrize("rule", [NEYMAN_ORACLE, NEYMAN_PROXY, PROPORTIONAL])
def test_stratified_sample_holds_little_beyond_its_strata_rows(rule):
    frame = _memory_frame()

    def draw():
        rng = np.random.default_rng(5)
        plan = sampling_plan(frame, 500, 0.5, rule)
        return [srs_wor(frame, n_h, rng, stratum=(h, rows)) for h, rows, n_h in plan]

    samples, _, peak = traced(draw)
    assert peak <= STRATIFIED_SAMPLE_PEAK * frame.aux_probs.nbytes
    assert [s.stratum for s in samples] == [STRATUM_ONE, STRATUM_ZERO]
    assert sum(s.n for s in samples) == 500


@pytest.mark.parametrize(
    "metric, bound",
    [(lambda frame: confusion_counts(frame, 0.5), COUNTS_PEAK), (population_loss, LOSS_PEAK)],
    ids=["confusion_counts", "population_loss"],
)
def test_counts_and_loss_hold_less_than_two_columns(metric, bound):
    frame = _memory_frame()
    _, _, peak = traced(lambda: metric(frame))
    assert peak <= bound * frame.aux_probs.nbytes


@pytest.mark.parametrize("labels", [[0.0, np.inf], [-1.0, 1.0], [0.5, np.nan], [np.nan, 2.0]])
def test_refuses_labels_other_than_0_1_or_missing(labels):
    with pytest.raises(ValueError, match="^labels must be 0, 1, or missing$"):
        Frame(["a", "b"], [0.5, 0.5], labels)


def test_accepts_negative_zero_and_missing_labels():
    fr = Frame(["a", "b", "c"], [0.5, 0.5, 0.5], [-0.0, np.nan, 1.0])
    assert np.array_equal(fr.labels, [0.0, np.nan, 1.0], equal_nan=True)
