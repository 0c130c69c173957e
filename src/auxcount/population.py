"""Finite-population frames keyed by classifier scores.

A frame holds one row per population unit: a stable identifier, an optional
binary label, and a predicted probability used as the auxiliary size
measure downstream.  Frames are immutable once built: simulation returns
a new frame, and stratification the row indices of each stratum.  Tables
are written a chunk at a time to a temporary sibling of their path, which
replaces the path only once the table is complete.  Every text file is
read and written here, as UTF-8 whatever the locale.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import re
import sys

import numpy as np

from .errors import IngestionError

# Probabilities are pinned away from 0 and 1 once, at ingestion, so that
# inverse weights and log losses stay finite everywhere else.
PROB_FLOOR = 1e-6

STRATUM_ONE = "one"
STRATUM_ZERO = "zero"

_FRAME_COLUMNS = ("id", "label", "p_hat")
_LABEL_VALUES = {"": np.nan, "0": 0.0, "1": 1.0}
# a table is read and written a chunk at a time, so that memory holds the
# text of one chunk, never that of a whole file: CHUNK_ROWS rows, or, read
# from unquoted text, CHUNK_CHARS characters and the rest of their last line
CHUNK_ROWS = 4096
CHUNK_CHARS = 1 << 17
# bytes.translate deletes these, leaving a text's commas and newlines
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))
# the widest id a byte column holds: narrower than an empty str object and
# the pointer to it, so that every id takes fewer bytes than as a str
_COMPACT_WIDTH = sys.getsizeof("") + 7
# an odd multiplier, which mixes a byte string's 8-byte words into one key
_MIX = np.uint64(0x9E3779B97F4A7C15)


def clamp_probs(p):
    """Clamp probabilities into [PROB_FLOOR, 1 - PROB_FLOOR].

    Idempotent; applying it twice changes nothing.
    """
    return np.clip(np.asarray(p, dtype=np.float64), PROB_FLOOR, 1.0 - PROB_FLOOR)


class Frame:
    """An ordered, immutable collection of units.

    Parameters
    ----------
    ids : sequence of str
        Unique unit identifiers.
    aux_probs : array_like of float
        Predicted probabilities in [0, 1]; clamped on construction.
    labels : array_like or None
        Binary labels; use None (or NaN entries) where unlabeled.

    A frame, built here or read by :func:`load_frame`, holds its ids in the
    column that :func:`_id_column` picks; either way :attr:`ids` gives str.
    """

    def __init__(self, ids, aux_probs, labels=None):
        texts = ids if isinstance(ids, list) else list(ids)  # a list is used, not copied
        try:
            joined = "".join(texts)
        except TypeError:  # which only a str (np.str_ too) escapes
            odd = next(uid for uid in texts if not isinstance(uid, str))
            raise ValueError(f"unit ids must be str, got {odd!r}") from None
        # what load_frame would refuse or strip could not be read back
        if not all(texts) or list(map(str.strip, texts)) != texts or "\0" in joined:
            raise ValueError("unit ids must be nonempty and unpadded, with no NUL")
        labels = None if labels is None else np.array(labels, np.float64)  # not the caller's array
        self._set(_id_column(texts, joined), aux_probs, labels)
        if first_repeat(self._ids) is not None:
            raise ValueError("duplicate unit ids")

    def _set(self, ids, aux_probs, labels) -> "Frame":
        """Check the columns but for the ids' text and uniqueness; store them read-only."""
        probs = np.asarray(aux_probs, dtype=np.float64)
        if probs.ndim != 1 or len(ids) != probs.size:
            raise ValueError("ids and aux_probs must be 1-d and equal length")
        # written so that NaN, which fails every comparison, fails the check
        if probs.size and not (np.min(probs) >= 0.0 and np.max(probs) <= 1.0):
            raise ValueError("aux_prob values must lie in [0, 1]")
        if labels is None:
            lab = np.full(probs.size, np.nan)
        else:
            lab = np.asarray(labels, dtype=np.float64)
            if lab.shape != probs.shape:
                raise ValueError("labels must match aux_probs in length")
            if not (np.isnan(lab) | (lab == 0.0) | (lab == 1.0)).all():
                raise ValueError("labels must be 0, 1, or missing")
        self._ids, self._probs, self._labels = ids, clamp_probs(probs), lab
        self._str_ids = None if ids.dtype.kind == "S" else ids
        self._aux_total = float(np.sum(self._probs))
        for arr in (ids, self._probs, lab):
            arr.setflags(write=False)
        return self

    # -- basic accessors -------------------------------------------------

    @property
    def ids(self):
        """The unit ids, a read-only object array of str; a byte column is
        decoded on first use, and the result kept."""
        if self._str_ids is None:
            self._str_ids = np.array(self._id_texts(slice(None)), dtype=object)
            self._str_ids.setflags(write=False)
        return self._str_ids

    def _id_texts(self, rows) -> list[str]:
        """The ids at ``rows``, a slice or row indices, as a list of str."""
        return _id_list(self._ids[rows])

    @property
    def aux_probs(self):
        return self._probs

    @property
    def labels(self):
        return self._labels

    @property
    def N(self) -> int:
        return self._probs.size

    @property
    def aux_total(self) -> float:
        """Sum of predicted probabilities over the frame."""
        return self._aux_total

    @property
    def fully_labeled(self) -> bool:
        return bool(self.N) and not np.isnan(self._labels).any()

    @property
    def true_total(self) -> int | None:
        """Number of positive labels, or None unless every unit is labeled."""
        if not self.fully_labeled:
            return None
        return int(np.sum(self._labels))

    def __len__(self) -> int:
        return self.N

    def predicted_classes(self, tau: float):
        """Hard predictions at threshold tau: a boolean mask, True where prob >= tau."""
        _check_tau(tau)
        return self._probs >= tau

    def replace_probs(self, aux_probs) -> "Frame":
        """New frame with the same ids/labels and fresh probabilities."""
        return Frame.__new__(Frame)._set(self._ids, aux_probs, self._labels)

    def __repr__(self):
        return f"Frame(N={self.N}, aux_total={self._aux_total:.6g})"


def _require_labels(frame: Frame, what: str) -> None:
    if not frame.fully_labeled:
        raise ValueError(f"{what} needs a fully labeled frame")


def _check_tau(tau):
    if not (0.0 < tau < 1.0):
        raise ValueError(f"threshold must lie strictly inside (0, 1), got {tau}")


def stratify_by_prediction(frame: Frame, tau: float) -> dict[str, np.ndarray]:
    """Split a frame into a "one" and a "zero" stratum at threshold tau.

    Units with aux_prob >= tau land in the "one" stratum, the rest in
    "zero", keyed by those names in that order.  A stratum is the
    ascending row indices of its units in ``frame``; one left with no
    units is kept, with size 0, so that allocation sees a stable pair.

    Parameters
    ----------
    frame : Frame
    tau : float
        Threshold strictly inside (0, 1).

    Returns
    -------
    dict of str to read-only intp array
    """
    one = frame.predicted_classes(tau)
    if frame.N < 1:
        raise ValueError("cannot stratify an empty frame")
    ones, zeros = np.flatnonzero(one), np.flatnonzero(np.logical_not(one, out=one))
    ones.setflags(write=False)
    zeros.setflags(write=False)
    return {STRATUM_ONE: ones, STRATUM_ZERO: zeros}


def read_header_fields(path) -> dict[str, str]:
    """Collect the leading ``# key = value`` lines of a CSV artifact."""
    return next(read_chunks(path))[0]


def read_chunks(path):
    """Yield a CSV file's (facts, header), then (fields, rows, ragged) for
    each chunk of its body, in order.

    ``facts`` come from the leading ``# key = value`` lines: below the
    column header a ``#`` is data.  Blank lines are skipped.  ``fields``
    holds a chunk's data fields, row after row; ``ragged`` is the index of
    the chunk's first row whose width differs from the header's (None if
    none), from which on the fields no longer line up with the columns.
    A field longer than ``csv.field_size_limit()`` is refused wherever it
    lies, as csv.reader refuses it.
    """
    with reading(path) as fh:
        facts, line = {}, fh.readline()
        while line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                facts[key.strip()] = value.strip()
            line = fh.readline()
        try:
            header = next(csv.reader([line]), [])
            yield facts, header
            width, limit = len(header), csv.field_size_limit()
            while text := fh.read(min(CHUNK_CHARS, limit)):
                text += fh.readline()
                if '"' in text or "\r" in text:
                    break
                # every line but the last ends within the read, so within the limit
                last = text[text.rfind("\n", 0, -1) + 1 :].rstrip("\n")
                if max(map(len, last.split(","))) > limit:
                    raise csv.Error(f"field larger than field limit ({limit})")
                yield _split_chunk(text, width)
            # csv.reader takes the rest, where a quoted field may span lines
            reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
            while records := list(itertools.islice(reader, CHUNK_ROWS)):
                table = [row for row in records if row]
                widths = np.fromiter(map(len, table), np.intp, len(table))
                fields = list(itertools.chain.from_iterable(table))
                yield fields, len(table), _first(widths != width)
        except csv.Error as exc:
            raise IngestionError(f"{path}: {exc}") from None


def _split_chunk(text, width):
    """(fields, rows, ragged) of lines with no quote or carriage return."""
    body = (re.sub("\n\n+", "\n", text) if "\n\n" in text else text).strip("\n")
    if not body:
        return [], 0, None
    # with no quotes, a row's width is its comma count plus one: compare
    # the chunk's separators, in order, with those of rows that fit
    seps = body.encode().translate(None, _NOT_SEPARATOR) + b"\n"
    rows = seps.count(b"\n")
    fits = (b"," * (width - 1) + b"\n") * rows
    ragged = None
    if seps != fits:
        size = min(len(seps), len(fits))
        pos = _first(np.frombuffer(seps, np.uint8, size) != np.frombuffer(fits, np.uint8, size))
        ragged = seps.count(b"\n", 0, pos)
    return body.replace("\n", ",").split(","), rows, ragged


def read_table(path):
    """(facts, header, fields, ragged) of a whole CSV file, its
    :func:`read_chunks` joined: ``ragged`` is the index of the first row
    whose width differs from the header's (None if none), and ``fields``
    holds the data fields of the rows before it."""
    chunks = read_chunks(path)
    facts, header = next(chunks)
    fields, rows = [], 0
    for part, count, ragged in chunks:
        if ragged is not None:
            return facts, header, fields + part[: ragged * len(header)], rows + ragged
        fields += part
        rows += count
    return facts, header, fields, None


def _first(mask) -> int | None:
    """Index of the first True in a boolean array, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


def parse_floats(texts):
    """float() of the texts as an array, cut at the first text float()
    rejects, and that text's index (None if none)."""
    try:
        return np.array(texts, dtype=np.float64), None
    except ValueError:
        bad = list(map(_float_or_none, texts)).index(None)
        return np.array(texts[:bad], dtype=np.float64), bad


def parse_labels(texts):
    """Labels from "0", "1" or blank (NaN), padding ignored, and the index
    of the first other text (None if none)."""
    values = np.fromiter(
        map(_LABEL_VALUES.get, map(str.strip, texts), itertools.repeat(np.inf)),
        np.float64,
        len(texts),
    )
    return values, _first(values == np.inf)


def label_texts(labels):
    """CSV text of labels that a Frame or Sample holds: "0", "1", or "" where NaN."""
    codes = np.nan_to_num(labels, nan=2.0)
    return map(("0", "1", "").__getitem__, codes.astype(np.intp).tolist())


def float_texts(values):
    """repr of each value as a float, which reads back exactly."""
    return map(repr, np.asarray(values, dtype=np.float64).tolist())


@contextlib.contextmanager
def reading(path, error=IngestionError):
    """A text file to read as UTF-8, its newlines untranslated and a leading
    BOM skipped.  Bytes that are not UTF-8 raise ``error``, naming the file
    and, but in a pipe, the 1-based line that first holds them."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            if not fh.seekable():  # a pipe's bytes cannot be read again to find the line
                raise error(f"{path}: not UTF-8") from None
            fh.buffer.seek(0)
            lines = enumerate(fh.buffer, 1)
            bad = next(i for i, raw in lines if raw.decode(errors="replace").encode() != raw)
            raise error(f"{path}: line {bad}: not UTF-8") from None


@contextlib.contextmanager
def replacing(path):
    """A UTF-8 text file, its newlines untranslated, to write in place of ``path``:
    a temporary sibling that replaces ``path`` whole once the block ends,
    and is removed on any error or interrupt, leaving ``path`` as it was."""
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def write_table(path, comments, header, rows, ids=()) -> None:
    """Write ``# `` comment lines, a header row and ``rows`` of str fields
    as CSV, in the bytes of csv.writer with QUOTE_MINIMAL, replacing
    ``path`` whole once every row is written (see :func:`replacing`).

    Only ``ids``, str or a frame's byte column, which the rows carry too,
    may need quotes.  An id with a lone carriage return, which
    QUOTE_MINIMAL leaves bare and a reader takes for a line break, makes
    every field quoted, as QUOTE_ALL does.
    """
    marks = set()  # which of , " \n \r the ids hold, joined a chunk at a time
    for start in range(0, len(ids), CHUNK_ROWS):
        part = ids[start : start + CHUNK_ROWS]
        text = part.tobytes().decode("ascii") if _is_bytes(part) else "".join(part)
        marks.update(c for c in ',"\n\r' if c in text)
    lines = itertools.chain([header], rows)
    with replacing(path) as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        if marks:
            quoting = csv.QUOTE_ALL if "\r" in marks else csv.QUOTE_MINIMAL
            csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(lines)
        else:  # no field needs quotes: csv.writer would join the fields as they are
            while chunk := list(itertools.islice(lines, CHUNK_ROWS)):
                fh.write("\n".join(map(",".join, chunk)) + "\n")


def _is_bytes(ids) -> bool:
    return isinstance(ids, np.ndarray) and ids.dtype.kind == "S"


def _id_column(texts, joined) -> np.ndarray:
    """The ids ``texts``, a list of str whose concatenation is ``joined``,
    as a frame holds them: a byte column, one fixed-width ASCII string a
    unit, if every id is ASCII with no NUL and the widest is at most
    ``_COMPACT_WIDTH`` bytes, which holds no reference to ``texts`` and
    takes fewer bytes than one str object an id; else an object array of
    the str.  The rule is read from the ids' lengths, before a column is made."""
    plain = joined.isascii() and "\0" not in joined
    if plain and (widest := max(map(len, texts), default=0)) <= _COMPACT_WIDTH:
        return np.array(texts, f"S{widest}")  # the width given, numpy need not find it again
    return np.array(texts, object)


def _id_list(ids) -> list[str]:
    """The ids of a byte column or an object array, as a list of str."""
    return list(map(bytes.decode, ids.tolist())) if _is_bytes(ids) else ids.tolist()


def _repeat_keys(ids) -> np.ndarray:
    """A new array of one key an id, equal for equal ids: a str id's hash,
    or a byte column's 8-byte words mixed, so that an id of up to 8 bytes
    is its own key."""
    if not _is_bytes(ids):
        return np.fromiter(map(hash, ids), np.int64, len(ids))
    words = -(-ids.itemsize // 8)
    columns = ids.astype(f"S{8 * words}", copy=False).view(np.uint64).reshape(len(ids), words)
    keys = columns[:, 0].copy()
    for j in range(1, words):
        keys *= _MIX
        keys ^= columns[:, j]
    return keys


def first_repeat(ids) -> int | None:
    """Index of the first id equal to an earlier one, or None; ``ids``, a
    sequence of str or a byte column, are compared one by one only where
    their sorted keys hold a repeat."""
    ordered = _repeat_keys(ids)
    ordered.sort()
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return None
    # the rows, in order, whose keys are repeated: keyed again, as sorting
    # in place keeps one array of keys in memory on the common path
    rows = np.flatnonzero(np.isin(_repeat_keys(ids), ordered[1:][same])).tolist()
    first = {}  # each colliding id's first index
    return next((i for i in rows if first.setdefault(ids[i], i) != i), None)


def load_frame(path) -> Frame:
    """Read a frame from CSV.

    The file must carry a header naming the columns ``id``, ``label`` and
    ``p_hat``, in any order, each once.  Labels may be blank for unlabeled
    units.  Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] by
    ``Frame._set``, as every Frame's are (``Frame(...)``, ``replace_probs``),
    and ``classifier_sim._scoring`` clips the scores ``generate`` writes
    alike.  ``#`` lines above the header are comments.

    Each chunk's ids go into the column that :func:`_id_column` picks; a
    chunk that breaks its byte-column rule sends the frame back to str ids.
    Memory holds one chunk's text and the frame's columns, reserved once
    with ``np.empty`` (rows never written take no memory), filled in place,
    cut to the rows read, and moved only where the rows outrun them (a
    pipe's size reads 0) or an id widens.

    Returns
    -------
    Frame

    Raises
    ------
    IngestionError
        Missing columns or one named twice, rows of the wrong width,
        duplicate or empty ids, ids holding a NUL, labels outside {0, 1},
        or probabilities outside [0, 1]; the message names the first
        offending row.  Bytes that are not UTF-8; the message names
        their line (see :func:`reading`).
    """
    chunks = read_chunks(path)
    _, header = next(chunks)
    where = {name: j for j, name in enumerate(header)}
    missing = [c for c in _FRAME_COLUMNS if c not in where]
    if missing:
        raise IngestionError(f"{path}: missing columns {missing}")
    twice = [c for c in _FRAME_COLUMNS if header.count(c) > 1]
    if twice:
        raise IngestionError(f"{path}: row 1: column {twice[0]!r} named twice")
    width = len(header)
    ids, probs, labels = np.empty(0, "S1"), np.empty(0), np.empty(0)
    # the rows read so far and reserved; whether ids is a byte column, or else of str
    start, reserve, compact = 0, 0, True
    # (row, rank, message): rank orders the checks made on one row
    problems = []
    for fields, rows, ragged in chunks:
        stop = (rows if ragged is None else ragged) * width
        raw_id, raw_y, raw_p = (fields[where[c] : stop : width] for c in _FRAME_COLUMNS)
        chunk_ids = list(map(str.strip, raw_id))
        joined = "".join(chunk_ids)
        p, unparsed = parse_floats(raw_p)
        y, bad_label = parse_labels(raw_y)
        outside = _first(~((p >= 0.0) & (p <= 1.0)))
        if ragged is not None:
            problems.append((start + ragged, 0, f"expected {width} fields"))
        if "" in chunk_ids:
            problems.append((start + chunk_ids.index(""), 1, "empty id"))
        if "\0" in joined:  # Python 3.10's csv module can neither write nor read it
            nul = next(i for i, uid in enumerate(chunk_ids) if "\0" in uid)
            problems.append((start + nul, 1, f"NUL in id {chunk_ids[nul]!r}"))
        if unparsed is not None:
            text = raw_p[unparsed].strip()
            problems.append((start + unparsed, 3, f"bad probability {text!r}"))
        if outside is not None:
            problems.append((start + outside, 4, f"probability {float(p[outside])} outside [0, 1]"))
        if bad_label is not None:
            text = raw_y[bad_label].strip()
            problems.append((start + bad_label, 5, f"label {text!r} not in {{0, 1, blank}}"))
        if rows and not start:  # an eighth more rows than size / (this chunk's bytes a row)
            reserve = os.stat(path).st_size * rows * 9 // 8 // sum(map(len, fields), len(fields))
        part = _id_column(chunk_ids, joined) if compact else np.array(chunk_ids, object)
        if compact and not _is_bytes(part):  # the ids read so far go back to str
            compact, ids = False, np.array(_id_list(ids[:start]), object)
        ids = _put(ids, start, part, reserve)
        probs, labels = _put(probs, start, p, reserve), _put(labels, start, y, reserve)
        start += len(chunk_ids)
        del fields, raw_id, raw_y, raw_p, chunk_ids, joined
        if problems:  # later rows cannot hold an earlier problem
            break
    for column in (ids, probs, labels):
        column.resize(start, refcheck=False)
    # the ids are stripped and nonempty: only their uniqueness is left to check
    repeat = first_repeat(ids)
    if repeat is not None:
        text = ids[repeat].decode() if compact else ids[repeat]
        problems.append((repeat, 2, f"duplicate id {text!r}"))
    if problems:
        row, _, message = min(problems)
        raise IngestionError(f"{path}: row {row + 2}: {message}")
    if not start:
        raise IngestionError(f"{path}: no data rows")
    return Frame.__new__(Frame)._set(ids, probs, labels)


def _put(column, start, values, rows):
    """``column`` with ``values`` written from row ``start`` on, moved where they do not fit."""
    end, dtype = start + len(values), np.promote_types(column.dtype, values.dtype)
    if end > len(column) or dtype != column.dtype:
        column, old = np.empty(rows if end <= rows else 2 * end, dtype), column
        column[:start] = old[:start]
    column[start:end] = values
    return column


def write_frame(frame: Frame, path, header_lines=()) -> None:
    """Write a frame as CSV with columns id,label,p_hat.

    Floats are written with repr so a load/write/load cycle reproduces
    every value exactly; ids that need it are CSV-quoted.  Optional
    ``header_lines`` are emitted first, each prefixed with ``# ``.
    """

    def columns(part):
        return frame._id_texts(part), frame.labels[part], frame.aux_probs[part]

    write_frame_rows(path, header_lines, [(0, frame.N)], columns, frame._ids)


def write_frame_rows(path, header_lines, ranges, columns, ids=()) -> None:
    """Write frame rows as :func:`write_frame` does, from ``columns(part)``,
    the (ids, labels, aux_probs) of the rows in slice ``part``, taken a
    chunk at a time over each range (lo, hi) of ``ranges`` in turn.  ``ids``
    lists every id, read first for those that need quotes; with none
    given, none may."""
    parts = (slice(i, min(i + CHUNK_ROWS, hi)) for lo, hi in ranges
             for i in range(lo, hi, CHUNK_ROWS))
    rows = (zip(i, label_texts(y), float_texts(p)) for i, y, p in map(columns, parts))
    write_table(path, header_lines, _FRAME_COLUMNS, itertools.chain.from_iterable(rows), ids)
