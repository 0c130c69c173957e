"""Sampling designs: SRS without replacement, PPS with replacement,
and sample-size allocation between the two predicted-class strata.

PPS draws use a Vose alias table of (prob, alias) records built once per
frame, or per draw from a stratum; uniform draws use a sparse partial
Fisher-Yates shuffle that replays in Python only the steps whose slots
another step also touches, so cost scales with the sample, not the frame.
Repeated slots are found by one in-place sort of packed int64 (slot, step)
keys, which needs N < 2**63 >> (n - 1).bit_length().  Both turn uniforms
into draws a block of rows at a time; a single sample is the one-row case.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, IngestionError
from .population import (
    STRATUM_ONE,
    STRATUM_ZERO,
    Frame,
    _first,
    float_texts,
    label_texts,
    parse_floats,
    parse_labels,
    read_table,
    stratify_by_prediction,
    write_table,
)

DESIGN_SRS = "SRS_WOR"
DESIGN_PPS = "PPS_WR"

NEYMAN_ORACLE = "neyman_oracle"
NEYMAN_PROXY = "neyman_proxy"
PROPORTIONAL = "proportional"
EQUAL = "equal"
ALLOCATION_RULES = (NEYMAN_ORACLE, NEYMAN_PROXY, PROPORTIONAL, EQUAL)

# a sampled stratum must support a variance estimate
MIN_PER_STRATUM = 2

_SAMPLE_COLUMNS = ("draw_index", "unit_id", "pi", "y", "p_hat")


@dataclass(frozen=True, eq=False)
class Sample:
    """Ordered draws from one frame under one design.

    ``y`` is 0, 1, or NaN where unlabeled.  SRS draws are distinct units;
    a PPS unit drawn again repeats its first draw's y and p_hat.  The
    columns are read-only copies, as a Frame's are.
    """

    design: str
    unit_ids: np.ndarray
    y: np.ndarray
    p_hat: np.ndarray
    parent_N: int
    parent_aux_total: float
    stratum: str | None = None

    def __post_init__(self):
        if self.design not in (DESIGN_SRS, DESIGN_PPS):
            raise ValueError(f"unknown design {self.design!r}")
        for name, dtype in (("unit_ids", object), ("y", np.float64), ("p_hat", np.float64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if len({len(self.unit_ids), len(self.y), len(self.p_hat)}) != 1:
            raise ValueError("sample columns must have equal length")
        if self.n < 1:
            raise ValueError("a sample needs at least one draw")
        if self.parent_N < 1:
            raise ValueError("parent_N must be at least 1")
        row = _first((self.p_hat < 0.0) | (self.p_hat > 1.0))
        if row is not None:
            raise ValueError(f"draw {row + 1}: score {self.p_hat[row]} not in [0, 1]")
        row = _first(~(np.isin(self.y, (0.0, 1.0)) | np.isnan(self.y)))
        if row is not None:
            raise ValueError(f"draw {row + 1}: label {self.y[row]} not in {{0, 1, NaN}}")
        if not 0.0 <= self.parent_aux_total < math.inf:
            raise ValueError("parent_aux_total must be finite and nonnegative")
        # refuses a PPS draw with no score, p_hat > parent_aux_total and n > parent_N
        with np.errstate(divide="ignore", invalid="ignore"):
            pi = self.pi
        row = _first(~((pi > 0.0) & (pi <= 1.0)))  # NaN compares false
        if row is not None:
            raise ValueError(f"draw {row + 1}: selection probability {pi[row]} not in (0, 1]")
        ids, first = self.unit_ids.tolist(), {}
        for row, uid in enumerate(ids):  # as Frame refuses them, so that every Sample loads back
            if not isinstance(uid, str) or not uid or uid.strip() != uid or "\0" in uid:
                what = "holds a NUL" if "\0" in str(uid) else "is not a nonempty, unpadded str"
                raise ValueError(f"draw {row + 1}: unit {uid!r} {what}")
        seen = np.array([first.setdefault(uid, i) for i, uid in enumerate(ids)])
        if self.design == DESIGN_SRS:
            clash, what = seen != np.arange(self.n), "drawn before; SRS draws are distinct units"
        else:
            codes = np.nan_to_num(self.y, nan=2.0)
            clash = (codes != codes[seen]) | (self.p_hat != self.p_hat[seen])
            what = "drawn before with another y or p_hat"
        row = _first(clash)
        if row is not None:
            raise ValueError(f"draw {row + 1}: unit {ids[row]!r} {what}")

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def pi(self) -> np.ndarray:
        """Selection probability per draw: p_hat / parent_aux_total (PPS) or n / parent_N."""
        if self.design == DESIGN_PPS:
            return self.p_hat / self.parent_aux_total
        return np.full(self.n, self.n / self.parent_N)

    @property
    def labeled(self) -> bool:
        return not np.isnan(self.y).any()


def _srs_slots(u: np.ndarray, N: int) -> np.ndarray:
    """First n slots of a partial Fisher-Yates shuffle of range(N), one
    shuffle per row of the (B, n) uniforms u.

    Step j swaps slots j and k_j = j + floor(u_j * (N - j)) and draws what
    k_j held.  A step whose k_j is n or more and unique in its row touches
    no slot any other step reads, so it draws k_j itself; the other steps
    are replayed in order, tracking each row's displaced slots in a dict.
    Repeated slots are found by sorting, in place, one int64 key per step,
    k_j << bits | j with bits = (n - 1).bit_length(): keys are unique, and
    neighbours with equal high parts are the repeats, their low parts the
    steps.  Memory is O(B n) and time O(B n log n).  The keys must fit in
    int64, so N << bits >= 2**63 raises ValueError.
    """
    n = u.shape[-1]
    bits = (n - 1).bit_length()
    if N << bits >= 2**63:
        raise ValueError(f"N={N} and n={n} overflow the int64 keys of an SRS draw")
    j = np.arange(n)
    k = np.multiply(u, N - j).astype(np.intp)
    k += j
    np.minimum(k, N - 1, out=k)  # u = 1.0 gives N
    key = k << bits
    key |= j
    key.sort()
    tie = (key[:, 1:] ^ key[:, :-1]) < 1 << bits  # equal high parts
    rows, ranks = np.divmod(np.flatnonzero(tie), n - 1)  # rare unless n ~ N
    low = (1 << bits) - 1
    shared = k < n
    shared[rows, key[rows, ranks] & low] = shared[rows, key[rows, ranks + 1] & low] = True
    at = np.flatnonzero(shared)  # into k's flat view, row by row, steps in order
    flat = k.reshape(-1)
    rows, steps = np.divmod(at, n)
    drawn, row = [], -1
    for b, step, slot in zip(rows.tolist(), steps.tolist(), flat[at].tolist()):
        if b != row:
            displaced, row = {}, b
        held = displaced.get(step, step)
        drawn.append(displaced.get(slot, slot))
        displaced[slot] = held
    flat[at] = drawn
    return k


class AliasTable:
    """Vose alias table of (prob, alias) records, so that each O(1) draw
    reads one cache line of the table instead of one in each of two arrays.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and positive")
        size = w.size
        with np.errstate(over="ignore"):
            total = float(np.sum(w))
        scale = size / total
        if not 0.0 < scale < math.inf:  # so total is finite and positive too
            raise ValueError(f"weights total {total!r}, scale {scale!r}: not finite and positive")
        self.slots = slots = np.zeros(size, dtype=[("prob", np.float64), ("alias", np.intp)])
        np.multiply(w, scale, out=slots["prob"])
        small = memoryview(np.flatnonzero(slots["prob"] < 1.0))
        large = memoryview(np.flatnonzero(slots["prob"] >= 1.0))
        prob, alias = memoryview(slots["prob"]), memoryview(slots["alias"])
        # Vose's pops from the ends of small and large, ns and nl slots left,
        # with the large slot g = large[nl], and its scaled weight x, held while it stays large
        ns, nl = len(small), len(large)
        if ns and nl:
            ns, nl = ns - 1, nl - 1
            s, g = small[ns], large[nl]
            x = prob[g]
            while True:
                alias[s] = g  # prob[s], now final, is s's prob
                x = (x + prob[s]) - 1.0
                if x >= 1.0 and ns:
                    ns -= 1
                    s = small[ns]
                elif x < 1.0 and nl:
                    prob[g] = x
                    nl -= 1
                    s, g = g, large[nl]
                    x = prob[g]
                else:
                    break
            nl += 1  # g is left over too
        # leftovers are 1 up to rounding: prob 1, so alias is never read
        slots["prob"][small[:ns]] = 1.0
        slots["prob"][large[:nl]] = 1.0
        self.size = size

    def lookup(self, j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Units drawn by slots j and uniforms u, of any one shape."""
        s = self.slots[j]
        return np.where(u < s["prob"], j, s["alias"])


_alias_cache: "weakref.WeakKeyDictionary[Frame, AliasTable]" = weakref.WeakKeyDictionary()


def _alias_for(frame: Frame) -> AliasTable:
    table = _alias_cache.get(frame)
    if table is None:
        table = AliasTable(frame.aux_probs)
        _alias_cache[frame] = table
    return table


def _draws(rngs, rows: int, n: int, slots: int = 0):
    """(j, u): a row per generator in ``rngs`` of n alias slots below
    ``slots`` (none where 0), then n uniforms, in the order it gives them."""
    u = np.empty((rows, n))
    j = np.empty(u.shape, dtype=np.int64) if slots else None
    for b, rng in enumerate(rngs):
        if slots:
            j[b] = rng.integers(slots, size=n)
        rng.random(out=u[b])
    return j, u


def _rows(frame: Frame, rows) -> np.ndarray:
    """``rows`` as an array, refused unless ascending integer row indices of ``frame``."""
    rows = np.asarray(rows)
    ordered = rows.ndim == 1 and rows.dtype.kind in "iu" and np.all(rows[1:] > rows[:-1])
    if not (ordered and (rows.size == 0 or 0 <= rows[0] <= rows[-1] < frame.N)):
        raise ValueError("a stratum's rows must be ascending integer row indices of its frame")
    return rows


def _part(frame: Frame, rows, labeled: bool = True):
    """(labels, scores, N, score total) of the stratum of ``frame``'s units
    at the ascending ``rows``, or of the whole frame where ``rows`` is None;
    labels None unless ``labeled``."""
    if rows is None:
        return frame.labels if labeled else None, frame.aux_probs, frame.N, frame.aux_total
    rows = _rows(frame, rows)
    scores = frame.aux_probs[rows]
    return frame.labels[rows] if labeled else None, scores, rows.size, float(np.sum(scores))


def _units(table: AliasTable | None, N: int, j, u: np.ndarray) -> np.ndarray:
    """Rows of N units that alias slots j and uniforms u draw: by ``table``, or by SRS if None."""
    return _srs_slots(u, N) if table is None else table.lookup(j, u)


def _sample(frame: Frame, design: str, n: int, seed, stratum) -> Sample:
    name, rows = stratum or (None, None)
    _, scores, N, total = _part(frame, rows, labeled=False)
    if design == DESIGN_SRS and not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    if n < 1 or N < 1:  # PPS draws with replacement: n may exceed N
        raise ValueError(f"need n >= 1 draws from N >= 1 units, got n={n}, N={N}")
    table = None  # a stratum's alias table is built for its draw, a whole frame's cached
    if design == DESIGN_PPS:
        table = _alias_for(frame) if rows is None else AliasTable(scores)
    j, u = _draws([np.random.default_rng(seed)], 1, n, 0 if table is None else table.size)
    idx = _units(table, N, j, u)[0]
    idx = idx if rows is None else rows[idx]
    return Sample(
        design=design,
        unit_ids=frame._id_texts(idx),
        y=frame.labels[idx],
        p_hat=frame.aux_probs[idx],
        parent_N=N,
        parent_aux_total=total,
        stratum=name,
    )


def srs_wor(frame: Frame, n: int, seed, *, stratum=None) -> Sample:
    """Simple random sample of n distinct units, 1 <= n <= N, order of draw
    kept.  ``seed`` is an int, a sequence of ints or a numpy Generator.
    ``stratum``, a (name, rows) pair, rows as :func:`stratify_by_prediction`
    gives them, draws from the units at ``rows`` alone and names the sample."""
    return _sample(frame, DESIGN_SRS, n, seed, stratum)


def pps_wr(frame: Frame, n: int, seed, *, stratum=None) -> Sample:
    """With-replacement PPS sample, size measure p_hat: each draw lands on
    unit i with probability p_hat_i / aux_total, recorded as ``pi``.  The
    alias table is cached on the frame, so repeated sampling from one frame
    pays the build once; a ``stratum``, as :func:`srs_wor` takes it, builds
    its own for each call."""
    return _sample(frame, DESIGN_PPS, n, seed, stratum)


def allocate(frame: Frame, strata: dict[str, np.ndarray], n: int, rule: str) -> dict[str, int]:
    """Spread a total sample size over the "one" and "zero" strata, each
    the row indices of its units in ``frame``.

    Rules
    -----
    - ``neyman_oracle``: n_h proportional to N_h * S_h with S_h the
      label standard deviation (needs labels; a what-if tool for known
      populations).
    - ``neyman_proxy``: same shape with S_h taken from the scores.
    - ``proportional``: n_h proportional to N_h.
    - ``equal``: even split.

    Rounding is largest-remainder, a tie going to "one".  Each stratum
    then gets at least min(2, N_h) draws, so a variance can be
    estimated, and at most N_h.

    Raises
    ------
    AllocationError
        If n cannot satisfy the floors or exceeds the population.
    """
    if rule not in ALLOCATION_RULES:
        raise ValueError(f"unknown allocation rule {rule!r}")
    one, zero = strata[STRATUM_ONE], strata[STRATUM_ZERO]
    c1, c0 = len(one), len(zero)
    if n > c1 + c0:
        raise AllocationError(f"n={n} exceeds population size {c1 + c0}")
    f1, f0 = min(MIN_PER_STRATUM, c1), min(MIN_PER_STRATUM, c0)
    if n < f1 + f0:
        raise AllocationError(
            f"n={n} cannot give every nonempty stratum its minimum "
            f"(need at least {f1 + f0})"
        )

    def weight(rows) -> float:
        if rule == EQUAL:
            return float(len(rows) > 0)
        if rule == PROPORTIONAL:
            return float(len(rows))
        x = (frame.labels if rule == NEYMAN_ORACLE else frame.aux_probs)[_rows(frame, rows)]
        if rule == NEYMAN_ORACLE and np.isnan(x).any():
            raise ValueError("neyman_oracle needs labels in every nonempty stratum")
        return x.size * float(np.std(x, ddof=1)) if x.size >= 2 else 0.0

    w1, w0 = weight(one), weight(zero)
    if not (w1 > 0 or w0 > 0):
        w1, w0 = float(c1), float(c0)
    total = (w1 + w0) or 1.0  # 0 only when both strata, and so n, are empty
    q1, q0 = n * w1 / total, n * w0 / total
    n1 = int(q1)
    left = n - n1 - int(q0)  # 0, 1 or 2 units to hand out by remainder
    if left == 2 or (left == 1 and q1 - int(q1) >= q0 - int(q0)):
        n1 += 1
    # the checks above make max(f1, n - c0) <= min(c1, n - f0)
    n1 = min(max(n1, f1, n - c0), c1, n - f0)
    return {STRATUM_ONE: n1, STRATUM_ZERO: n - n1}


def sampling_plan(frame: Frame, n: int, tau=None, rule=None) -> list[tuple]:
    """(name, rows, n_h) for each part a sample draws: (None, None, n), the
    whole frame, when no allocation ``rule`` is given, else the "one" then
    the "zero" stratum of ``frame`` at threshold tau, as :func:`allocate`
    spreads n by ``rule``, leaving out a stratum allocated no draws."""
    if rule is None:
        return [(None, None, n)]
    strata = stratify_by_prediction(frame, tau)
    sizes = allocate(frame, strata, n, rule)
    return [(h, strata[h], sizes[h]) for h in (STRATUM_ONE, STRATUM_ZERO) if sizes[h]]


def write_sample(sample: Sample, path, header_lines=()) -> None:
    """Write draws as CSV with the frame facts needed to estimate later.

    The design, parent size and auxiliary total ride along as ``# key =
    value`` lines above the header; blank y marks unlabeled draws.
    """
    facts = [
        f"sample_design = {sample.design}",
        f"parent_N = {sample.parent_N}",
        f"parent_aux_total = {float(sample.parent_aux_total)!r}",
    ]
    if sample.stratum is not None:
        facts.append(f"stratum = {sample.stratum}")
    ids = sample.unit_ids.tolist()
    rows = zip(
        map(str, range(sample.n)),
        ids,
        float_texts(sample.pi),
        label_texts(sample.y),
        float_texts(sample.p_hat),
    )
    write_table(path, [*header_lines, *facts], _SAMPLE_COLUMNS, rows, ids)


def load_sample(path) -> Sample:
    """Read a sample written by :func:`write_sample`.

    Raises
    ------
    IngestionError
        On missing header facts, malformed rows, a ``draw_index`` other
        than 0..n-1 in order, draws :class:`Sample` refuses, or a ``pi``
        other than the one the design gives; messages name a bad row.
        Bytes that are not UTF-8; the message names their line.
    """
    facts, header, fields, ragged = read_table(path)
    for key in ("sample_design", "parent_N", "parent_aux_total"):
        if key not in facts:
            raise IngestionError(f"{path}: missing '# {key} = ...' header line")
    if header != list(_SAMPLE_COLUMNS):
        raise IngestionError(f"{path}: expected columns {','.join(_SAMPLE_COLUMNS)}")
    width = len(_SAMPLE_COLUMNS)
    raw_draw, ids, raw_pi, raw_y, raw_p = (fields[j::width] for j in range(width))
    misplaced = next((i for i, text in enumerate(raw_draw) if text.strip() != str(i)), None)
    pi, bad_pi = parse_floats(raw_pi)
    p_hat, bad_p = parse_floats(raw_p)
    y, bad_y = parse_labels(raw_y)

    # (draw, rank, message): rank orders the checks made on one row
    problems = []
    if ragged is not None:
        problems.append((ragged, 0, f"expected {width} fields"))
    if misplaced is not None:
        text = raw_draw[misplaced].strip()
        problems.append((misplaced, 1, f"draw_index {text!r}, expected {misplaced}"))
    unparsed = [i for i in (bad_pi, bad_p) if i is not None]
    if unparsed:
        problems.append((min(unparsed), 2, "bad numeric field"))
    if bad_y is not None:
        problems.append((bad_y, 3, f"label {raw_y[bad_y].strip()!r} not in {{0, 1, blank}}"))
    if problems:
        row, _, message = min(problems)
        raise IngestionError(f"{path}: draw {row + 1}: {message}")
    if not fields:
        raise IngestionError(f"{path}: no draws")
    try:
        sample = Sample(
            design=facts["sample_design"],
            unit_ids=list(map(str.strip, ids)),  # as load_frame strips them
            y=y,
            p_hat=p_hat,
            parent_N=int(facts["parent_N"]),
            parent_aux_total=float(facts["parent_aux_total"]),
            stratum=facts.get("stratum"),
        )
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from None
    want = sample.pi
    row = _first(pi != want)
    if row is not None:
        text, expected = raw_pi[row].strip(), float(want[row])
        raise IngestionError(f"{path}: draw {row + 1}: pi {text}, expected {expected!r}")
    return sample
