"""Sampling designs: SRS without replacement, PPS with replacement,
and sample-size allocation between the two predicted-class strata.

PPS draws use a Vose alias table of (prob, alias) records built once per
frame; uniform draws use a sparse partial Fisher-Yates shuffle that
replays in Python only the steps whose slots another step also touches,
so cost scales with the sample, not the frame.  Both turn uniforms into
draws a block of rows at a time; a single sample is the one-row case.
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

    ``y`` is NaN where the drawn unit is unlabeled.  SRS draws are
    distinct units; a PPS unit drawn again repeats its first draw's y and
    p_hat.
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
        if len({len(self.unit_ids), len(self.y), len(self.p_hat)}) != 1:
            raise ValueError("sample columns must have equal length")
        if self.n < 1:
            raise ValueError("a sample needs at least one draw")
        if self.parent_N < 1:
            raise ValueError("parent_N must be at least 1")
        p_hat = np.asarray(self.p_hat, dtype=np.float64)
        row = _first((p_hat < 0.0) | (p_hat > 1.0))
        if row is not None:
            raise ValueError(f"draw {row + 1}: score {p_hat[row]} not in [0, 1]")
        if not 0.0 <= self.parent_aux_total < math.inf:
            raise ValueError("parent_aux_total must be finite and nonnegative")
        # refuses a PPS draw with no score, p_hat > parent_aux_total and n > parent_N
        with np.errstate(divide="ignore", invalid="ignore"):
            pi = self.pi
        row = _first(~((pi > 0.0) & (pi <= 1.0)))  # NaN compares false
        if row is not None:
            raise ValueError(f"draw {row + 1}: selection probability {pi[row]} not in (0, 1]")
        ids, first = np.asarray(self.unit_ids).tolist(), {}
        seen = np.array([first.setdefault(uid, i) for i, uid in enumerate(ids)])
        if self.design == DESIGN_SRS:
            clash, what = seen != np.arange(self.n), "drawn before; SRS draws are distinct units"
        else:
            codes = np.nan_to_num(np.asarray(self.y, dtype=np.float64), nan=2.0)
            clash = (codes != codes[seen]) | (p_hat != p_hat[seen])
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
            return np.asarray(self.p_hat, dtype=np.float64) / self.parent_aux_total
        return np.full(self.n, self.n / self.parent_N)

    @property
    def labeled(self) -> bool:
        return not np.isnan(np.asarray(self.y, dtype=np.float64)).any()


def _srs_slots(u: np.ndarray, N: int) -> np.ndarray:
    """First n slots of a partial Fisher-Yates shuffle of range(N), one
    shuffle per row of the (B, n) uniforms u.

    Step j swaps slots j and k_j = j + floor(u_j * (N - j)) and draws what
    k_j held.  A step whose k_j is n or more and unique in its row touches
    no slot any other step reads, so it draws k_j itself; the other steps
    are replayed in order, tracking each row's displaced slots in a dict.
    Repeated slots are found by sorting each row and comparing neighbours,
    so memory is O(B n) and time O(B n log n).
    """
    n = u.shape[-1]
    j = np.arange(n)
    k = np.minimum(j + (u * (N - j)).astype(np.intp), N - 1)  # u = 1.0 gives N
    order = np.argsort(k, axis=-1)
    tie = np.diff(np.take_along_axis(k, order, axis=-1), axis=-1) == 0
    rows, ranks = np.divmod(np.flatnonzero(tie), n - 1)  # rare unless n ~ N
    shared = k < n
    shared[rows, order[rows, ranks]] = shared[rows, order[rows, ranks + 1]] = True
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
        scaled = w * (size / float(np.sum(w)))
        small = np.flatnonzero(scaled < 1.0).tolist()
        large = np.flatnonzero(scaled >= 1.0).tolist()
        scaled = scaled.tolist()
        alias = [0] * size
        # Vose's pops, with the large slot g held while it stays large
        if small and large:
            s, g = small.pop(), large.pop()
            while True:
                alias[s] = g  # scaled[s], now final, is s's prob
                x = scaled[g] = (scaled[g] + scaled[s]) - 1.0
                if x >= 1.0 and small:
                    s = small.pop()
                elif x < 1.0 and large:
                    s, g = g, large.pop()
                else:
                    break
            small.append(g)
        slots = np.empty(size, dtype=[("prob", np.float64), ("alias", np.intp)])
        slots["prob"] = scaled
        slots["alias"] = alias
        # leftovers are 1 up to rounding: prob 1, so alias is never read
        slots["prob"][small + large] = 1.0
        self.slots = slots
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


def _units(frame: Frame, design: str, j, u: np.ndarray) -> np.ndarray:
    """Units of ``frame`` that rows of alias slots j and uniforms u draw."""
    if design == DESIGN_PPS:
        return _alias_for(frame).lookup(j, u)
    return _srs_slots(u, frame.N)


def _sample(frame: Frame, design: str, n: int, seed) -> Sample:
    slots = frame.N if design == DESIGN_PPS else 0
    idx = _units(frame, design, *_draws([np.random.default_rng(seed)], 1, n, slots))[0]
    return Sample(
        design=design,
        unit_ids=frame.ids[idx],
        y=frame.labels[idx],
        p_hat=frame.aux_probs[idx],
        parent_N=frame.N,
        parent_aux_total=frame.aux_total,
        stratum=frame.stratum,
    )


def srs_wor(frame: Frame, n: int, seed) -> Sample:
    """Simple random sample of n distinct units, 1 <= n <= N, order of draw
    kept.  ``seed`` is an int, a sequence of ints or a numpy Generator."""
    if not 1 <= n <= frame.N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={frame.N}")
    return _sample(frame, DESIGN_SRS, n, seed)


def pps_wr(frame: Frame, n: int, seed) -> Sample:
    """With-replacement PPS sample, size measure p_hat.

    Each draw lands on unit i with probability p_hat_i / aux_total,
    recorded as ``pi``.  The alias table is cached on the frame, so
    repeated sampling from one frame only pays the build once.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if frame.N < 1:
        raise ValueError("cannot sample an empty frame")
    return _sample(frame, DESIGN_PPS, n, seed)


def allocate(strata: dict[str, Frame], n: int, rule: str) -> dict[str, int]:
    """Spread a total sample size over the "one" and "zero" strata.

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
    c1, c0 = one.N, zero.N
    if n > c1 + c0:
        raise AllocationError(f"n={n} exceeds population size {c1 + c0}")
    f1, f0 = min(MIN_PER_STRATUM, c1), min(MIN_PER_STRATUM, c0)
    if n < f1 + f0:
        raise AllocationError(
            f"n={n} cannot give every nonempty stratum its minimum "
            f"(need at least {f1 + f0})"
        )
    if rule == NEYMAN_ORACLE and not all(f.fully_labeled for f in (one, zero) if f.N):
        raise ValueError("neyman_oracle needs labels in every nonempty stratum")

    def weight(f: Frame) -> float:
        if rule == EQUAL:
            return float(f.N > 0)
        if rule == PROPORTIONAL:
            return float(f.N)
        if f.N < 2:
            return 0.0
        x = f.labels if rule == NEYMAN_ORACLE else f.aux_probs
        return f.N * float(np.std(x, ddof=1))

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


def sampling_plan(frame: Frame, n: int, tau=None, rule=None) -> list[tuple[Frame, int]]:
    """(stratum, n_h) for each part a sample draws: the whole frame when no
    allocation ``rule`` is given, else the "one" then the "zero" stratum of
    ``frame`` at threshold tau, n_h as :func:`allocate` spreads n by
    ``rule``, leaving out a stratum allocated no draws."""
    if rule is None:
        return [(frame, n)]
    strata = stratify_by_prediction(frame, tau)
    sizes = allocate(strata, n, rule)
    return [(strata[h], sizes[h]) for h in (STRATUM_ONE, STRATUM_ZERO) if sizes[h]]


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
    ids = np.asarray(sample.unit_ids).tolist()
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
    """
    facts, header, fields, rows, ragged = read_table(path)
    for key in ("sample_design", "parent_N", "parent_aux_total"):
        if key not in facts:
            raise IngestionError(f"{path}: missing '# {key} = ...' header line")
    if header != list(_SAMPLE_COLUMNS):
        raise IngestionError(f"{path}: expected columns {','.join(_SAMPLE_COLUMNS)}")
    width = len(_SAMPLE_COLUMNS)
    stop = (rows if ragged is None else ragged) * width
    raw_draw, ids, raw_pi, raw_y, raw_p = (fields[j:stop:width] for j in range(width))
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
    if not rows:
        raise IngestionError(f"{path}: no draws")
    try:
        sample = Sample(
            design=facts["sample_design"],
            unit_ids=np.asarray(ids, dtype=object),
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
