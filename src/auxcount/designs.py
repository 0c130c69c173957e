"""Sampling designs: SRS without replacement, PPS with replacement,
and sample-size allocation over strata.

PPS draws use a Vose alias table of (prob, alias) records built once per
frame; uniform draws use a sparse partial Fisher-Yates shuffle that
replays in Python only the steps whose slots another step also touches,
so cost scales with the sample, not the frame.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, IngestionError
from .population import (
    Frame,
    StratifiedFrame,
    float_texts,
    label_texts,
    parse_floats,
    parse_labels,
    read_table,
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

    ``pi`` holds the per-draw selection probability: p_hat / aux_total
    for PPS draws, n / N for uniform draws.  ``y`` is NaN where the
    drawn unit is unlabeled.
    """

    design: str
    unit_ids: np.ndarray
    pi: np.ndarray
    y: np.ndarray
    p_hat: np.ndarray
    parent_N: int
    parent_aux_total: float
    stratum: str | None = None

    def __post_init__(self):
        if self.design not in (DESIGN_SRS, DESIGN_PPS):
            raise ValueError(f"unknown design {self.design!r}")
        sizes = {len(self.unit_ids), len(self.pi), len(self.y), len(self.p_hat)}
        if len(sizes) != 1:
            raise ValueError("sample columns must have equal length")
        if self.n < 1:
            raise ValueError("a sample needs at least one draw")
        if self.parent_N < 1:
            raise ValueError("parent_N must be at least 1")
        # NaN fails the pi and parent_aux_total checks; a NaN p_hat passes (unscored)
        pi = np.asarray(self.pi, dtype=np.float64)
        if not np.all((pi > 0.0) & (pi <= 1.0)):
            raise ValueError("selection probabilities must lie in (0, 1]")
        p_hat = np.asarray(self.p_hat, dtype=np.float64)
        if np.any(p_hat < 0.0) or np.any(p_hat > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if not 0.0 <= self.parent_aux_total < math.inf:
            raise ValueError("parent_aux_total must be finite and nonnegative")

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def labeled(self) -> bool:
        return not np.isnan(np.asarray(self.y, dtype=np.float64)).any()


def _srs_indices(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """First n slots of a partial Fisher-Yates shuffle of range(N).

    Step j swaps slots j and k_j = j + floor(u_j * (N - j)) and draws what
    k_j held.  A step whose k_j is n or more and unique touches no slot any
    other step reads, so it draws k_j itself; the other steps are replayed
    in order, tracking displaced slots in a dict.  Memory and time are O(n).
    """
    u = rng.random(n)
    j = np.arange(n)
    k = np.minimum(j + (u * (N - j)).astype(np.intp), N - 1)  # u = 1.0 gives N
    ks = np.sort(k)
    shared = np.flatnonzero((k < n) | np.isin(k, ks[1:][np.diff(ks) == 0]))
    displaced: dict[int, int] = {}
    for step, slot in zip(shared.tolist(), k[shared].tolist()):
        held = displaced.get(step, step)
        k[step] = displaced.get(slot, slot)
        displaced[slot] = held
    return k


def srs_wor(frame: Frame, n: int, seed) -> Sample:
    """Simple random sample of n distinct units, order of draw kept.

    Parameters
    ----------
    frame : Frame
    n : int
        1 <= n <= N.
    seed : int, sequence of int, or numpy Generator

    Returns
    -------
    Sample
        With ``pi`` = n / N on every draw.
    """
    if not 1 <= n <= frame.N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={frame.N}")
    idx = _srs_indices(np.random.default_rng(seed), frame.N, n)
    return Sample(
        design=DESIGN_SRS,
        unit_ids=frame.ids[idx],
        pi=np.full(n, n / frame.N),
        y=frame.labels[idx],
        p_hat=frame.aux_probs[idx],
        parent_N=frame.N,
        parent_aux_total=frame.aux_total,
        stratum=frame.stratum,
    )


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
        slots = np.zeros(size, dtype=[("prob", np.float64), ("alias", np.intp)])
        prob, alias = slots["prob"], slots["alias"]  # views: the build fills slots
        prob[:] = 1.0
        total = float(np.sum(w))
        scaled = (w * (size / total)).tolist()
        small = [i for i, v in enumerate(scaled) if v < 1.0]
        large = [i for i, v in enumerate(scaled) if v >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            (small if scaled[g] < 1.0 else large).append(g)
        # leftovers are 1 up to rounding: prob stays 1, so alias is never read
        self.slots = slots
        self.size = size

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        j = rng.integers(self.size, size=size)
        u = rng.random(size)
        s = self.slots[j]
        return np.where(u < s["prob"], j, s["alias"])


_alias_cache: "weakref.WeakKeyDictionary[Frame, AliasTable]" = weakref.WeakKeyDictionary()


def _alias_for(frame: Frame) -> AliasTable:
    table = _alias_cache.get(frame)
    if table is None:
        table = AliasTable(frame.aux_probs)
        _alias_cache[frame] = table
    return table


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
    idx = _alias_for(frame).draw(np.random.default_rng(seed), n)
    return Sample(
        design=DESIGN_PPS,
        unit_ids=frame.ids[idx],
        pi=frame.aux_probs[idx] / frame.aux_total,
        y=frame.labels[idx],
        p_hat=frame.aux_probs[idx],
        parent_N=frame.N,
        parent_aux_total=frame.aux_total,
        stratum=frame.stratum,
    )


@dataclass(frozen=True)
class AllocationPlan:
    """Per-stratum sample sizes, summing to the requested n."""

    sizes: dict[str, int]


def _apportion(weights, total, caps):
    """Largest-remainder apportionment of ``total`` units, capped per entry."""
    k = len(weights)
    x = [0] * k
    remaining = int(total)
    w = [max(0.0, float(v)) for v in weights]
    while remaining > 0:
        room = [caps[i] - x[i] for i in range(k)]
        idx = [i for i in range(k) if room[i] > 0 and w[i] > 0]
        if not idx:
            idx = [i for i in range(k) if room[i] > 0]
            if not idx:
                raise AllocationError("sample size exceeds available units")
            share = [float(room[i]) for i in idx]
        else:
            share = [w[i] for i in idx]
        s = sum(share)
        quota = [remaining * v / s for v in share]
        handed = 0
        for q, i in zip(quota, idx):
            give = min(int(q), room[i])
            x[i] += give
            handed += give
        remaining -= handed
        if remaining > 0:
            order = sorted(
                range(len(idx)), key=lambda j: (-(quota[j] - int(quota[j])), j)
            )
            for j in order:
                if remaining == 0:
                    break
                i = idx[j]
                if x[i] < caps[i]:
                    x[i] += 1
                    remaining -= 1
    return x


def _stratum_sd(frame: Frame, rule: str) -> float:
    if frame.N < 2:
        return 0.0
    if rule == NEYMAN_ORACLE:
        return float(np.std(frame.labels, ddof=1))
    return float(np.std(frame.aux_probs, ddof=1))


def allocate(strat: StratifiedFrame, n: int, rule: str) -> AllocationPlan:
    """Spread a total sample size over the strata.

    Rules
    -----
    - ``neyman_oracle``: n_h proportional to N_h * S_h with S_h the
      label standard deviation (needs labels; a what-if tool for known
      populations).
    - ``neyman_proxy``: same shape with S_h taken from the scores.
    - ``proportional``: n_h proportional to N_h.
    - ``equal``: even split.

    Rounding is largest-remainder with deterministic tie-breaks (stratum
    order).  Every nonempty stratum gets at least min(2, N_h) draws so a
    variance can be estimated, and no stratum exceeds its size.

    Raises
    ------
    AllocationError
        If n cannot satisfy the floors or exceeds the population.
    """
    if rule not in ALLOCATION_RULES:
        raise ValueError(f"unknown allocation rule {rule!r}")
    names = list(strat.strata)
    frames = [strat.strata[name] for name in names]
    caps = [f.N for f in frames]
    if n > sum(caps):
        raise AllocationError(f"n={n} exceeds population size {sum(caps)}")
    floors = [min(MIN_PER_STRATUM, c) for c in caps]
    if n < sum(floors):
        raise AllocationError(
            f"n={n} cannot give every nonempty stratum its minimum "
            f"(need at least {sum(floors)})"
        )
    if rule == NEYMAN_ORACLE and not all(f.fully_labeled for f in frames if f.N):
        raise ValueError("neyman_oracle needs labels in every nonempty stratum")

    if rule == EQUAL:
        weights = [1.0 if c else 0.0 for c in caps]
    elif rule == PROPORTIONAL:
        weights = [float(c) for c in caps]
    else:
        weights = [c * _stratum_sd(f, rule) for c, f in zip(caps, frames)]
    if not any(w > 0 for w in weights):
        weights = [float(c) for c in caps]

    sizes = _apportion(weights, n, caps)
    # raise any under-floor stratum to its floor, re-spread the rest
    locked: set[int] = set()
    while True:
        low = [i for i in range(len(names)) if sizes[i] < floors[i]]
        if not low:
            break
        locked.update(low)
        free = [i for i in range(len(names)) if i not in locked]
        budget = n - sum(floors[i] for i in locked)
        if budget < 0:
            raise AllocationError("floors exceed requested sample size")
        sub = _apportion(
            [weights[i] for i in free], budget, [caps[i] for i in free]
        )
        sizes = [0] * len(names)
        for i in locked:
            sizes[i] = floors[i]
        for i, v in zip(free, sub):
            sizes[i] = v
    return AllocationPlan(sizes=dict(zip(names, sizes)))


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
        range(sample.n),
        ids,
        float_texts(sample.pi),
        label_texts(sample.y),
        float_texts(sample.p_hat),
    )
    write_table(path, [*header_lines, *facts], _SAMPLE_COLUMNS, rows, ids)


def _header_fields(lines) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in lines:
        key, sep, value = line[1:].partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def read_header_fields(path) -> dict[str, str]:
    """Collect the leading ``# key = value`` lines of a CSV artifact."""
    with open(path) as fh:
        return _header_fields(itertools.takewhile(lambda line: line.startswith("#"), fh))


def load_sample(path) -> Sample:
    """Read a sample written by :func:`write_sample`.

    Raises
    ------
    IngestionError
        On missing header facts, malformed rows, or out-of-range values;
        messages name the first offending row.
    """
    comments, header, fields, rows, ragged = read_table(path)
    facts = _header_fields(comments)
    for key in ("sample_design", "parent_N", "parent_aux_total"):
        if key not in facts:
            raise IngestionError(f"{path}: missing '# {key} = ...' header line")
    if header != list(_SAMPLE_COLUMNS):
        raise IngestionError(f"{path}: expected columns {','.join(_SAMPLE_COLUMNS)}")
    width = len(_SAMPLE_COLUMNS)
    stop = (rows if ragged is None else ragged) * width
    _, ids, raw_pi, raw_y, raw_p = (fields[j:stop:width] for j in range(width))
    pi, bad_pi = parse_floats(raw_pi)
    p_hat, bad_p = parse_floats(raw_p)
    y, bad_y = parse_labels(raw_y)

    # (draw, rank, message): rank orders the checks made on one row
    problems = []
    if ragged is not None:
        problems.append((ragged, 0, f"expected {width} fields"))
    unparsed = [i for i in (bad_pi, bad_p) if i is not None]
    if unparsed:
        problems.append((min(unparsed), 1, "bad numeric field"))
    if bad_y is not None:
        problems.append((bad_y, 2, f"label {raw_y[bad_y].strip()!r} not in {{0, 1, blank}}"))
    if problems:
        row, _, message = min(problems)
        raise IngestionError(f"{path}: draw {row + 1}: {message}")
    if not rows:
        raise IngestionError(f"{path}: no draws")
    try:
        return Sample(
            design=facts["sample_design"],
            unit_ids=np.asarray(ids, dtype=object),
            pi=pi,
            y=y,
            p_hat=p_hat,
            parent_N=int(facts["parent_N"]),
            parent_aux_total=float(facts["parent_aux_total"]),
            stratum=facts.get("stratum"),
        )
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from None
