"""Replicated sampling experiments on a fully known frame.

Each replicate r of a run draws its randomness from the generator that
``np.random.default_rng((seed..., r))`` gives, so any single replicate can
be reproduced alone.  A run hashes its replicates' PCG64 seed words many
blocks at a time, in vectorised passes of SeedSequence's hash of up to
``_BLOCK_DRAWS`` replicates (the same words, so the same streams, as
seeding one by one).  It then takes its replicates a block at a time: each
replicate fills its row of the block's draws, and the rest runs once per
block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import designs, estimators
from .classifier_sim import calibrate_profile
from .errors import CalibrationError, ConfigError, SweepError, VarianceUndefinedError
from .population import STRATUM_ZERO, Frame

# each design's estimators, from the pairing table
_VALID_PAIRS = {
    "pps": tuple(k for k, p in estimators.PAIRINGS.items() if p.design == designs.DESIGN_PPS),
    "srs": tuple(k for k, p in estimators.PAIRINGS.items() if p.design == designs.DESIGN_SRS),
    "stratified": tuple(estimators.STRATIFIED),
}
DESIGN_CHOICES = tuple(_VALID_PAIRS)
ESTIMATOR_CHOICES = tuple(e for pairs in _VALID_PAIRS.values() for e in pairs)


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(v) for v in seed)


# SeedSequence's constants (NumPy NEP 19); its hash constants run through
# the same values whatever the entropy, so the hash vectorises over seeds
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, its hash constant advancing call by call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _replicate_states(seed, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of replicates start..stop-1, one row each.

    Row k equals ``SeedSequence(seed + (start + k,)).generate_state(4,
    np.uint64)``, the words ``default_rng(seed + (start + k,))`` seeds
    PCG64 with, computed for every row in one pass.  Replicate indices
    must lie in [0, 2**32) so each is exactly one entropy word.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError("replicate indices must lie in [0, 2**32)")
    r = np.arange(start, stop, dtype=np.uint32)
    words = []  # the seed's uint32 entropy words, least significant first
    for v in _seed_tuple(seed):
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & _MASK32)
        while v > _MASK32:
            v >>= 32
            words.append(v & _MASK32)
    entropy = [np.full(r.size, w, dtype=np.uint32) for w in words] + [r]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros_like(r))
        for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # paired low word first, so a little-endian view pairs them
    out = _hasher(_INIT_B, _MULT_B)
    halves = np.empty((r.size, 8), dtype="<u4")
    for i in range(8):
        halves[:, i] = out(pool[i % _POOL_SIZE])
    return halves.view("<u8").astype(np.uint64, copy=False)


class _State(ISeedSequence):
    """Hands PCG64 seed words computed in advance by ``_replicate_states``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_State(words)))


# draws per block of replicates evaluated together: 512 KiB per float64 matrix
_BLOCK_DRAWS = 2**16


def _block_buffers(rows: int, n: int, slots: int):
    """The arrays a raw PPS block fills, made once per run at its row cap:
    alias slots, uniforms and raw words, stored little-endian so that a
    uint32 view reads each word's low half first.  None where blocks draw
    through numpy, each into arrays of its own."""
    if not 1 < slots < 2**32:
        return None
    u = np.empty((rows, n))
    return np.empty(u.shape, dtype=np.int64), u, np.empty((rows, -(-n // 2) + n), dtype="<u8")


def _block_draws(states, n: int, slots: int, buffers):
    """(j, u): row b holds the draws of the generator seeded by ``states[b]``,
    ``integers(slots, size=n)`` then ``random(n)``.

    With ``buffers``, each row is computed from its raw words as numpy
    draws: ceil(n/2) words give n 32-bit halves, low half first as PCG64's
    ``next_uint32``; Lemire's rule maps half w to slot (w * slots) >> 32,
    rejecting w when (w * slots) mod 2**32 < (2**32 - slots) % slots; the
    next n words give uniforms (word >> 11) * 2**-53, ``next_double``.  A
    row with a rejected half draws more halves, so it draws through numpy.
    """
    if buffers is None:
        return designs._draws(map(_generator, states), len(states), n, slots)
    j, u, raw = (a[: len(states)] for a in buffers)
    half = -(-n // 2)
    for b, words in enumerate(states):
        raw[b] = np.random.PCG64(_State(words)).random_raw(half + n)
    m = j.view(np.uint64)  # half * slots < 2**64, so nothing wraps
    np.multiply(raw[:, :half].view("<u4")[:, :n], slots, dtype=np.uint64, out=m)
    low = np.bitwise_and(m, _MASK32, out=u.view(np.uint64))
    redo = np.flatnonzero(low.min(axis=1) < (2**32 - slots) % slots)
    np.right_shift(m, 32, out=m)
    np.multiply(np.right_shift(raw[:, half:], 11, out=raw[:, half:]), 2.0**-53, out=u)
    for b in redo:
        rj, ru = designs._draws([_generator(states[b])], 1, n, slots)
        j[b], u[b] = rj[0], ru[0]
    return j, u


# Freedman-Diaconis asks for one bin per IQR-scaled width, so a single
# far outlier can ask for millions; past this many, bins are equal-width
HISTOGRAM_MAX_BINS = 1000


@dataclass(frozen=True)
class HistogramBin:
    lo: float
    hi: float
    count: int


def estimate_histogram(values) -> tuple[HistogramBin, ...]:
    """Freedman-Diaconis bins, with exact zeros split into their own bin.

    A sampling distribution that piles up at exactly zero (the empty
    zero-stratum mode) keeps that mass visible instead of having it
    smeared into the first regular bin.  At most ``HISTOGRAM_MAX_BINS``
    regular bins are made.  Bin counts sum to len(values).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("no values to bin")
    bins: list[HistogramBin] = []
    zero_count = int(np.sum(v == 0.0))
    if zero_count:
        bins.append(HistogramBin(0.0, 0.0, zero_count))
    nz = v[v != 0.0]
    if nz.size:
        spread = np.ptp(nz)
        if spread == 0.0:
            bins.append(HistogramBin(float(nz[0]), float(nz[0]), int(nz.size)))
        else:
            # numpy's "fd" rule, with the bin count capped before any edge exists
            iqr = float(np.subtract(*np.percentile(nz, [75, 25])))
            width = 2.0 * iqr * nz.size ** (-1.0 / 3.0)
            n_bins = min(np.ceil(spread / width), HISTOGRAM_MAX_BINS) if width else 1
            counts, edges = np.histogram(nz, bins=int(n_bins))
            bins.extend(map(HistogramBin, edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    bins.sort(key=lambda b: (b.lo, b.hi))
    return tuple(bins)


_PER_REPLICATE = ("estimates", "estimated_variances", "zero_stratum_estimates")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Summary of one replicated run, plus the per-replicate estimates."""

    design: str
    estimator: str
    n: int
    R: int
    seed: tuple[int, ...]
    true_total: int
    empirical_mean: float
    empirical_se: float
    bias: float
    mean_estimated_variance: float
    deff_vs_srs: float | None
    bins: tuple[HistogramBin, ...]
    zero_stratum_empty_fraction: float | None
    estimates: np.ndarray
    estimated_variances: np.ndarray
    zero_stratum_estimates: np.ndarray | None

    def summary_dict(self) -> dict:
        """Strict-JSON summary: all but the per-replicate fields, ``bins`` as ``histogram``
        rows of [lo, hi, count], and an overflowed ``deff_vs_srs`` as the text "inf"."""
        names = [f.name for f in fields(self) if f.name not in _PER_REPLICATE]
        summary = {name: getattr(self, name) for name in names}
        summary["seed"] = list(self.seed)
        summary["histogram"] = [[b.lo, b.hi, b.count] for b in summary.pop("bins")]
        if self.deff_vs_srs == np.inf:
            summary["deff_vs_srs"] = "inf"
        return summary


def _check_run_args(frame, design, estimator, n, R, tau, allocation, srs_baseline_se):
    if estimator not in _VALID_PAIRS.get(design, ()):
        raise ConfigError(
            f"no run pairs design {design!r} with estimator {estimator!r}; "
            f"valid runs: {_VALID_PAIRS}"
        )
    if design == "stratified" and (tau is None or allocation is None):
        raise ConfigError("stratified runs need tau and allocation")
    if design != "stratified" and (tau is not None or allocation is not None):
        raise ConfigError(f"tau and allocation apply only to stratified runs, not {design!r}")
    if not frame.fully_labeled:
        raise ValueError("replicated runs need a fully labeled frame")
    if n < 2:
        raise ValueError("n must be at least 2 so variances exist")
    if design == "srs" and n > frame.N:
        raise ValueError(f"n={n} exceeds N={frame.N}, and SRS draws are distinct units")
    if R < 1:
        raise ValueError("R must be at least 1")
    if R >= 2**32:
        raise ValueError("R must be below 2**32, so each replicate index is one seed word")
    if srs_baseline_se is not None and not srs_baseline_se > 0:  # design_effect's rule
        raise ValueError("baseline SE must be positive")


def run_replications(
    frame: Frame,
    *,
    design: str,
    estimator: str,
    n: int,
    R: int,
    seed,
    tau: float | None = None,
    allocation: str | None = None,
    srs_baseline_se: float | None = None,
) -> SimReport:
    """Draw R independent samples and estimate the total each time.

    ``design`` and ``estimator`` pair as ``_VALID_PAIRS`` lists them, from
    the pairing table ``estimators.PAIRINGS`` and ``estimators.STRATIFIED``.
    Only "stratified" takes ``tau`` and ``allocation``, and needs them.

    Replicate r draws what ``np.random.default_rng((*seed, r))`` gives,
    an int seed as ``(seed,)``: n alias slots by ``integers`` (PPS only),
    then n uniforms by ``random``.  Its seed words come from a hash pass
    over whole blocks, at most ``_BLOCK_DRAWS`` replicates, so memory stays
    flat in R.  A PPS block computes those draws from each replicate's raw
    PCG64 words by numpy's rules, and redraws through numpy any row that
    hits Lemire's rejection (``_block_draws``); other runs, and frames of 1
    or 2**32 and more units, call numpy's ``integers`` and ``random`` alone.

    Parameters
    ----------
    frame : Frame
        Fully labeled, so every replicate can be scored against truth.
    srs_baseline_se : float, optional
        Empirical SE of a plain-SRS run on the same frame and n; when
        given, the report carries the squared SE ratio as ``deff_vs_srs``.

    Returns
    -------
    SimReport
    """
    _check_run_args(frame, design, estimator, n, R, tau, allocation, srs_baseline_se)
    if R == 1:
        warnings.warn("R=1 gives a degenerate empirical SE of 0", stacklevel=2)

    # a PPS run draws alias slots of the whole frame; its table is built
    # here, so that the build's index arrays never coexist with a block
    slots = designs._alias_for(frame).size if design == "pps" else 0
    # each stratum's estimator from the table, and its unit values x, computed
    # once so that a draw is one gather
    names = estimators.STRATIFIED.get(estimator, (estimator,))
    parts = []
    for sub, n_h in designs.sampling_plan(frame, n, tau, allocation):
        zero = design == "stratified" and sub.stratum == STRATUM_ZERO
        pairing = estimators.PAIRINGS[names[zero]]
        x, base = pairing.units(sub.labels, sub.aux_probs, sub.aux_total)
        parts.append((sub, n_h, zero, pairing, x, base))

    totals = np.zeros(R)
    variances = np.zeros(R)
    zero_totals = np.full(R, np.nan) if any(zero for _, _, zero, *_ in parts) else None
    rows = min(max(1, _BLOCK_DRAWS // n), R)
    span = rows * (_BLOCK_DRAWS // rows)  # replicates per hash pass, whole blocks
    buffers = _block_buffers(rows, n, slots)
    for start in range(0, R, rows):
        if start % span == 0:
            states = _replicate_states(seed, start, min(start + span, R))
        block = slice(start, min(start + rows, R))
        j, u = _block_draws(states[start % span :][:rows], n, slots, buffers)
        col = 0  # the strata's uniforms lie side by side, stratum one first
        for sub, n_h, zero, pairing, x, base in parts:
            drawn = x[designs._units(sub, pairing.design, j, u[:, col : col + n_h])]
            t, v = pairing.kernel(drawn, sub.N, base)
            col += n_h
            if v is None:
                raise VarianceUndefinedError(f"a replicate of {n_h} draw(s) has no variance")
            if zero:
                zero_totals[block] = t
            totals[block] += t
            variances[block] += v

    mean = float(np.mean(totals))
    emp_se = float(np.std(totals, ddof=1)) if R >= 2 else 0.0
    deff = None if srs_baseline_se is None else estimators.design_effect(emp_se, srs_baseline_se)
    zero_fraction = None if zero_totals is None else float(np.mean(zero_totals == 0.0))
    return SimReport(
        design=design,
        estimator=estimator,
        n=n,
        R=R,
        seed=_seed_tuple(seed),
        true_total=frame.true_total,
        empirical_mean=mean,
        empirical_se=emp_se,
        bias=mean - frame.true_total,
        mean_estimated_variance=float(np.mean(variances)),
        deff_vs_srs=deff,
        bins=estimate_histogram(totals),
        zero_stratum_empty_fraction=zero_fraction,
        estimates=totals,
        estimated_variances=variances,
        zero_stratum_estimates=zero_totals,
    )


@dataclass(frozen=True)
class SweepPoint:
    target_loss: float
    realized_loss: float
    sharpness: float
    exact_variance: float
    empirical_variance: float


def proposition1_sweep(
    frame: Frame, loss_targets, *, n: int, R: int, seed
) -> list[SweepPoint]:
    """Design variance of the PPS total as classifier loss shrinks.

    For each per-unit loss target (strictly decreasing), calibrate a
    symmetric profile on the frame, take the frame it scored, and record
    the closed-form design variance next to the empirical variance over R
    replicated samples.  Better classifiers should drive both toward 0.

    Raises
    ------
    SweepError
        If any target cannot be calibrated; the message names it.
    """
    targets = [float(t) for t in loss_targets]
    if not targets:
        raise ValueError("no loss targets given")
    if any(t <= 0 for t in targets):
        raise ValueError("loss targets must be positive")
    if any(b >= a for a, b in zip(targets, targets[1:])):
        raise ValueError("loss targets must be strictly decreasing")
    base = _seed_tuple(seed)
    points = []
    for k, target in enumerate(targets):
        cal_seed = base + (k, 0)
        try:
            cal = calibrate_profile(frame, target_loss=target, seed=cal_seed)
        except CalibrationError as exc:
            raise SweepError(f"sweep point {k} (target {target:g}): {exc}") from exc
        exact = estimators.exact_hh_design_variance(cal.frame, n)
        report = run_replications(
            cal.frame,
            design="pps",
            estimator="hh",
            n=n,
            R=R,
            seed=base + (k, 1),
        )
        points.append(
            SweepPoint(
                target_loss=target,
                realized_loss=cal.realized,
                sharpness=cal.sharpness,
                exact_variance=exact,
                empirical_variance=report.empirical_se**2,
            )
        )
    return points
