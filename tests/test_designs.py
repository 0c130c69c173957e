import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from auxcount import (
    ALLOCATION_RULES,
    AliasTable,
    AllocationError,
    DESIGN_PPS,
    DESIGN_SRS,
    EQUAL,
    Frame,
    IngestionError,
    NEYMAN_ORACLE,
    NEYMAN_PROXY,
    PROB_FLOOR,
    PROPORTIONAL,
    Sample,
    allocate,
    clamp_probs,
    load_sample,
    pps_wr,
    read_header_fields,
    run_replications,
    srs_wor,
    stratify_by_prediction,
    write_sample,
)
from auxcount import designs
from auxcount.designs import MIN_PER_STRATUM

from conftest import _ids, traced


def _frame(probs, labels=None):
    return Frame(_ids("u", len(probs)), probs, labels)


class TestSrsWor:
    def test_census_is_a_permutation(self):
        fr = _frame(np.linspace(0.1, 0.9, 12))
        s = srs_wor(fr, 12, seed=5)
        assert sorted(s.unit_ids.tolist()) == sorted(fr.ids.tolist())
        assert np.all(s.pi == 1.0)

    def test_deterministic(self):
        fr = _frame(np.full(10, 0.3))
        a = srs_wor(fr, 3, seed=123)
        b = srs_wor(fr, 3, seed=123)
        assert a.unit_ids.tolist() == b.unit_ids.tolist()

    def test_records_uniform_inclusion_probability(self):
        fr = _frame(np.full(40, 0.2), np.zeros(40))
        s = srs_wor(fr, 10, seed=1)
        assert np.all(s.pi == 0.25)
        assert s.design == DESIGN_SRS
        assert s.parent_N == 40

    def test_no_duplicates_across_random_frames(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            N = int(rng.integers(2, 60))
            n = int(rng.integers(1, N + 1))
            fr = _frame(rng.random(N))
            s = srs_wor(fr, n, seed=int(rng.integers(0, 2**31)))
            assert len(set(s.unit_ids.tolist())) == n

    def test_inclusion_frequencies_match_binomial_oracle(self):
        fr = _frame(np.full(10, 0.5))
        R, n, N = 20_000, 3, 10
        rng = np.random.default_rng(2024)
        hits = np.zeros(N)
        for _ in range(R):
            s = srs_wor(fr, n, rng)
            for uid in s.unit_ids:
                hits[int(uid[1:])] += 1
        f = n / N
        band = 4 * np.sqrt(f * (1 - f) / R)
        assert np.all(np.abs(hits / R - f) < band)

    def test_size_errors(self):
        fr = _frame([0.5, 0.5])
        with pytest.raises(ValueError):
            srs_wor(fr, 0, seed=1)
        with pytest.raises(ValueError):
            srs_wor(fr, 3, seed=1)


def reference_srs_indices(rng, N, n):
    """The sequential partial Fisher-Yates loop that srs_wor's draws must
    reproduce exactly, one draw per Python iteration."""
    u = rng.random(n)
    displaced: dict[int, int] = {}
    out = np.empty(n, dtype=np.intp)
    for j in range(n):
        k = j + int(u[j] * (N - j))
        if k >= N:  # guard the top edge of the float scaling
            k = N - 1
        vj = displaced.get(j, j)
        out[j] = displaced.get(k, k)
        displaced[k] = vj
    return out


@st.composite
def _srs_shapes(draw):
    N = draw(st.integers(1, 10**6) | st.integers(1, 600))
    top = min(N, 600)
    n = draw(st.integers(1, top) | st.sampled_from([top, max(top - 1, 1)]))
    return N, n


def srs_indices(rng, N, n):
    """The units srs_wor draws from rng: one row of n uniforms, then its shuffle."""
    _, u = designs._draws([rng], 1, n)
    return designs._srs_slots(u, N)[0]


class TestSrsIndices:
    @settings(max_examples=300, deadline=None)
    @given(_srs_shapes(), st.integers(0, 2**63))
    @example((1, 1), 0)
    @example((2, 1), 0)
    @example((600, 600), 1)
    @example((601, 600), 2)
    @example((190_944, 500), 3)
    @example((10**6, 600), 4)
    def test_same_draws_as_the_sequential_loop(self, shape, seed):
        N, n = shape
        got = srs_indices(np.random.default_rng(seed), N, n)
        want = reference_srs_indices(np.random.default_rng(seed), N, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    # nextafter(1, 0) is Generator.random's largest value; its product
    # with N - j still truncates to N - j - 1, so only 1.0 reaches k >= N
    @pytest.mark.parametrize("top", [np.nextafter(1.0, 0.0), 1.0])
    @pytest.mark.parametrize("N, n", [(1, 1), (7, 3), (7, 7), (190_944, 500)])
    def test_top_edge_of_the_uniforms(self, top, N, n):
        class Stub:
            def random(self, size=None, out=None):
                if out is None:
                    return np.full(size, top)
                out[:] = top

        # every step targets the last slot, which passes each draw on
        got = srs_indices(Stub(), N, n)
        assert np.array_equal(got, reference_srs_indices(Stub(), N, n))
        assert got.tolist() == [N - 1, *range(n - 1)]


class _Row:
    """A generator stub that hands over one fixed row of uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


# Generator.random's largest value, and 1.0, which only a stub can give
_TOP_EDGES = (np.nextafter(1.0, 0.0), 1.0)


@st.composite
def _uniform_blocks(draw):
    """(N, u): a (B, n) block of uniforms, some rows all at a top edge."""
    N, n = draw(_srs_shapes())
    B = draw(st.integers(1, 6))
    u = np.random.default_rng(draw(st.integers(0, 2**63))).random((B, n))
    for b in draw(st.sets(st.integers(0, B - 1))):
        u[b] = draw(st.sampled_from(_TOP_EDGES))
    return N, u


class TestSrsSlots:
    @settings(max_examples=300, deadline=None)
    @given(_uniform_blocks())
    @example((1, np.array([[0.3], [1.0]])))
    @example((600, np.random.default_rng(1).random((4, 600))))
    @example((601, np.random.default_rng(2).random((5, 600))))
    @example((190_944, np.random.default_rng(3).random((3, 500))))
    @example((7, np.array([[0.9] * 7, [np.nextafter(1.0, 0.0)] * 7, [1.0] * 7])))
    def test_every_row_is_the_sequential_loop(self, block):
        N, u = block
        got = designs._srs_slots(u, N)
        assert got.shape == u.shape
        for b in range(u.shape[0]):
            want = reference_srs_indices(_Row(u[b]), N, u.shape[1])
            assert got.dtype == want.dtype
            assert np.array_equal(got[b], want)

    def test_census_of_a_large_frame_stays_n_log_n(self):
        # every step shares a slot when n = N; marking them by comparing
        # each repeated slot with its whole row would take minutes here
        N = 10**5
        fr = _frame(np.full(N, 0.5))
        start = time.perf_counter()
        s = srs_wor(fr, N, seed=2)
        assert time.perf_counter() - start < 2.0
        assert len(set(s.unit_ids.tolist())) == N

    @staticmethod
    def _uniforms(N, targets):
        """A row of uniforms whose step j targets slot targets[j] of range(N)."""
        j = np.arange(len(targets))
        u = (np.asarray(targets) - j + 0.5) / (N - j)
        assert np.array_equal(j + (u * (N - j)).astype(np.intp), targets)
        return u

    @pytest.mark.parametrize(
        "N, rows",
        [
            # slot 15 targeted three times in one row, at steps 0, 2 and 4
            (20, [[15, 3, 15, 7, 15, 9]]),
            # a repeat at step 0 and at step n - 1
            (30, [[20, 4, 12, 8, 20]]),
            # slot 3, below n, targeted at steps 0, 1 and 3, the last its own step
            (12, [[3, 3, 4, 3, 9, 5]]),
            # slot 1, below n, targeted once: step 1 passes on unit 0, which step 2 draws
            (10, [[1, 5, 5]]),
            # ties in the second and fourth rows only
            (50, [[10, 20, 30, 40], [10, 20, 10, 40], [5, 6, 7, 8], [49, 49, 49, 49]]),
        ],
    )
    def test_repeated_slots_are_the_sequential_loop(self, N, rows):
        u = np.array([self._uniforms(N, row) for row in rows])
        got = designs._srs_slots(u, N)
        for b in range(len(rows)):
            assert np.array_equal(got[b], reference_srs_indices(_Row(u[b]), N, u.shape[1]))

    # keys k << bits | j are uint32 while N << bits <= 2**32 and int64 past
    # it; N = 2**32 >> bits is the widest frame of 32-bit keys, N + 1 the
    # first of 64-bit ones, at bits 1, 9 and 10
    @pytest.mark.parametrize("n", [2, 500, 513])
    @pytest.mark.parametrize("wider", [0, 1])
    def test_rows_at_the_key_width_boundary_are_the_sequential_loop(self, n, wider):
        N = (2**32 >> (n - 1).bit_length()) + wider
        rows = [np.full(n, top) for top in _TOP_EDGES]  # every step targets slot N - 1
        rows.append(self._uniforms(N, [N - 1, *range(N - n + 1, N - 1), N - 1]))
        rows.append(np.random.default_rng(n + wider).random(n))
        u = np.array(rows)
        got = designs._srs_slots(u, N)
        assert got.dtype == np.intp
        for b in range(len(rows)):
            assert np.array_equal(got[b], reference_srs_indices(_Row(u[b]), N, n))

    def test_sort_keys_past_int64_are_refused(self):
        # a key packs slot and step: k << (n - 1).bit_length() | j
        u = np.full((1, 500), 0.5)
        assert np.array_equal(
            designs._srs_slots(u, 2**54 - 1)[0], reference_srs_indices(_Row(u[0]), 2**54 - 1, 500)
        )
        for N, n in [(2**54, 500), (2**62, 2), (2**63, 1)]:
            with pytest.raises(ValueError, match="overflow the int64 keys"):
                designs._srs_slots(np.full((1, n), 0.5), N)


class TestPpsWr:
    def test_two_equal_units(self):
        fr = _frame([0.5, 0.5])
        s = pps_wr(fr, 4000, seed=8)
        share = np.mean(s.unit_ids == "u0")
        assert abs(share - 0.5) < 0.03
        assert np.allclose(s.pi, 0.5)

    def test_perfect_classifier_draws_land_on_positives(self):
        N, t = 5000, 20
        probs = np.full(N, 0.0)
        probs[:t] = 1.0
        fr = _frame(probs, np.where(np.arange(N) < t, 1.0, 0.0))
        s = pps_wr(fr, 2000, seed=3)
        assert np.mean(s.y == 1.0) > 0.99

    def test_draw_frequencies_match_weights(self):
        fr = _frame([0.1, 0.3, 0.6])
        s = pps_wr(fr, 60_000, seed=44)
        for uid, w in zip(("u0", "u1", "u2"), (0.1, 0.3, 0.6)):
            assert abs(np.mean(s.unit_ids == uid) - w) < 0.006

    def test_draw_probabilities_normalize(self):
        rng = np.random.default_rng(12)
        fr = _frame(rng.random(300))
        s = pps_wr(fr, 5, seed=1)
        assert abs(np.sum(fr.aux_probs / fr.aux_total) - 1.0) < 1e-9
        assert np.allclose(s.pi, s.p_hat / fr.aux_total)

    def test_deterministic_and_cached(self):
        fr = _frame(np.random.default_rng(4).random(50))
        a = pps_wr(fr, 20, seed=7)
        assert fr in designs._alias_cache  # alias table built once per frame
        b = pps_wr(fr, 20, seed=7)
        assert a.unit_ids.tolist() == b.unit_ids.tolist()


def _draw_masses(table):
    """Each unit's chance per draw, read off the records: its own slot's
    prob plus the 1 - prob of every slot aliased to it, over the slot count."""
    slots = table.slots
    aliased = np.bincount(slots["alias"], weights=1.0 - slots["prob"], minlength=table.size)
    return (slots["prob"] + aliased) / table.size


def _assert_exact_masses(weights):
    w = np.asarray(weights, dtype=np.float64)
    got = _draw_masses(AliasTable(w))
    want = w / math.fsum(w)
    for i, (g, t) in enumerate(zip(got.tolist(), want.tolist())):
        assert math.isclose(g, t, rel_tol=1e-12), (w.size, i, g, t)


def _random_frame_weights():
    rng = np.random.default_rng(1943)
    for k in range(200):
        size = int(rng.integers(1, 3000))
        if k % 2:  # rare-positive score mixture, piled near the floor
            yield clamp_probs(np.where(rng.random(size) < 0.05,
                                       rng.beta(8.0, 0.8, size),
                                       rng.beta(0.018, 2.0, size)))
        else:
            yield rng.random(size) + PROB_FLOOR


def reference_alias_slots(weights):
    """The Vose build that AliasTable must reproduce byte for byte, with
    two numpy writes per slot into the records' field views."""
    w = np.asarray(weights, dtype=np.float64)
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
    return slots


def _assert_reference_slots(weights):
    got, want = AliasTable(weights).slots, reference_alias_slots(weights)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestAliasTable:
    # every vector of 1-8 units over weights at both ends of the score range
    @pytest.mark.parametrize("size", range(1, 9))
    def test_draw_masses_are_the_weights_on_tiny_frames(self, size):
        for weights in itertools.product([PROB_FLOOR, 0.3, 1.0 - PROB_FLOOR], repeat=size):
            _assert_exact_masses(weights)

    def test_draw_masses_are_the_weights_on_random_frames(self):
        for weights in _random_frame_weights():
            _assert_exact_masses(weights)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_same_slots_as_the_reference_build_on_tiny_frames(self, size):
        for weights in itertools.product([PROB_FLOOR, 0.3, 1.0 - PROB_FLOOR], repeat=size):
            _assert_reference_slots(weights)

    def test_same_slots_as_the_reference_build_on_random_frames(self):
        for weights in _random_frame_weights():
            _assert_reference_slots(weights)

    def test_same_slots_as_the_reference_build_on_a_heavy_tail(self):
        rng = np.random.default_rng(1991)
        _assert_reference_slots(rng.pareto(0.7, 100_000) + PROB_FLOOR)

    # a total past the largest float, or one so small that size / total
    # overflows, would draw every unit alike: 1/3 each, or 1/2 each
    @pytest.mark.parametrize(
        "weights,cause",
        [([1e308, 1e307, 1e308], "total inf, scale 0.0"),
         ([5e-324, 1e-323], "total 1.5e-323, scale inf")],
    )
    def test_refuses_weights_whose_total_or_scale_is_not_finite(self, weights, cause):
        with pytest.raises(ValueError, match=f"^weights {cause}: not finite and positive$"):
            AliasTable(weights)

    @pytest.mark.parametrize("weights", [[1e308, 1e307, 5e307], [4e-308, 1e-308, 2e-308]])
    def test_weights_near_the_float_limits_build_exact_masses(self, weights):
        _assert_exact_masses(weights)
        _assert_reference_slots(weights)

    # Traced bytes of a build, as a multiple of its records' bytes: copying
    # every column through machine arrays peaked at 2.6 times them, building
    # in the records with index arrays at 1.6.  Tracing slows allocation,
    # so the frame is kept small.
    ALIAS_PEAK = 2.0

    def test_build_holds_little_beyond_its_records(self):
        w = clamp_probs(np.random.default_rng(16).beta(0.05, 2.0, 50_000))
        table, _, peak = traced(lambda: AliasTable(w))
        assert peak <= self.ALIAS_PEAK * table.slots.nbytes

    # Generator.random's largest value is nextafter(1, 0): a slot with
    # prob 1 keeps its own unit, and every draw stays inside the frame
    @pytest.mark.parametrize("weights", [[1.0], [0.2, 0.8], [PROB_FLOOR, 0.5, 1.0, 0.3]])
    def test_top_edge_of_the_slots_and_uniforms(self, weights):
        class Stub:
            def integers(self, high, size):
                return np.full(size, high - 1)

            def random(self, out):
                out[:] = np.nextafter(1.0, 0.0)

        table = AliasTable(weights)
        got = table.lookup(*designs._draws([Stub()], 1, 5, table.size))
        assert np.all((0 <= got) & (got < table.size))


def _rebuilt(frame, rows):
    """The units of ``frame`` at ``rows`` as a frame of their own, as
    strata were built before they became row indices of their frame."""
    return Frame(frame.ids[rows], frame.aux_probs[rows], frame.labels[rows])


def _two_strata(n1_labels, n0_labels, split=0.5):
    """(frame, strata): "one" scored 0.9, "zero" scored 0.1."""
    probs = np.concatenate(
        [np.full(len(n1_labels), 0.9), np.full(len(n0_labels), 0.1)]
    )
    frame = _frame(probs, np.concatenate([n1_labels, n0_labels]))
    return frame, stratify_by_prediction(frame, split)


class TestAllocate:
    def test_equal_split(self):
        fr, strat = _two_strata(np.zeros(600), np.zeros(800))
        plan = allocate(fr, strat, 200, EQUAL)
        assert plan == {"one": 100, "zero": 100}

    def test_proportional_exact(self):
        fr, strat = _two_strata(np.zeros(100), np.zeros(300))
        plan = allocate(fr, strat, 40, PROPORTIONAL)
        assert plan == {"one": 10, "zero": 30}

    def test_sizes_always_sum(self):
        rng = np.random.default_rng(3)
        fr, strat = _two_strata(rng.integers(0, 2, 173).astype(float),
                                rng.integers(0, 2, 421).astype(float))
        for rule in (EQUAL, PROPORTIONAL, NEYMAN_ORACLE, NEYMAN_PROXY):
            plan = allocate(fr, strat, 97, rule)
            assert sum(plan.values()) == 97
            assert all(v >= 2 for v in plan.values())

    def test_zero_variance_stratum_gets_floor(self):
        # one-stratum all positive: label SD 0, so Neyman weight is 0
        fr, strat = _two_strata(
            np.ones(50), np.random.default_rng(1).integers(0, 2, 500).astype(float)
        )
        plan = allocate(fr, strat, 60, NEYMAN_ORACLE)
        assert plan["one"] == 2
        assert plan["zero"] == 58

    def test_neyman_matches_brute_force_minimum(self):
        rng = np.random.default_rng(10)
        fr, strat = _two_strata(
            (rng.random(400) < 0.55).astype(float),
            (rng.random(1600) < 0.02).astype(float),
        )
        n = 100
        plan = allocate(fr, strat, n, NEYMAN_ORACLE)

        def var_at(n1):
            total = 0.0
            for name, n_h in (("one", n1), ("zero", n - n1)):
                N_h = strat[name].size
                S2 = np.var(fr.labels[strat[name]], ddof=1)
                total += N_h**2 * (1 - n_h / N_h) * S2 / n_h
            return total

        best = min(var_at(n1) for n1 in range(2, n - 1))
        assert var_at(plan["one"]) <= best * 1.01

    def test_empty_stratum_takes_nothing(self):
        fr = _frame([0.1, 0.2, 0.3, 0.4], np.zeros(4))
        strat = stratify_by_prediction(fr, 0.5)
        plan = allocate(fr, strat, 3, PROPORTIONAL)
        assert plan == {"one": 0, "zero": 3}

    def test_infeasible_requests(self):
        fr, strat = _two_strata(np.zeros(5), np.zeros(5))
        with pytest.raises(AllocationError):
            allocate(fr, strat, 11, PROPORTIONAL)  # more than N
        with pytest.raises(AllocationError):
            allocate(fr, strat, 3, PROPORTIONAL)  # cannot give both strata 2
        with pytest.raises(ValueError):
            allocate(fr, strat, 10, "optimal")


@dataclass(frozen=True)
class ReferencePlan:
    """Per-stratum sample sizes, summing to the requested n."""

    sizes: dict[str, int]


def _reference_apportion(weights, total, caps):
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


def _reference_stratum_sd(frame: Frame, rule: str) -> float:
    if frame.N < 2:
        return 0.0
    if rule == NEYMAN_ORACLE:
        return float(np.std(frame.labels, ddof=1))
    return float(np.std(frame.aux_probs, ddof=1))


def reference_allocate(strat, n: int, rule: str) -> ReferencePlan:
    """The k-stratum apportionment with a floor-locking loop that the
    two-stratum closed form in allocate must reproduce exactly."""
    if rule not in ALLOCATION_RULES:
        raise ValueError(f"unknown allocation rule {rule!r}")
    names = list(strat)
    frames = [strat[name] for name in names]
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
        weights = [c * _reference_stratum_sd(f, rule) for c, f in zip(caps, frames)]
    if not any(w > 0 for w in weights):
        weights = [float(c) for c in caps]

    sizes = _reference_apportion(weights, n, caps)
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
        sub = _reference_apportion(
            [weights[i] for i in free], budget, [caps[i] for i in free]
        )
        sizes = [0] * len(names)
        for i in locked:
            sizes[i] = floors[i]
        for i, v in zip(free, sub):
            sizes[i] = v
    return ReferencePlan(sizes=dict(zip(names, sizes)))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (AllocationError, ValueError) as exc:
        return type(exc)


def _assert_same_allocations(frame, strata, ns):
    """allocate's sizes for the strata, rows of ``frame``, are the
    reference's for the same strata rebuilt as frames of their own."""
    frames = {h: _rebuilt(frame, rows) for h, rows in strata.items()}
    for rule in ALLOCATION_RULES:
        for n in ns:
            want = _outcome(reference_allocate, frames, n, rule)
            want = want if isinstance(want, type) else want.sizes
            sizes = {h: rows.size for h, rows in strata.items()}
            assert _outcome(allocate, frame, strata, n, rule) == want, (sizes, n, rule)


def _random_strata(rng, N1, N0, labeled=True):
    """(frame, strata): scores at or above 0.5 in "one", below it in "zero";
    labels drawn at a random rate per stratum, or all missing."""
    probs = np.concatenate([rng.uniform(0.5, 1.0, N1), rng.uniform(0.0, 0.5, N0)])
    labels = None
    if labeled:
        labels = np.concatenate([rng.random(N1) < rng.random(), rng.random(N0) < rng.random()])
    frame = _frame(probs, labels)
    return frame, stratify_by_prediction(frame, 0.5)


class TestAllocateMatchesReference:
    """Same sizes as the k-stratum apportionment, or the same exception."""

    def test_every_small_pair_of_strata(self):
        rng = np.random.default_rng(81)
        for N1, N0 in itertools.product(range(21), repeat=2):
            if N1 or N0:
                _assert_same_allocations(*_random_strata(rng, N1, N0), range(N1 + N0 + 2))

    def test_unlabeled_strata(self):
        rng = np.random.default_rng(82)
        for N1, N0 in itertools.product(range(6), repeat=2):
            if N1 or N0:
                fr, strat = _random_strata(rng, N1, N0, labeled=False)
                _assert_same_allocations(fr, strat, range(N1 + N0 + 2))

    def test_random_frames(self):
        # windows of one 20,000-unit frame whose positive rate rises along
        # each stratum, so windows differ in size, scores and rate
        rng = np.random.default_rng(83)
        half = 10_000
        probs = np.concatenate([rng.uniform(0.5, 1.0, half), rng.uniform(0.0, 0.5, half)])
        base = _frame(probs, rng.random(2 * half) < np.tile(np.linspace(0.0, 1.0, half), 2))
        for _ in range(200):
            N1, N0 = np.exp(rng.uniform(0.0, np.log(half), 2)).astype(int).tolist()
            N1 *= int(rng.random() < 0.95)
            a, b = rng.integers(0, half - N1 + 1), rng.integers(half, 2 * half - N0 + 1)
            window = _rebuilt(base, np.r_[a : a + N1, b : b + N0])
            strat = stratify_by_prediction(window, 0.5)
            N = N1 + N0
            _assert_same_allocations(window, strat, {3, 4, N - 1, N, *rng.integers(0, N + 2, 2)})

    def test_acceptance_frame(self, acceptance_frame):
        for tau in (0.3, 0.5, 0.7):
            strat = stratify_by_prediction(acceptance_frame, tau)
            _assert_same_allocations(acceptance_frame, strat, (4, 97, 500, 5_000))


def _assert_same_draws(frame, strata, n, seed):
    """Each sampler's draw from each stratum, as rows of ``frame``, is the
    sample it draws from the stratum rebuilt as a frame of its own, field
    by field, but for the stratum name that it carries; or both refuse."""
    for h, rows in strata.items():
        alone = _rebuilt(frame, rows)
        for draw in (srs_wor, pps_wr):
            got = _outcome(draw, frame, n, seed, stratum=(h, rows))
            want = _outcome(draw, alone, n, seed)
            if isinstance(want, type):
                assert got is want, (h, rows.size, n, draw.__name__)
                continue
            assert (got.design, got.stratum, want.stratum) == (want.design, h, None)
            assert got.unit_ids.tolist() == want.unit_ids.tolist()
            assert np.array_equal(got.y, want.y, equal_nan=True)
            for field in ("p_hat", "pi"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert got.parent_N == want.parent_N
            assert repr(got.parent_aux_total) == repr(want.parent_aux_total)  # bit for bit


class TestStrataAsRows:
    """Strata are row indices of their frame.  Drawn from, and allocated
    between, they give what the same units rebuilt as frames of their own
    gave, which is how strata were built before."""

    def test_random_frames_and_seeds(self):
        rng = np.random.default_rng(84)
        # an empty "one" stratum, a one-unit stratum, then sizes up to 60
        for case, N1 in enumerate([0, 1, 2, *rng.integers(0, 61, 117).tolist()]):
            N0 = int(rng.integers(1, 61))
            frame, strata = _random_strata(rng, N1, N0, labeled=case % 3 != 0)
            seed = int(rng.integers(0, 2**31))
            for n in {1, 2, N1, N0, N0 + 1, int(rng.integers(1, 70))}:
                _assert_same_draws(frame, strata, n, seed)
            _assert_same_allocations(frame, strata, {0, 3, 4, N1 + N0, *rng.integers(0, 70, 2)})

    def test_acceptance_frame(self, acceptance_frame):
        strata = stratify_by_prediction(acceptance_frame, 0.5)
        for seed in (3, 4):
            _assert_same_draws(acceptance_frame, strata, 500, seed)

    def test_a_generator_seed_draws_on_from_where_the_last_draw_left_it(self):
        frame, strata = _random_strata(np.random.default_rng(85), 30, 50)
        got, want = np.random.default_rng(7), np.random.default_rng(7)
        for h, rows in strata.items():
            a = srs_wor(frame, 5, got, stratum=(h, rows))
            b = srs_wor(_rebuilt(frame, rows), 5, want)
            assert a.unit_ids.tolist() == b.unit_ids.tolist()

    @pytest.mark.parametrize(
        "rows",
        [[1, 0], [0, 0], [-1, 0], [0, 3], [True, False, True], [[0, 1]], [0.0, 1.0]],
        ids=["descending", "repeated", "negative", "past_the_end", "mask", "2d", "float"],
    )
    def test_refuses_rows_that_are_not_ascending_row_indices(self, rows):
        frame = _frame([0.2, 0.6, 0.9], [0, 1, 1])
        with pytest.raises(ValueError, match="^a stratum's rows must be ascending integer row"):
            srs_wor(frame, 1, 0, stratum=("one", rows))
        with pytest.raises(ValueError, match="^a stratum's rows must be ascending integer row"):
            pps_wr(frame, 1, 0, stratum=("one", rows))
        strata = {"one": np.asarray(rows), "zero": np.array([2])}
        with pytest.raises(ValueError, match="^a stratum's rows must be ascending integer row"):
            allocate(frame, strata, len(rows) + 1, NEYMAN_PROXY)  # all of both strata


class TestOnePartRule:
    """Every draw, a sample's or a replicate's, takes its size check and its
    alias table from ``designs._part``.  That a stratum draws as a frame of
    its own units would is ``TestStrataAsRows``' rule."""

    @staticmethod
    def _frame():
        rng = np.random.default_rng(39)
        return _frame(rng.uniform(0.05, 0.95, 400), (rng.random(400) < 0.3).astype(float))

    def test_srs_wor_and_run_replications_refuse_n_over_N_alike(self):
        frame = self._frame()
        with pytest.raises(ValueError) as by_sample:
            srs_wor(frame, frame.N + 1, seed=1)
        with pytest.raises(ValueError) as by_run:
            run_replications(frame, design="srs", estimator="srs", n=frame.N + 1, R=2, seed=1)
        assert str(by_sample.value) == str(by_run.value) == (
            "n=401 exceeds N=400, and SRS draws are distinct units"
        )

    def test_a_stratum_pps_draw_leaves_its_frame_out_of_the_alias_cache(self):
        frame = self._frame()
        rows = stratify_by_prediction(frame, 0.5)["zero"]
        pps_wr(frame, 20, seed=4, stratum=("zero", rows))
        assert frame not in designs._alias_cache
        pps_wr(frame, 20, seed=4)
        assert frame in designs._alias_cache


class TestSampleIO:
    def _sample(self):
        fr = _frame(np.linspace(0.05, 0.8, 30), np.tile([1.0, 0.0, np.nan], 10))
        return srs_wor(fr, 6, seed=14)

    def test_round_trip_exact(self, tmp_path):
        s = self._sample()
        path = tmp_path / "sample.csv"
        write_sample(s, path)
        back = load_sample(path)
        assert back.design == s.design
        assert back.unit_ids.tolist() == s.unit_ids.tolist()
        assert np.array_equal(back.pi, s.pi)
        assert np.array_equal(back.y, s.y, equal_nan=True)
        assert np.array_equal(back.p_hat, s.p_hat)
        assert back.parent_N == s.parent_N
        assert back.parent_aux_total == s.parent_aux_total

    def test_stratum_tag_rides_along(self, tmp_path):
        fr = _frame(np.full(8, 0.7), np.ones(8))
        strat = stratify_by_prediction(fr, 0.5)
        s = srs_wor(fr, 3, seed=2, stratum=("one", strat["one"]))
        path = tmp_path / "one.csv"
        write_sample(s, path)
        assert load_sample(path).stratum == "one"

    def test_header_fields_helper(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sample(self._sample(), path, header_lines=["seed = 14"])
        fields = read_header_fields(path)
        assert fields["seed"] == "14"
        assert fields["sample_design"] == DESIGN_SRS

    def test_awkward_ids_round_trip(self, tmp_path):
        fr = Frame(["a,b", "c", "#d", 'e"f'], [0.3, 0.4, 0.5, 0.6], [1.0, 0.0, np.nan, 1.0])
        s = srs_wor(fr, 4, seed=1)
        path = tmp_path / "q.csv"
        write_sample(s, path)
        assert load_sample(path).unit_ids.tolist() == s.unit_ids.tolist()

    def test_load_refuses_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            "draw_index,unit_id,pi,y,p_hat\n0,a,0.5,1,0.4\n1,b,0.5,1\n"
        )
        with pytest.raises(IngestionError, match="draw 2: expected 5 fields"):
            load_sample(path)

    @pytest.mark.parametrize(
        "header", ["draw_index,unit_id,pi,y,p_hat,note", "draw_index,unit_id,y,pi,p_hat"],
        ids=["extra", "reordered"],
    )
    def test_load_refuses_other_columns(self, tmp_path, header):
        path = tmp_path / "c.csv"
        path.write_text(
            "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            f"{header}\n0,a,0.1,1,0.4\n"
        )
        with pytest.raises(IngestionError) as info:
            load_sample(path)
        assert str(info.value) == f"{path}: expected columns draw_index,unit_id,pi,y,p_hat"

    @pytest.mark.parametrize(
        "indices, message",
        [(("7", "1"), "draw 1: draw_index '7', expected 0"),
         (("0", "abc"), "draw 2: draw_index 'abc', expected 1"),
         (("1", "0"), "draw 1: draw_index '1', expected 0")],
        ids=["seven", "text", "swapped"],
    )
    def test_load_refuses_draws_out_of_order(self, tmp_path, indices, message):
        path = tmp_path / "d.csv"
        path.write_text(
            "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            f"draw_index,unit_id,pi,y,p_hat\n{indices[0]},a,0.2,1,0.4\n{indices[1]},b,0.2,0,0.3\n"
        )
        with pytest.raises(IngestionError) as info:
            load_sample(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("draw", [pps_wr, srs_wor])
    def test_load_refuses_a_pi_off_its_design(self, tmp_path, draw):
        fr = _frame(np.linspace(0.05, 0.8, 30), np.tile([1.0, 0.0, np.nan], 10))
        path = tmp_path / "s.csv"
        write_sample(draw(fr, 6, seed=14), path)
        lines = path.read_text().splitlines(keepends=True)
        row = lines.index("draw_index,unit_id,pi,y,p_hat\n") + 3
        fields = lines[row].split(",")
        cut = repr(float(fields[2]) / 1000)
        lines[row] = ",".join([*fields[:2], cut, *fields[3:]])
        path.write_text("".join(lines))
        with pytest.raises(IngestionError) as info:
            load_sample(path)
        assert str(info.value) == f"{path}: draw 3: pi {cut}, expected {fields[2]}"

    @pytest.mark.parametrize(
        "again", ["2,a,0.2,0,0.4", "2,a,0.25,1,0.5"], ids=["y", "p_hat"]
    )
    def test_load_refuses_a_pps_unit_drawn_again_with_other_values(self, tmp_path, again):
        path = tmp_path / "p.csv"
        path.write_text(
            "# sample_design = PPS_WR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            f"draw_index,unit_id,pi,y,p_hat\n0,a,0.2,1,0.4\n1,b,0.15,0,0.3\n{again}\n"
        )
        with pytest.raises(IngestionError) as info:
            load_sample(path)
        message = "draw 3: unit 'a' drawn before with another y or p_hat"
        assert str(info.value) == f"{path}: {message}"

    def test_load_refuses_an_srs_pi_other_than_n_over_N(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            "draw_index,unit_id,pi,y,p_hat\n0,a,0.2,1,0.4\n1,b,0.5,0,0.3\n"
        )
        with pytest.raises(IngestionError) as info:
            load_sample(path)
        assert str(info.value) == f"{path}: draw 2: pi 0.5, expected 0.2"

    def test_load_errors(self, tmp_path):
        missing = tmp_path / "m.csv"
        missing.write_text("draw_index,unit_id,pi,y,p_hat\n0,a,0.5,1,0.4\n")
        with pytest.raises(IngestionError, match="sample_design"):
            load_sample(missing)

        bad = tmp_path / "b.csv"
        bad.write_text(
            "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            "draw_index,unit_id,pi,y,p_hat\n0,a,0.5,2,0.4\n"
        )
        with pytest.raises(IngestionError, match="draw 1"):
            load_sample(bad)

        empty = tmp_path / "e.csv"
        empty.write_text(
            "# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = 2.0\n"
            "draw_index,unit_id,pi,y,p_hat\n"
        )
        with pytest.raises(IngestionError, match="no draws"):
            load_sample(empty)

    @pytest.mark.parametrize(
        "pi,p_hat,aux_total",
        [
            ("nan", "0.4", "2.0"),
            ("0.5", "1.5", "2.0"),
            ("0.5", "0.4", "nan"),
            ("0.5", "0.4", "-5"),
            ("0.5", "0.4", "inf"),
        ],
    )
    def test_load_refuses_out_of_range_values(self, tmp_path, pi, p_hat, aux_total):
        # NaN compares false, so it passes a check that refuses only what lies outside
        path = tmp_path / "v.csv"
        path.write_text(
            f"# sample_design = SRS_WOR\n# parent_N = 10\n# parent_aux_total = {aux_total}\n"
            f"draw_index,unit_id,pi,y,p_hat\n0,a,0.5,1,0.4\n1,b,{pi},0,{p_hat}\n"
        )
        with pytest.raises(IngestionError):
            load_sample(path)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            Sample(
                design="CLUSTER",
                unit_ids=np.array(["a"], dtype=object),
                y=np.array([1.0]),
                p_hat=np.array([0.5]),
                parent_N=10,
                parent_aux_total=1.0,
            )
        with pytest.raises(ValueError):
            Sample(
                design=DESIGN_PPS,
                unit_ids=np.array(["a"], dtype=object),
                y=np.array([1.0]),
                p_hat=np.array([0.0]),
                parent_N=10,
                parent_aux_total=1.0,
            )
