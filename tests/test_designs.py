import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from auxcount import (
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
    srs_wor,
    stratify_by_prediction,
    write_sample,
)
from auxcount import designs

from conftest import _ids


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
    """The sequential partial Fisher-Yates loop that _srs_indices must
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
        got = designs._srs_indices(np.random.default_rng(seed), N, n)
        want = reference_srs_indices(np.random.default_rng(seed), N, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    # nextafter(1, 0) is Generator.random's largest value; its product
    # with N - j still truncates to N - j - 1, so only 1.0 reaches k >= N
    @pytest.mark.parametrize("top", [np.nextafter(1.0, 0.0), 1.0])
    @pytest.mark.parametrize("N, n", [(1, 1), (7, 3), (7, 7), (190_944, 500)])
    def test_top_edge_of_the_uniforms(self, top, N, n):
        class Stub:
            def random(self, size):
                return np.full(size, top)

        # every step targets the last slot, which passes each draw on
        got = designs._srs_indices(Stub(), N, n)
        assert np.array_equal(got, reference_srs_indices(Stub(), N, n))
        assert got.tolist() == [N - 1, *range(n - 1)]


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


class TestAliasTable:
    # every vector of 1-8 units over weights at both ends of the score range
    @pytest.mark.parametrize("size", range(1, 9))
    def test_draw_masses_are_the_weights_on_tiny_frames(self, size):
        for weights in itertools.product([PROB_FLOOR, 0.3, 1.0 - PROB_FLOOR], repeat=size):
            _assert_exact_masses(weights)

    def test_draw_masses_are_the_weights_on_random_frames(self):
        rng = np.random.default_rng(1943)
        for k in range(200):
            size = int(rng.integers(1, 3000))
            if k % 2:  # rare-positive score mixture, piled near the floor
                weights = clamp_probs(np.where(rng.random(size) < 0.05,
                                               rng.beta(8.0, 0.8, size),
                                               rng.beta(0.018, 2.0, size)))
            else:
                weights = rng.random(size) + PROB_FLOOR
            _assert_exact_masses(weights)

    # Generator.random's largest value is nextafter(1, 0): a slot with
    # prob 1 keeps its own unit, and every draw stays inside the frame
    @pytest.mark.parametrize("weights", [[1.0], [0.2, 0.8], [PROB_FLOOR, 0.5, 1.0, 0.3]])
    def test_top_edge_of_the_slots_and_uniforms(self, weights):
        class Stub:
            def integers(self, high, size):
                return np.full(size, high - 1)

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        table = AliasTable(weights)
        got = table.draw(Stub(), 5)
        assert np.all((0 <= got) & (got < table.size))


def _two_strata(n1_labels, n0_labels, split=0.5):
    probs = np.concatenate(
        [np.full(len(n1_labels), 0.9), np.full(len(n0_labels), 0.1)]
    )
    labels = np.concatenate([n1_labels, n0_labels])
    return stratify_by_prediction(_frame(probs, labels), split)


class TestAllocate:
    def test_equal_split(self):
        strat = _two_strata(np.zeros(600), np.zeros(800))
        plan = allocate(strat, 200, EQUAL)
        assert plan.sizes == {"one": 100, "zero": 100}

    def test_proportional_exact(self):
        strat = _two_strata(np.zeros(100), np.zeros(300))
        plan = allocate(strat, 40, PROPORTIONAL)
        assert plan.sizes == {"one": 10, "zero": 30}

    def test_sizes_always_sum(self):
        rng = np.random.default_rng(3)
        strat = _two_strata(rng.integers(0, 2, 173).astype(float),
                            rng.integers(0, 2, 421).astype(float))
        for rule in (EQUAL, PROPORTIONAL, NEYMAN_ORACLE, NEYMAN_PROXY):
            plan = allocate(strat, 97, rule)
            assert sum(plan.sizes.values()) == 97
            assert all(v >= 2 for v in plan.sizes.values())

    def test_zero_variance_stratum_gets_floor(self):
        # one-stratum all positive: label SD 0, so Neyman weight is 0
        strat = _two_strata(np.ones(50), np.random.default_rng(1).integers(0, 2, 500).astype(float))
        plan = allocate(strat, 60, NEYMAN_ORACLE)
        assert plan.sizes["one"] == 2
        assert plan.sizes["zero"] == 58

    def test_neyman_matches_brute_force_minimum(self):
        rng = np.random.default_rng(10)
        strat = _two_strata(
            (rng.random(400) < 0.55).astype(float),
            (rng.random(1600) < 0.02).astype(float),
        )
        n = 100
        plan = allocate(strat, n, NEYMAN_ORACLE)

        def var_at(n1):
            total = 0.0
            for name, n_h in (("one", n1), ("zero", n - n1)):
                f = strat.strata[name]
                S2 = np.var(f.labels, ddof=1)
                total += f.N**2 * (1 - n_h / f.N) * S2 / n_h
            return total

        best = min(var_at(n1) for n1 in range(2, n - 1))
        assert var_at(plan.sizes["one"]) <= best * 1.01

    def test_empty_stratum_takes_nothing(self):
        fr = _frame([0.1, 0.2, 0.3, 0.4], np.zeros(4))
        strat = stratify_by_prediction(fr, 0.5)
        plan = allocate(strat, 3, PROPORTIONAL)
        assert plan.sizes == {"one": 0, "zero": 3}

    def test_infeasible_requests(self):
        strat = _two_strata(np.zeros(5), np.zeros(5))
        with pytest.raises(AllocationError):
            allocate(strat, 11, PROPORTIONAL)  # more than N
        with pytest.raises(AllocationError):
            allocate(strat, 3, PROPORTIONAL)  # cannot give both strata 2
        with pytest.raises(ValueError):
            allocate(strat, 10, "optimal")


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
        s = srs_wor(strat.strata["one"], 3, seed=2)
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
                pi=np.array([0.5]),
                y=np.array([1.0]),
                p_hat=np.array([0.5]),
                parent_N=10,
                parent_aux_total=1.0,
            )
        with pytest.raises(ValueError):
            Sample(
                design=DESIGN_PPS,
                unit_ids=np.array(["a"], dtype=object),
                pi=np.array([0.0]),
                y=np.array([1.0]),
                p_hat=np.array([0.5]),
                parent_N=10,
                parent_aux_total=1.0,
            )
