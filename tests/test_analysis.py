import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from separability import (
    AudioClip,
    DatasetManifest,
    InvalidInputError,
    MultitrackSong,
    ScoreTable,
    UndefinedCorrelationError,
    apply_mute_plan,
    correlate_tables,
    pearson,
    plan_mutes,
    rank_songs,
    select_subset,
    spearman,
)
from separability.analysis import _average_ranks

from oracles import counting_ranks, direct_pearson, direct_spearman


def _table(scores, instrument="bass"):
    table = ScoreTable()
    for song_id, value in scores.items():
        table.add_row(song_id, instrument, {"si_sdr": value})
    return table


class TestRankSongs:
    def test_descending_order(self):
        ranking = rank_songs(_table({"a": 5.0, "b": 9.0, "c": 7.0}), "si_sdr", "bass")
        assert ranking == ["b", "c", "a"]

    def test_tie_breaks_lexicographically(self):
        assert rank_songs(_table({"b": 5.0, "a": 5.0}), "si_sdr", "bass") == ["a", "b"]

    def test_missing_sorts_last(self):
        ranking = rank_songs(_table({"a": 5.0, "b": math.nan}), "si_sdr", "bass")
        assert ranking == ["a", "b"]

    def test_unknown_instrument(self):
        with pytest.raises(InvalidInputError):
            rank_songs(_table({"a": 5.0}), "si_sdr", "theremin")

    def test_unknown_metric(self):
        with pytest.raises(InvalidInputError):
            rank_songs(_table({"a": 5.0}), "loudness", "bass")


class TestSelectSubset:
    RANKING = [f"s{i:02d}" for i in range(10)]

    def test_top_single_best(self):
        plan = select_subset(self.RANKING, "top", 0.1)
        assert plan.selected == ("s00",)

    def test_bottom_single_worst(self):
        plan = select_subset(self.RANKING, "bottom", 0.1)
        assert plan.selected == ("s09",)

    def test_full_fraction_takes_everything(self):
        for criterion in ("top", "bottom", "random"):
            plan = select_subset(self.RANKING, criterion, 1.0, seed=3)
            assert set(plan.selected) == set(self.RANKING)

    def test_random_is_reproducible(self):
        p1 = select_subset(self.RANKING, "random", 0.3, seed=42)
        p2 = select_subset(self.RANKING, "random", 0.3, seed=42)
        assert p1.selected == p2.selected
        assert len(p1.selected) == 3

    def test_random_preserves_ranking_order(self):
        plan = select_subset(self.RANKING, "random", 0.5, seed=7)
        positions = [self.RANKING.index(s) for s in plan.selected]
        assert positions == sorted(positions)

    def test_random_requires_seed(self):
        with pytest.raises(InvalidInputError):
            select_subset(self.RANKING, "random", 0.5)

    def test_random_rejects_negative_seed(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            select_subset(self.RANKING, "random", 0.5, seed=-1)

    def test_round_half_up_with_floor_one(self):
        assert len(select_subset(self.RANKING[:3], "top", 0.5).selected) == 2  # 1.5 -> 2
        assert len(select_subset(self.RANKING[:9], "top", 0.1).selected) == 1  # 0.9 -> 1
        assert len(select_subset(self.RANKING[:3], "top", 0.1).selected) == 1  # floor

    def test_fraction_bounds(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                select_subset(self.RANKING, "top", bad)

    def test_unknown_criterion(self):
        with pytest.raises(InvalidInputError):
            select_subset(self.RANKING, "middle", 0.5)

    def test_empty_ranking_rejected(self):
        with pytest.raises(InvalidInputError, match="cannot select from an empty ranking"):
            select_subset([], "top", 0.5)

    def test_top_bottom_disjoint_at_half(self):
        top = set(select_subset(self.RANKING, "top", 0.5).selected)
        bottom = set(select_subset(self.RANKING, "bottom", 0.5).selected)
        assert not top & bottom

    def test_plan_json_records_generator(self):
        plan = select_subset(self.RANKING, "random", 0.2, seed=5, metric="si_sdr")
        payload = json.loads(plan.to_json({"population": "10"}))
        assert payload["generator"] == "pcg64"
        assert payload["seed"] == 5
        assert payload["config"]["population"] == "10"


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == 1.0

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [-v for v in x]) == -1.0

    def test_frozen_direct_formula_fixture(self):
        # Hand evaluation: Sxy = 8, Sxx = Syy = 10, r = 8/10.
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [2.0, 1.0, 4.0, 3.0, 5.0]
        assert pearson(x, y) == pytest.approx(0.8, abs=1e-15)
        assert pearson(x, y) == pytest.approx(direct_pearson(x, y), abs=1e-15)

    def test_missing_pairs_dropped(self):
        x = [1.0, 2.0, math.nan, 4.0, 5.0]
        y = [1.0, 2.0, 3.0, 4.0, math.nan]
        assert pearson(x, y) == pytest.approx(direct_pearson([1, 2, 4], [1, 2, 4]), abs=1e-15)

    def test_too_few_pairs(self):
        with pytest.raises(InvalidInputError):
            pearson([1.0, math.nan], [2.0, 3.0])

    @pytest.mark.parametrize("y", [[1.0, 2.0], [[1.0, 2.0, 3.0]]])
    def test_vectors_of_another_shape_rejected(self, y):
        with pytest.raises(InvalidInputError, match="x and y must be equal-length vectors"):
            pearson([1.0, 2.0, 3.0], y)

    def test_zero_variance(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),  # r is NaN, once clamped to -1
            ([1e200, 2e200, 3e200], [1.0, 2.0, 3.0]),  # Sxx overflows, r was 0
            ([1e100, 2e100, 3e100], [1e100, 2e100, 3e100]),  # Sxx * Syy overflows, r was 0
        ],
    )
    def test_non_finite_sums_are_undefined(self, x, y):
        with pytest.raises(UndefinedCorrelationError, match="not finite"):
            pearson(x, y)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scale=st.sampled_from([0.5, 2.0, 10.0]),
        shift=st.sampled_from([-3.0, 0.0, 5.0]),
    )
    def test_affine_invariance_and_symmetry(self, seed, scale, shift):
        gen = np.random.Generator(np.random.PCG64(seed))
        x = list(gen.normal(0, 1, 12))
        y = list(gen.normal(0, 1, 12))
        r = pearson(x, y)
        assert pearson(y, x) == pytest.approx(r, abs=1e-12)
        assert pearson([scale * v + shift for v in x], y) == pytest.approx(r, abs=1e-12)


class TestSpearman:
    def test_monotone_nonlinear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, [math.exp(v) for v in x]) == 1.0

    def test_reversed(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, x[::-1]) == -1.0

    def test_tie_fixture_matches_counting_oracle(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 4.0]
        rho = spearman(x, y)
        assert rho == pytest.approx(direct_spearman(x, y), abs=1e-12)
        # Ranks of x are [1, 2.5, 2.5, 4]: rho = 4.5 / sqrt(4.5 * 5) exactly.
        assert rho == pytest.approx(4.5 / math.sqrt(22.5), abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_random_ties_match_counting_oracle(self, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        x = list(gen.integers(0, 5, 10).astype(float))
        y = list(gen.integers(0, 5, 10).astype(float))
        try:
            rho = spearman(x, y)
        except UndefinedCorrelationError:
            return
        assert rho == pytest.approx(direct_spearman(x, y), abs=1e-12)

    def test_average_ranks_match_counting_oracle_on_heavy_ties(self):
        gen = np.random.Generator(np.random.PCG64(6))
        for _ in range(200):
            n = int(gen.integers(1, 60))
            # Few distinct values, signed zeros among them, so most ranks are shared.
            pool = np.array([-0.0, 0.0, 1.5, -2.0, 3.25, 1e-300])
            v = pool[gen.integers(0, pool.size, n)]
            assert _average_ranks(v).tolist() == counting_ranks(v.tolist())

    def test_monotone_transform_invariance(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.5]
        assert spearman([math.exp(v) for v in x], y) == pytest.approx(
            spearman(x, y), abs=1e-12
        )


class TestCorrelateTables:
    def _full_table(self, offset=0.0, scale=1.0):
        table = ScoreTable()
        values = {"a": 1.0, "b": 4.0, "c": 2.0, "d": 8.0}
        for song, v in values.items():
            table.add_row(
                song,
                "bass",
                {m: scale * (v + i) + offset for i, m in enumerate(["si_sdr", "sdr", "sir", "isr", "sar"])},
            )
        return table

    def test_identical_tables_give_ones(self):
        a = self._full_table()
        grid = correlate_tables(a, self._full_table())
        for metric in ("si_sdr", "sdr", "sir", "isr", "sar"):
            assert grid.pearson[("bass", metric)] == 1.0
            assert grid.spearman[("bass", metric)] == 1.0
        assert not grid.has_missing()

    def test_negated_tables_give_minus_ones(self):
        grid = correlate_tables(self._full_table(), self._full_table(scale=-1.0))
        for metric in ("si_sdr", "sdr", "sir", "isr", "sar"):
            assert grid.pearson[("bass", metric)] == -1.0

    def test_disjoint_songs_give_missing_cells(self):
        a = self._full_table()
        b = ScoreTable()
        b.add_row("zz", "bass", {"si_sdr": 1.0})
        grid = correlate_tables(a, b)
        assert grid.has_missing()
        assert math.isnan(grid.pearson[("bass", "si_sdr")])
        assert grid.diagnostics

    def test_csv_shape(self):
        grid = correlate_tables(self._full_table(), self._full_table())
        lines = grid.to_csv({"command": "correlate"}).splitlines()
        header = [b for b in lines if not b.startswith("#")][0]
        assert header == "block,instrument,si_sdr,sdr,sir,isr,sar"
        blocks = [line.split(",")[0] for line in lines if not line.startswith("#")][1:]
        assert blocks == ["pearson", "spearman"]


class TestMutePlans:
    def _manifest(self, n_train=20, n_test=5):
        entries = [(f"t{i:02d}", "train") for i in range(n_train)]
        entries += [(f"x{i:02d}", "test") for i in range(n_test)]
        return DatasetManifest(
            root=Path("."), entries=tuple(entries), instruments=("bass", "guitar")
        )

    def test_zero_ratio_empty_plan(self):
        plan = plan_mutes(self._manifest(), "guitar", 0.0, seed=1)
        assert plan.muted == ()

    def test_cardinality_round_half_up(self):
        manifest = self._manifest()
        assert len(plan_mutes(manifest, "guitar", 0.45, 1).muted) == 9
        assert len(plan_mutes(manifest, "guitar", 0.25, 1).muted) == 5
        assert len(plan_mutes(self._manifest(n_train=10), "guitar", 0.25, 1).muted) == 3

    def test_deterministic_under_seed(self):
        manifest = self._manifest()
        assert plan_mutes(manifest, "guitar", 0.3, 9).muted == plan_mutes(manifest, "guitar", 0.3, 9).muted

    def test_different_seeds_same_cardinality(self):
        manifest = self._manifest()
        p1 = plan_mutes(manifest, "guitar", 0.25, 1)
        p2 = plan_mutes(manifest, "guitar", 0.25, 2)
        assert len(p1.muted) == len(p2.muted) == 5

    def test_test_split_never_muted(self):
        for seed in range(5):
            plan = plan_mutes(self._manifest(), "guitar", 1.0, seed)
            assert all(song.startswith("t") for song in plan.muted)
            assert len(plan.muted) == 20

    def test_unknown_instrument_rejected(self):
        with pytest.raises(InvalidInputError):
            plan_mutes(self._manifest(), "kazoo", 0.1, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            plan_mutes(self._manifest(), "guitar", 0.0, -1)

    def test_manifest_order_does_not_matter(self):
        entries = [(f"t{i:02d}", "train") for i in range(10)]
        fwd = DatasetManifest(Path("."), tuple(entries), ("bass",))
        rev = DatasetManifest(Path("."), tuple(reversed(entries)), ("bass",))
        assert plan_mutes(fwd, "bass", 0.3, 4).muted == plan_mutes(rev, "bass", 0.3, 4).muted

    def test_apply_mute_plan(self, rng):
        clip = AudioClip(rng.normal(0, 0.3, (1, 1000)), 44100)
        other = AudioClip(rng.normal(0, 0.3, (1, 1000)), 44100)
        song = MultitrackSong("t00", {"bass": clip, "guitar": other})
        plan = plan_mutes(self._manifest(), "guitar", 1.0, 0)
        muted = apply_mute_plan(song, plan)
        assert np.all(muted.stems["guitar"].samples == 0.0)
        assert np.array_equal(muted.stems["bass"].samples, clip.samples)
        untouched = apply_mute_plan(MultitrackSong("zz", {"bass": clip, "guitar": other}), plan)
        assert untouched.stems["guitar"] is other
