import hashlib
from fractions import Fraction

import numpy as np
import pytest

from motion_forge.curriculum import (
    STATE_ACTIVE,
    STATE_DROPPED,
    STATE_FROZEN,
    CorpusState,
    ReplaySet,
    SamplerConfig,
    SimConfig,
    SyntheticFile,
    active_mask,
    apply_level_quota,
    check_freeze,
    default_error_process,
    introduction_ratio,
    promotion_check,
    run_curriculum_sim,
    sampling_distribution,
    sampling_scores,
    success_rate,
    update_file_stats,
)
from motion_forge.errors import ConfigError

CFG = SamplerConfig()


def state(file_ids=("f",), levels=1, **columns) -> CorpusState:
    """A corpus state over `file_ids`; `levels` and columns broadcast."""
    return CorpusState(file_ids, np.broadcast_to(levels, len(file_ids)), **columns)


def active_rows(st: CorpusState, iteration: int) -> np.ndarray:
    """The rows `active_mask` selects: what `sampling_distribution` takes."""
    return np.flatnonzero(active_mask(st, iteration))


def replay_probs(replay: ReplaySet, iteration: int) -> np.ndarray:
    """`replay.distribution(iteration)` scattered to one probability per
    file, zero for every row the replay set does not hand out."""
    rows, probs = replay.distribution(iteration)
    out = np.zeros(replay.state.level.size)
    out[rows] = probs
    return out


def full_replay(st: CorpusState) -> ReplaySet:
    """A replay set over every trainable row of `st`, all levels unlocked at
    iteration 0 and every file introduced at once."""
    orders = [np.flatnonzero(st.level == lv) for lv in range(1, 11)]
    return ReplaySet(st, orders, [0] * 10, SamplerConfig(intro_start_ratio=1.0))


def freeze_outcome(st: CorpusState, iteration: int) -> list[int]:
    """The new freeze-state codes of the rows `check_freeze` hits."""
    _, codes = check_freeze(st, CFG, iteration)
    return codes.tolist()


class TestCorpusState:
    def test_columns_default_to_zero(self):
        st = state(["a", "b"], levels=[1, 12])
        assert st.file_id.tolist() == ["a", "b"]
        assert st.level.tolist() == [1, 12]
        assert st.ema_error.tolist() == [0.0, 0.0]
        assert st.freeze_state.tolist() == [STATE_ACTIVE, STATE_ACTIVE]

    @pytest.mark.parametrize("levels", [[0], [13], [1.5], ["1"], [1e300], [2**53 + 1]])
    def test_bad_level_rejected(self, levels):
        with pytest.raises(ConfigError):
            CorpusState(["a"], levels)

    @pytest.mark.parametrize("file_ids", [[[1], "b"], [1, 2], [None, "b"], [float("nan"), "b"]],
                             ids=["list", "ints", "null", "nan"])
    def test_non_string_file_id_rejected(self, file_ids):
        with pytest.raises(ConfigError, match="unique strings"):
            CorpusState(file_ids, [1, 2])

    def test_bad_columns_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            state(recent_errors=[0.1])
        with pytest.raises(ConfigError):
            state(["a", "b"], ema_error=[0.1, 0.2, 0.3])
        with pytest.raises(ConfigError, match="unique"):
            state(["a", "a"])

    @pytest.mark.parametrize("column, value", [
        ("ema_error", np.nan), ("success_count", np.inf), ("failure_count", -np.inf),
        ("ema_error", -0.1), ("attempts", -1), ("frozen_until", 2.5), ("freeze_count", np.nan),
        ("ema_error", "0.1"),
    ])
    def test_non_finite_negative_or_fractional_column_rejected(self, column, value):
        with pytest.raises(ConfigError, match=f"column {column}"):
            state(["a", "b"], **{column: [0, value]})

    @pytest.mark.parametrize("value", [2**53 + 1, 2.0**55, 2**63 - 1],
                             ids=["2**53+1", "2.0**55", "2**63-1"])
    @pytest.mark.parametrize("first", [0, 1.0], ids=["after_an_int", "after_a_float"])
    @pytest.mark.parametrize("column", ["attempts", "frozen_until", "freeze_count"])
    def test_integer_column_holds_exact_int64(self, column, first, value):
        # float64 would round 2**53 + 1 to 2**53, and a list with a float in it reads as float64
        column_values = getattr(state(["a", "b"], **{column: [first, value]}), column)
        assert column_values.dtype == np.int64 and column_values.tolist() == [first, value]

    @pytest.mark.parametrize("value", [1e300, 2**63], ids=["1e300", "2**63"])
    @pytest.mark.parametrize("column", ["attempts", "freeze_state", "frozen_until", "freeze_count"])
    def test_integer_column_outside_int64_rejected(self, column, value):
        with pytest.raises(ConfigError, match=f"column {column}"):
            state(["a", "b"], **{column: [0, value]})

    @pytest.mark.parametrize("codes", [[7, 0], [1.5, 0], [-1, 0]])
    def test_freeze_state_outside_the_codes_rejected(self, codes):
        with pytest.raises(ConfigError, match="column freeze_state"):
            state(["a", "b"], freeze_state=codes)


class TestFileStats:
    def test_error_ema_fixed_point(self):
        st = state(ema_error=0.2)
        update_file_stats(st, 0, 0.2, 1, 0, CFG)
        assert st.ema_error[0] == pytest.approx(0.2, abs=1e-15)

    def test_error_ema_step(self):
        st = state(ema_error=0.0)
        update_file_stats(st, 0, 0.4, 1, 0, CFG)
        assert st.ema_error[0] == pytest.approx(0.1, abs=1e-15)

    def test_success_rate_decayed_counters(self):
        st = state()
        update_file_stats(st, 0, 0.1, 3, 1, CFG)
        # fresh record: S = 3, F = 1, p = S / (S + F + eps)
        assert success_rate(st, CFG)[0] == pytest.approx(3.0 / (4.0 + CFG.success_eps))
        # with a tiny prior the ratio approaches the raw 0.75
        tiny = SamplerConfig(success_eps=1e-9)
        assert success_rate(st, tiny)[0] == pytest.approx(0.75, abs=1e-6)

    def test_decay_applied_before_increment(self):
        st = state(success_count=10.0, failure_count=0.0)
        update_file_stats(st, 0, 0.1, 0, 2, CFG)
        assert st.success_count[0] == pytest.approx(4.0)
        assert st.failure_count[0] == pytest.approx(2.0)
        assert st.attempts[0] == 2

    def test_batch_updates_only_given_rows(self):
        st = state(["a", "b", "c"], ema_error=0.2, attempts=5)
        update_file_stats(st, [2, 0], [0.4, 0.0], [1, 3], [2, 0], CFG)
        assert st.ema_error.tolist() == pytest.approx([0.15, 0.2, 0.25], abs=1e-15)
        assert st.attempts.tolist() == [8, 5, 8]
        assert st.success_count.tolist() == [3.0, 0.0, 1.0]

    def test_whole_number_float_counts_update_like_integers(self):
        ints, floats, objects = (state(["a", "b", "c"], success_count=1.5, attempts=5)
                                 for _ in range(3))
        update_file_stats(ints, [2, 0], [0.4, 0.0], [1, 3], [2, 0], CFG)
        update_file_stats(floats, [2, 0], [0.4, 0.0], [1.0, 3.0], [2.0, 0.0], CFG)
        update_file_stats(objects, [2, 0], [0.4, 0.0], np.array([Fraction(1), 3], dtype=object),
                          [2, 0], CFG)
        for name in ("ema_error", "success_count", "failure_count", "attempts"):
            assert getattr(floats, name).tobytes() == getattr(ints, name).tobytes(), name
            assert getattr(objects, name).tobytes() == getattr(ints, name).tobytes(), name
        assert floats.attempts.tolist() == [8, 5, 8]

    def test_negative_batch_error_rejected(self):
        st = state(["a", "b"], ema_error=0.2)
        with pytest.raises(ValueError, match="non-negative"):
            update_file_stats(st, [0, 1], [0.1, -0.1], [1, 1], [0, 0], CFG)
        assert st.ema_error.tolist() == [0.2, 0.2]

    @pytest.mark.parametrize("batch", [
        ([0.1, np.nan], [1, 1], [0, 0]),
        ([np.inf, 0.1], [1, 1], [0, 0]),
        ([0.1, 0.1], [1, -90], [0, 0]),
        ([0.1, 0.1], [1, 1], [np.nan, 0]),
        ([0.1, 0.1], [np.inf, 1], [0, 0]),
        ([0.1, 0.1], [1, 1], [0, -1]),
        ([0.1, 0.1], [1.5, 1], [0.5, 0]),
        ([0.1, 0.1], [1, 1], [0, 0.25]),
        ([0.1, 0.1], [True, True], [False, True]),   # True + True would count one rollout
        # a bool among numbers, which numpy folds into an int or float array
        ([0.1, 0.1], (1, True), [0, 0]),
        ([0.1, 0.1], (1.0, True), [0, 0]),
        ([0.1, 0.1], [1, 1], [np.False_, 0]),
        ([0.1, 0.1], np.array([1, True], dtype=object), [0, 0]),   # its dtype does not tell
        ([0.1, 0.1], [Fraction(9, 2), 1], [Fraction(1, 2), 0]),   # an object array
    ])
    def test_bad_batch_rejected_before_any_row_changes(self, batch):
        st = state(["a", "b"], ema_error=0.2, success_count=1.0, attempts=3)
        with pytest.raises(ValueError, match="finite and non-negative"):
            update_file_stats(st, [0, 1], *batch, CFG)
        assert st.ema_error.tolist() == [0.2, 0.2]
        assert st.success_count.tolist() == [1.0, 1.0]
        assert st.failure_count.tolist() == [0.0, 0.0]
        assert st.attempts.tolist() == [3, 3]


    @pytest.mark.parametrize("attempts, batch", [
        ([2**63 - 10, 0], ([5, 0], [10, 0])),    # 2**63 + 5 would wrap to -2**63 + 5
        ([0, 2**63 - 1], ([0, 1], [0, 0])),
        ([0, 0], ([2**62, 0], [2**62, 0])),      # the counts' own int64 sum wraps
        ([0, 0], ([2**63 - 1, 0], [2**63 - 1, 0])),
        ([0, 0], ([2**63, 0], [0, 0])),          # a uint64 count past int64
        ([0, 0], ([1e300, 0.0], [0.0, 0.0])),    # a whole float past int64
        ([0, 2**63 - 100], ([0.0, 99.0], [0.0, 1.0])),
    ], ids=["sum", "one_more", "counts_wrap", "counts_wrap_to_minus_two", "uint64", "float",
            "float_one_more"])
    def test_batch_past_int64_attempts_rejected_before_any_row_changes(self, attempts, batch):
        st = state(["a", "b"], ema_error=0.2, success_count=1.0, attempts=attempts)
        with pytest.raises(ValueError, match=r"would push attempts past 2\*\*63 - 1"):
            update_file_stats(st, [0, 1], [0.1, 0.1], *batch, CFG)
        assert st.ema_error.tolist() == [0.2, 0.2]
        assert st.success_count.tolist() == [1.0, 1.0]
        assert st.attempts.tolist() == attempts

    @pytest.mark.parametrize("successes", [[5, 0], [5.0, 0.0]], ids=["int", "float"])
    def test_attempts_reach_int64_max_exactly(self, successes):
        # in float64, (2**63 - 16) + 15.0 rounds to 2**63, past int64
        st = state(["a", "b"], attempts=[2**63 - 16, 2**63 - 1])
        update_file_stats(st, [0, 1], [0.1, 0.1], successes, [10, 0], CFG)
        assert st.attempts.tolist() == [2**63 - 1, 2**63 - 1]

class TestSamplingDistribution:
    def test_two_file_hand_derived_case(self):
        # scores r = [0.1, 0.3]: softmax(log(r + 0.2) / 1.05) scaled by 0.8
        # plus the 0.1 uniform floor gives [0.4046, 0.5954]
        st = state(["a", "b"], ema_error=[0.03, 0.09])
        scores = sampling_scores(st, CFG, iteration=0)
        assert np.allclose(scores, [0.1, 0.3], atol=1e-12)
        probs = sampling_distribution(st, CFG, 0, active_rows(st, 0))
        assert np.allclose(probs, [0.4046, 0.5954], atol=1e-3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # a row subset keeps its own order
        assert sampling_distribution(st, CFG, 0, np.array([1, 0])).tolist() == probs[::-1].tolist()

    def test_identical_stats_uniform(self):
        st = state([str(i) for i in range(6)], ema_error=0.1)
        probs = sampling_distribution(st, CFG, 0, active_rows(st, 0))
        assert np.allclose(probs, 1.0 / 6.0, atol=1e-12)

    def test_error_saturates_at_c(self):
        st = state(["a", "b"], ema_error=[0.3, 3.0])
        scores = sampling_scores(st, CFG, iteration=0)
        assert scores[0] == scores[1] == 1.0

    def test_floor_and_sum_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            rows = [
                (float(rng.uniform(0, 0.5)), float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
                for _ in range(n)
            ]
            ema_error, success_count, failure_count = zip(*rows)
            st = state(
                [str(i) for i in range(n)],
                ema_error=ema_error, success_count=success_count, failure_count=failure_count,
            )
            it = int(rng.integers(0, 20000))
            probs = sampling_distribution(st, CFG, it, active_rows(st, it))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= CFG.epsilon / n - 1e-12)

    def test_monotone_in_error_before_saturation(self):
        st = state(["0", "1", "2"], ema_error=[0.05, 0.10, 0.15])
        p_before = sampling_distribution(st, CFG, 0, active_rows(st, 0))[1]
        st.ema_error[1] = 0.22
        p_after = sampling_distribution(st, CFG, 0, active_rows(st, 0))[1]
        assert p_after > p_before

    def test_warmup_gates_success_rate(self):
        # below the warmup, success rates must not affect scores
        st = state(["easy", "hard"], ema_error=0.09,
                   success_count=[100.0, 0.0], failure_count=[0.0, 100.0])
        pre = sampling_distribution(st, CFG, 5999, active_rows(st, 5999))
        post = sampling_distribution(st, CFG, 6000, active_rows(st, 6000))
        assert pre[0] == pytest.approx(pre[1], abs=1e-12)
        assert post[1] > post[0]

    def test_frozen_dropped_levels_excluded(self):
        st = state(
            ["a", "b", "c", "d", "e"],
            levels=[1, 1, 1, 11, 12],
            ema_error=[0.1, 0.0, 0.0, 0.0, 0.0],
            freeze_state=[STATE_ACTIVE, STATE_FROZEN, STATE_DROPPED, STATE_ACTIVE, STATE_ACTIVE],
            frozen_until=[0, 10_000, 0, 0, 0],
        )
        probs = replay_probs(full_replay(st), 100)
        assert probs[0] == pytest.approx(1.0)
        assert np.all(probs[1:] == 0.0)
        # a row subset keeps its own order and loses its inactive rows
        sub = np.array([2, 0])
        sub = sub[active_mask(st, 100, sub)]
        assert sampling_distribution(st, CFG, 100, sub).tolist() == [pytest.approx(1.0)]

    def test_frozen_record_reactivates_after_duration(self):
        st = state(["a", "b"], freeze_state=[STATE_ACTIVE, STATE_FROZEN], frozen_until=[0, 500])
        replay = full_replay(st)
        assert replay_probs(replay, 499)[1] == 0.0
        assert replay_probs(replay, 500)[1] > 0.0

    def test_epsilon_of_one_is_rejected(self):
        # epsilon = 1 would leave no weight for the scores: a uniform sampler
        with pytest.raises(ConfigError, match="epsilon"):
            SamplerConfig(epsilon=1.0)
        assert SamplerConfig(epsilon=0.99).epsilon == 0.99

    def test_empty_active_set_raises(self):
        with pytest.raises(ConfigError):
            dropped = state(freeze_state=STATE_DROPPED)
            sampling_distribution(dropped, CFG, 0, active_rows(dropped, 0))


class TestLevelQuota:
    def test_floor_enforced(self):
        probs = np.array([0.98, 0.01, 0.01])
        sizes = [2, 1]   # rows of levels 1, 1, 2
        out = apply_level_quota(probs, sizes, 0.05)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out[2] >= 0.05 - 1e-12

    def test_no_change_when_above_floor(self):
        probs = np.array([0.5, 0.3, 0.2])
        out = apply_level_quota(probs, [1, 1, 1], 0.02)
        assert np.allclose(out, probs)

    @pytest.mark.parametrize("sizes", [[2, 2], [1, 1], [], [4, -1], [3, 1, -1]])
    def test_sizes_must_add_up_to_the_rows(self, sizes):
        with pytest.raises(ConfigError, match="add up to the 3 rows"):
            apply_level_quota(np.array([0.98, 0.01, 0.01]), sizes, 0.05)


class TestFreezeAndDrop:
    def test_threshold_boundaries(self):
        # error exactly at tau_err with enough exposure freezes
        st = state(ema_error=0.1, success_count=100.0, attempts=20000)
        assert freeze_outcome(st, 1000) == [STATE_FROZEN]
        # just below both thresholds stays active
        st = state(ema_error=0.0999, success_count=100.0, attempts=20000)
        assert freeze_outcome(st, 1000) == []
        # insufficient exposure never freezes
        st = state(ema_error=0.12, attempts=19999)
        assert freeze_outcome(st, 1000) == []
        st = state(ema_error=0.12, attempts=20000)
        assert freeze_outcome(st, 1000) == [STATE_FROZEN]

    def test_success_threshold_boundary(self):
        # p exactly at tau_succ freezes (<= comparison); needs S/(S+F+1) = 0.15
        st = state(success_count=3.0, failure_count=16.0, attempts=20000)
        assert success_rate(st, CFG)[0] == pytest.approx(0.15)
        assert freeze_outcome(st, 0) == [STATE_FROZEN]

    def test_freeze_duration_and_drop_after_two_freezes(self):
        st = state(ema_error=0.5, attempts=25000)
        assert freeze_outcome(st, 500) == [STATE_FROZEN]
        assert st.frozen_until[0] == 4500
        assert not active_mask(st, 4499)[0]
        assert freeze_outcome(st, 1000) == []   # still frozen
        assert freeze_outcome(st, 4500) == [STATE_FROZEN]  # second trigger
        assert st.freeze_count[0] == 2
        assert freeze_outcome(st, 8500) == [STATE_DROPPED]
        assert st.freeze_state[0] == STATE_DROPPED
        assert freeze_outcome(st, 99000) == []

    def test_recovered_file_unfreezes_cleanly(self):
        st = state(ema_error=0.5, attempts=25000)
        check_freeze(st, CFG, 500)
        st.ema_error[0] = 0.01
        st.success_count[0] = 50.0
        assert freeze_outcome(st, 4500) == []
        assert st.freeze_state[0] == STATE_ACTIVE

    def test_hits_returned_in_file_order(self):
        st = state(
            ["a", "b", "c", "d"],
            ema_error=[0.5, 0.01, 0.5, 0.5],
            success_count=50.0,
            attempts=[25000, 25000, 25000, 10],
            freeze_count=[2, 0, 0, 0],
        )
        hit, codes = check_freeze(st, CFG, 500)
        assert hit.tolist() == [0, 2]
        assert codes.tolist() == [STATE_DROPPED, STATE_FROZEN]
        assert st.freeze_count.tolist() == [2, 0, 1, 0]
        assert st.frozen_until.tolist() == [0, 0, 4500, 0]

    def test_freeze_past_int64_lasts_for_the_rest_of_the_run(self):
        # freeze_duration lies in int64 but its end does not: the end saturates
        cfg = SamplerConfig(n_min=1, check_interval=1, freeze_duration=2**63 - 1)
        st = state(ema_error=0.5, attempts=25000)
        _, codes = check_freeze(st, cfg, 500)
        assert codes.tolist() == [STATE_FROZEN]
        assert st.frozen_until[0] == 2**63 - 1
        files = [SyntheticFile("a", 1, start_error=0.5, error_floor=0.5)]
        trace = run_curriculum_sim(files, cfg, SimConfig(total_iters=20))
        assert [(e.iteration, e.kind) for e in trace.events] == [(1, "freeze")]


class TestIntroductionRatio:
    def test_three_point_check(self):
        assert introduction_ratio(1000, 1000, 2, CFG) == pytest.approx(0.2)
        assert introduction_ratio(2500, 1000, 2, CFG) == pytest.approx(0.6)
        assert introduction_ratio(4000, 1000, 2, CFG) == pytest.approx(1.0)
        assert introduction_ratio(9000, 1000, 2, CFG) == pytest.approx(1.0)

    def test_higher_levels_take_longer(self):
        # level >= 4 stretches the ramp to 5000 iterations
        assert introduction_ratio(4000, 1000, 4, CFG) == pytest.approx(0.2 + 0.8 * 3000 / 5000)
        assert introduction_ratio(6000, 1000, 4, CFG) == pytest.approx(1.0)
        assert introduction_ratio(3500, 1000, 3, CFG) == pytest.approx(
            introduction_ratio(3500, 1000, 1, CFG)
        )


class TestLevelSchedule:
    def test_introduced_rows_follow_ramp_and_unlocks(self):
        # level 1 holds rows 0..9, level 2 rows 10..14, in a shuffled order;
        # every row of a fresh state is active, so the replay set holds
        # exactly the introduced rows
        orders = [np.array([3, 7, 0, 9, 1, 8, 2, 6, 4, 5]), np.array([12, 10, 14, 11, 13])]

        def rows_at(unlock_iters, iteration):
            fresh = state([f"f{i}" for i in range(15)], levels=[1] * 10 + [2] * 5)
            return ReplaySet(fresh, orders, unlock_iters, CFG).at(iteration).tolist()

        # level 1 at ratio 0.2 + 0.8 * 999 / 3000; level 2 not yet unlocked
        assert rows_at([0, 1000], 999) == [3, 7, 0, 9, 1]
        # level 2 opens at its unlock iteration with ceil(0.2 * 5) = 1 row
        assert rows_at([0, 1000], 1000) == [3, 7, 0, 9, 1, 12]
        assert rows_at([0, 1000], 4000) == orders[0].tolist() + orders[1].tolist()
        # a level not yet unlocked contributes nothing
        assert rows_at([0], 4000) == orders[0].tolist()
        assert rows_at([], 4000) == []

    def test_more_unlocked_levels_than_replay_orders_is_a_config_error(self):
        replay = ReplaySet(state(["a"]), [np.array([0])], [0, 0], SamplerConfig())
        for _ in range(2):   # and again when the call is retried
            with pytest.raises(ConfigError, match="2 unlocked levels but 1 replay orders"):
                replay.at(0)
        unlock_iters = [0]
        replay = ReplaySet(state(["a"]), [np.array([0])], unlock_iters, SamplerConfig())
        assert replay.at(0).tolist() == [0]
        unlock_iters.append(1)
        with pytest.raises(ConfigError, match="2 unlocked levels but 1 replay orders"):
            replay.at(1)


class TestPromotion:
    def test_stalled_improvements_promote(self):
        errors = [0.100, 0.099, 0.0985, 0.0982]
        assert promotion_check(errors, 5000, CFG)

    def test_fast_improvement_blocks(self):
        assert not promotion_check([0.10, 0.08, 0.07], 5000, CFG)

    def test_min_iterations_gate(self):
        errors = [0.100, 0.099, 0.0985, 0.0982]
        assert not promotion_check(errors, 2000, CFG)

    def test_needs_enough_history(self):
        assert not promotion_check([0.1, 0.0999], 5000, CFG)


class TestSimulation:
    def test_never_improving_file_frozen_twice_then_dropped(self):
        files = [
            SyntheticFile("easy_1", 1),
            SyntheticFile("easy_2", 1),
            SyntheticFile("bad", 1, start_error=0.5, error_floor=0.5),
        ]
        trace = run_curriculum_sim(files, sim=SimConfig(total_iters=20000, seed=3))
        freezes = [e for e in trace.events if e.kind == "freeze" and e.target == "bad"]
        drops = [e for e in trace.events if e.kind == "drop" and e.target == "bad"]
        assert len(freezes) == 2
        assert len(drops) == 1
        assert freezes[0].iteration < freezes[1].iteration < drops[0].iteration
        assert drops[0].iteration <= 20000

    def test_easy_corpus_promotes_without_freezes(self):
        files = [
            SyntheticFile(f"f{lv}_{i}", lv, start_error=0.15)
            for lv in range(1, 4)
            for i in range(2)
        ]
        trace = run_curriculum_sim(files, sim=SimConfig(total_iters=12000, seed=1))
        promotions = [e for e in trace.events if e.kind == "promote"]
        assert len(promotions) >= 2
        assert not [e for e in trace.events if e.kind in ("freeze", "drop")]
        assert trace.final_level >= 3

    def test_promotion_waits_for_min_iters_on_the_current_level(self):
        # errors that never improve stall every evaluation, so each level's
        # eval history is full after 4 evaluations (40 iterations) and the
        # 60 iterations a level must run decide when the next one unlocks
        files = [SyntheticFile(f"f{lv}_{i}", lv, start_error=0.05, error_floor=0.05)
                 for lv in range(1, 4) for i in range(2)]
        cfg = SamplerConfig(promote_min_iters=60)
        trace = run_curriculum_sim(files, cfg, SimConfig(total_iters=150, eval_interval=10))
        promotions = [(e.iteration, e.target) for e in trace.events if e.kind == "promote"]
        assert promotions == [(60, "level:2"), (120, "level:3")]

    def test_levels_11_12_never_sampled(self):
        files = [
            SyntheticFile("ok", 1),
            SyntheticFile("terrain", 11),
            SyntheticFile("flying", 12),
        ]
        trace = run_curriculum_sim(files, sim=SimConfig(total_iters=3000, seed=2))
        for row in trace.rows:
            assert row.level_mass.get(11, 0.0) == 0.0
            assert row.level_mass.get(12, 0.0) == 0.0
        assert all(row.active_files == 1 for row in trace.rows)

    def test_trace_deterministic_bytes(self):
        files = [
            SyntheticFile("a", 1),
            SyntheticFile("b", 1, start_error=0.5, error_floor=0.5),
            SyntheticFile("c", 2),
        ]
        t1 = run_curriculum_sim(files, sim=SimConfig(total_iters=6000, seed=11))
        t2 = run_curriculum_sim(files, sim=SimConfig(total_iters=6000, seed=11))
        assert t1.to_csv().encode() == t2.to_csv().encode()
        t3 = run_curriculum_sim(files, sim=SimConfig(total_iters=6000, seed=12))
        assert t1.to_csv() != t3.to_csv()

    def test_csv_shape(self):
        files = [SyntheticFile("a", 1)]
        trace = run_curriculum_sim(files, sim=SimConfig(total_iters=1000, seed=0))
        lines = trace.to_csv().strip().split("\n")
        assert lines[0].startswith("iteration,current_level,active_files,level_1_mass")
        assert len(lines) == 1 + 1000 // 500


    def test_error_process_called_once_per_sampled_file(self):
        # the plug-in contract: one scalar call per sampled file per
        # iteration, given the file's rollouts before this iteration
        files = [SyntheticFile(f"f{i}", 1 + i % 2) for i in range(6)]
        sim = SimConfig(total_iters=300, rollouts_per_iter=16, seed=4)
        calls = []

        def error_process(spec, exposures, rollouts, rng):
            calls.append((spec.file_id, exposures, rollouts))
            return default_error_process(spec, exposures, rollouts, rng)

        run_curriculum_sim(files, sim=sim, error_process=error_process)
        seen: dict[str, int] = {}
        iteration, drawn = [], 0
        for file_id, exposures, rollouts in calls:
            assert rollouts > 0
            assert exposures == seen.get(file_id, 0)
            seen[file_id] = exposures + rollouts
            iteration.append(file_id)
            drawn += rollouts
            if drawn == sim.rollouts_per_iter:
                assert len(set(iteration)) == len(iteration)
                iteration, drawn = [], 0
        assert drawn == 0 and sum(seen.values()) == 300 * 16

    @pytest.mark.parametrize("outcome, error", [
        ((0.1, 99, 0), ConfigError),
        ((0.1, 0, 0), ConfigError),
        ((0.1, -90, 99), ValueError),       # sums to the 9 rollouts
        ((float("nan"), 9, 0), ValueError),
        ((0.1, True, True), ValueError),    # sums to the 2 rollouts below
    ])
    def test_error_process_outputs_checked(self, outcome, error):
        files = [SyntheticFile("a", 1)]
        sim = SimConfig(total_iters=10, rollouts_per_iter=2 if outcome[1] is True else 9, seed=0)
        with pytest.raises(error):
            run_curriculum_sim(files, sim=sim, error_process=lambda *_: outcome)

    @pytest.mark.parametrize(
        "name", ["total_iters", "rollouts_per_iter", "eval_interval", "trace_interval"]
    )
    def test_sim_config_rejects_counts_below_one(self, name):
        with pytest.raises(ConfigError, match=name):
            SimConfig(**{name: 0})
        with pytest.raises(ConfigError, match=name):
            SimConfig(**{name: -3})

    def test_sim_config_bounds_the_attempts_column(self):
        # every file's attempts stay inside int64 over the whole run
        SimConfig(total_iters=1, rollouts_per_iter=2**63 - 1)
        with pytest.raises(ConfigError, match=r"total_iters \* rollouts_per_iter must be below 2\*\*63"):
            SimConfig(total_iters=6, rollouts_per_iter=2**62)

    def test_golden_trace_sha256(self):
        # 200 files over 10 levels with desk-scaled thresholds, so freezes,
        # thaws, drops and promotions all fire within 1500 iterations; the
        # digest pins the exact CSV bytes of the scheduler's seeded run
        trace = golden_trace(1500)
        kinds = [e.kind for e in trace.events]
        assert (kinds.count("freeze"), kinds.count("drop"), kinds.count("promote")) == (88, 33, 2)
        assert trace.final_level == 3
        digest = hashlib.sha256(trace.to_csv().encode()).hexdigest()
        assert digest == "d3fdd925de3998f46531883109a1a76b61d7958820f4a86165f6aa3727fc70bc"

    def test_golden_trace_sha256_reaches_deep_levels(self):
        # the same corpus run twice as long reaches level 7, so six level
        # ramps start and end, some while freezes run out.  Like the digest
        # above it depends on numpy's AVX-512 kernels (ROADMAP item 1).
        trace = golden_trace(3000)
        kinds = [e.kind for e in trace.events]
        assert (kinds.count("freeze"), kinds.count("drop"), kinds.count("promote")) == (193, 77, 6)
        assert trace.final_level == 7
        digest = hashlib.sha256(trace.to_csv().encode()).hexdigest()
        assert digest == "cb9e08313ee5cd763a2f332d477a0754ab9918c54dafe2c9bbb3a830c9ec7274"


def golden_trace(total_iters: int):
    """The golden digests' seeded run: 200 files over 10 levels with
    desk-scaled thresholds, seed 0."""
    rng = np.random.default_rng(5)
    files = [
        SyntheticFile(
            f"f{lv:02d}_{i:03d}", lv,
            start_error=float(rng.uniform(0.15, 0.5)),
            error_floor=float(rng.uniform(0.01, 0.14)),
            improve_rate=float(10.0 ** rng.uniform(-3.5, -2.0)),
            success_scale=float(rng.uniform(0.06, 0.2)),
        )
        for lv in range(1, 11)
        for i in range(20)
    ]
    cfg = SamplerConfig(
        n_min=200, check_interval=100, freeze_duration=300, success_warmup_iters=600,
        intro_base_iters=300, intro_extra_iters=200, promote_min_iters=300,
    )
    sim = SimConfig(total_iters=total_iters, rollouts_per_iter=64, eval_interval=100,
                    trace_interval=100, seed=0)
    return run_curriculum_sim(files, cfg, sim)


class TestRecordPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        from motion_forge.curriculum import load_records, save_records

        st = state(
            ["a", "b"], levels=[1, 4],
            ema_error=[0.12, 0.0], success_count=[3.5, 0.0], failure_count=[1.25, 0.0],
            attempts=[12345, 0], freeze_count=[1, 0],
            freeze_state=[STATE_FROZEN, STATE_ACTIVE], frozen_until=[8000, 0],
        )
        path = tmp_path / "records.jsonl"
        save_records(st, path)
        first = path.read_text().splitlines()[0]
        assert first == (
            '{"file_id":"a","level":1,"ema_error":0.12,"success_count":3.5,'
            '"failure_count":1.25,"attempts":12345,"freeze_state":"frozen",'
            '"frozen_until":8000,"freeze_count":1}'
        )
        back = load_records(path)
        assert back.file_id.tolist() == ["a", "b"]
        assert back.ema_error[0] == 0.12
        assert back.frozen_until[0] == 8000
        assert back.freeze_state[0] == STATE_FROZEN
        assert back.level[1] == 4

    def test_bad_line_reported(self, tmp_path):
        from motion_forge.curriculum import load_records

        path = tmp_path / "records.jsonl"
        path.write_text('{"file_id": "a", "level": 1}\nnot json\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_records(path)

    def test_non_finite_statistic_rejected(self, tmp_path):
        from motion_forge.curriculum import load_records

        path = tmp_path / "records.jsonl"
        path.write_text('{"file_id": "a", "level": 1, "ema_error": NaN}\n{"file_id": "b", "level": 1}\n')
        with pytest.raises(ConfigError, match="column ema_error"):
            load_records(path)

    @pytest.mark.parametrize("line, column", [
        ('{"file_id":"a","level":1,"frozen_until":1e300}', "column frozen_until"),
        ('{"file_id":"a","level":1,"attempts":9223372036854775808}', "column attempts"),
        ('{"file_id":"a","level":1e300}', "levels"),
    ])
    def test_integer_outside_int64_rejected(self, tmp_path, line, column):
        from motion_forge.curriculum import load_records

        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"{column} holds an integer outside int64"):
            load_records(path)

    def test_integer_columns_load_exactly(self, tmp_path):
        from motion_forge.curriculum import load_records

        path = tmp_path / "records.jsonl"
        path.write_text('{"file_id":"a","level":1,"attempts":9007199254740993,'
                        '"frozen_until":3.602879701896397e16}\n')
        back = load_records(path)
        assert back.attempts.tolist() == [2**53 + 1] and back.frozen_until.tolist() == [2**55]

    def test_round_trip_keeps_integers_past_2_53_exact(self, tmp_path):
        from motion_forge.curriculum import load_records, save_records

        path = tmp_path / "records.jsonl"
        st = state(["a", "b"], attempts=[2**53 + 1, 3], frozen_until=[0, 2**63 - 1])
        save_records(st, path)
        back = load_records(path)
        assert back.attempts.tolist() == [2**53 + 1, 3]
        assert back.frozen_until.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("line", [
        '{"file_id": "a", "level": 1, "recent_errors": [0.1]}',
        '{"file_id": "a", "level": 1, "freeze_state": "thawed"}',
        '{"level": 1}',
        '[1, 2]',
    ])
    def test_bad_record_rejected(self, tmp_path, line):
        from motion_forge.curriculum import load_records

        path = tmp_path / "records.jsonl"
        path.write_text('{"file_id": "z", "level": 2}\n' + line + "\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_records(path)
