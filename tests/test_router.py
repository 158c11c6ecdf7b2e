import dataclasses
import json

import numpy as np
import pytest

from motion_forge.errors import ConfigError, DimensionMismatchError, NonFiniteError
from motion_forge.kernels import clone_mlp, init_mlp, mlp_forward
from motion_forge.router import (
    RouterConfig,
    add_expert,
    candidate_weights,
    gate_logits,
    hard_bias_route,
    load_balance_loss,
    make_random_pool,
    make_router,
    mixture_action,
    pool_from_dict,
    pool_to_dict,
    refresh_candidates,
    route_ce_loss,
    routing_entropy,
    top_gap,
    top_k_indices,
    unlock_next_expert,
)

Z_DIM = 8
OBS_DIM = 6
ACT_DIM = 4


def small_pool(rng, n=4, unlocked=None):
    return make_random_pool(rng, n, OBS_DIM, (10,), ACT_DIM, capacity=12,
                            unlocked_count=unlocked)


def step(state, pool, z):
    logits = gate_logits(z, state, pool)
    refresh_candidates(state, logits)
    return logits


class TestMlp:
    def test_zero_weights_zero_output(self):
        params = [(np.zeros((5, 3)), np.zeros(5)), (np.zeros((2, 5)), np.zeros(2))]
        assert np.array_equal(mlp_forward(params, np.ones(3)), np.zeros(2))

    def test_single_identity_layer(self):
        params = [(np.eye(4), np.zeros(4))]
        x = np.array([0.3, -0.2, 1.0, 0.0])
        assert np.array_equal(mlp_forward(params, x), x)

    def test_matches_independent_evaluation(self):
        # duplicate-implementation oracle with explicit loops
        rng = np.random.default_rng(0)
        params = init_mlp(rng, 3, (5, 4), 2)
        x = rng.standard_normal(3)

        def elu_scalar(v):
            return v if v > 0 else np.exp(v) - 1.0

        h = x
        for li, (w, b) in enumerate(params):
            out = np.empty(w.shape[0])
            for i in range(w.shape[0]):
                acc = b[i]
                for j in range(w.shape[1]):
                    acc += w[i, j] * h[j]
                out[i] = acc
            if li < len(params) - 1:
                out = np.array([elu_scalar(v) for v in out])
            h = out
        assert np.allclose(mlp_forward(params, x), h, atol=1e-12)

    def test_broadcasts_over_batch(self):
        rng = np.random.default_rng(1)
        params = init_mlp(rng, 3, (5,), 2)
        xs = rng.standard_normal((7, 3))
        batched = mlp_forward(params, xs)
        assert batched.shape == (7, 2)
        assert np.allclose(batched[2], mlp_forward(params, xs[2]))

    def test_no_layers_is_a_config_error(self):
        # an MLP without layers would hand back its input, which the
        # in-place mixture would then scale
        with pytest.raises(ConfigError, match="at least one layer"):
            mlp_forward([], np.ones(3))


class TestGate:
    def test_zero_gate_uniform_routing(self):
        rng = np.random.default_rng(2)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM, zero_gate=True,
                            config=RouterConfig(top_k=4))
        step(state, pool, rng.standard_normal(Z_DIM))
        weights = candidate_weights(state, pool)
        assert np.allclose(weights, 0.25)

    def test_locked_expert_zero_probability(self):
        rng = np.random.default_rng(3)
        pool = small_pool(rng, n=4, unlocked=2)
        state = make_router(rng, pool.capacity, Z_DIM, config=RouterConfig(top_k=4))
        logits = step(state, pool, rng.standard_normal(Z_DIM))
        assert np.all(np.isinf(logits[2:]))
        weights = candidate_weights(state, pool)
        assert weights[2] == 0.0 and weights[3] == 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_latent_is_a_typed_error(self, bad):
        rng = np.random.default_rng(4)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM)
        z = rng.standard_normal(Z_DIM)
        z[5] = bad
        with pytest.raises(NonFiniteError, match="latent"):
            gate_logits(z, state, pool)

    @pytest.mark.parametrize("width", [5, 9])
    def test_latent_narrower_or_wider_than_the_gate_is_a_typed_error(self, width):
        rng = np.random.default_rng(4)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM)
        with pytest.raises(DimensionMismatchError, match="latent"):
            gate_logits(rng.standard_normal(width), state, pool)

    def test_pool_wider_than_the_gate_is_a_config_error(self):
        # a 4-row gate would give 5 experts only 4 logits
        rng = np.random.default_rng(4)
        pool = small_pool(rng, n=5)
        state = make_router(rng, 4, Z_DIM)
        with pytest.raises(ConfigError, match="gate has 4 rows"):
            gate_logits(rng.standard_normal(Z_DIM), state, pool)

    def test_ema_coeff_one_gives_raw(self):
        rng = np.random.default_rng(4)
        pool = small_pool(rng)
        cfg = RouterConfig(ema_coeff=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        z = rng.standard_normal(Z_DIM)
        raw = state.gate_w[:4] @ z + state.gate_b[:4]
        step(state, pool, rng.standard_normal(Z_DIM))  # seed the EMA
        logits = gate_logits(z, state, pool)
        assert np.allclose(logits, raw, atol=1e-12)

    def test_ema_smooths_between_steps(self):
        rng = np.random.default_rng(5)
        pool = small_pool(rng)
        cfg = RouterConfig(ema_coeff=0.5)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        z1, z2 = rng.standard_normal(Z_DIM), rng.standard_normal(Z_DIM)
        l1 = step(state, pool, z1)
        raw2 = state.gate_w[:4] @ z2 + state.gate_b[:4]
        l2 = gate_logits(z2, state, pool)
        assert np.allclose(l2, 0.5 * raw2 + 0.5 * l1, atol=1e-12)

    def test_shift_invariance_of_routing(self):
        rng = np.random.default_rng(6)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM,
                            config=RouterConfig(ema_coeff=1.0))
        z = rng.standard_normal(Z_DIM)
        logits = step(state, pool, z)
        base = top_k_indices(logits, 2)
        shifted = top_k_indices(logits + 7.3, 2)
        assert base == shifted
        w1 = candidate_weights(state, pool)
        state.logits_ema = state.logits_ema + 7.3
        w2 = candidate_weights(state, pool)
        assert np.allclose(w1, w2, atol=1e-12)


class TestRefresh:
    def test_refresh_every_step_when_period_one(self):
        rng = np.random.default_rng(7)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM,
                            config=RouterConfig(refresh_period=1, ema_coeff=1.0))
        seen = []
        for _ in range(5):
            step(state, pool, rng.standard_normal(Z_DIM))
            seen.append(tuple(state.candidates))
        assert len(set(seen)) > 1  # candidates track the logits

    def test_candidates_frozen_between_refreshes(self):
        rng = np.random.default_rng(8)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM,
                            config=RouterConfig(refresh_period=5, ema_coeff=1.0))
        step(state, pool, rng.standard_normal(Z_DIM))
        first = list(state.candidates)
        for _ in range(4):
            step(state, pool, rng.standard_normal(Z_DIM))
            assert state.candidates == first
        # the 6th step is the first one with 5 elapsed steps: it refreshes
        step(state, pool, rng.standard_normal(Z_DIM))
        assert state.steps_since_refresh == 1

    def test_tie_break_prefers_lower_index(self):
        logits = np.array([1.0, 2.0, 2.0, 0.5])
        assert top_k_indices(logits, 2) == [1, 2]
        logits = np.array([2.0, 2.0, 2.0])
        assert top_k_indices(logits, 2) == [0, 1]


class TestMixture:
    def test_k1_equals_single_expert(self):
        rng = np.random.default_rng(9)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM, config=RouterConfig(top_k=1))
        obs = rng.standard_normal(OBS_DIM)
        step(state, pool, rng.standard_normal(Z_DIM))
        action, weights = mixture_action(obs, state, pool)
        expert = int(np.argmax(weights))
        assert weights[expert] == 1.0
        assert np.max(np.abs(action - pool.forward(expert, obs))) < 1e-12

    def test_identical_experts_ignore_weights(self):
        rng = np.random.default_rng(10)
        pool = small_pool(rng)
        pool.experts = [clone_mlp(pool.experts[0]) for _ in range(4)]
        state = make_router(rng, pool.capacity, Z_DIM, config=RouterConfig(top_k=3))
        obs = rng.standard_normal(OBS_DIM)
        step(state, pool, rng.standard_normal(Z_DIM))
        action, _ = mixture_action(obs, state, pool)
        assert np.allclose(action, pool.forward(0, obs), atol=1e-12)

    def test_low_temperature_approaches_argmax(self):
        rng = np.random.default_rng(11)
        pool = small_pool(rng)
        cfg = RouterConfig(top_k=2, temperature=1e-6, ema_coeff=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        obs = rng.standard_normal(OBS_DIM)
        logits = step(state, pool, rng.standard_normal(Z_DIM))
        action, _ = mixture_action(obs, state, pool)
        best = int(np.argmax(logits))
        assert np.max(np.abs(action - pool.forward(best, obs))) < 1e-6

    def test_weights_on_simplex_supported_on_candidates(self):
        rng = np.random.default_rng(12)
        pool = small_pool(rng)
        state = make_router(rng, pool.capacity, Z_DIM, config=RouterConfig(top_k=2))
        for _ in range(20):
            step(state, pool, rng.standard_normal(Z_DIM))
            w = candidate_weights(state, pool)
            assert np.all(w >= 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert set(np.flatnonzero(w)) <= set(state.candidates)


class TestHardBias:
    def test_rho_one_always_hard_routes(self):
        rng = np.random.default_rng(13)
        pool = small_pool(rng, n=3, unlocked=3)
        cfg = RouterConfig(rho_hard=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        obs = rng.standard_normal(OBS_DIM)
        step(state, pool, rng.standard_normal(Z_DIM))
        for _ in range(10):
            action, weights, hard = hard_bias_route(obs, 3, 3, rng, state, pool)
            assert hard
            assert weights[2] == 1.0
            assert np.allclose(action, pool.forward(2, obs))

    def test_lower_level_never_bypasses(self):
        rng = np.random.default_rng(14)
        pool = small_pool(rng, n=3, unlocked=3)
        cfg = RouterConfig(rho_hard=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        obs = rng.standard_normal(OBS_DIM)
        step(state, pool, rng.standard_normal(Z_DIM))
        for level in (1, 2):
            _, _, hard = hard_bias_route(obs, level, 3, rng, state, pool)
            assert not hard

    def test_monte_carlo_bypass_rate(self):
        rng = np.random.default_rng(15)
        pool = small_pool(rng, n=2, unlocked=2)
        state = make_router(rng, pool.capacity, Z_DIM)
        obs = np.zeros(OBS_DIM)
        step(state, pool, rng.standard_normal(Z_DIM))
        n = 100_000
        hits = sum(
            hard_bias_route(obs, 2, 2, rng, state, pool)[2] for _ in range(n)
        )
        assert hits / n == pytest.approx(0.8, abs=0.01)

    @pytest.mark.parametrize("l_max", [0, 3, 9])
    def test_l_max_must_be_an_unlocked_level(self, l_max):
        # with 2 of 3 experts unlocked, l_max=3 would hard-route to locked
        # expert 2 and l_max=9 index past the pool
        rng = np.random.default_rng(16)
        pool = small_pool(rng, n=3, unlocked=2)
        state = make_router(rng, pool.capacity, Z_DIM)
        step(state, pool, rng.standard_normal(Z_DIM))
        for seed in range(5):
            with pytest.raises(ConfigError, match="l_max"):
                hard_bias_route(np.zeros(OBS_DIM), l_max, l_max,
                                np.random.default_rng(seed), state, pool)


class TestLosses:
    def test_ce_loss_uniform_logits(self):
        k = 5
        loss = route_ce_loss(np.zeros(k), 1, ce_weight=1.0)
        assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_ce_loss_hand_value(self):
        logits = np.array([2.0, 0.0, 0.0, 0.0])
        expected = np.log(np.exp(2.0) + 3.0) - 2.0
        assert route_ce_loss(logits, 1, ce_weight=1.0) == pytest.approx(expected, abs=1e-12)
        assert route_ce_loss(logits, 1, ce_weight=0.05) == pytest.approx(0.05 * expected)

    def test_ce_loss_vanishes_with_margin(self):
        logits = np.array([50.0, 0.0, 0.0])
        assert route_ce_loss(logits, 1, ce_weight=1.0) < 1e-20

    def test_ce_loss_rejects_locked_level(self):
        logits = np.array([0.0, 0.0, -np.inf])
        with pytest.raises(ConfigError):
            route_ce_loss(logits, 3)
        with pytest.raises(ConfigError):
            route_ce_loss(logits, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ce_loss_rejects_nan_and_positive_inf(self, bad):
        # a NaN must not drop out of the partition sum like a locked -inf
        with pytest.raises(NonFiniteError):
            route_ce_loss(np.array([0.2, bad, -np.inf]), 1)

    def test_ce_loss_keeps_locked_experts_negative_inf(self):
        assert route_ce_loss(np.array([0.0, 0.0, -np.inf]), 1, ce_weight=1.0) == \
            pytest.approx(np.log(2.0), abs=1e-12)

    def test_load_balance_uniform_and_collapse(self):
        k = 6
        uniform = np.full((100, k), 1.0 / k)
        assert load_balance_loss(uniform) == pytest.approx(1.0, abs=1e-12)
        collapse = np.zeros((100, k))
        collapse[:, 2] = 1.0
        assert load_balance_loss(collapse) == pytest.approx(float(k), abs=1e-12)

    def test_uniform_minimizes_over_one_hot_mixtures(self):
        # brute force over frequency vectors q on a simplex grid (K = 3):
        # histories of one-hot routings with frequencies q score K * sum q^2
        k, steps = 3, 12
        best, best_q = None, None
        for a in range(steps + 1):
            for b in range(steps + 1 - a):
                c = steps - a - b
                q = np.array([a, b, c]) / steps
                rows = np.repeat(np.eye(k), (a, b, c), axis=0)
                loss = load_balance_loss(rows)
                assert loss == pytest.approx(k * np.sum(q**2), abs=1e-12)
                if best is None or loss < best:
                    best, best_q = loss, q
        assert np.allclose(best_q, 1.0 / k)
        assert best == pytest.approx(1.0, abs=1e-12)

    def test_nan_history_is_a_typed_error(self):
        with pytest.raises(NonFiniteError, match="weight history"):
            load_balance_loss(np.array([[np.nan, 1.0]]))

    def test_empty_history_raises(self):
        with pytest.raises(ConfigError):
            load_balance_loss(np.zeros((0, 4)))


class TestDiagnosticsAndGrowth:
    def test_entropy_and_gap_extremes(self):
        k = 8
        uniform = np.full(k, 1.0 / k)
        assert routing_entropy(uniform) == pytest.approx(np.log(k), abs=1e-12)
        assert top_gap(uniform) == pytest.approx(0.0, abs=1e-12)
        one_hot = np.zeros(k)
        one_hot[3] = 1.0
        assert routing_entropy(one_hot) == 0.0
        assert top_gap(one_hot) == 1.0

    @pytest.mark.parametrize("measure", [routing_entropy, top_gap])
    def test_nan_weights_are_a_typed_error(self, measure):
        with pytest.raises(NonFiniteError, match="routing weights"):
            measure(np.array([np.nan, 1.0]))

    def test_top_gap_of_no_weights_is_a_config_error(self):
        with pytest.raises(ConfigError, match="at least one weight"):
            top_gap(np.array([]))

    def test_promotion_clones_predecessor(self):
        rng = np.random.default_rng(16)
        pool = small_pool(rng, n=1, unlocked=1)
        for _ in range(9):
            unlock_next_expert(pool)
        assert pool.num_experts == 10
        assert pool.unlocked_count == 10
        for w_new, w_prev in zip(pool.experts[-1], pool.experts[-2]):
            assert np.array_equal(w_new[0], w_prev[0])
            assert np.array_equal(w_new[1], w_prev[1])
        # clones are independent copies
        pool.experts[-1][0][0][0, 0] += 1.0
        assert pool.experts[-1][0][0][0, 0] != pool.experts[-2][0][0][0, 0]

    def test_add_expert_cold_start_cap(self):
        rng = np.random.default_rng(17)
        pool = small_pool(rng, n=3, unlocked=3)
        cfg = RouterConfig(top_k=2, cold_start_cap=0.1, cold_start_steps=50,
                           ema_coeff=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        new_idx = add_expert(pool, state)
        assert new_idx == 3
        assert pool.lr_multipliers[-1] == cfg.new_expert_lr_multiplier
        assert pool.lr_multipliers[0] == cfg.old_expert_lr_multiplier
        # force logits that strongly favor the new expert
        for _ in range(10):
            logits = np.array([0.0, -1.0, -1.0, 10.0])
            refresh_candidates(state, logits)
            w = candidate_weights(state, pool)
            assert w[new_idx] <= 0.1 + 1e-12
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cold_start_budget_elapses(self):
        rng = np.random.default_rng(18)
        pool = small_pool(rng, n=2, unlocked=2)
        cfg = RouterConfig(top_k=2, cold_start_cap=0.1, cold_start_steps=3,
                           ema_coeff=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        new_idx = add_expert(pool, state)
        logits = np.array([0.0, -1.0, 10.0])
        for _ in range(3):
            refresh_candidates(state, logits)
            assert candidate_weights(state, pool)[new_idx] <= 0.1 + 1e-12
        refresh_candidates(state, logits)
        assert candidate_weights(state, pool)[new_idx] > 0.9

    def test_saturated_cold_expert_weights_stay_on_simplex(self):
        # the cold expert's softmax rounds to exactly 1.0, so 1 - w_cold is 0
        rng = np.random.default_rng(22)
        pool = small_pool(rng, n=2, unlocked=2)
        cfg = RouterConfig(top_k=3, cold_start_cap=0.1, cold_start_steps=50,
                           ema_coeff=1.0)
        state = make_router(rng, pool.capacity, Z_DIM, config=cfg)
        cold = add_expert(pool, state)
        assert cold == 2
        refresh_candidates(state, np.array([-1e4, -1e4, 0.0]))
        w = candidate_weights(state, pool)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[cold] == 0.1
        assert w[0] == w[1] == pytest.approx(0.45, abs=1e-12)

    def test_growth_clones_into_the_first_locked_slot(self):
        def half_locked_pool():
            return make_random_pool(np.random.default_rng(23), 4, 3, (4,), 2, capacity=8,
                                    unlocked_count=2)

        pool = half_locked_pool()
        assert unlock_next_expert(pool) == 2
        assert (pool.num_experts, pool.unlocked_count) == (4, 3)
        for (w_new, b_new), (w_src, b_src) in zip(pool.experts[2], pool.experts[1]):
            assert np.array_equal(w_new, w_src) and np.array_equal(b_new, b_src)
            assert w_new is not w_src and b_new is not b_src
        pool = half_locked_pool()
        state = make_router(np.random.default_rng(0), pool.capacity, Z_DIM)
        assert add_expert(pool, state) == 2 and state.cold_expert == 2
        assert pool.lr_multipliers == [0.5, 0.5, 2.0, 0.5]

    def test_full_pool_with_locked_slots_still_unlocks(self):
        rng = np.random.default_rng(24)
        pool = make_random_pool(rng, 4, 3, (4,), 2, capacity=4, unlocked_count=2)
        assert [unlock_next_expert(pool), unlock_next_expert(pool)] == [2, 3]
        assert pool.num_experts == pool.unlocked_count == 4
        with pytest.raises(ConfigError, match="at capacity"):
            unlock_next_expert(pool)

    def test_pool_capacity_guard(self):
        rng = np.random.default_rng(19)
        pool = make_random_pool(rng, 2, OBS_DIM, (4,), ACT_DIM, capacity=2)
        state = make_router(rng, pool.capacity, Z_DIM)
        with pytest.raises(ConfigError):
            add_expert(pool, state)
        with pytest.raises(ConfigError):
            unlock_next_expert(pool)


def test_pool_json_round_trip():
    rng = np.random.default_rng(20)
    pool = make_random_pool(rng, 3, OBS_DIM, (5, 4), ACT_DIM, capacity=8)
    data = json.loads(json.dumps(pool_to_dict(pool)))
    back = pool_from_dict(data)
    assert back.num_experts == 3
    obs = rng.standard_normal(OBS_DIM)
    for i in range(3):
        assert np.array_equal(back.forward(i, obs), pool.forward(i, obs))


@pytest.mark.parametrize("change, pattern", [
    (dict(unlocked_count=0), "unlocked_count 0 is not in 1..3"),
    (dict(unlocked_count=4), "unlocked_count 4 is not in 1..3"),
    (dict(lr_multipliers=[1.0, 1.0]), "2 lr_multipliers for 3 experts"),
    (dict(capacity=2), "more experts than capacity"),
    (dict(hidden=(5, 3)), "do not chain"),
    (dict(experts=[]), "at least one expert"),
], ids=["no_unlocked", "unlocked_above_experts", "lr_length", "over_capacity", "chain",
        "empty"])
def test_pool_constructor_checks_every_invariant(change, pattern):
    pool = make_random_pool(np.random.default_rng(25), 3, OBS_DIM, (5, 4), ACT_DIM)
    with pytest.raises(ConfigError, match=pattern):
        dataclasses.replace(pool, **change)


def test_pool_constructor_fills_empty_lr_multipliers():
    pool = make_random_pool(np.random.default_rng(26), 3, OBS_DIM, (5, 4), ACT_DIM)
    assert dataclasses.replace(pool, lr_multipliers=[]).lr_multipliers == [1.0] * 3


@pytest.mark.parametrize("zero_gate", [False, True])
def test_unallocatable_gate_is_a_config_error(zero_gate):
    # numpy refuses the (1e300, latent) shape before it draws or allocates
    with pytest.raises(ConfigError, match="capacity 1000000"):
        make_router(np.random.default_rng(0), int(1e300), Z_DIM, zero_gate=zero_gate)


@pytest.mark.parametrize("key, value, pattern", [
    ("capacity", 1e300, "expert pool: 'capacity' holds an integer outside int64"),
    # numpy refuses the (2**62, latent) shape before it draws or allocates
    ("capacity", 2**62, r"capacity 4611686018427387904: a \(4611686018427387904, 8\) gate "
                        "cannot be allocated"),
    ("capacity", float("inf"), "expert pool: 'capacity': cannot convert float infinity"),
    ("input_dim", float("inf"), "expert pool: 'input_dim': cannot convert float infinity"),
    ("typo", 1, r"expert pool: unknown keys \['typo'\]"),
], ids=["huge_capacity", "unallocatable_capacity", "inf_capacity", "inf_input_dim",
        "unknown_key"])
def test_pool_document_errors_are_config_errors(key, value, pattern):
    data = pool_to_dict(make_random_pool(np.random.default_rng(27), 2, OBS_DIM, (4,), ACT_DIM))
    data[key] = value
    with pytest.raises(ConfigError, match=pattern):
        make_router(np.random.default_rng(0), pool_from_dict(data).capacity, Z_DIM)


def test_pool_layer_without_bias_is_a_config_error():
    data = pool_to_dict(make_random_pool(np.random.default_rng(27), 2, OBS_DIM, (4,), ACT_DIM))
    del data["experts"][1]["layers"][0]["b"]
    with pytest.raises(ConfigError, match="expert 1 layer 0: missing required field 'b'"):
        pool_from_dict(data)


def test_unlocking_expert_recovers_finite_logits():
    # an expert unlocked mid-stream must not inherit its -inf masked history
    rng = np.random.default_rng(21)
    pool = small_pool(rng, n=3, unlocked=2)
    state = make_router(rng, pool.capacity, Z_DIM,
                        config=RouterConfig(ema_coeff=0.5, top_k=3, refresh_period=1))
    z = rng.standard_normal(Z_DIM)
    step(state, pool, z)
    assert np.isinf(state.logits_ema[2])
    pool.unlocked_count = 3
    logits = step(state, pool, z)
    assert np.isfinite(logits[2])
    weights = candidate_weights(state, pool)
    assert weights[2] > 0.0
