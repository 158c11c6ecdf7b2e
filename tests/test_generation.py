import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import ffn_apply, make_oracle_denoiser, zero_denoiser
from motion_forge import generation
from motion_forge.errors import ConfigError, DimensionMismatchError, NonFiniteError
from motion_forge.generation import (
    AsfoConfig,
    DiffusionSchedule,
    TPMoEParams,
    PlanEntry,
    TagCatalog,
    add_noise,
    asfo_multipliers,
    attention_pool_summary,
    build_epoch_plan,
    cfg_combine,
    cfg_negative,
    ddpm_sample,
    diffusion_loss,
    generator_balance_loss,
    init_attention_pool,
    init_tpmoe,
    make_schedule,
    mirror_probability,
    mix_expert_params,
    sample_multipliers,
    spatial_mask,
    swap_side_tags,
    tpmoe_apply,
    tpmoe_gate,
)
from motion_forge.kernels import gelu, silu


def small_tpmoe(rng, num_experts=4):
    return init_tpmoe(rng, token_dim=10, model_dim=6, ffn_hidden=9,
                      num_experts=num_experts, gate_hidden=7)


# The batched TP-MoE path sums in a different order than a per-token loop
# (BLAS contractions instead of a Python sum over experts), so it is compared
# with per-token references at this absolute tolerance, not bit for bit.
BATCHED_ATOL = 1e-12


def sum_mix(weights, params):
    """Reference parameter mix: a Python sum over the experts, one token."""
    return tuple(
        (sum(wt * params.experts[k][layer][0] for k, wt in enumerate(weights)),
         sum(wt * params.experts[k][layer][1] for k, wt in enumerate(weights)))
        for layer in range(2)
    )


class TestGate:
    def test_zero_gate_uniform(self):
        rng = np.random.default_rng(0)
        params = small_tpmoe(rng)
        params.gate_layers = [(np.zeros_like(w), np.zeros_like(b))
                              for w, b in params.gate_layers]
        w = tpmoe_gate(np.ones(10), params)
        assert np.allclose(w, 0.25)

    def test_simplex(self):
        rng = np.random.default_rng(1)
        params = small_tpmoe(rng)
        for _ in range(50):
            w = tpmoe_gate(rng.standard_normal(10), params)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0.0)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(2)
        params = small_tpmoe(rng)
        c = rng.standard_normal(10)

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        x = c.copy()
        for i, (w, b) in enumerate(params.gate_layers):
            x = w @ x + b
            if i < len(params.gate_layers) - 1:
                x = x * sigmoid(x)
        ref = np.exp(x - x.max())
        ref /= ref.sum()
        assert np.allclose(tpmoe_gate(c, params), ref, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embedding_is_a_typed_error(self, bad):
        params = small_tpmoe(np.random.default_rng(2))
        token = np.ones(10)
        token[3] = bad
        with pytest.raises(NonFiniteError, match="token embedding"):
            tpmoe_gate(token, params)

    @pytest.mark.parametrize("shape", [(9,), (3, 11)])
    def test_embedding_of_the_wrong_width_is_a_dimension_error(self, shape):
        params = small_tpmoe(np.random.default_rng(2))
        with pytest.raises(DimensionMismatchError, match="layer 0"):
            tpmoe_gate(np.ones(shape), params)


class TestParameterMixing:
    def test_one_hot_reproduces_expert_bit_exact(self):
        rng = np.random.default_rng(3)
        params = small_tpmoe(rng)
        weights = np.array([0.0, 0.0, 1.0, 0.0])
        mixed = mix_expert_params(weights, params)
        for layer in range(2):
            assert np.array_equal(mixed[layer][0], params.experts[2][layer][0])
            assert np.array_equal(mixed[layer][1], params.experts[2][layer][1])

    def test_identical_experts_unchanged(self):
        rng = np.random.default_rng(4)
        params = small_tpmoe(rng)
        params = dataclasses.replace(params, **{name: np.repeat(getattr(params, name)[:1], 4, 0)
                                                for name in ("w1", "b1", "w2", "b2")})
        mixed = mix_expert_params(np.full(4, 0.25), params)
        x = rng.standard_normal((3, 6))
        assert np.allclose(ffn_apply(mixed, x), ffn_apply(params.experts[0], x), atol=1e-12)

    def test_batched_mix_matches_single_token_mixes(self):
        rng = np.random.default_rng(30)
        params = small_tpmoe(rng, num_experts=6)
        routing = rng.dirichlet(np.ones(6), size=5)
        batched = mix_expert_params(routing, params)
        assert batched[0][0].shape == (5, 9, 6) and batched[1][1].shape == (5, 6)
        for n in range(5):
            single = mix_expert_params(routing[n], params)
            reference = sum_mix(routing[n], params)
            for layer in range(2):
                for t in range(2):
                    assert np.allclose(batched[layer][t][n], single[layer][t],
                                       rtol=0.0, atol=BATCHED_ATOL)
                    assert np.allclose(single[layer][t], reference[layer][t],
                                       rtol=0.0, atol=BATCHED_ATOL)

    def test_weight_shape_checked(self):
        params = small_tpmoe(np.random.default_rng(31))
        for bad in (np.ones(3), np.ones((2, 5)), np.ones((2, 2, 4))):
            with pytest.raises(DimensionMismatchError):
                mix_expert_params(bad, params)

    def test_parameter_vs_output_mixing_differ_on_nonlinear(self):
        # for a single linear layer the two coincide; through the GELU they
        # must not, which is what distinguishes parameter-space mixing
        rng = np.random.default_rng(5)
        params = small_tpmoe(rng, num_experts=2)
        w = np.array([0.5, 0.5])
        mixed = mix_expert_params(w, params)
        x = rng.standard_normal((4, 6))
        param_mix = ffn_apply(mixed, x)
        out_mix = 0.5 * ffn_apply(params.experts[0], x) + 0.5 * ffn_apply(params.experts[1], x)
        assert not np.allclose(param_mix, out_mix, atol=1e-6)
        # linear probe: first layer pre-activation mixes exactly
        pre_mixed = x @ mixed[0][0].T + mixed[0][1]
        pre_avg = 0.5 * (x @ params.experts[0][0][0].T + params.experts[0][0][1]) \
            + 0.5 * (x @ params.experts[1][0][0].T + params.experts[1][0][1])
        assert np.allclose(pre_mixed, pre_avg, atol=1e-12)


class TestExpertStack:
    def test_experts_are_views_of_the_stack(self):
        params = small_tpmoe(np.random.default_rng(32))
        assert params.w1.shape == (4, 9, 6) and params.b1.shape == (4, 9)
        assert params.w2.shape == (4, 6, 9) and params.b2.shape == (4, 6)
        stack = (params.w1, params.b1, params.w2, params.b2)
        for k, ((w1, b1), (w2, b2)) in enumerate(params.experts):
            for view, full in zip((w1, b1, w2, b2), stack):
                assert view.base is full
                assert np.array_equal(view, full[k])
        params.experts[2][1][0][0, 0] = 7.0
        assert params.w2[2, 0, 0] == 7.0

    def test_empty_or_mismatched_experts_rejected(self):
        params = small_tpmoe(np.random.default_rng(34))
        with pytest.raises(ConfigError, match="at least one expert"):
            dataclasses.replace(params, w1=params.w1[:0], b1=params.b1[:0], w2=params.w2[:0],
                                b2=params.b2[:0])
        with pytest.raises(ConfigError, match="shapes disagree"):
            dataclasses.replace(params, b2=params.b2[:, :5])

    def test_seeded_init_draws_per_expert_w1_then_w2(self):
        params = init_tpmoe(np.random.default_rng(35), token_dim=10, model_dim=6,
                            ffn_hidden=9, num_experts=3, gate_hidden=7)
        rng = np.random.default_rng(35)
        for k in range(3):
            assert np.array_equal(params.w1[k], rng.normal(0.0, 0.3 / np.sqrt(6), (9, 6)))
            assert np.array_equal(params.w2[k], rng.normal(0.0, 0.3 / np.sqrt(9), (6, 9)))
        assert not params.b1.any() and not params.b2.any()


class TestSpatialMask:
    def test_hand_values_at_stock_constants(self):
        attention = np.array([[0.5], [0.0]])
        mask = spatial_mask(attention, gamma=24.0, beta=0.25)
        assert mask[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-9.0)), abs=1e-6)
        assert mask[1, 0] == pytest.approx(1.0 / (1.0 + np.exp(3.0)), abs=1e-6)
        assert mask[0, 0] == pytest.approx(0.99988, abs=1e-5)
        assert mask[1, 0] == pytest.approx(0.04743, abs=1e-5)

    def test_open_interval_and_monotone(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.0, 1.0, (8, 5))
        mask = spatial_mask(a)
        assert np.all(mask > 0.0) and np.all(mask < 1.0)
        bumped = a.copy()
        bumped[3, 2] = min(1.0, a[3, 2] + 0.05)
        # raising a non-peak entry raises its mask value
        if bumped[3, 2] < a[:, 2].max():
            assert spatial_mask(bumped)[3, 2] > mask[3, 2]

    def test_beta_zero_nonnegative_entries(self):
        a = np.abs(np.random.default_rng(7).standard_normal((4, 3)))
        mask = spatial_mask(a, beta=0.0)
        assert np.all(mask >= 0.5)

    def test_column_peak_above_half(self):
        a = np.random.default_rng(8).uniform(0.0, 1.0, (6, 4))
        mask = spatial_mask(a)
        peaks = mask[a.argmax(axis=0), np.arange(4)]
        assert np.all(peaks >= 0.5)

    def test_far_below_the_peak_is_zero_without_overflow(self):
        # exp(3000) overflows to inf, whose limit 1 / inf = 0.0 is the mask value
        mask = spatial_mask(np.array([[-100.0, 0.5], [100.0, 0.2]]))
        assert mask[0, 0] == 0.0
        assert mask[1, 0] == 1.0
        assert 0.0 < mask[1, 1] < mask[0, 1] < 1.0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_attention_is_a_typed_error(self, bad):
        a = np.random.default_rng(8).uniform(0.0, 1.0, (6, 4))
        a[2, 1] = bad
        with pytest.raises(NonFiniteError, match="attention"):
            spatial_mask(a)


class TestTpmoeApply:
    def test_zero_experts_identity(self):
        rng = np.random.default_rng(9)
        params = small_tpmoe(rng)
        params = dataclasses.replace(params, **{name: np.zeros_like(getattr(params, name))
                                                for name in ("w1", "b1", "w2", "b2")})
        x = rng.standard_normal((5, 6))
        tokens = rng.standard_normal((3, 10))
        attention = rng.uniform(0, 1, (5, 3))
        delta, out, routing = tpmoe_apply(x, tokens, attention, params)
        assert np.allclose(delta, 0.0)
        assert np.array_equal(out, x)
        assert routing.shape == (3, 4)

    def test_single_token_full_mask_matches_expert(self):
        rng = np.random.default_rng(10)
        params = small_tpmoe(rng)
        x = rng.standard_normal((4, 6))
        token = rng.standard_normal((1, 10))
        # uniform attention column: every entry is the column max, so the
        # mask saturates toward sigmoid(gamma (1 - beta) a) ~ 1
        attention = np.full((4, 1), 1.0)
        delta, _, routing = tpmoe_apply(x, token, attention, params)
        mixed = mix_expert_params(routing[0], params)
        assert np.allclose(delta, ffn_apply(mixed, x), atol=1e-7)

    def test_suppressed_token_contributes_nothing(self):
        rng = np.random.default_rng(11)
        params = small_tpmoe(rng)
        x = rng.standard_normal((4, 6))
        tokens = rng.standard_normal((2, 10))
        attention = np.zeros((4, 2))
        attention[:, 0] = 1.0
        attention[:, 1] = [1.0, 0.0, 0.0, 0.0]   # token 1 peaks at frame 0 only
        _, _, routing = tpmoe_apply(x, tokens, attention, params)
        mask = spatial_mask(attention, params.mask_sharpness, params.mask_threshold)
        # away from its peak, token 1's mask is far below its peak value
        assert mask[1, 1] < 0.05 and mask[0, 1] > 0.99

    def test_matches_per_token_reference(self):
        rng = np.random.default_rng(36)
        params = init_tpmoe(rng, token_dim=24, model_dim=16, ffn_hidden=40,
                            num_experts=12, gate_hidden=20)
        params.b1 = rng.standard_normal(params.b1.shape)
        params.b2 = rng.standard_normal(params.b2.shape)
        x = rng.standard_normal((11, 16))
        tokens = rng.standard_normal((5, 24))
        attention = rng.uniform(0.0, 1.0, (11, 5))
        delta, out, routing = tpmoe_apply(x, tokens, attention, params)

        mask = spatial_mask(attention, params.mask_sharpness, params.mask_threshold)
        ref_delta = np.zeros_like(x)
        for i in range(5):
            weights = tpmoe_gate(tokens[i], params)
            assert np.allclose(routing[i], weights, rtol=0.0, atol=BATCHED_ATOL)
            ref_delta += mask[:, i:i + 1] * ffn_apply(sum_mix(weights, params), x)
        assert np.allclose(delta, ref_delta, rtol=0.0, atol=BATCHED_ATOL)
        assert np.allclose(out, x + ref_delta, rtol=0.0, atol=BATCHED_ATOL)
        assert np.abs(delta).max() > 0.1   # the comparison is not between zeros

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(12)
        params = small_tpmoe(rng)
        with pytest.raises(DimensionMismatchError):
            tpmoe_apply(np.zeros((4, 6)), np.zeros((3, 10)), np.zeros((4, 2)), params)

    def test_token_embedding_of_the_wrong_width_raises(self):
        params = small_tpmoe(np.random.default_rng(12))
        with pytest.raises(DimensionMismatchError, match="layer 0: input dim 8"):
            tpmoe_apply(np.zeros((4, 6)), np.zeros((3, 8)), np.zeros((4, 3)), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_motion_features_are_a_typed_error(self, bad):
        params = small_tpmoe(np.random.default_rng(12))
        x = np.zeros((4, 6))
        x[2, 1] = bad
        with pytest.raises(NonFiniteError, match="motion features"):
            tpmoe_apply(x, np.ones((3, 10)), np.full((4, 3), 0.5), params)

    # (frames, tokens, experts, model dim, hidden): the library's default
    # widths, and small odd widths
    STREAM_SHAPES = {
        "default expert widths": (48, 4, 12, 512, 1024),
        "ragged blocks": (7, 3, 5, 133, 293),
        "one token": (9, 1, 4, 125, 129),
        "one expert": (6, 2, 1, 11, 137),
    }

    def stream_case(self, case, rng):
        """(params, x, tokens, attention) at one of the STREAM_SHAPES, with
        nonzero biases."""
        frames, n, k, d, h = self.STREAM_SHAPES[case]
        params = init_tpmoe(rng, token_dim=24, model_dim=d, ffn_hidden=h, num_experts=k,
                            gate_hidden=20)
        params.b1 = rng.standard_normal(params.b1.shape)
        params.b2 = rng.standard_normal(params.b2.shape)
        x = rng.standard_normal((frames, d))
        tokens = rng.standard_normal((n, 24))
        attention = rng.uniform(0.0, 1.0, (frames, n))
        return params, x, tokens, attention

    @pytest.mark.parametrize("case", sorted(STREAM_SHAPES))
    def test_streamed_blocks_match_mixed_experts(self, case):
        params, x, tokens, attention = self.stream_case(case, np.random.default_rng(37))
        delta, out, routing = tpmoe_apply(x, tokens, attention, params)

        assert np.array_equal(routing, tpmoe_gate(tokens, params))
        mask = spatial_mask(attention, params.mask_sharpness, params.mask_threshold)
        ref = (mask.T[:, :, None] * ffn_apply(mix_expert_params(routing, params), x)).sum(0)
        # rtol 1e-12, with an absolute floor at that fraction of the largest
        # entry for entries that cancel to near zero
        np.testing.assert_allclose(delta, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert np.array_equal(out, x + delta)
        assert np.abs(ref).max() > 0.1   # the comparison is not between zeros

    @pytest.mark.parametrize("case", sorted(STREAM_SHAPES))
    def test_sample_calls_match_calls_outside_a_sample(self, case):
        # a CFG pair per step: the prompt, and a one-token negative prompt
        # that fits the mix budget at every shape, even beside a prompt that
        # does not (one expert, two tokens), so each case reads stored mixes
        rng = np.random.default_rng(39)
        params, x, tokens, attention = self.stream_case(case, rng)
        negative, neg_attention = rng.standard_normal((1, 24)), attention[:, :1]
        pair = ((tokens, attention), (negative, neg_attention))
        outside = [tpmoe_apply(x, t, a, params) for t, a in pair]
        stored = []

        def denoiser(noisy, step, condition):
            for (t, a), expected in zip(pair, outside):
                got = tpmoe_apply(x, t, a, params)
                assert all(np.array_equal(g, e) for g, e in zip(got, expected))
            stored.append([mix[0][0].shape[0]
                           for _, _, mix in generation._SAMPLE_MIXES.get().values()])
            return np.zeros_like(noisy)

        ddpm_sample(make_schedule(3), denoiser, None, (4, 2), np.random.default_rng(0))
        expected = []
        for size in (tokens.shape[0], 1):   # stored while they hold at most K experts
            if sum(expected) + size <= params.num_experts:
                expected.append(size)
        assert stored == [expected] * 3 and expected

    def test_sample_stores_each_prompt_as_mix_expert_params_once(self, monkeypatch):
        # a CFG pair within the mix budget (3 + 1 tokens of K = 5) over 3 steps
        rng = np.random.default_rng(43)
        params, x, tokens, attention = self.stream_case("ragged blocks", rng)
        pair = ((tokens, attention), (rng.standard_normal((1, 24)), attention[:, :1]))
        built = []

        def spy(weights, p):
            built.append((weights.tobytes(), mix_expert_params(weights, p)))
            return built[-1][1]

        def flat(mix):
            (w1, b1), (w2, b2) = mix
            return w1, b1, w2, b2

        def denoiser(noisy, step, condition):
            for t, a in pair:
                tpmoe_apply(x, t, a, params)
            stored = [mix for _, _, mix in generation._SAMPLE_MIXES.get().values()]
            assert len(stored) == len(built) == 2
            for mix, (_, output) in zip(stored, built):
                assert all(np.array_equal(s, o) for s, o in zip(flat(mix), flat(output)))
            return np.zeros_like(noisy)

        monkeypatch.setattr(generation, "mix_expert_params", spy)
        ddpm_sample(make_schedule(3), denoiser, None, (4, 2), np.random.default_rng(4))
        assert [key for key, _ in built] == [tpmoe_gate(t, params).tobytes() for t, _ in pair]

    def test_sample_keeps_apart_params_that_share_a_gate(self):
        # equal routings over different expert stacks: each call must read its own mix
        rng = np.random.default_rng(44)
        params, x, tokens, attention = self.stream_case("one token", rng)
        other = TPMoEParams(*(rng.standard_normal(a.shape)
                              for a in (params.w1, params.b1, params.w2, params.b2)),
                            params.gate_layers)
        outside = [tpmoe_apply(x, tokens, attention, p)[0] for p in (params, other)]
        assert not np.array_equal(*outside)

        def denoiser(noisy, step, condition):
            for p, expected in zip((params, other), outside):
                assert tpmoe_apply(x, tokens, attention, p)[0].tobytes() == expected.tobytes()
            assert len(generation._SAMPLE_MIXES.get()) == 2
            return np.zeros_like(noisy)

        ddpm_sample(make_schedule(3), denoiser, None, (4, 2), np.random.default_rng(5))

    def test_sample_scope_closes_on_return_and_on_error(self):
        params = small_tpmoe(np.random.default_rng(40))
        seen = []

        def denoiser(noisy, step, condition):
            tpmoe_apply(np.ones((4, 6)), np.ones((2, 10)), np.full((4, 2), 0.5), params)
            seen.append(len(generation._SAMPLE_MIXES.get()))
            if condition == "fail" and step == 2:
                raise RuntimeError("denoiser failed")
            return np.zeros_like(noisy)

        assert generation._SAMPLE_MIXES.get() is None
        ddpm_sample(make_schedule(3), denoiser, None, (4, 3), np.random.default_rng(1))
        assert generation._SAMPLE_MIXES.get() is None
        with pytest.raises(RuntimeError, match="denoiser failed"):
            ddpm_sample(make_schedule(3), denoiser, "fail", (4, 3), np.random.default_rng(1))
        assert generation._SAMPLE_MIXES.get() is None
        # each sample starts with an empty store: nothing outlives the first
        assert seen == [1, 1, 1, 1, 1]

    def test_prompts_over_the_mix_budget_are_built_per_call(self):
        # K = 4 experts at the default widths: one 4-token prompt fills the
        # budget of K mixed experts, so a second prompt is not stored; each of
        # its calls builds its mix and gives the bytes of a call outside a sample
        rng = np.random.default_rng(41)
        params = init_tpmoe(rng, num_experts=4)
        n, frames = 4, 48
        x = rng.standard_normal((frames, params.w1.shape[2]))
        first, second = rng.standard_normal((2, n, params.gate_layers[0][0].shape[1]))
        attention = rng.uniform(0.0, 1.0, (frames, n))
        mixed_w1_bytes = n * params.w1[0].nbytes
        outside = tpmoe_apply(x, second, attention, params)
        peaks = {}

        def peak_bytes(tokens):
            tracemalloc.start()
            try:
                tpmoe_apply(x, tokens, attention, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def denoiser(noisy, step, condition):
            peaks.setdefault(step, peak_bytes(first))
            got = tpmoe_apply(x, second, attention, params)
            assert all(np.array_equal(g, e) for g, e in zip(got, outside))
            assert [key[0] for key in generation._SAMPLE_MIXES.get()] == [
                tpmoe_gate(first, params).tobytes()]
            return np.zeros_like(noisy)

        ddpm_sample(make_schedule(2), denoiser, None, (3, 2), np.random.default_rng(2))
        stores_first, reads_first = peaks[2], peaks[1]
        assert stores_first > mixed_w1_bytes
        assert reads_first < mixed_w1_bytes / 2

    def test_sample_that_reassigns_the_experts_uses_the_new_ones(self):
        rng = np.random.default_rng(42)
        params, x, tokens, attention = self.stream_case("ragged blocks", rng)
        stack = ("w1", "b1", "w2", "b2")
        new_stack = {name: rng.standard_normal(getattr(params, name).shape) for name in stack}
        old_delta = tpmoe_apply(x, tokens, attention, params)[0]
        new_delta = tpmoe_apply(x, tokens, attention, dataclasses.replace(params, **new_stack))[0]
        deltas = []

        def denoiser(noisy, step, condition):
            if step == 2:
                for name in stack:
                    setattr(params, name, new_stack[name])
            deltas.append(tpmoe_apply(x, tokens, attention, params)[0])
            # mixes of the replaced stack are dropped, the new one is stored
            held = [arrays for _, arrays, _ in generation._SAMPLE_MIXES.get().values()]
            assert [[a is b for a, b in zip(arrays, (params.w1, params.b1, params.w2, params.b2))]
                    for arrays in held] == [[True] * 4]
            return np.zeros_like(noisy)

        ddpm_sample(make_schedule(3), denoiser, None, (4, 2), np.random.default_rng(3))
        assert not np.array_equal(old_delta, new_delta)
        assert [d.tobytes() for d in deltas] == [old_delta.tobytes()] + [new_delta.tobytes()] * 2


class TestBalanceLoss:
    def test_uniform_is_zero(self):
        assert generator_balance_loss(np.full(12, 1.0 / 12)) == 0.0

    def test_collapse_value(self):
        p = np.zeros(12)
        p[0] = 1.0
        assert generator_balance_loss(p) == pytest.approx(11.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = rng.dirichlet(np.ones(12))
            assert generator_balance_loss(p) >= 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_means_are_a_typed_error(self, bad):
        p = np.full(4, 0.25)
        p[1] = bad
        with pytest.raises(NonFiniteError, match="routing means"):
            generator_balance_loss(p)

    @pytest.mark.parametrize("means", [[], np.full((2, 3), 1.0 / 3), 0.5])
    def test_empty_or_non_vector_means_are_a_config_error(self, means):
        with pytest.raises(ConfigError, match="routing means"):
            generator_balance_loss(means)


class TestAttentionPool:
    def test_single_token_attention_weight_one(self):
        rng = np.random.default_rng(14)
        params = init_attention_pool(rng, token_dim=8, model_dim=5, num_heads=2)
        token = rng.standard_normal((1, 8))
        summary, memory = attention_pool_summary(token, params)
        # with one token the context is exactly w_o @ w_v @ token
        expected = (token[0] @ params.w_v.T) @ params.w_o.T
        assert np.allclose(summary, expected, atol=1e-12)
        assert memory.shape == (2, 5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        params = init_attention_pool(rng, token_dim=8, model_dim=5, num_heads=4)
        tokens = rng.standard_normal((6, 8))
        s1, _ = attention_pool_summary(tokens, params)
        perm = rng.permutation(6)
        s2, _ = attention_pool_summary(tokens[perm], params)
        assert np.allclose(s1, s2, atol=1e-10)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(16)
        d, heads = 12, 3
        params = init_attention_pool(rng, token_dim=d, model_dim=7, num_heads=heads)
        tokens = rng.standard_normal((5, d))
        summary, memory = attention_pool_summary(tokens, params)

        # independent reference: dense per-head computation
        dh = d // heads
        ref_ctx = np.zeros(d)
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            q = params.query[sl]
            scores = np.array([
                np.dot(params.w_k[sl] @ tokens[i] if False else (tokens[i] @ params.w_k.T)[sl], q)
                for i in range(5)
            ]) / np.sqrt(dh)
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            for i in range(5):
                ref_ctx[sl] += alpha[i] * (tokens[i] @ params.w_v.T)[sl]
        ref_summary = params.w_o @ ref_ctx
        assert np.allclose(summary, ref_summary, atol=1e-10)
        ref_memory = np.vstack([ref_summary, tokens]) @ params.w_mem.T
        assert np.allclose(memory, ref_memory, atol=1e-10)

    def test_empty_tokens_rejected(self):
        rng = np.random.default_rng(17)
        params = init_attention_pool(rng, token_dim=8, model_dim=5, num_heads=2)
        with pytest.raises(DimensionMismatchError):
            attention_pool_summary(np.zeros((0, 8)), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tokens_rejected(self, bad):
        rng = np.random.default_rng(17)
        params = init_attention_pool(rng, token_dim=8, model_dim=5, num_heads=2)
        tokens = rng.standard_normal((3, 8))
        tokens[1, 4] = bad
        with pytest.raises(NonFiniteError, match="attention pool tokens"):
            attention_pool_summary(tokens, params)


class TestDiffusion:
    def test_loss_zero_with_oracle(self):
        rng = np.random.default_rng(18)
        target = rng.standard_normal((6, 10))
        schedule = make_schedule(10)
        noisy = add_noise(target, 5, schedule, rng)
        loss = diffusion_loss(target, noisy, 5, None, make_oracle_denoiser(target))
        assert loss == 0.0

    def test_loss_zero_denoiser_is_mean_square(self):
        rng = np.random.default_rng(19)
        clean = rng.standard_normal((4, 8))
        loss = diffusion_loss(clean, clean, 1, None, zero_denoiser)
        assert loss == pytest.approx(float(np.mean(clean**2)), abs=1e-12)

    def test_loss_quadratic_in_residual(self):
        clean = np.ones((3, 5))
        base = diffusion_loss(clean, clean, 1, None, zero_denoiser)
        doubled = diffusion_loss(2 * clean, clean, 1, None, zero_denoiser)
        assert doubled == pytest.approx(4.0 * base, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_loss_rejects_a_non_finite_denoiser_output(self, bad):
        clean = np.ones((3, 5))

        def denoiser(noisy, step, condition):
            return np.full_like(noisy, bad)

        with pytest.raises(NonFiniteError, match="denoiser output at step 4"):
            diffusion_loss(clean, clean, 4, None, denoiser)

    def test_sampling_names_the_step_of_a_non_finite_denoiser_output(self):
        calls = []

        def denoiser(noisy, step, condition):
            calls.append(step)
            pred = np.zeros_like(noisy)
            if step == 7:
                pred[1, 2] = np.nan
            return pred

        with pytest.raises(NonFiniteError, match="denoiser output at step 7 "):
            ddpm_sample(make_schedule(10), denoiser, None, (4, 3), np.random.default_rng(5))
        assert calls == [10, 9, 8, 7]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sampling_rejects_an_all_non_finite_denoiser(self, bad):
        def denoiser(noisy, step, condition):
            return np.full_like(noisy, bad)

        with pytest.raises(NonFiniteError, match="denoiser output at step 5"):
            ddpm_sample(make_schedule(5), denoiser, None, (4, 3), np.random.default_rng(5),
                        prefix=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sampling_rejects_a_non_finite_prefix(self, bad):
        prefix = np.zeros((2, 3))
        prefix[1, 0] = bad
        with pytest.raises(NonFiniteError, match="prefix"):
            ddpm_sample(make_schedule(5), zero_denoiser, None, (4, 3), np.random.default_rng(5),
                        prefix=prefix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_loss_rejects_a_non_finite_clean_window(self, bad):
        clean = np.ones((3, 5))
        clean[2, 4] = bad
        with pytest.raises(NonFiniteError, match="clean window"):
            diffusion_loss(clean, np.ones((3, 5)), 2, None, zero_denoiser)

    def test_cfg_exact_at_anchors(self):
        rng = np.random.default_rng(20)
        cond = rng.standard_normal((5, 3))
        base = rng.standard_normal((5, 3))
        assert np.array_equal(cfg_combine(cond, base, 1.0), cond)
        assert np.array_equal(cfg_combine(cond, base, 0.0), base)

    def test_cfg_hand_value(self):
        out = cfg_combine(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 2.5)
        assert np.allclose(out, [2.5, 2.5])

    def test_cfg_negative_uses_negative_baseline(self):
        cond = np.array([1.0])
        neg = np.array([-1.0])
        assert cfg_negative(cond, neg, 2.5)[0] == pytest.approx(-1.0 + 2.5 * 2.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_cfg_rejects_a_non_finite_scale(self, scale):
        for guide in (cfg_combine, cfg_negative):
            with pytest.raises(ConfigError, match="guidance scale"):
                guide(np.ones(2), np.zeros(2), scale)

    def test_oracle_denoiser_recovers_target(self):
        rng = np.random.default_rng(21)
        target = rng.standard_normal((8, 12))
        schedule = make_schedule(50)
        sample = ddpm_sample(schedule, make_oracle_denoiser(target), None,
                             target.shape, rng)
        assert np.max(np.abs(sample - target)) < 1e-3

    def test_prefix_bit_exact(self):
        rng = np.random.default_rng(22)
        target = rng.standard_normal((10, 6))
        prefix = rng.standard_normal((4, 6)) * np.array(1.0)
        schedule = make_schedule(25)
        sample = ddpm_sample(schedule, make_oracle_denoiser(target), None,
                             (10, 6), rng, prefix=prefix)
        assert np.array_equal(sample[:4], prefix)
        assert np.max(np.abs(sample[4:] - target[4:])) < 1e-3

    def test_deterministic_under_seed(self):
        target = np.zeros((5, 4))
        schedule = make_schedule(20)
        a = ddpm_sample(schedule, make_oracle_denoiser(target), None, (5, 4),
                        np.random.default_rng(3))
        b = ddpm_sample(schedule, make_oracle_denoiser(target), None, (5, 4),
                        np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            DiffusionSchedule(betas=np.array([0.5, 1.5]))
        with pytest.raises(ConfigError):
            DiffusionSchedule(betas=np.array([]))
        s = make_schedule(30)
        assert s.num_steps == 30
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0.0)

    @pytest.mark.parametrize("betas, guidance", [
        ([0.1, np.nan], 2.5), ([np.nan], 2.5), ([0.1, 0.2], np.nan), ([0.1, 0.2], np.inf),
        ([0.1, 0.2], -np.inf),
    ])
    def test_schedule_rejects_non_finite_values(self, betas, guidance):
        with pytest.raises(ConfigError):
            DiffusionSchedule(betas=np.array(betas), guidance_scale=guidance)

    @pytest.mark.parametrize("step", [-1, 6, 9, 2.0, True])
    def test_forward_noise_rejects_a_step_outside_the_schedule(self, step):
        with pytest.raises(ConfigError, match="0..5"):
            add_noise(np.zeros((3, 2)), step, make_schedule(5), np.random.default_rng(24))

    def test_forward_noise_rejects_a_non_finite_window(self):
        with pytest.raises(NonFiniteError, match="clean window"):
            add_noise(np.array([np.nan, np.inf]), 2, make_schedule(5), np.random.default_rng(26))

    def test_forward_noise_at_the_schedule_ends(self):
        clean = np.arange(6.0).reshape(3, 2)
        schedule = make_schedule(5)
        assert np.array_equal(add_noise(clean, 0, schedule, np.random.default_rng(25)), clean)
        assert add_noise(clean, np.int64(5), schedule, np.random.default_rng(25)).shape == (3, 2)

    def test_forward_noise_levels(self):
        rng = np.random.default_rng(23)
        schedule = make_schedule(50)
        clean = np.zeros((2000, 4))
        late = add_noise(clean, 50, schedule, rng)
        expected_std = np.sqrt(1.0 - schedule.alpha_bar[50])
        assert late.std() == pytest.approx(expected_std, rel=0.05)


class TestAsfo:
    def catalog(self):
        samples = {}
        idx = 0
        for tag, count in (("walk", 100), ("jump", 20), ("cartwheel", 5)):
            for _ in range(count):
                samples[f"s{idx:04d}"] = (tag,)
                idx += 1
        return TagCatalog.from_samples(samples)

    def test_tag_without_a_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match="tag 'b' has no count"):
            TagCatalog(tag_counts={"a": 1}, sample_tags={"s": ("b",)})

    def test_multiplier_table(self):
        rho = asfo_multipliers(self.catalog())
        assert rho == {"walk": 1, "jump": 1, "cartwheel": 4}

    def test_rho_max_cap(self):
        samples = {"a": ("common",), "b": ("common",), **{f"c{i}": ("common",) for i in range(98)},
                   "rare": ("unicorn",)}
        cat = TagCatalog.from_samples(samples, AsfoConfig(rho_max=8))
        rho = asfo_multipliers(cat)
        assert rho["unicorn"] == 8  # 50/1 would overshoot; the cap holds

    def test_multi_label_max_rule(self):
        cat = self.catalog()
        cat.sample_tags["mixed"] = ("walk", "cartwheel")
        assert sample_multipliers(cat)["mixed"] == 4

    def test_tagless_sample_gets_one(self):
        cat = self.catalog()
        cat.sample_tags["plain"] = ()
        assert sample_multipliers(cat)["plain"] == 1

    def test_catalog_without_tags_plans_every_sample_once_unmirrored(self):
        cat = TagCatalog.from_samples({"b": [], "a": []})
        assert asfo_multipliers(cat) == {}
        assert sample_multipliers(cat) == {"a": 1, "b": 1}
        rng = np.random.default_rng(4)
        assert build_epoch_plan(cat, rng) == [PlanEntry("a", False, ()), PlanEntry("b", False, ())]
        # one uniform per plan entry, as for a tagged catalog
        assert rng.uniform() == np.random.default_rng(4).uniform(size=3)[2]

    def test_mirror_probability(self):
        assert mirror_probability(1, 0.3) == 0.0
        assert mirror_probability(4, 0.3) == pytest.approx(0.9)
        assert mirror_probability(10, 0.3) == 1.0

    def test_plan_size_is_sum_of_multipliers(self):
        cat = self.catalog()
        plan = build_epoch_plan(cat, np.random.default_rng(0))
        multipliers = sample_multipliers(cat)
        expected = sum(multipliers.values())
        assert len(plan) == expected
        # every sample appears exactly its multiplier many times
        from collections import Counter

        counts = Counter(e.sample_id for e in plan)
        for sid in cat.sample_tags:
            assert counts[sid] == multipliers[sid]

    def test_uniform_frequencies_no_mirrors(self):
        samples = {f"s{i}": (f"tag{i % 3}",) for i in range(9)}
        cat = TagCatalog.from_samples(samples)
        plan = build_epoch_plan(cat, np.random.default_rng(1))
        assert len(plan) == 9
        assert not any(e.mirrored for e in plan)

    def test_empirical_mirror_rate(self):
        samples = {"rare": ("cartwheel",), **{f"w{i}": ("walk",) for i in range(99)},
                   **{f"j{i}": ("jump",) for i in range(20)}}
        cat = TagCatalog.from_samples(samples)
        # median tag count = 20, cartwheel count 1 -> rho capped at 8, p = 1.0
        cat.sample_tags = {"rare": ("cartwheel",), "w0": ("walk",)}
        rho = asfo_multipliers(cat)
        p_expected = mirror_probability(rho["cartwheel"], cat.asfo.mirror_alpha)
        rng = np.random.default_rng(2)
        draws = 100_000
        mirrored = 0
        copies = 0
        for _ in range(draws // rho["cartwheel"]):
            plan = build_epoch_plan(cat, rng)
            for entry in plan:
                if entry.sample_id == "rare":
                    copies += 1
                    mirrored += entry.mirrored
        assert mirrored / copies == pytest.approx(p_expected, abs=0.01)

    def test_side_tags_swap_on_mirror(self):
        samples = {"kick": ("left kick",), **{f"w{i}": ("walk",) for i in range(50)}}
        cat = TagCatalog.from_samples(samples, AsfoConfig(mirror_alpha=1.0))
        plan = build_epoch_plan(cat, np.random.default_rng(3))
        kicks = [e for e in plan if e.sample_id == "kick"]
        assert all(e.tags == ("right kick",) for e in kicks if e.mirrored)
        assert all(e.tags == ("left kick",) for e in kicks if not e.mirrored)

    def test_swap_side_tags_involution(self):
        tags = ("left kick", "wave right hand", "walk")
        assert swap_side_tags(swap_side_tags(tags)) == tags

    def test_plan_deterministic(self):
        cat = self.catalog()
        p1 = build_epoch_plan(cat, np.random.default_rng(9))
        p2 = build_epoch_plan(cat, np.random.default_rng(9))
        assert p1 == p2

    def test_plan_matches_one_coin_per_entry_loop(self):
        # the plan draws all its coins at once; it must equal the per-entry
        # scalar draws entry for entry and leave the generator in the same state
        samples = {"kick": ("left kick",), "wave": ("wave right hand", "walk"), "plain": (),
                   **{f"w{i:03d}": ("walk",) for i in range(60)},
                   **{f"j{i:03d}": ("jump",) for i in range(7)},
                   **{f"c{i}": ("cartwheel",) for i in range(3)}}
        cat = TagCatalog.from_samples(samples)
        rho = asfo_multipliers(cat)
        expected, ref_rng = [], np.random.default_rng(5)
        for sample_id in sorted(cat.sample_tags):
            tags = cat.sample_tags[sample_id]
            r = max((rho[t] for t in tags), default=1)
            p_mir = min(max(cat.asfo.mirror_alpha * (r - 1), 0.0), 1.0)
            for _ in range(r):
                mirrored = bool(ref_rng.uniform() < p_mir)
                expected.append(PlanEntry(sample_id, mirrored,
                                          swap_side_tags(tags) if mirrored else tags))
        rng = np.random.default_rng(5)
        plan = build_epoch_plan(cat, rng)
        assert plan == expected
        assert any(e.mirrored for e in plan) and not all(e.mirrored for e in plan)
        assert all(type(e.mirrored) is bool for e in plan)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.uniform() == ref_rng.uniform()


def test_activations():
    assert gelu(np.array([0.0]))[0] == 0.0
    assert silu(np.array([0.0]))[0] == 0.0
    x = np.linspace(-3, 3, 50)
    assert np.all(np.diff(gelu(x) + 0.2 * x) > 0)  # loosely monotone
    assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-6)


def test_silu_of_large_negative_input_is_negative_zero_without_overflow():
    # exp(1e4) overflows to inf, whose limit x / inf = -0.0 is silu's value
    out = silu(np.array([-1e4, -800.0, 1e4]))
    assert out.tobytes() == np.array([-0.0, -0.0, 1e4]).tobytes()
