"""Acceptance suite: one test per shipping criterion.

Each test prints a [PASS]/[FAIL] line (bypassing capture) so a plain
`pytest tests/test_acceptance.py` run shows the per-criterion verdicts.
All tolerances are fixed here; nothing is calibrated at runtime.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    ffn_apply,
    make_oracle_denoiser,
    make_random_sequence,
    make_standing_sequence,
    make_walk_sequence,
    neutral_features,
    random_rotations,
)
from motion_forge.curriculum import (
    STATE_FROZEN,
    CorpusState,
    SamplerConfig,
    SimConfig,
    SyntheticFile,
    check_freeze,
    introduction_ratio,
    run_curriculum_sim,
    sampling_distribution,
)
from motion_forge.features import (
    FEATURE_DIM,
    ROOT_HEIGHT,
    ROT6D,
    decode_root_trajectory,
    denormalize_features,
    encode_features,
    fit_norm_stats,
    normalize_features,
)
from motion_forge.generation import (
    AsfoConfig,
    TagCatalog,
    asfo_multipliers,
    build_epoch_plan,
    cfg_combine,
    ddpm_sample,
    generator_balance_loss,
    init_tpmoe,
    make_schedule,
    mirror_probability,
    mix_expert_params,
    spatial_mask,
)
from motion_forge.metrics import (
    FAILURE_EE_Z,
    FAILURE_PELVIS_Z,
    FAILURE_TRUNK_GRAVITY,
    mpjae,
    mpjpe,
    mpjve,
    success,
)
from motion_forge.motion import MotionSequence, default_skeleton, mirror_sequence
from motion_forge.prefix_loop import (
    TERMINATION_COMPLETED,
    TERMINATION_EXHAUSTED,
    GeneratorConfig,
    PrefixLoopConfig,
    TrackerConfig,
    identity_tracker,
    make_interpolation_generator,
    make_perturbation_tracker,
    run_prefix_loop,
)
from motion_forge.rewards import (
    COMMAND_DIM,
    CRITIC_LAYOUT,
    CRITIC_OBS_DIM,
    POLICY_LAYOUT,
    POLICY_OBS_DIM,
    TASK_TERMS,
    RewardConfig,
    assemble_command,
    assemble_obs,
    exp_kernel_reward,
    regularization_rewards,
    task_rewards,
)
from motion_forge.rotations import rot_to_6d, sixd_to_rot
from motion_forge.router import (
    RouterConfig,
    gate_logits,
    hard_bias_route,
    load_balance_loss,
    make_random_pool,
    make_router,
    mixture_action,
    refresh_candidates,
    unlock_next_expert,
)

SKEL = default_skeleton()


@contextmanager
def report(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:2d}: {description}",
              file=sys.__stdout__, flush=True)
        raise
    print(f"[PASS] criterion {number:2d}: {description}",
          file=sys.__stdout__, flush=True)


def test_criterion_01_feature_codec():
    with report(1, "262-D feature codec, 6D round trip, trajectory decode"):
        start = time.perf_counter()

        # 1000-frame synthetic corpus encodes to the fixed layout
        fps = 50.0
        seq = make_walk_sequence(SKEL, 1.0, 0.3, 1000, fps)
        feats = encode_features(seq, SKEL)
        assert feats.shape == (1000, FEATURE_DIM)
        assert np.allclose(feats[:, ROOT_HEIGHT], 0.8)          # height at dim 6
        assert np.allclose(feats[:, 3:6], [1.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(feats[:, 2], 0.3, atol=1e-12)        # yaw rate at dim 2
        rot = feats[:, ROT6D].reshape(1000, 29, 6)
        assert np.all(np.abs(rot) <= 1.0 + 1e-9)                # dims 43..216
        assert set(np.unique(feats[:, 256:262])) <= {0.0, 1.0}  # contact bits

        # 6D rotation round trip over 10^4 random rotations
        rng = np.random.default_rng(0)
        rots = random_rotations(rng, (10_000,))
        back = sixd_to_rot(rot_to_6d(rots))
        assert np.max(np.abs(back - rots)) < 1e-9

        # encode -> decode root trajectory on analytic walks, 5 s clips
        for speed, yaw_rate in ((1.0, 0.3), (1.2, 0.0), (0.8, -0.25)):
            clip = make_walk_sequence(SKEL, speed, yaw_rate, int(5 * fps), fps)
            pos, _ = decode_root_trajectory(encode_features(clip, SKEL), fps)
            path_len = np.sum(np.linalg.norm(np.diff(clip.root_pos[:, :2], axis=0), axis=1))
            err = np.linalg.norm(pos[:, :2] - clip.root_pos[:, :2], axis=1).max()
            assert err < 0.005 * path_len, (speed, yaw_rate)

        assert time.perf_counter() - start < 5.0


def test_criterion_02_normalization():
    with report(2, "block-wise normalization round trip and unit stats"):
        rng = np.random.default_rng(1)
        seq = make_random_sequence(SKEL, rng, num_frames=50)
        frames = encode_features(seq, SKEL)
        stats = fit_norm_stats(frames)
        normed = normalize_features(frames, stats)
        assert np.array_equal(normed[:, 43:217], frames[:, 43:217])
        assert np.array_equal(normed[:, 256:262], frames[:, 256:262])
        back = denormalize_features(normed, stats)
        assert np.max(np.abs(back - frames)) < 1e-9
        assert np.array_equal(back[:, 43:217], frames[:, 43:217])
        assert np.array_equal(back[:, 256:262], frames[:, 256:262])

        random_frames = rng.normal(2.0, 3.0, (400, FEATURE_DIM))
        stats = fit_norm_stats(random_frames)
        normed = normalize_features(random_frames, stats)
        m = stats.mask
        assert np.max(np.abs(normed[:, m].mean(axis=0))) < 1e-9
        assert np.max(np.abs(normed[:, m].std(axis=0) - 1.0)) < 1e-6


def test_criterion_03_adaptive_sampling():
    with report(3, "adaptive sampling distribution: hand oracle, sum, floor"):
        cfg = SamplerConfig()
        st = CorpusState(["a", "b"], [1, 1], ema_error=[0.03, 0.09])
        probs = sampling_distribution(st, cfg, 0, np.arange(2))
        assert np.allclose(probs, [0.4046, 0.5954], atol=1e-3)
        assert abs(probs.sum() - 1.0) <= 1e-12

        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            rows = [
                (float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.0, 8.0)),
                 float(rng.uniform(0.0, 8.0)), int(rng.integers(0, 40000)))
                for _ in range(n)
            ]
            ema_error, success_count, failure_count, attempts = zip(*rows)
            st = CorpusState(
                [str(i) for i in range(n)], [1] * n,
                ema_error=ema_error, success_count=success_count,
                failure_count=failure_count, attempts=attempts,
            )
            probs = sampling_distribution(st, cfg, int(rng.integers(0, 20000)), np.arange(n))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= cfg.epsilon / n - 1e-12)


def test_criterion_04_freeze_and_drop():
    with report(4, "freeze-and-drop thresholds, drop timeline, trace bytes"):
        start = time.perf_counter()
        cfg = SamplerConfig()

        def outcome(**columns):
            _, codes = check_freeze(CorpusState(["x"], [1], **columns), cfg, 500)
            return codes.tolist()

        assert outcome(ema_error=0.1, success_count=100.0, attempts=20000) == [STATE_FROZEN]
        assert outcome(ema_error=0.0999, success_count=100.0, attempts=20000) == []
        assert outcome(ema_error=0.12, attempts=19999) == []
        # success rate exactly 0.15
        assert outcome(success_count=3.0, failure_count=16.0, attempts=20000) == [STATE_FROZEN]

        files = [
            SyntheticFile("easy_1", 1),
            SyntheticFile("easy_2", 1),
            SyntheticFile("bad", 1, start_error=0.5, error_floor=0.5),
        ]
        sim = SimConfig(total_iters=20000, seed=3)
        trace = run_curriculum_sim(files, sim=sim)
        freezes = [e for e in trace.events if e.kind == "freeze" and e.target == "bad"]
        drops = [e for e in trace.events if e.kind == "drop" and e.target == "bad"]
        assert len(freezes) == 2 and len(drops) == 1
        assert drops[0].iteration <= 60000

        again = run_curriculum_sim(files, sim=sim)
        assert trace.to_csv().encode() == again.to_csv().encode()
        assert time.perf_counter() - start < 30.0


def test_criterion_05_introduction_ratio():
    with report(5, "gradual file introduction ramp"):
        cfg = SamplerConfig()
        assert introduction_ratio(1000, 1000, 2, cfg) == pytest.approx(0.2, abs=1e-12)
        assert introduction_ratio(2500, 1000, 2, cfg) == pytest.approx(0.6, abs=1e-12)
        assert introduction_ratio(4000, 1000, 2, cfg) == pytest.approx(1.0, abs=1e-12)
        # level >= 4 stretches the ramp to 5000 iterations
        assert introduction_ratio(6000, 1000, 4, cfg) == pytest.approx(1.0, abs=1e-12)
        assert introduction_ratio(3500, 1000, 4, cfg) == pytest.approx(
            0.2 + 0.8 * 2500 / 5000, abs=1e-12
        )


def test_criterion_06_router():
    with report(6, "MoE router: simplex, k=1, hard-bias rate, balance loss"):
        rng = np.random.default_rng(4)
        pool = make_random_pool(rng, 4, 6, (10,), 29, capacity=12)
        state = make_router(rng, pool.capacity, 8, config=RouterConfig(top_k=2))
        for _ in range(25):
            logits = gate_logits(rng.standard_normal(8), state, pool)
            refresh_candidates(state, logits)
            _, weights = mixture_action(rng.standard_normal(6), state, pool)
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert set(np.flatnonzero(weights)) <= set(state.candidates)

        state1 = make_router(rng, pool.capacity, 8, config=RouterConfig(top_k=1))
        obs = rng.standard_normal(6)
        refresh_candidates(state1, gate_logits(rng.standard_normal(8), state1, pool))
        action, weights = mixture_action(obs, state1, pool)
        expert = int(np.argmax(weights))
        assert np.max(np.abs(action - ffn_like(pool, expert, obs))) < 1e-12

        # hard-bias Monte-Carlo rate
        state2 = make_router(rng, pool.capacity, 8)
        refresh_candidates(state2, gate_logits(rng.standard_normal(8), state2, pool))
        n = 100_000
        hits = sum(hard_bias_route(obs, 2, 2, rng, state2, pool)[2] for _ in range(n))
        assert hits / n == pytest.approx(0.8, abs=0.01)

        k = 7
        assert load_balance_loss(np.full((50, k), 1.0 / k)) == pytest.approx(1.0, abs=1e-12)
        collapse = np.zeros((50, k))
        collapse[:, 3] = 1.0
        assert load_balance_loss(collapse) == pytest.approx(float(k), abs=1e-12)

        # promotion clone: every new expert starts as its predecessor
        growing = make_random_pool(rng, 1, 6, (10,), 29, capacity=12, unlocked_count=1)
        for _ in range(9):
            unlock_next_expert(growing)
        assert growing.num_experts == 10
        for (w_new, b_new), (w_prev, b_prev) in zip(growing.experts[-1], growing.experts[-2]):
            assert np.array_equal(w_new, w_prev)
            assert np.array_equal(b_new, b_prev)


def ffn_like(pool, index, obs):
    from motion_forge.kernels import mlp_forward

    return mlp_forward(pool.experts[index], obs)


def test_criterion_07_tpmoe():
    with report(7, "TP-MoE: one-hot mixing, spatial mask values, balance loss"):
        rng = np.random.default_rng(5)
        params = init_tpmoe(rng, token_dim=12, model_dim=6, ffn_hidden=10,
                            num_experts=12, gate_hidden=8)
        one_hot = np.zeros(12)
        one_hot[7] = 1.0
        mixed = mix_expert_params(one_hot, params)
        for layer in range(2):
            assert np.array_equal(mixed[layer][0], params.experts[7][layer][0])
            assert np.array_equal(mixed[layer][1], params.experts[7][layer][1])
        x = rng.standard_normal((5, 6))
        assert np.array_equal(ffn_apply(mixed, x), ffn_apply(params.experts[7], x))

        mask = spatial_mask(np.array([[0.5], [0.0]]), gamma=24.0, beta=0.25)
        assert mask[0, 0] == pytest.approx(0.9998766054, abs=1e-6)
        assert mask[1, 0] == pytest.approx(0.0474258731, abs=1e-6)

        assert generator_balance_loss(np.full(12, 1.0 / 12)) == 0.0
        for _ in range(200):
            p = rng.dirichlet(np.ones(12))
            loss = generator_balance_loss(p)
            if np.allclose(p, 1.0 / 12):
                assert loss == 0.0
            else:
                assert loss > 0.0


def test_criterion_08_asfo():
    with report(8, "ASFO multipliers, plan size, mirror rate, double mirror"):
        samples = {}
        idx = 0
        for tag, count in (("walk", 100), ("jump", 20), ("cartwheel", 5)):
            for _ in range(count):
                samples[f"s{idx:04d}"] = (tag,)
                idx += 1
        catalog = TagCatalog.from_samples(samples, AsfoConfig(rho_max=8))
        assert asfo_multipliers(catalog) == {"walk": 1, "jump": 1, "cartwheel": 4}

        plan = build_epoch_plan(catalog, np.random.default_rng(6))
        assert len(plan) == 100 + 20 + 5 * 4

        # empirical mirror rate over >= 1e5 rare-sample draws
        p_expected = mirror_probability(4, catalog.asfo.mirror_alpha)
        rng = np.random.default_rng(7)
        small = TagCatalog(
            tag_counts=dict(catalog.tag_counts),
            sample_tags={"rare": ("cartwheel",)},
            asfo=AsfoConfig(rho_max=8),
        )
        copies, mirrored = 0, 0
        while copies < 100_000:
            for entry in build_epoch_plan(small, rng):
                copies += 1
                mirrored += entry.mirrored
        assert mirrored / copies == pytest.approx(p_expected, abs=0.01)

        rng = np.random.default_rng(8)
        seq = make_random_sequence(SKEL, rng)
        back = mirror_sequence(mirror_sequence(seq, SKEL), SKEL)
        for name in ("joint_pos", "root_pos", "root_quat", "body_pos",
                     "body_rot", "body_lin_vel", "body_ang_vel"):
            assert np.array_equal(getattr(back, name), getattr(seq, name))


def test_criterion_09_diffusion_cfg():
    with report(9, "diffusion sampling, prefix anchoring, guidance"):
        rng = np.random.default_rng(9)
        target = rng.standard_normal((12, 16))
        schedule = make_schedule(50)
        sample = ddpm_sample(schedule, make_oracle_denoiser(target), None,
                             target.shape, rng)
        assert np.max(np.abs(sample - target)) < 1e-3

        prefix = rng.standard_normal((5, 16))
        sample = ddpm_sample(schedule, make_oracle_denoiser(target), None,
                             (12, 16), rng, prefix=prefix)
        assert np.array_equal(sample[:5], prefix)

        cond = rng.standard_normal((4, 4))
        base = rng.standard_normal((4, 4))
        assert np.array_equal(cfg_combine(cond, base, 1.0), cond)
        assert np.array_equal(cfg_combine(cond, base, 0.0), base)
        combined = cfg_combine(cond, base, 2.5)
        assert np.allclose(combined, base + 2.5 * (cond - base), atol=1e-12)
        assert np.allclose(cfg_combine(np.ones(2), np.zeros(2), 2.5), [2.5, 2.5])


def test_criterion_10_tracking_metrics():
    with report(10, "tracking metrics and success thresholds"):
        seq = make_walk_sequence(SKEL, 1.0, 0.2, 40, 30.0)
        assert mpjpe(seq.body_pos, seq.body_pos) == 0.0
        assert mpjae(seq, seq) == 0.0
        assert mpjve(seq, seq) == 0.0
        ok, reason = success(seq, seq, SKEL)
        assert ok and reason == "none"

        ref = make_standing_sequence(SKEL)
        shifted = ref.copy()
        shifted.body_pos[:] += np.array([0.0, 0.0, 0.07])
        shifted.root_pos[:] += np.array([0.0, 0.0, 0.07])
        assert mpjpe(ref.body_pos, shifted.body_pos) == pytest.approx(0.07, abs=1e-12)

        wrapped = ref.copy()
        wrapped.joint_pos[:] = 3.1
        sim = ref.copy()
        sim.joint_pos[:] = -3.1
        assert mpjae(wrapped, sim) == pytest.approx(2 * np.pi - 6.2, abs=1e-9)
        assert mpjae(wrapped, sim) == pytest.approx(0.0832, abs=2e-4)

        # pelvis z flips around 0.3 m
        for offset, expect_ok, expect_reason in (
            (0.299, True, "none"), (0.301, False, FAILURE_PELVIS_Z),
        ):
            sim = ref.copy()
            sim.root_pos[3:, 2] += offset
            ok, reason = success(ref, sim, SKEL)
            assert bool(ok) is expect_ok and reason == expect_reason

        # trunk gravity mismatch flips around 0.8 (theta = 2 asin(0.4))
        trunk = SKEL.body_index("torso_link")
        theta_edge = 2.0 * np.arcsin(0.4)
        for theta, expect_ok in ((theta_edge - 0.01, True), (theta_edge + 0.01, False)):
            sim = ref.copy()
            c, s = np.cos(theta), np.sin(theta)
            sim.body_rot[2:, trunk] = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
            ok, reason = success(ref, sim, SKEL)
            assert bool(ok) is expect_ok
            if not ok:
                assert reason == FAILURE_TRUNK_GRAVITY

        # end-effector z flips around 0.3 m
        for offset, expect_ok in ((0.299, True), (0.301, False)):
            sim = ref.copy()
            sim.body_pos[4:, SKEL.foot_body_indices[1], 2] += offset
            ok, reason = success(ref, sim, SKEL)
            assert bool(ok) is expect_ok
            if not ok:
                assert reason == FAILURE_EE_Z


def test_criterion_11_rewards_and_observations():
    with report(11, "reward kernel/table and command/observation widths"):
        seq = make_walk_sequence(SKEL, 1.0, 0.1, 150, 30.0)
        frame = seq.frame(3)
        terms, total = task_rewards(frame, frame, skel=SKEL)
        assert total == pytest.approx(5.3, abs=1e-8)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in terms.values())

        assert exp_kernel_reward(0.2**2, 0.2) == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert exp_kernel_reward(0.04, 0.2) == pytest.approx(np.exp(-1.0), abs=1e-12)

        forces = np.zeros(30)
        forces[SKEL.body_index("left_ankle_roll_link")] = 2.0
        forces[SKEL.body_index("right_palm_link")] = 5.0
        out = regularization_rewards(np.zeros(29), np.zeros(29), np.zeros(29),
                                     forces, SKEL)
        assert out["undesired_contact"] == 0.0

        cfg = RewardConfig()
        total_weight = sum(getattr(cfg, name).weight for name in TASK_TERMS)
        assert total_weight == pytest.approx(5.3, abs=1e-12)

        cmd = assemble_command(seq, 10)
        assert cmd.shape == (COMMAND_DIM,) == (520,)
        blocks = {name: np.zeros(width) for name, width in CRITIC_LAYOUT.items()}
        blocks.update(command=cmd, anchor_ori_6d=np.array([1.0, 0, 0, 0, 1, 0]))
        obs = assemble_obs(POLICY_LAYOUT, **{name: blocks[name] for name in POLICY_LAYOUT})
        assert obs.shape == (POLICY_OBS_DIM,) == (616,)
        critic = assemble_obs(CRITIC_LAYOUT, **blocks)
        assert critic.shape == (CRITIC_OBS_DIM,) == (748,)


def test_criterion_12_prefix_loop():
    with report(12, "prefix loop acceptance, exhaustion, and runtime"):
        start = time.perf_counter()
        fps = 30.0
        prefix = neutral_features(int(fps))
        target = neutral_features(1, height=0.9)[0]

        cfg = PrefixLoopConfig(fps=fps, horizon_seconds=10.0, max_resamples=3, seed=11)
        gen = make_interpolation_generator(cfg.segment_frames, GeneratorConfig(noise_scale=0.002))
        motion, trace = run_prefix_loop(prefix, target, gen, identity_tracker, cfg, SKEL)
        assert trace.termination == TERMINATION_COMPLETED
        assert all(len(s.attempts) == 1 and s.accepted for s in trace.segments)
        assert motion.num_frames == prefix.shape[0] + int(10.0 * fps)
        assert isinstance(motion, MotionSequence)
        assert np.array_equal(trace.features[: prefix.shape[0]], prefix)

        # tracker diverging inside segment 3 exhausts exactly max_resamples
        tracker = make_perturbation_tracker(0, TrackerConfig(
            offset=10.0, offset_from_frame=prefix.shape[0] + 2 * int(fps) + 3))
        _, trace = run_prefix_loop(prefix, target, gen, tracker, cfg, SKEL)
        assert trace.termination == TERMINATION_EXHAUSTED
        assert len(trace.segments) == 3
        assert len(trace.segments[2].attempts) == cfg.max_resamples
        assert not trace.segments[2].accepted

        assert time.perf_counter() - start < 10.0
