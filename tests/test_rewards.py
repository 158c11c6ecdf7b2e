import dataclasses

import numpy as np
import pytest

from helpers import (
    make_random_sequence,
    make_standing_sequence,
    make_walk_sequence,
    reference_critic_obs,
    reference_obs_noise,
    reference_policy_obs,
)
from motion_forge.errors import (
    AlignmentError,
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
)
from motion_forge.motion import Frame, default_skeleton
from motion_forge.rewards import (
    COMMAND_DIM,
    CRITIC_LAYOUT,
    CRITIC_OBS_DIM,
    POLICY_BLOCKS,
    POLICY_LAYOUT,
    POLICY_OBS_DIM,
    TASK_TERMS,
    ObservationNoiseConfig,
    RewardConfig,
    assemble_command,
    assemble_obs,
    exp_kernel_reward,
    inject_obs_noise,
    orientation_error_6d,
    regularization_rewards,
    task_rewards,
)


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


class TestExpKernel:
    def test_zero_error_is_one(self):
        assert exp_kernel_reward(0.0, 0.3) == 1.0

    def test_error_equal_sigma_sq(self):
        assert exp_kernel_reward(0.25, 0.5) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_anchor_pos_kernel_hand_value(self):
        # e = 0.04 with sigma 0.2 lands exactly at exp(-1)
        assert exp_kernel_reward(0.04, 0.2) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_array_of_errors(self):
        errors = np.array([[0.0, 0.04], [0.16, 1.0]])
        out = exp_kernel_reward(errors, 0.2)
        assert out.shape == (2, 2)
        for i, j in np.ndindex(2, 2):
            assert out[i, j] == exp_kernel_reward(float(errors[i, j]), 0.2)
        with pytest.raises(ValueError):
            exp_kernel_reward(np.array([0.1, -1e-9]), 0.2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exp_kernel_reward(-0.1, 0.2)
        with pytest.raises(ValueError):
            exp_kernel_reward(0.1, 0.0)
        with pytest.raises(ValueError):
            exp_kernel_reward(np.array([[0.1], [0.2]]), np.array([[0.3], [-0.3]]))

    def test_nan_error_is_not_finite(self):
        with pytest.raises(NonFiniteError):
            exp_kernel_reward(np.array([0.1, np.nan]), 0.2)
        with pytest.raises(NonFiniteError):
            exp_kernel_reward(np.nan, 0.2)

    def test_sigma_column_equals_one_call_per_row(self):
        errors = np.array([[0.0, 0.04, 0.5], [0.16, 1.0, 2.5]])
        sigma = np.array([[0.2], [3.14]])
        out = exp_kernel_reward(errors, sigma)
        for row in range(2):
            want = exp_kernel_reward(errors[row], float(sigma[row, 0]))
            assert out[row].tobytes() == want.tobytes()


class TestTaskRewards:
    def test_identical_frames_max_reward(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.2, 10, 30.0)
        frame = seq.frame(4)
        terms, total = task_rewards(frame, frame, skel=skel)
        for value in terms.values():
            assert value == pytest.approx(1.0, abs=1e-9)
        assert total == pytest.approx(5.3, abs=1e-8)

    def test_clips_at_different_frame_rates_raise(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.2, 10, 30.0)
        faster = dataclasses.replace(seq, fps=60.0)
        with pytest.raises(AlignmentError, match="30.0 vs 60.0"):
            task_rewards(seq, faster, skel=skel)
        # a frame pair has no rate to compare
        assert task_rewards(seq.frame(4), faster.frame(4), skel=skel)[1] == pytest.approx(5.3)

    def test_rigid_anchor_offset_keeps_relative_terms(self, skel):
        seq = make_standing_sequence(skel)
        ref = seq.frame(0)
        shifted = seq.copy()
        shifted.body_pos[:] += np.array([0.15, 0.0, 0.0])
        shifted.root_pos[:] += np.array([0.15, 0.0, 0.0])
        sim = shifted.frame(0)
        terms, _ = task_rewards(ref, sim, skel=skel)
        assert terms["rel_body_pos"] == pytest.approx(1.0, abs=1e-9)
        assert terms["rel_body_ori"] == pytest.approx(1.0, abs=1e-9)
        assert terms["anchor_pos"] < 1.0
        assert terms["anchor_pos"] == pytest.approx(np.exp(-0.15**2 / 0.04), abs=1e-9)

    def test_doubling_errors_fourth_power(self, skel):
        seq = make_standing_sequence(skel)
        ref = seq.frame(0)

        def offset_frame(d):
            shifted = seq.copy()
            shifted.body_lin_vel[:] += np.array([d, 0.0, 0.0])
            return shifted.frame(0)

        t1, _ = task_rewards(ref, offset_frame(0.2), skel=skel)
        t2, _ = task_rewards(ref, offset_frame(0.4), skel=skel)
        assert t2["body_lin_vel"] == pytest.approx(t1["body_lin_vel"] ** 4, rel=1e-9)

    def test_key_bodies_are_root_trunk_and_informative_bodies(self, skel):
        key = skel.key_body_indices
        assert key.tolist() == [0, skel.body_index("torso_link"), *skel.ric_body_indices]
        assert len(key) == 14
        assert not key.flags.writeable

    def test_nan_executed_anchor_raises(self, skel):
        ref = make_walk_sequence(skel, 1.0, 0.2, 10, 30.0)
        sim = ref.copy()
        sim.body_pos[4, 0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            task_rewards(ref, sim, skel=skel)
        with pytest.raises(NonFiniteError):
            task_rewards(ref.frame(4), sim.frame(4), skel=skel)
        # the other frames score as before
        terms, _ = task_rewards(ref.frame(3), sim.frame(3), skel=skel)
        assert terms["anchor_pos"] == 1.0

    @pytest.mark.parametrize("cfg", [
        RewardConfig(),
        RewardConfig(tracked_bodies=tuple(range(30))),
        RewardConfig(anchor_body=3),
    ], ids=["key_bodies", "all_bodies", "anchor_3"])
    def test_whole_clip_equals_per_frame_bit_for_bit(self, skel, cfg):
        rng = np.random.default_rng(8)
        ref = make_random_sequence(skel, rng, num_frames=40)
        sim = make_random_sequence(skel, rng, num_frames=40)
        terms, total = task_rewards(ref, sim, cfg, skel)
        per_frame = [task_rewards(ref.frame(i), sim.frame(i), cfg, skel) for i in range(40)]
        for name in TASK_TERMS:
            assert terms[name].shape == (40,)
            assert np.array_equal(terms[name], [t[name] for t, _ in per_frame]), name
        assert np.array_equal(total, [tot for _, tot in per_frame])
        assert np.ndim(per_frame[0][1]) == 0

    def test_unequal_leading_shapes_raise(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.2, 10, 30.0)
        shorter = make_walk_sequence(skel, 1.0, 0.2, 9, 30.0)
        # a (1, ...) view of the first frame would broadcast against (10, ...)
        first = Frame(**{f.name: getattr(seq, f.name)[:1] for f in dataclasses.fields(Frame)})
        for ref, sim in ((seq, shorter), (seq, first), (first, seq),
                         (seq, seq.frame(0)), (seq.frame(0), seq)):
            with pytest.raises(DimensionMismatchError, match="root_quat"):
                task_rewards(ref, sim, skel=skel)


class TestRegularization:
    def test_all_zero_when_clean(self, skel):
        out = regularization_rewards(
            np.zeros(29), np.zeros(29), np.zeros(29), np.zeros(30), skel
        )
        assert out == {"action_rate": 0.0, "joint_limit": 0.0, "undesired_contact": 0.0}

    def test_action_rate_value(self, skel):
        actions = np.zeros(29)
        actions[0] = 0.3
        out = regularization_rewards(actions, np.zeros(29), np.zeros(29), np.zeros(30), skel)
        assert out["action_rate"] == pytest.approx(-0.1 * 0.09, abs=1e-12)

    def test_action_rate_is_the_squared_difference(self, skel):
        actions, prev = np.random.default_rng(20).uniform(0.5, 2.0, (2, 29))
        assert not np.array_equal(actions, prev)
        out = regularization_rewards(actions, prev, np.zeros(29), np.zeros(30), skel)
        assert out["action_rate"] == pytest.approx(-0.1 * np.sum((actions - prev) ** 2),
                                                   rel=1e-12)

    def test_joint_limit_penalty(self, skel):
        joint_pos = np.zeros(29)
        joint_pos[0] = skel.joint_limits[0, 1] + 0.01
        out = regularization_rewards(np.zeros(29), np.zeros(29), joint_pos, np.zeros(30), skel)
        assert out["joint_limit"] == -10.0

    def test_excluded_bodies_incur_no_penalty(self, skel):
        forces = np.zeros(30)
        forces[skel.body_index("left_ankle_roll_link")] = 2.0
        out = regularization_rewards(np.zeros(29), np.zeros(29), np.zeros(29), forces, skel)
        assert out["undesired_contact"] == 0.0

    def test_undesired_contact_counts_bodies(self, skel):
        forces = np.zeros(30)
        forces[skel.body_index("torso_link")] = 1.5
        forces[skel.body_index("left_knee_link")] = 3.0
        forces[skel.body_index("left_elbow_link")] = 0.5  # below threshold
        out = regularization_rewards(np.zeros(29), np.zeros(29), np.zeros(29), forces, skel)
        assert out["undesired_contact"] == pytest.approx(-0.2)

    def test_rows_score_like_single_steps(self, skel):
        rng = np.random.default_rng(6)
        actions, prev = rng.normal(0, 1, (2, 5, 29))
        joint_pos = rng.normal(0, 2, (5, 29))
        forces = rng.uniform(0, 2, (5, 30))
        batch = regularization_rewards(actions, prev, joint_pos, forces, skel)
        for i in range(5):
            row = regularization_rewards(actions[i], prev[i], joint_pos[i], forces[i], skel)
            for name, value in row.items():
                assert batch[name][i] == value, name

    # the terms would come out shaped (), (5,) and (3,)
    def test_inputs_need_the_actions_leading_axes(self, skel):
        with pytest.raises(DimensionMismatchError, match="leading axes differ"):
            regularization_rewards(np.zeros(29), np.zeros(29), np.zeros((5, 29)),
                                   np.zeros((3, 30)), skel)

    def test_contact_forces_need_one_entry_per_body(self, skel):
        with pytest.raises(DimensionMismatchError):
            regularization_rewards(np.zeros(29), np.zeros(29), np.zeros(29), np.zeros(29), skel)

    # (1,) would broadcast against the 29 limits and count every joint
    @pytest.mark.parametrize("shape", [(1,), (28,), (30,), (2, 31)])
    def test_joint_pos_needs_one_entry_per_joint(self, skel, shape):
        with pytest.raises(DimensionMismatchError, match="joint_pos"):
            regularization_rewards(np.zeros(29), np.zeros(29), np.zeros(shape), np.zeros(30), skel)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg, name", enumerate(["actions", "prev_actions", "joint_pos",
                                                     "contact_forces"]))
    def test_non_finite_input_is_a_typed_error(self, skel, arg, name, bad):
        args = [np.zeros(29), np.zeros(29), np.zeros(29), np.zeros(30)]
        args[arg][3] = bad
        with pytest.raises(NonFiniteError, match=f"^{name} holds"):
            regularization_rewards(*args, skel)


class TestCommand:
    def test_length_and_current_block(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 150, 30.0)
        cmd = assemble_command(seq, 0)
        assert cmd.shape == (COMMAND_DIM,)
        assert np.allclose(cmd[:29], seq.joint_pos[0])
        assert np.allclose(cmd[58:61], seq.root_pos[0])

    def test_long_horizon_stride(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 150, 30.0)
        t = 7
        cmd = assemble_command(seq, t)
        for j in range(5):
            block = cmd[195 + 65 * j: 195 + 65 * (j + 1)]
            src = t + 20 * (j + 1)
            assert np.allclose(block[58:61], seq.root_pos[src]), j

    @pytest.mark.parametrize("t", [0, 5, 45, 98, 119])
    def test_each_block_comes_from_its_offset_frame(self, skel, t):
        seq = make_random_sequence(skel, np.random.default_rng(21), 120)
        cmd = assemble_command(seq, t)
        for j, k in enumerate((0, 1, 2, 20, 40, 60, 80, 100)):
            src = min(t + k, seq.num_frames - 1)
            expected = np.concatenate([seq.joint_pos[src], seq.joint_vel[src],
                                       seq.root_pos[src], seq.root_quat[src]])
            assert np.array_equal(cmd[65 * j: 65 * (j + 1)], expected), k

    def test_end_of_motion_clamps(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
        cmd = assemble_command(seq, 19)
        last = np.concatenate([
            seq.joint_pos[-1], seq.joint_vel[-1], seq.root_pos[-1], seq.root_quat[-1]
        ])
        for j in range(8):
            assert np.allclose(cmd[65 * j: 65 * (j + 1)], last)

    @pytest.mark.parametrize("frame_idx", [-1, -10, [3, -1], [[0, 7], [-2, 9]]])
    def test_negative_frame_index_raises(self, skel, frame_idx):
        seq = make_walk_sequence(skel, 1.0, 0.0, 10, 30.0)
        with pytest.raises(ConfigError, match="non-negative"):
            assemble_command(seq, frame_idx)

    @pytest.mark.parametrize("frame_idx, same_as", [
        (2.0, 2), (np.array([2.0, 5.0]), [2, 5]), ([], []), (2**63 - 1, 9),
        (2.5, None), (True, None), ([0.5, 1.0], None), (np.array([1.5]), None),
    ], ids=["whole_float", "whole_float_array", "empty", "int64_max_clamps", "fraction", "bool",
            "fraction_in_a_list", "fraction_in_an_array"])
    def test_frame_indices_follow_the_integer_rule(self, skel, frame_idx, same_as):
        seq = make_walk_sequence(skel, 1.0, 0.0, 10, 30.0)
        if same_as is None:
            with pytest.raises(ConfigError, match="^frame indices must be"):
                assemble_command(seq, frame_idx)
        else:
            cmd = assemble_command(seq, frame_idx)
            assert cmd.shape == np.shape(frame_idx) + (COMMAND_DIM,)
            assert np.array_equal(cmd, assemble_command(seq, np.array(same_as, dtype=np.int64)))

    def test_array_of_frames_gives_one_command_each(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.3, 50, 30.0)
        frames = np.array([[0, 7], [31, 49]])
        cmds = assemble_command(seq, frames)
        assert cmds.shape == (2, 2, COMMAND_DIM)
        for i, j in np.ndindex(2, 2):
            assert np.array_equal(cmds[i, j], assemble_command(seq, int(frames[i, j])))


def random_blocks(layout, rng, lead=()):
    return {name: rng.standard_normal(lead + (width,)) for name, width in layout.items()}


class TestObservations:
    def test_policy_obs_length_and_zero_state(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 150, 30.0)
        cmd = assemble_command(seq, 0)
        ori = orientation_error_6d(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
        obs = assemble_obs(POLICY_LAYOUT, command=cmd, anchor_ori_6d=ori, ang_vel=np.zeros(3),
                           joint_pos=np.zeros(29), joint_vel=np.zeros(29),
                           prev_actions=np.zeros(29))
        assert obs.shape == (POLICY_OBS_DIM,)
        assert np.allclose(obs[:520], cmd)
        assert np.allclose(obs[520:526], [1, 0, 0, 0, 1, 0])
        assert np.allclose(obs[526:], 0.0)

    def test_critic_obs_length(self, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 150, 30.0)
        blocks = {name: np.zeros(width) for name, width in CRITIC_LAYOUT.items()}
        blocks["command"] = assemble_command(seq, 3)
        assert assemble_obs(CRITIC_LAYOUT, **blocks).shape == (CRITIC_OBS_DIM,)

    @pytest.mark.parametrize("layout, oracle", [(POLICY_LAYOUT, reference_policy_obs),
                                                (CRITIC_LAYOUT, reference_critic_obs)])
    def test_one_frame_equals_the_oracle_bit_for_bit(self, layout, oracle):
        rng = np.random.default_rng(10)
        for _ in range(5):
            blocks = random_blocks(layout, rng)
            assert np.array_equal(assemble_obs(layout, **blocks), oracle(**blocks))

    @pytest.mark.parametrize("layout", [POLICY_LAYOUT, CRITIC_LAYOUT])
    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    def test_rollout_equals_the_stack_of_frames(self, layout, lead):
        blocks = random_blocks(layout, np.random.default_rng(11), lead)
        frames = [assemble_obs(layout, **{name: value[i] for name, value in blocks.items()})
                  for i in np.ndindex(lead)]
        assert np.array_equal(assemble_obs(layout, **blocks),
                              np.stack(frames).reshape(lead + (-1,)))

    @pytest.mark.parametrize("change", [
        {"anchor_ori_6d": np.zeros(5)},            # wrong width
        {"anchor_ori_6d": np.zeros((2, 3))},       # flattens to 6, but is not (6,)
        {"ang_vel": np.zeros((1, 3))},             # other leading axes
        {"command": np.zeros(())},                 # a scalar first block
        {"command": None},                         # missing name
        {"lin_vel": np.zeros(3)},                  # unknown name
    ])
    def test_bad_blocks_raise(self, change):
        blocks = random_blocks(POLICY_LAYOUT, np.random.default_rng(14))
        blocks.update(change)
        blocks = {name: value for name, value in blocks.items() if value is not None}
        with pytest.raises(DimensionMismatchError):
            assemble_obs(POLICY_LAYOUT, **blocks)


class TestObsNoise:
    def test_zero_width_is_identity(self):
        obs = np.random.default_rng(0).standard_normal((3, POLICY_OBS_DIM))
        cfg = ObservationNoiseConfig(root_ori=0.0, ang_vel=0.0, joint_pos=0.0, joint_vel=0.0)
        out = inject_obs_noise(obs, cfg, np.random.default_rng(1))
        assert np.array_equal(out, obs)

    def test_deterministic_under_seed(self):
        obs = np.random.default_rng(2).standard_normal(POLICY_OBS_DIM)
        cfg = ObservationNoiseConfig()
        a = inject_obs_noise(obs, cfg, np.random.default_rng(7))
        b = inject_obs_noise(obs, cfg, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cfg", [ObservationNoiseConfig(),
                                     ObservationNoiseConfig(ang_vel=0.0, joint_vel=1.5)])
    def test_one_frame_equals_the_oracle_bit_for_bit(self, cfg):
        obs = np.random.default_rng(16).standard_normal(POLICY_OBS_DIM)
        rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(3):   # the streams stay in step from call to call
            assert np.array_equal(inject_obs_noise(obs, cfg, rng),
                                  reference_obs_noise(obs, cfg, oracle_rng))

    def test_rollout_draws_one_block_per_noisy_block_in_order(self):
        obs = np.random.default_rng(18).standard_normal((7, POLICY_OBS_DIM))
        cfg = ObservationNoiseConfig()
        out = inject_obs_noise(obs, cfg, np.random.default_rng(19))
        expected = obs.copy()
        draws = np.random.default_rng(19)
        for bound, start, stop in ((cfg.root_ori, 520, 526), (cfg.ang_vel, 526, 529),
                                   (cfg.joint_pos, 529, 558), (cfg.joint_vel, 558, 587)):
            expected[:, start:stop] += draws.uniform(-bound, bound, (7, stop - start))
        assert np.array_equal(out, expected)
        assert np.array_equal(out[:, POLICY_BLOCKS["command"]], obs[:, :520])
        assert np.array_equal(out[:, POLICY_BLOCKS["prev_actions"]], obs[:, 587:])

    @pytest.mark.parametrize("shape", [(), (615,), (POLICY_OBS_DIM, 1), (3, CRITIC_OBS_DIM)])
    def test_other_widths_raise(self, shape):
        with pytest.raises(DimensionMismatchError):
            inject_obs_noise(np.zeros(shape), ObservationNoiseConfig(), np.random.default_rng(0))

    def test_command_block_untouched_and_bounds_hold(self):
        obs = np.zeros((200, POLICY_OBS_DIM))
        out = inject_obs_noise(obs, ObservationNoiseConfig(), np.random.default_rng(3))
        assert np.array_equal(out[:, :520], obs[:, :520])
        assert np.array_equal(out[:, 587:], obs[:, 587:])
        assert np.max(np.abs(out[:, 529:558])) <= 0.01
        assert np.max(np.abs(out[:, 558:587])) <= 0.5
        assert np.max(np.abs(out[:, 520:526])) <= 0.05
        assert np.max(np.abs(out[:, 526:529])) <= 0.2

    def test_joint_pos_noise_fills_range(self):
        # many draws cover the +-0.01 interval without ever leaving it
        obs = np.zeros((2000, POLICY_OBS_DIM))
        out = inject_obs_noise(obs, ObservationNoiseConfig(), np.random.default_rng(4))
        samples = out[:, 529:558]
        assert samples.max() <= 0.01 and samples.min() >= -0.01
        assert samples.max() > 0.0095 and samples.min() < -0.0095
