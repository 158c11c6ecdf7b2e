import json

import numpy as np
import pytest

from helpers import make_random_sequence, make_walk_sequence
from motion_forge.config import AppConfig, config_from_dict, load_config
from motion_forge.errors import (
    ConfigError,
    DimensionMismatchError,
    FileFormatError,
    NonFiniteError,
)
from motion_forge.features import encode_features, fit_norm_stats
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import (
    load_features,
    load_motion,
    load_norm_stats,
    save_features,
    save_motion,
    save_norm_stats,
)


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


class TestMotionFiles:
    def test_round_trip_bit_exact(self, tmp_path, skel):
        rng = np.random.default_rng(0)
        seq = make_random_sequence(skel, rng, num_frames=5)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        back = load_motion(path, skel)
        for name in ("joint_pos", "joint_vel", "root_pos", "root_quat",
                     "body_pos", "body_rot", "body_lin_vel", "body_ang_vel"):
            assert np.array_equal(getattr(back, name), getattr(seq, name)), name
        assert back.fps == seq.fps

    def test_missing_fps_names_field(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        del doc["fps"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="fps"):
            load_motion(path)

    def test_wrong_joint_count_names_expected(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        for frame in doc["frames"]:
            frame["joint_pos"] = frame["joint_pos"][:28]
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatchError, match="29"):
            load_motion(path)

    def test_unknown_version_rejected(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="format_version"):
            load_motion(path)

    def test_unknown_top_level_key_rejected(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="extra"):
            load_motion(path)

    def test_velocities_rebuilt_when_absent(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.2, 0.0, 10, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        for frame in doc["frames"]:
            del frame["joint_vel"]
            del frame["body_lin_vel"]
            del frame["body_ang_vel"]
        path.write_text(json.dumps(doc))
        back = load_motion(path, skel)
        # constant-velocity walk: central differences recover the velocity
        assert np.allclose(back.body_lin_vel[1:-1, 0, 0], 1.2, atol=1e-9)

    def test_name_mismatch_rejected(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        doc["body_names"][5] = "mystery_link"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatchError, match="skeleton"):
            load_motion(path, skel)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="JSON"):
            load_motion(path)

    def test_non_finite_value_names_file_and_field(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        doc["frames"][3]["body_pos"][4][2] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(NonFiniteError, match=r"clip\.json: field 'body_pos'"):
            load_motion(path, skel)


class TestFeatureAndStatsFiles:
    def test_features_round_trip(self, tmp_path, skel):
        rng = np.random.default_rng(1)
        seq = make_random_sequence(skel, rng, num_frames=7)
        feats = encode_features(seq, skel)
        path = tmp_path / "feats.json"
        save_features(feats, 30.0, path)
        back, fps = load_features(path)
        assert fps == 30.0
        assert np.array_equal(back, feats)

    def test_feature_dim_validated(self, tmp_path):
        path = tmp_path / "feats.json"
        path.write_text(json.dumps({"format_version": 1, "fps": 30.0,
                                    "features": [[0.0] * 100]}))
        with pytest.raises(DimensionMismatchError, match="262"):
            load_features(path)

    def test_features_non_finite_rejected(self, tmp_path):
        path = tmp_path / "feats.json"
        frames = [[0.0] * 262 for _ in range(3)]
        frames[1][7] = float("inf")
        path.write_text(json.dumps({"format_version": 1, "fps": 30.0, "features": frames}))
        with pytest.raises(NonFiniteError, match=r"feats\.json: field 'features'"):
            load_features(path)

    def test_norm_stats_non_finite_rejected(self, tmp_path, skel):
        rng = np.random.default_rng(3)
        stats = fit_norm_stats(encode_features(make_random_sequence(skel, rng, num_frames=20), skel))
        path = tmp_path / "stats.json"
        save_norm_stats(stats, path)
        doc = json.loads(path.read_text())
        doc["std"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(NonFiniteError, match=r"stats\.json: field 'std'"):
            load_norm_stats(path)

    def test_norm_stats_round_trip(self, tmp_path, skel):
        rng = np.random.default_rng(2)
        seq = make_random_sequence(skel, rng, num_frames=20)
        stats = fit_norm_stats(encode_features(seq, skel))
        path = tmp_path / "stats.json"
        save_norm_stats(stats, path)
        back = load_norm_stats(path)
        assert np.array_equal(back.mean, stats.mean)
        assert np.array_equal(back.std, stats.std)
        assert np.array_equal(back.mask, stats.mask)


class TestConfig:
    def test_default_round_trip(self):
        cfg = config_from_dict({})
        assert isinstance(cfg, AppConfig)
        assert cfg.curriculum.epsilon == 0.20
        assert cfg.router.top_k == 2
        assert cfg.diffusion.guidance_scale == 2.5

    def test_section_overrides(self):
        cfg = config_from_dict({
            "curriculum": {"epsilon": 0.1, "temperature": 2.0},
            "rewards": {"anchor_pos": [0.9, 0.25]},
            "tracker": {"kind": "failure", "fail_after_frame": 42},
            "prefix_loop": {"mpjpe_tolerance": 0.2},
        })
        assert cfg.curriculum.epsilon == 0.1
        assert cfg.rewards.anchor_pos.weight == 0.9
        assert cfg.rewards.anchor_pos.sigma == 0.25
        assert cfg.tracker.fail_after_frame == 42
        assert cfg.prefix_loop.mpjpe_tolerance == 0.2

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict({"mystery": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="typo"):
            config_from_dict({"curriculum": {"typo": 1}})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"curriculum": {"epsilon": 1.5}})
        with pytest.raises(ConfigError):
            config_from_dict({"tracker": {"kind": "nope"}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"router": {"top_k": 3}}))
        cfg = load_config(path)
        assert cfg.router.top_k == 3

    def test_bad_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, tmp_path, literal):
        # Python's json reads NaN/Infinity, and 1e999 overflows to inf
        path = tmp_path / "cfg.json"
        path.write_text('{"tracker": {"kind": "perturbation", "offset": %s}}' % literal)
        with pytest.raises(ConfigError, match=f"{literal} is not a finite number"):
            load_config(path)
