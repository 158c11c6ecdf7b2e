import dataclasses
import json

import numpy as np
import pytest

from helpers import MALFORMED_MOTION_CASES, make_random_sequence, make_walk_sequence
from motion_forge import errors
from motion_forge.config import AppConfig, config_from_dict, load_config
from motion_forge.errors import (
    ConfigError,
    DimensionMismatchError,
    FileFormatError,
    NonFiniteError,
)
from motion_forge.features import encode_features, fit_norm_stats
from motion_forge.motion import FIELDS, default_skeleton
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
        for name in FIELDS:
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
        doc["joint_pos"] = [row[:28] for row in doc["joint_pos"]]
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

    def test_document_is_columnar(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 6, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        widths = {"joint_pos": 29, "joint_vel": 29, "root_pos": 3, "root_quat": 4,
                  "body_pos": 90, "body_rot": 270, "body_lin_vel": 90, "body_ang_vel": 90}
        assert set(doc) == {"format_version", "fps", "joint_names", "body_names", *widths}
        for name, width in widths.items():
            assert [len(row) for row in doc[name]] == [width] * 6, name
        assert doc["body_rot"][2][9:18] == seq.body_rot[2, 1].ravel().tolist()

    def test_per_frame_version_1_document_rejected(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        path = tmp_path / "clip.json"
        # the per-frame layout: one object of nested arrays per frame
        frames = [{
            "joint_pos": seq.joint_pos[i].tolist(), "joint_vel": seq.joint_vel[i].tolist(),
            "root_pos": seq.root_pos[i].tolist(), "root_quat": seq.root_quat[i].tolist(),
            "body_pos": seq.body_pos[i].tolist(), "body_rot": seq.body_rot[i].reshape(30, 9).tolist(),
        } for i in range(5)]
        path.write_text(json.dumps({"format_version": 1, "fps": 30.0,
                                    "joint_names": list(skel.joint_names),
                                    "body_names": list(skel.body_names), "frames": frames}))
        with pytest.raises(FileFormatError,
                           match=r"clip\.json: unsupported format_version 1 \(this reader expects 2\)"):
            load_motion(path, skel)

    def test_save_rejects_non_finite_and_writes_nothing(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 5, 30.0)
        body_pos = seq.body_pos.copy()
        body_pos[2, 7, 1] = np.nan
        seq = dataclasses.replace(seq, body_pos=body_pos)
        path = tmp_path / "clip.json"
        with pytest.raises(NonFiniteError, match=r"clip\.json: field 'body_pos'"):
            save_motion(seq, path, skel)
        assert not path.exists()

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
        for name in ("joint_vel", "body_lin_vel", "body_ang_vel"):
            del doc[name]
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
        doc["body_pos"][3][4 * 3 + 2] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(NonFiniteError, match=r"clip\.json: field 'body_pos'"):
            load_motion(path, skel)


class TestMalformedMotionFiles:
    """Every defect raises a typed error naming the file, frame and field,
    never a bare KeyError, ValueError or TypeError."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_MOTION_CASES))
    def test_typed_error_names_file_frame_and_field(self, tmp_path, skel, case):
        edit, error, pattern = MALFORMED_MOTION_CASES[case]
        seq = make_walk_sequence(skel, 1.0, 0.0, 8, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(getattr(errors, error), match=pattern):
            load_motion(path, skel)

    def test_integer_values_load_as_floats(self, tmp_path, skel):
        seq = make_walk_sequence(skel, 1.0, 0.0, 8, 30.0)
        path = tmp_path / "clip.json"
        save_motion(seq, path, skel)
        doc = json.loads(path.read_text())
        doc["fps"] = 30
        doc["joint_pos"] = [[0] * 29 for _ in range(8)]
        path.write_text(json.dumps(doc))
        back = load_motion(path, skel)
        assert back.fps == 30.0
        assert back.joint_pos.dtype == np.float64 and not back.joint_pos.any()
        assert np.array_equal(back.body_pos, seq.body_pos)


def saved_stats(tmp_path, skel):
    """A saved norm-stats file and its parsed document."""
    rng = np.random.default_rng(3)
    stats = fit_norm_stats(encode_features(make_random_sequence(skel, rng, num_frames=20), skel))
    path = tmp_path / "stats.json"
    save_norm_stats(stats, path)
    return path, json.loads(path.read_text())


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
        path, doc = saved_stats(tmp_path, skel)
        doc["std"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(NonFiniteError, match=r"stats\.json: field 'std'"):
            load_norm_stats(path)

    @pytest.mark.parametrize("edit, error, pattern", [
        (lambda doc: doc.update(fps="thirty"), FileFormatError,
         r"feats\.json: 'fps' must be a number"),
        (lambda doc: doc["features"][1].__setitem__(40, "ten"), FileFormatError,
         r"feats\.json: frame 1 field 'features' must hold only numbers"),
        (lambda doc: doc["features"].__setitem__(1, None), DimensionMismatchError,
         r"feats\.json: frame 1 field 'features' must have shape \(262,\)"),
    ], ids=["string_fps", "string_feature", "null_row"])
    def test_features_typed_errors(self, tmp_path, edit, error, pattern):
        path = tmp_path / "feats.json"
        doc = {"format_version": 1, "fps": 30.0, "features": [[0.0] * 262 for _ in range(3)]}
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=pattern):
            load_features(path)

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_norm_stats_string_value_names_field(self, tmp_path, skel, field):
        path, doc = saved_stats(tmp_path, skel)
        doc[field][5] = "wide"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=rf"stats\.json: field '{field}' must hold only numbers"):
            load_norm_stats(path)
        doc[field] = doc[field][:100]
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatchError, match=rf"stats\.json: field '{field}' must have shape"):
            load_norm_stats(path)

    @pytest.mark.parametrize("field, value", [("mask", ["yes"] * 262), ("mask", [1] * 262),
                                              ("clamped", "no")])
    def test_norm_stats_flags_must_be_booleans(self, tmp_path, skel, field, value):
        # numpy would read any non-empty string, or any nonzero number, as True
        path, doc = saved_stats(tmp_path, skel)
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=rf"stats\.json: field '{field}' must"):
            load_norm_stats(path)

    def test_save_features_rejects_non_finite(self, tmp_path):
        feats = np.zeros((3, 262))
        feats[1, 7] = np.inf
        path = tmp_path / "feats.json"
        with pytest.raises(NonFiniteError, match=r"feats\.json: field 'features'"):
            save_features(feats, 30.0, path)
        assert not path.exists()

    def test_save_norm_stats_rejects_non_finite(self, tmp_path, skel):
        rng = np.random.default_rng(3)
        stats = fit_norm_stats(encode_features(make_random_sequence(skel, rng, num_frames=20), skel))
        mean = stats.mean.copy()
        mean[3] = np.nan
        path = tmp_path / "stats.json"
        with pytest.raises(NonFiniteError, match=r"stats\.json: field 'mean'"):
            save_norm_stats(dataclasses.replace(stats, mean=mean), path)
        assert not path.exists()

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

    @pytest.mark.parametrize("section", ["diffusion", "obs_noise"])
    def test_removed_sections_rejected(self, section):
        # no subcommand read these sections, so they are no longer settable
        with pytest.raises(ConfigError, match=section):
            config_from_dict({section: {}})

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
