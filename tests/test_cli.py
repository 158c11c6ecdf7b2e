import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from helpers import (
    MALFORMED_MOTION_CASES,
    make_standing_sequence,
    make_walk_sequence,
    neutral_features,
    quat_from_axis_angle,
    rigid_sequence,
)
from motion_forge import router as rt
from motion_forge.cli import cli_dispatch
from motion_forge.features import FEATURE_DIM
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import load_features, save_features, save_motion
from motion_forge.prefix_loop import TrackerConfig
from motion_forge.rotations import matrix_to_quat, quat_to_matrix, rot_z


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


@pytest.fixture()
def walk_file(tmp_path, skel):
    seq = make_walk_sequence(skel, 1.0, 0.1, 45, 30.0, start_yaw=0.7)
    path = tmp_path / "walk.json"
    save_motion(seq, path, skel)
    return path


def run(argv, capsys=None):
    code = cli_dispatch([str(a) for a in argv])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def one_error_line(code, captured, error="ConfigError") -> dict:
    """Exit code 1 and exactly one JSON error object, of type `error`, on stderr."""
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error
    return err


def write_config(tmp_path, text):
    """A config file holding `text`, a JSON document or its Python dict."""
    path = tmp_path / "cfg.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    return path


def save_tracked_pair(tmp_path, skel):
    """ref.json, a reference walk, and sim.json, a seeded imperfect execution
    of it: position noise, a yaw jitter per frame and body (the root's also
    turns the root quaternion), and noisy linear and angular velocities, so
    that no reward term sits at 1."""
    ref = make_walk_sequence(skel, 1.2, 0.3, 60, 30.0, start_yaw=0.4)
    rng = np.random.default_rng(11)
    jitter = rot_z(rng.normal(0.0, 0.08, (60, 30)))
    body_pos = ref.body_pos + rng.normal(0.0, 0.03, ref.body_pos.shape)
    sim = dataclasses.replace(
        ref,
        root_pos=body_pos[:, 0],
        root_quat=matrix_to_quat(jitter[:, 0] @ quat_to_matrix(ref.root_quat)),
        body_pos=body_pos,
        body_rot=jitter @ ref.body_rot,
        body_lin_vel=ref.body_lin_vel + rng.normal(0.0, 0.4, ref.body_lin_vel.shape),
        body_ang_vel=ref.body_ang_vel + rng.normal(0.0, 0.9, ref.body_ang_vel.shape),
    )
    paths = tmp_path / "ref.json", tmp_path / "sim.json"
    save_motion(ref, paths[0], skel)
    save_motion(sim, paths[1], skel)
    return paths


class TestEncodeDecode:
    def test_encode_writes_262_features(self, tmp_path, walk_file):
        out = tmp_path / "feats.json"
        assert run(["encode", walk_file, "--out", out]) == 0
        feats, fps = load_features(out)
        assert feats.shape == (45, FEATURE_DIM)
        assert fps == 30.0

    def test_decode_trajectory(self, tmp_path, walk_file, capsys):
        feats_path = tmp_path / "feats.json"
        run(["encode", walk_file, "--out", feats_path])
        code, captured = run(["decode", feats_path], capsys)
        assert code == 0
        doc = json.loads(captured.out)
        assert len(doc["trajectory"]) == 45
        assert doc["trajectory"][0]["root_pos"][:2] == [0.0, 0.0]
        assert doc["trajectory"][0]["yaw"] == 0.0

    @pytest.mark.parametrize("edit, error, pattern", [
        (lambda doc: doc.update(fps="thirty"), "FileFormatError",
         r"feats\.json: 'fps' must be a number"),
        (lambda doc: doc["features"][3].__setitem__(10, "x"), "FileFormatError",
         r"feats\.json: frame 3 field 'features' must hold only numbers"),
        (lambda doc: doc.update(fps=0), "FileFormatError", r"feats\.json: 'fps' must be > 0"),
        (lambda doc: doc.update(fps=-30), "FileFormatError", r"feats\.json: 'fps' must be > 0"),
    ], ids=["string_fps", "string_feature", "zero_fps", "negative_fps"])
    def test_malformed_features_are_a_json_error(self, tmp_path, walk_file, capsys,
                                                 edit, error, pattern):
        path = tmp_path / "feats.json"
        run(["encode", walk_file, "--out", path])
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        code, captured = run(["decode", path], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == error
        assert re.search(pattern, err["message"])
        assert captured.out == ""

    def test_seeded_runs_byte_identical(self, tmp_path, walk_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["encode", walk_file, "--seed", 7, "--out", out1])
        run(["encode", walk_file, "--seed", 7, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED_MOTION_CASES))
    def test_malformed_clip_is_a_json_error(self, tmp_path, walk_file, capsys, case):
        edit, error, pattern = MALFORMED_MOTION_CASES[case]
        doc = json.loads(walk_file.read_text())
        edit(doc)
        path = tmp_path / "clip.json"
        path.write_text(json.dumps(doc))
        code, captured = run(["encode", path, "--out", tmp_path / "feats.json"], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == error
        assert re.search(pattern, err["message"])
        assert not (tmp_path / "feats.json").exists()


class TestMetricsCli:
    def test_report_on_stdout(self, walk_file, capsys):
        code, captured = run(["metrics", walk_file, walk_file], capsys)
        assert code == 0
        report = json.loads(captured.out)
        assert report["success"] is True
        assert report["mpjpe_m"] == 0.0
        assert report["failure_reason"] == "none"

    @pytest.mark.parametrize("command", ["metrics", "reward-eval"])
    def test_clips_at_different_frame_rates_are_one_alignment_error(
            self, tmp_path, skel, capsys, command):
        seq = make_walk_sequence(skel, 1.0, 0.1, 45, 30.0)
        save_motion(seq, tmp_path / "ref.json", skel)
        save_motion(dataclasses.replace(seq, fps=60.0), tmp_path / "sim.json", skel)
        code, captured = run([command, tmp_path / "ref.json", tmp_path / "sim.json"], capsys)
        err = one_error_line(code, captured, "AlignmentError")
        assert "30.0 vs 60.0" in err["message"]
        assert captured.out == ""

    def test_missing_file_error_json(self, tmp_path, capsys):
        code, captured = run(["metrics", tmp_path / "no.json", tmp_path / "no.json"], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "FileFormatError"
        assert "message" in err


class TestRewardEvalCli:
    def test_csv_per_frame(self, tmp_path, walk_file):
        out = tmp_path / "rewards.csv"
        assert run(["reward-eval", walk_file, walk_file, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("frame,anchor_pos,")
        assert len(lines) == 1 + 45
        total = float(lines[1].split(",")[-1])
        assert total == pytest.approx(5.3, abs=1e-6)

    def test_unequal_lengths_are_a_json_error(self, tmp_path, skel, walk_file, capsys):
        short = tmp_path / "short.json"
        save_motion(make_walk_sequence(skel, 1.0, 0.1, 30, 30.0), short, skel)
        code, captured = run(["reward-eval", walk_file, short], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "DimensionMismatchError"
        assert "(45, 4)" in err["message"] and "(30, 4)" in err["message"]

    @pytest.mark.parametrize("rewards", [
        {"tracked_bodies": [31]},
        {"anchor_body": 40},
        {"tracked_bodies": []},
        {"tracked_bodies": [1.5]},
        {"anchor_body": True},
    ], ids=["tracked-out-of-range", "anchor-out-of-range", "tracked-empty",
            "tracked-fraction", "anchor-bool"])
    def test_bad_body_index_is_a_config_error(self, tmp_path, walk_file, capsys, rewards):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rewards": rewards}))
        out = tmp_path / "rewards.csv"
        code, captured = run(["reward-eval", walk_file, walk_file, "--config", cfg_path,
                              "--out", out], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert f"{next(iter(rewards))}: expected body indices in 0..29" in err["message"]
        assert not out.exists()

    def test_tracked_pair_matches_golden_sha256(self, tmp_path, skel):
        paths = save_tracked_pair(tmp_path, skel)
        out = tmp_path / "rewards.csv"
        assert run(["reward-eval", *paths, "--out", out]) == 0
        text = out.read_text()
        rows = np.array([line.split(",")[1:-1] for line in text.splitlines()[1:]], dtype=float)
        assert rows.shape == (60, 6)
        assert np.all(rows < 1.0) and np.all(rows > 0.0)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "350b2afc448d45a16abf3c7a4f46031b77cd9d24b1c34807cd6ea41fd34ee614"


class TestCurriculumSimCli:
    def corpus(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"files": [
            {"id": "a", "level": 1},
            {"id": "b", "level": 1, "start_error": 0.5, "error_floor": 0.5},
        ]}))
        return path

    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(["curriculum-sim", "--corpus", self.corpus(tmp_path),
                    "--config", write_config(tmp_path, {"sim": {"total_iters": 2000}}),
                    "--seed", 3, "--out", out])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("iteration,")
        assert len(lines) == 1 + 4

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        argv = ["curriculum-sim", "--corpus", self.corpus(tmp_path),
                "--config", write_config(tmp_path, {"sim": {"total_iters": 1500}}),
                "--seed", 5]
        run(argv + ["--out", out1])
        run(argv + ["--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_corpus_spec(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"files": [{"id": "a", "level": 1, "oops": 2}]}))
        code, captured = run(["curriculum-sim", "--corpus", path], capsys)
        assert code == 1
        assert json.loads(captured.err)["error"] == "ConfigError"


    def test_non_object_corpus_entry_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"files": [1]}))
        err = one_error_line(*run(["curriculum-sim", "--corpus", path], capsys))
        assert "corpus file 0 must be a JSON object" in err["message"]

    @pytest.mark.parametrize("key, value", [
        ("start_error", "x"),
        ("error_floor", float("nan")),
        ("improve_rate", -5),
        ("success_scale", 0),
        ("start_error", True),
        ("success_scale", float("inf")),
    ], ids=["string", "nan", "negative_rate", "zero_scale", "bool", "inf_scale"])
    def test_bad_corpus_number_is_a_config_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"files": [{"id": "a", "level": 1, key: value}]}))
        err = one_error_line(*run(["curriculum-sim", "--corpus", path,
                                   "--out", tmp_path / "t.csv"], capsys))
        assert "corpus file 'a'" in err["message"] and key in err["message"]
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("field", ["trace_interval", "eval_interval"])
    def test_zero_interval_is_a_config_error(self, tmp_path, capsys, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sim": {field: 0}}))
        code, captured = run(["curriculum-sim", "--corpus", self.corpus(tmp_path),
                              "--config", cfg_path, "--out", tmp_path / "t.csv"], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert field in err["message"]


class TestRouteSimCli:
    def records(self, tmp_path, n=20, stage=2):
        rng = np.random.default_rng(0)
        path = tmp_path / "records.json"
        path.write_text(json.dumps({
            "stage": stage,
            "records": [
                {"z": rng.standard_normal(8).tolist(), "level": int(rng.integers(1, 4))}
                for _ in range(n)
            ],
        }))
        return path

    def test_csv_weights_sum_to_one(self, tmp_path):
        out = tmp_path / "routes.csv"
        assert run(["route-sim", self.records(tmp_path), "--seed", 1, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["step", "level", "hard_routed", "entropy", "top_gap"]
        for line in lines[1:]:
            parts = line.split(",")
            weights = [float(x) for x in parts[5:]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, tmp_path):
        recs = self.records(tmp_path, stage=1)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run(["route-sim", recs, "--seed", 9, "--out", out1])
        run(["route-sim", recs, "--seed", 9, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_pool_wider_than_latent_rejected(self, tmp_path, capsys):
        # 8-value latents, no 'obs', and a pool that expects 12 inputs
        pool = rt.make_random_pool(np.random.default_rng(0), num_experts=2, input_dim=12,
                                   hidden=(4,), output_dim=3, capacity=4)
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(json.dumps(rt.pool_to_dict(pool)))
        out = tmp_path / "routes.csv"
        code, captured = run(["route-sim", self.records(tmp_path), "--pool", pool_path,
                              "--out", out], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert "input_dim 12" in err["message"]
        assert not out.exists()

    def pool_doc(self, input_dim=8):
        pool = rt.make_random_pool(np.random.default_rng(0), num_experts=2,
                                   input_dim=input_dim, hidden=(4,), output_dim=3, capacity=4)
        return rt.pool_to_dict(pool)

    def run_bad(self, tmp_path, capsys, records=None, pool=None):
        """route-sim on the given records/pool documents; the JSON error."""
        rec_path = self.records(tmp_path)
        if records is not None:
            rec_path.write_text(json.dumps(records))
        argv = ["route-sim", rec_path, "--out", tmp_path / "routes.csv"]
        if pool is not None:
            (tmp_path / "pool.json").write_text(json.dumps(pool))
            argv += ["--pool", tmp_path / "pool.json"]
        code, captured = run(argv, capsys)
        assert code == 1
        assert not (tmp_path / "routes.csv").exists()
        return json.loads(captured.err)

    def test_pool_without_input_dim_rejected(self, tmp_path, capsys):
        pool = self.pool_doc()
        del pool["input_dim"]
        err = self.run_bad(tmp_path, capsys, pool=pool)
        assert err["error"] == "ConfigError" and "input_dim" in err["message"]

    def test_layer_weights_not_filling_shape_rejected(self, tmp_path, capsys):
        pool = self.pool_doc()
        pool["experts"][1]["layers"][0]["w"].pop()
        err = self.run_bad(tmp_path, capsys, pool=pool)
        assert err["error"] == "ConfigError"
        assert "expert 1 layer 0" in err["message"] and "[4, 8]" in err["message"]

    def test_layers_not_chaining_dims_rejected(self, tmp_path, capsys):
        pool = self.pool_doc()
        pool["hidden"] = [5]
        err = self.run_bad(tmp_path, capsys, pool=pool)
        assert err["error"] == "ConfigError" and "do not chain" in err["message"]

    def test_nan_expert_weight_rejected(self, tmp_path, capsys):
        pool = self.pool_doc()
        pool["experts"][0]["layers"][1]["w"][2] = float("nan")
        err = self.run_bad(tmp_path, capsys, pool=pool)
        assert err["error"] == "NonFiniteError"
        assert "expert 0 layer 1 'w'" in err["message"]

    def test_records_list_document_rejected(self, tmp_path, capsys):
        err = self.run_bad(tmp_path, capsys, records=[{"z": [0.1] * 8, "level": 1}])
        assert err["error"] == "ConfigError" and "must be a JSON object" in err["message"]

    @pytest.mark.parametrize("key, value, pattern", [
        ("unlocked_count", 0, "unlocked_count 0 is not in 1..2"),
        ("unlocked_count", 3, "unlocked_count 3 is not in 1..2"),
        ("lr_multipliers", [1.0] * 5, "5 lr_multipliers for 2 experts"),
    ], ids=["no_unlocked", "unlocked_above_experts", "lr_length"])
    def test_pool_breaking_an_invariant_rejected(self, tmp_path, capsys, key, value, pattern):
        pool = self.pool_doc()
        pool[key] = value
        err = self.run_bad(tmp_path, capsys, pool=pool)
        assert err["error"] == "ConfigError" and pattern in err["message"]

    def test_record_without_latent_rejected(self, tmp_path, capsys):
        err = self.run_bad(tmp_path, capsys, records={"records": [
            {"z": [0.1] * 8, "level": 1}, {"level": 2}]})
        assert err["error"] == "ConfigError" and "record 1" in err["message"]

    @pytest.mark.parametrize("doc, message", [
        ({"records": [{"z": [0.1] * 8, "level": "two"}]},
         "record 0: 'level' must be an integer, got 'two'"),
        ({"stage": "x", "records": [{"z": [0.1] * 8, "level": 1}]},
         "records: 'stage' must be an integer, got 'x'"),
        *(({"stage": stage, "records": [{"z": [0.1] * 8, "level": 1}]},
           f"records: 'stage' must {message}")
          for stage, message in ((3, "be 1 or 2, got 3"), (1.7, "be an integer, got 1.7"),
                                 ("1", "be an integer, got '1'"))),
        *(({"records": [{"z": [0.1] * 8, "level": 1}, {"z": [0.1] * 8, "level": level}]},
           f"record 1: 'level' must {message}")
          for level, message in ((2.9, "be an integer, got 2.9"), (0, "be >= 1, got 0"),
                                 (-3, "be >= 1, got -3"), (True, "be an integer, got True"))),
    ], ids=["string_level", "string_stage", "stage_3", "fractional_stage", "stage_in_quotes",
            "fractional_level", "level_0", "negative_level", "bool_level"])
    def test_non_integer_stage_or_level_rejected(self, tmp_path, capsys, doc, message):
        err = self.run_bad(tmp_path, capsys, records=doc)
        assert err == {"error": "ConfigError", "message": message}

    def test_nan_latent_rejected(self, tmp_path, capsys):
        err = self.run_bad(tmp_path, capsys, records={"records": [
            {"z": [0.1] * 7 + [float("nan")], "level": 1}]})
        assert err["error"] == "NonFiniteError" and "record 0" in err["message"]

    @pytest.mark.parametrize("obs, error", [
        ("abc", "ConfigError"),
        ([0.1] * 7 + [float("nan")], "NonFiniteError"),
    ], ids=["string", "nan"])
    def test_bad_obs_rejected(self, tmp_path, capsys, obs, error):
        err = self.run_bad(tmp_path, capsys, records={"records": [
            {"z": [0.1] * 8, "level": 1}, {"z": [0.1] * 8, "obs": obs, "level": 1}]})
        assert err["error"] == error
        assert "record 1" in err["message"] and "'obs'" in err["message"]


class TestAsfoPlanCli:
    def test_plan_output(self, tmp_path, capsys):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": {
            **{f"w{i}": ["walk"] for i in range(10)},
            "rare": ["cartwheel"],
        }}))
        code, captured = run(["asfo-plan", samples, "--seed", 2], capsys)
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["multipliers"]["cartwheel"] > 1
        assert doc["plan_size"] == len(doc["plan"])
        rare_copies = [e for e in doc["plan"] if e["sample_id"] == "rare"]
        assert len(rare_copies) == doc["multipliers"]["cartwheel"]

    def test_tagless_samples_plan_once_each_unmirrored(self, tmp_path, capsys):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": {"a": [], "b": []}}))
        code, captured = run(["asfo-plan", samples], capsys)
        assert code == 0
        assert json.loads(captured.out) == {
            "multipliers": {}, "plan_size": 2,
            "plan": [{"sample_id": "a", "mirrored": False, "tags": []},
                     {"sample_id": "b", "mirrored": False, "tags": []}]}

    @pytest.mark.parametrize("doc, pattern", [
        ([{"id": "a", "tags": ["walk"]}], "must be a JSON object"),
        ({"samples": {"a": 5}}, "sample 'a': tags must be a list of strings"),
        ({"samples": {"a": ["walk", {"b": 1}]}}, "sample 'a': tags must be a list of strings"),
    ], ids=["list_document", "number_tags", "dict_tag"])
    def test_malformed_samples_are_a_config_error(self, tmp_path, capsys, doc, pattern):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(doc))
        err = one_error_line(*run(["asfo-plan", samples, "--out", tmp_path / "plan.json"],
                                  capsys))
        assert pattern in err["message"]
        assert not (tmp_path / "plan.json").exists()


class TestPrefixRunCli:
    def test_runs_from_feature_prefix(self, tmp_path, skel):
        prefix_path = tmp_path / "prefix.json"
        save_features(neutral_features(30), 30.0, prefix_path)
        target_path = tmp_path / "target.json"
        save_features(neutral_features(2, height=0.9), 30.0, target_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"prefix_loop": {"horizon_seconds": 2.0}}))
        out = tmp_path / "assembled.json"
        trace_path = tmp_path / "trace.json"
        code = run(["prefix-run", prefix_path, target_path, "--config", cfg_path,
                    "--seed", 4, "--out", out, "--trace", trace_path])
        assert code == 0
        feats, fps = load_features(out)
        assert feats.shape == (30 + 60, FEATURE_DIM)
        trace = json.loads(trace_path.read_text())
        assert trace["termination"] == "completed"
        assert len(trace["segments"]) == 2

    def test_runs_from_motion_prefix(self, tmp_path, skel):
        seq = rigid_sequence(
            skel,
            np.tile([0.0, 0.0, 0.8], (30, 1)),
            np.zeros(30),
            30.0,
        )
        prefix_path = tmp_path / "prefix_motion.json"
        save_motion(seq, prefix_path, skel)
        target_path = tmp_path / "target.json"
        save_features(neutral_features(2), 30.0, target_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"prefix_loop": {"horizon_seconds": 1.0}}))
        out = tmp_path / "assembled.json"
        code = run(["prefix-run", prefix_path, target_path, "--config", cfg_path,
                    "--out", out])
        assert code == 0
        feats, _ = load_features(out)
        assert feats.shape[0] == 60

    def test_failure_tracker_reported(self, tmp_path):
        prefix_path = tmp_path / "prefix.json"
        save_features(neutral_features(30), 30.0, prefix_path)
        target_path = tmp_path / "target.json"
        save_features(neutral_features(2), 30.0, target_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "prefix_loop": {"horizon_seconds": 3.0, "max_resamples": 2},
            "tracker": {"offset": 10.0, "offset_from_frame": 0},
        }))
        out = tmp_path / "assembled.json"
        trace_path = tmp_path / "trace.json"
        code = run(["prefix-run", prefix_path, target_path, "--config", cfg_path,
                    "--out", out, "--trace", trace_path])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["termination"] == "exhausted_resamples"
        assert trace["total_attempts"] == 2


    def test_nan_tracker_is_an_error_not_a_nan_trace(self, tmp_path, capsys):
        prefix_path = tmp_path / "prefix.json"
        save_features(neutral_features(30), 30.0, prefix_path)
        target_path = tmp_path / "target.json"
        save_features(neutral_features(2), 30.0, target_path)
        cfg_path = tmp_path / "cfg.json"
        # Python's json reads the NaN literal; the config loader refuses it
        # before a tracker is built (NonFiniteError in the loop stays the
        # backstop for a plug-in that produces NaN itself)
        cfg_path.write_text(
            '{"prefix_loop": {"horizon_seconds": 1.0},'
            ' "tracker": {"offset": NaN}}'
        )
        trace_path = tmp_path / "trace.json"
        code, captured = run(["prefix-run", prefix_path, target_path, "--config", cfg_path,
                              "--out", tmp_path / "out.json", "--trace", trace_path], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "NaN is not a finite number" in err["message"]
        assert not trace_path.exists()

    def test_bad_tracked_body_is_a_config_error(self, tmp_path, capsys):
        prefix_path = tmp_path / "prefix.json"
        save_features(neutral_features(30), 30.0, prefix_path)
        target_path = tmp_path / "target.json"
        save_features(neutral_features(2), 30.0, target_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"prefix_loop": {"horizon_seconds": 1.0,
                                                        "tracked_bodies": [31]}}))
        trace_path = tmp_path / "trace.json"
        code, captured = run(["prefix-run", prefix_path, target_path, "--config", cfg_path,
                              "--out", tmp_path / "out.json", "--trace", trace_path], capsys)
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert "tracked_bodies: expected body indices in 0..29" in err["message"]
        assert not trace_path.exists()

    @staticmethod
    def output_bytes(tmp_path, config, seed):
        """`--out` and `--trace` bytes of a 2 s prefix-run under `config` and `seed`."""
        run_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        run_dir.mkdir()
        save_features(neutral_features(30), 30.0, run_dir / "prefix.json")
        save_features(neutral_features(2, height=0.9), 30.0, run_dir / "target.json")
        (run_dir / "cfg.json").write_text(json.dumps(
            {"prefix_loop": {"horizon_seconds": 2.0}, **config}))
        code = run(["prefix-run", run_dir / "prefix.json", run_dir / "target.json",
                    "--config", run_dir / "cfg.json", "--seed", seed,
                    "--out", run_dir / "out.json", "--trace", run_dir / "trace.json"])
        assert code == 0
        return (run_dir / "out.json").read_bytes(), (run_dir / "trace.json").read_bytes()

    # (the rest of the tracker section, the key set, its value): each key
    # changes the output; where the lift starts matters once there is a lift
    TRACKER_KEYS = [({}, "noise_scale", 0.01), ({}, "offset", 0.05),
                    ({"offset": 0.05}, "offset_from_frame", 40)]

    def test_every_tracker_key_is_covered(self):
        assert ({key for _, key, _ in self.TRACKER_KEYS}
                == {f.name for f in dataclasses.fields(TrackerConfig)})

    @pytest.mark.parametrize("rest, key, value", TRACKER_KEYS, ids=[k for _, k, _ in TRACKER_KEYS])
    def test_every_tracker_key_takes_effect(self, tmp_path, rest, key, value):
        assert (self.output_bytes(tmp_path, {"tracker": {**rest, key: value}}, 3)
                != self.output_bytes(tmp_path, {"tracker": rest}, 3))

    def test_seed_alone_decides_the_tracker_noise(self, tmp_path):
        # a noise-free generator makes the same segments under every seed, so
        # a difference between seeds is the tracker's
        quiet = {"generator": {"noise_scale": 0.0}}
        noisy = {**quiet, "tracker": {"noise_scale": 0.02}}
        assert self.output_bytes(tmp_path, noisy, 3) == self.output_bytes(tmp_path, noisy, 3)
        assert self.output_bytes(tmp_path, quiet, 3) == self.output_bytes(tmp_path, quiet, 4)
        assert self.output_bytes(tmp_path, noisy, 3) != self.output_bytes(tmp_path, noisy, 4)

    def test_each_input_file_is_parsed_once(self, tmp_path, skel, monkeypatch):
        seq = rigid_sequence(skel, np.tile([0.0, 0.0, 0.8], (30, 1)), np.zeros(30), 30.0)
        prefix_path = tmp_path / "prefix_motion.json"
        save_motion(seq, prefix_path, skel)
        target_path = tmp_path / "target.json"
        save_features(neutral_features(2), 30.0, target_path)
        parsed = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        code = run(["prefix-run", prefix_path, target_path, "--out", tmp_path / "out.json"])
        assert code == 0
        assert sorted(parsed) == sorted([prefix_path.read_text(), target_path.read_text()])


def save_golden_inputs(tmp_path, skel) -> dict:
    """The input files of the golden runs below, by name."""
    files = dict(zip(("ref", "sim"), save_tracked_pair(tmp_path, skel)))
    docs = {
        "corpus": {"files": [
            {"id": f"clip_{i:02d}", "level": 1 + i % 4, "start_error": 0.1 + 0.01 * i,
             "error_floor": 0.005 * (i % 6), "improve_rate": 1e-4 * (1 + i % 5),
             "success_scale": 0.05 + 0.01 * (i % 7)} for i in range(30)]},
        # short intervals, so that 1500 iterations freeze, drop and promote
        "sim_cfg": {
            "sim": {"total_iters": 1500, "trace_interval": 100, "eval_interval": 100},
            "curriculum": {"n_min": 500, "freeze_duration": 200, "check_interval": 100,
                           "intro_base_iters": 300, "intro_extra_iters": 100,
                           "promote_min_iters": 300, "success_warmup_iters": 200}},
        "samples": {"samples": {
            **{f"w{i}": ["walk", "left_turn"] if i % 3 else ["walk"] for i in range(10)},
            "rare": ["cartwheel"], "r2": ["right_kick", "walk"]}},
        "loop_cfg": {"prefix_loop": {"horizon_seconds": 2.0}, "tracker": {"noise_scale": 0.02}},
    }
    rng = np.random.default_rng(0)
    docs["records"] = {"stage": 1, "records": [
        {"z": rng.standard_normal(8).tolist(), "level": int(rng.integers(1, 4))}
        for _ in range(20)]}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    files["prefix"], files["target"] = tmp_path / "prefix.json", tmp_path / "target.json"
    save_features(neutral_features(30), 30.0, files["prefix"])
    save_features(neutral_features(2, height=0.9), 30.0, files["target"])
    return files


# subcommand -> (its arguments, with {name} an input file above and {out}
# the output file, stdout when absent; the output's sha256).  The bytes of
# encode, of decode and of prefix-run's --out features depend on numpy's
# SIMD arctan2 (ROADMAP item 1), so they have no digest here.
GOLDEN_OUTPUTS = {
    "metrics": (["{ref}", "{sim}"],
                "ba39da4213913726e0eaeec0d1337066245e28941a7ad83b8237de4d4855557b"),
    "curriculum-sim": (["--corpus", "{corpus}", "--config", "{sim_cfg}", "--seed", "5",
                        "--out", "{out}"],
                       "ebdf32ee2a64bff535673d4fbd62881818b622773a98a77c01e2d9b534273fde"),
    "route-sim": (["{records}", "--seed", "9", "--out", "{out}"],
                  "151170c6701982f5398150a8a9c563945101bd5a792203430ad3d3d834dc98d8"),
    "asfo-plan": (["{samples}", "--seed", "2"],
                  "853f1108df621be4bee1f31578f071bad17b3ef5a0f5f87c67ea26f811261195"),
    "prefix-run": (["{prefix}", "{target}", "--config", "{loop_cfg}", "--seed", "3",
                    "--out", "{features}", "--trace", "{out}"],
                   "ae049b7bbba04b8b874ccb708f1ce29a80bb4ab3f47566665c23e3e66c9eda4f"),
}


@pytest.mark.parametrize("command", GOLDEN_OUTPUTS)
def test_output_matches_golden_sha256(tmp_path, skel, capsys, command):
    argv, digest = GOLDEN_OUTPUTS[command]
    files = {**save_golden_inputs(tmp_path, skel), "out": tmp_path / "out",
             "features": tmp_path / "features.json"}
    code, captured = run([command, *(arg.format(**files) for arg in argv)], capsys)
    assert code == 0
    text = files["out"].read_text() if "{out}" in argv else captured.out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_unknown_subcommand_exits_nonzero(capsys):
    assert cli_dispatch(["frobnicate"]) == 2


# every subcommand, with input files it never reaches
SEED_ARGV = [
    ["encode", "clip.json", "--out", "feats.json"],
    ["decode", "feats.json"],
    ["metrics", "ref.json", "sim.json"],
    ["reward-eval", "ref.json", "sim.json"],
    ["curriculum-sim", "--corpus", "corpus.json"],
    ["route-sim", "records.json"],
    ["asfo-plan", "samples.json"],
    ["prefix-run", "prefix.json", "target.json", "--out", "out.json"],
]


@pytest.mark.parametrize("argv", SEED_ARGV, ids=lambda argv: argv[0])
def test_negative_seed_is_a_config_error(capsys, argv):
    err = one_error_line(*run(argv + ["--seed", -1], capsys))
    assert "--seed must be >= 0" in err["message"]


@pytest.mark.parametrize("argv", SEED_ARGV, ids=lambda argv: argv[0])
def test_seed_outside_int64_is_a_config_error(capsys, argv):
    # every subcommand takes the bound that the config rule puts on seed fields
    err = one_error_line(*run(argv + ["--seed", 2**63], capsys))
    assert err["message"] == "--seed holds an integer outside int64"
    assert run(argv + ["--seed", 2**63 - 1]) == 1   # past the seed check: a missing file


@pytest.mark.parametrize("command, config, message", [
    ("curriculum-sim", {"curriculum": {"temperature": 10**400}},
     "SamplerConfig: temperature lies outside float64's range"),
    ("curriculum-sim", {"curriculum": {"n_min": 1, "check_interval": 1, "freeze_duration": 10**30}},
     "SamplerConfig: freeze_duration holds an integer outside int64"),
    ("reward-eval", {"rewards": {"anchor_pos": [1, 10**400]}},
     "RewardTerm: sigma lies outside float64's range"),
    ("metrics", {"ground": {"ground_z": 10**400}},
     "GroundModel: ground_z lies outside float64's range"),
], ids=["temperature", "freeze_duration", "anchor_pos", "ground_z"])
def test_config_number_past_the_library_range_is_one_config_error(
        tmp_path, walk_file, capsys, command, config, message):
    if command == "curriculum-sim":   # a corpus that freezes, so freeze_duration is used
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"files": [
            {"id": "a", "level": 1, "start_error": 0.5, "error_floor": 0.5}]}))
        argv = [command, "--corpus", corpus]
        config = {**config, "sim": {"total_iters": 20}}
    else:
        argv = [command, walk_file, walk_file]
    err = one_error_line(*run(argv + ["--config", write_config(tmp_path, config)], capsys))
    assert err["message"] == message


# subcommand -> arguments before --config; the config is read before any input
CONFIG_ARGV = {
    "encode": ["clip.json", "--out", "features.json"],
    "decode": ["features.json"],
    "metrics": ["ref.json", "sim.json"],
    "reward-eval": ["ref.json", "sim.json"],
    "curriculum-sim": ["--corpus", "corpus.json"],
    "route-sim": ["records.json"],
    "asfo-plan": ["samples.json"],
    "prefix-run": ["prefix.json", "target.json", "--out", "out.json"],
}


BAD_CONFIGS = [
    ("encode", {"sim": {"total_iters": 2.5}}, "total_iters must be a whole number"),
    ("decode", {"curriculum": {"intro_base_iters": 0}}, "intro_base_iters must be > 0"),
    ("metrics", {"success": {"ee_bodies": []}}, "ee_bodies: expected at least one body name"),
    ("metrics", {"ground": {"floating_gate_height": -1}}, "floating_gate_height must be >= 0"),
    ("reward-eval", {"rewards": {"anchor_pos": [True, 1]}}, "weight must be a real number"),
    ("curriculum-sim", {"sim": {"total_iters": 2.5}}, "total_iters must be a whole number"),
    ("curriculum-sim", {"curriculum": {"intro_base_iters": 0}}, "intro_base_iters must be > 0"),
    ("curriculum-sim", {"curriculum": {"success_eps": 0}}, "success_eps must be > 0"),
    ("curriculum-sim", {"sim": {"total_iters": 6, "rollouts_per_iter": 2**62}},
     r"total_iters \* rollouts_per_iter must be below 2\*\*63"),
    ("route-sim", {"router": {"ce_weight": 0.05}}, r"unknown keys \['ce_weight'\]"),
    ("route-sim", {"router": {"refresh_period": 0}}, "refresh_period must be > 0"),
    ("asfo-plan", {"asfo": {"rho_max": "x"}}, "rho_max must be a whole number"),
    ("prefix-run", {"prefix_loop": {"max_resamples": 1.5}}, "max_resamples must be a whole number"),
    ("prefix-run", {"prefix_loop": {"segment_seconds": 0.001}}, "segment of at least one frame"),
    ("prefix-run", {"prefix_loop": {"horizon_seconds": 0.4}}, "segment of at least one frame"),
    ("prefix-run", {"prefix_loop": {"segment_seconds": 1e307}}, "PrefixLoopConfig: .* must be finite"),
    ("prefix-run", {"tracker": {"noise_scale": -1}}, "noise_scale must be >= 0"),
    # --seed seeds the tracker, and the tracker has no kind
    ("prefix-run", {"tracker": {"kind": "failure"}}, r"tracker: unknown keys \['kind'\]"),
    ("prefix-run", {"tracker": {"seed": 1}}, r"tracker: unknown keys \['seed'\]"),
    ("prefix-run", {"tracker": {"fail_after_frame": 0}},
     r"tracker: unknown keys \['fail_after_frame'\]"),
    ("prefix-run", {"tracker": {"fail_offset": 10.0}}, r"tracker: unknown keys \['fail_offset'\]"),
    ("prefix-run", {"tracker": {"offset_from_frame": 1.5}},
     "offset_from_frame must be a whole number"),
    ("prefix-run", {"generator": {"noise_scale": "x"}}, "noise_scale must be a real number"),
    # keys the CLI sets itself are refused, not silently overwritten
    ("curriculum-sim", {"sim": {"seed": 7}}, r"sim\.seed is set by --seed"),
    ("prefix-run", {"prefix_loop": {"seed": 7}}, r"prefix_loop\.seed is set by --seed"),
    ("prefix-run", {"prefix_loop": {"fps": 60.0}},
     r"prefix_loop\.fps is set by the prefix file's fps"),
]


@pytest.mark.parametrize("command, config, pattern", BAD_CONFIGS, ids=[
    f"{command}:" + ",".join(f"{s}.{k}={v!r}" for s, d in config.items() for k, v in d.items())
    for command, config, _ in BAD_CONFIGS
])
def test_bad_config_value_is_one_json_config_error(tmp_path, capsys, command, config, pattern):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, *CONFIG_ARGV[command], "--config", cfg_path]
    code, captured = run(argv, capsys)
    assert re.search(pattern, one_error_line(code, captured)["message"])
    assert captured.out == ""


class TestMetricsThresholdConfig:
    """Each metrics threshold is read from --config, and only from there."""

    def pair(self, tmp_path, skel, edit):
        """A standing clip (feet at z=0.03) and its copy changed by `edit`."""
        seq = make_standing_sequence(skel)
        moved = seq.copy()
        edit(moved)
        ref, sim = tmp_path / "ref.json", tmp_path / "sim.json"
        save_motion(seq, ref, skel)
        save_motion(moved, sim, skel)
        return ref, sim

    def reports(self, tmp_path, capsys, ref, sim, config):
        """The report with default thresholds and the one under `config`."""
        default = run(["metrics", ref, sim], capsys)
        configured = run(["metrics", ref, sim, "--config", write_config(tmp_path, config)],
                         capsys)
        assert default[0] == configured[0] == 0
        return json.loads(default[1].out), json.loads(configured[1].out)

    def test_skate_threshold_changes_ratio(self, tmp_path, skel, capsys):
        # feet slide while "planted": a loose threshold suppresses skating
        seq = make_walk_sequence(skel, 1.0, 0.0, 20, 30.0)
        ref = tmp_path / "ref.json"
        save_motion(seq, ref, skel)
        slid = seq.copy()
        slide = np.arange(20) * 0.05
        slid.body_pos[:, list(skel.foot_body_indices), 0] += slide[:, None]
        slid.body_pos[:, list(skel.foot_body_indices), 2] = 0.01
        slid.body_lin_vel[:, list(skel.foot_body_indices)] = 0.0
        sim = tmp_path / "sim.json"
        save_motion(slid, sim, skel)

        strict, loose = self.reports(tmp_path, capsys, ref, sim,
                                     {"ground": {"skate_disp_threshold": 1.0}})
        assert strict["skating_ratio"] == 1.0 and loose["skating_ratio"] == 0.0

    def test_pelvis_threshold(self, tmp_path, skel, capsys):
        seq = make_walk_sequence(skel, 1.0, 0.0, 10, 30.0)
        ref = tmp_path / "ref.json"
        save_motion(seq, ref, skel)
        moved = seq.copy()
        moved.root_pos[5:, 2] += 0.2
        sim = tmp_path / "sim.json"
        save_motion(moved, sim, skel)
        default, doc = self.reports(tmp_path, capsys, ref, sim,
                                    {"success": {"pelvis_z_threshold": 0.1}})
        assert default["success"] is True
        assert doc["success"] is False and doc["failure_reason"] == "pelvis_z"

    def test_ground_z_moves_penetration(self, tmp_path, skel, capsys):
        ref, sim = self.pair(tmp_path, skel, lambda seq: None)
        default, doc = self.reports(tmp_path, capsys, ref, sim, {"ground": {"ground_z": 0.05}})
        assert default["penetration_mm"] == 0.0
        assert doc["penetration_mm"] == pytest.approx(20.0)

    def test_contact_height_eps_tolerates_hover(self, tmp_path, skel, capsys):
        def hover(seq):   # 2 cm up: feet at 5 cm, too high for a contact
            seq.root_pos[:, 2] += 0.02
            seq.body_pos[..., 2] += 0.02

        ref, sim = self.pair(tmp_path, skel, hover)
        default, doc = self.reports(tmp_path, capsys, ref, sim,
                                    {"ground": {"contact_height_eps": 0.1}})
        assert default["floating_mm"] == pytest.approx(45.0)
        assert doc["floating_mm"] == 0.0

    def test_trunk_gravity_threshold(self, tmp_path, skel, capsys):
        def lean(seq):   # torso pitched by 0.5 rad: gravity mismatch 2 sin(0.25) = 0.49
            trunk = skel.body_index("torso_link")
            seq.body_rot[:, trunk] = quat_to_matrix(quat_from_axis_angle([0, 1, 0], 0.5))

        ref, sim = self.pair(tmp_path, skel, lean)
        default, doc = self.reports(tmp_path, capsys, ref, sim,
                                    {"success": {"trunk_gravity_threshold": 0.2}})
        assert default["success"] is True
        assert doc["success"] is False and doc["failure_reason"] == "trunk_gravity"

    def test_ee_z_threshold(self, tmp_path, skel, capsys):
        def raise_hand(seq):
            seq.body_pos[:, skel.hand_body_indices[0], 2] += 0.2

        ref, sim = self.pair(tmp_path, skel, raise_hand)
        default, doc = self.reports(tmp_path, capsys, ref, sim,
                                    {"success": {"ee_z_threshold": 0.1}})
        assert default["success"] is True
        assert doc["success"] is False and doc["failure_reason"] == "ee_z"

    @pytest.mark.parametrize("config", ['{"success": {"pelvis_z_threshold": NaN}}',
                                        '{"ground": {"ground_z": NaN}}',
                                        '{"ground": {"skate_disp_threshold": Infinity}}',
                                        '{"success": {"ee_z_threshold": -Infinity}}'],
                             ids=["pelvis_nan", "ground_nan", "skate_inf", "ee_minus_inf"])
    def test_non_finite_threshold_is_a_config_error(self, tmp_path, walk_file, capsys, config):
        code, captured = run(["metrics", walk_file, walk_file,
                              "--config", write_config(tmp_path, config)], capsys)
        err = one_error_line(code, captured)
        assert "is not a finite number" in err["message"]
        assert captured.out == ""


# the values these flags set come from --config
REMOVED_FLAGS = {
    "--ground-z": "metrics", "--contact-eps": "metrics", "--skate-threshold": "metrics",
    "--pelvis-z-threshold": "metrics", "--trunk-gravity-threshold": "metrics",
    "--ee-z-threshold": "metrics", "--iters": "curriculum-sim",
}


@pytest.mark.parametrize("flag, command", REMOVED_FLAGS.items(), ids=REMOVED_FLAGS)
def test_removed_flag_is_a_usage_error(tmp_path, walk_file, capsys, flag, command):
    if command == "metrics":
        argv = ["metrics", walk_file, walk_file]
    else:
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"files": [{"id": "a", "level": 1}]}))
        argv = ["curriculum-sim", "--corpus", corpus]
    code, captured = run(argv + [flag, "5"], capsys)
    assert code == 2
    assert captured.err.startswith("usage: motion-forge ")
    assert f"error: unrecognized arguments: {flag} 5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("section", [5, None, 1.5, True, [1, 2], "ab"],
                         ids=["int", "null", "float", "bool", "list", "string"])
def test_config_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, section):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"router": section}))
    err = one_error_line(*run(["route-sim", "records.json", "--config", cfg_path], capsys))
    assert err["message"] == "router must be a JSON object"


def _pool_doc(**extra) -> dict:
    pool = rt.make_random_pool(np.random.default_rng(0), num_experts=2, input_dim=8,
                               hidden=(4,), output_dim=3, capacity=4)
    return {**rt.pool_to_dict(pool), **extra}


_RECORD = {"z": [0.1] * 8, "level": 1}

# input document -> (argv naming it {doc}, with {records} a valid records
# file; the document; the error; a pattern of its message)
INPUT_PROBES = {
    "records_unknown_key": (["route-sim", "{doc}"], {"stgae": 1, "records": [_RECORD]},
                            "ConfigError", r"records .*: unknown keys \['stgae'\]"),
    "record_unknown_key": (["route-sim", "{doc}"], {"records": [{**_RECORD, "levle": 2}]},
                           "ConfigError", r"record 0: unknown keys \['levle'\]"),
    "corpus_spec_unknown_key": (["curriculum-sim", "--corpus", "{doc}"],
                                {"files": [{"id": "a", "level": 1}], "file": []},
                                "ConfigError", r"corpus spec .*: unknown keys \['file'\]"),
    "corpus_file_without_level": (["curriculum-sim", "--corpus", "{doc}"],
                                  {"files": [{"id": "a"}]},
                                  "ConfigError", "corpus file 0: missing required field 'level'"),
    "corpus_non_string_id": (["curriculum-sim", "--corpus", "{doc}"],
                             {"files": [{"id": [1], "level": 1}, {"id": "b", "level": 2}]},
                             "ConfigError", "file ids must be a list of unique strings"),
    "samples_unknown_key": (["asfo-plan", "{doc}"], {"samples": {"a": ["walk"]}, "sample": 1},
                            "ConfigError", r"samples .*: unknown keys \['sample'\]"),
    "samples_list_form": (["asfo-plan", "{doc}"], {"samples": [{"id": "a", "tags": ["walk"]}]},
                          "ConfigError", "samples file's 'samples' must be a JSON object"),
    "pool_unknown_key": (["route-sim", "{records}", "--pool", "{doc}"], _pool_doc(extra=1),
                         "ConfigError", r"expert pool: unknown keys \['extra'\]"),
    "pool_huge_capacity": (["route-sim", "{records}", "--pool", "{doc}"],
                           _pool_doc(capacity=1e300), "ConfigError",
                           "expert pool: 'capacity' holds an integer outside int64"),
    "pool_unallocatable_capacity": (["route-sim", "{records}", "--pool", "{doc}"],
                                    _pool_doc(capacity=2**62), "ConfigError",
                                    r"capacity 4611686018427387904: a \(4611686018427387904, 8\) "
                                    "gate cannot be allocated"),
    "huge_horizon": (["prefix-run", "{features}", "{features}", "--out", "{out}", "--config",
                      "{doc}"], {"prefix_loop": {"horizon_seconds": 1e300}},
                     "ConfigError", r"horizon_seconds=1e\+300 at fps=30.0"),
}


@pytest.mark.parametrize("argv, doc, error, pattern", INPUT_PROBES.values(), ids=INPUT_PROBES)
def test_bad_input_document_is_one_json_error(tmp_path, capsys, argv, doc, error, pattern):
    files = {name: tmp_path / f"{name}.json" for name in ("doc", "records", "features", "out")}
    files["doc"].write_text(json.dumps(doc))
    files["records"].write_text(json.dumps({"records": [_RECORD]}))
    save_features(neutral_features(3), 30.0, files["features"])
    err = one_error_line(*run([arg.format(**files) for arg in argv], capsys), error)
    assert re.search(pattern, err["message"]), err["message"]
    assert not files["out"].exists()


def test_input_that_overflows_the_arithmetic_is_one_json_error(tmp_path, capsys, walk_file):
    # finite on load, but its squared distance to the reference overflows
    doc = json.loads(walk_file.read_text())
    doc["body_pos"][0][0] = 1e300
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps(doc))
    err = one_error_line(*run(["metrics", walk_file, sim], capsys), "NonFiniteError")
    assert "overflow" in err["message"]


def test_file_that_is_not_utf8_is_one_json_error(tmp_path, capsys):
    path = tmp_path / "clip.json"
    path.write_bytes(b'{"fps": "\xff"}')
    err = one_error_line(*run(["encode", path, "--out", tmp_path / "f.json"], capsys),
                         "FileFormatError")
    assert err["message"].startswith(f"cannot read motion clip {path}")
