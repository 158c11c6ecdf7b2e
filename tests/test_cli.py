import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from helpers import MALFORMED_MOTION_CASES, make_walk_sequence, neutral_features, rigid_sequence
from motion_forge import router as rt
from motion_forge.cli import cli_dispatch
from motion_forge.features import FEATURE_DIM
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import load_features, save_features, save_motion
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
    ], ids=["string_fps", "string_feature"])
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
        # A reference walk against a seeded imperfect execution: position
        # noise, a yaw jitter per frame and body (the root's also turns the
        # root quaternion), and noisy linear and angular velocities, so that
        # no term sits at 1.
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
                    "--iters", 2000, "--seed", 3, "--out", out])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("iteration,")
        assert len(lines) == 1 + 4

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        argv = ["curriculum-sim", "--corpus", self.corpus(tmp_path),
                "--iters", 1500, "--seed", 5]
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

    @pytest.mark.parametrize("doc", [
        {"records": [{"z": [0.1] * 8, "level": "two"}]},
        {"stage": "x", "records": [{"z": [0.1] * 8, "level": 1}]},
    ], ids=["string_level", "string_stage"])
    def test_non_integer_stage_or_level_rejected(self, tmp_path, capsys, doc):
        err = self.run_bad(tmp_path, capsys, records=doc)
        assert err["error"] == "ConfigError" and "must be integers" in err["message"]

    def test_nan_latent_rejected(self, tmp_path, capsys):
        err = self.run_bad(tmp_path, capsys, records={"records": [
            {"z": [0.1] * 7 + [float("nan")], "level": 1}]})
        assert err["error"] == "NonFiniteError" and "record 0" in err["message"]


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

    def test_sample_list_form(self, tmp_path, capsys):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": [
            {"id": "a", "tags": ["walk"]},
            {"id": "b", "tags": ["walk"]},
        ]}))
        code, captured = run(["asfo-plan", samples], capsys)
        assert code == 0
        assert json.loads(captured.out)["plan_size"] == 2

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
            "tracker": {"kind": "failure", "fail_after_frame": 0},
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
            ' "tracker": {"kind": "perturbation", "offset": NaN}}'
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


def test_unknown_subcommand_exits_nonzero(capsys):
    assert cli_dispatch(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["encode", "clip.json", "--out", "feats.json"],
    ["decode", "feats.json"],
    ["metrics", "ref.json", "sim.json"],
    ["reward-eval", "ref.json", "sim.json"],
    ["curriculum-sim", "--corpus", "corpus.json"],
    ["route-sim", "records.json"],
    ["asfo-plan", "samples.json"],
    ["prefix-run", "prefix.json", "target.json", "--out", "out.json"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_config_error(capsys, argv):
    err = one_error_line(*run(argv + ["--seed", -1], capsys))
    assert "--seed must be >= 0" in err["message"]


class TestMetricsThresholdFlags:
    def test_skate_threshold_flag_changes_ratio(self, tmp_path, skel, capsys):
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

        code, captured = run(["metrics", ref, sim], capsys)
        assert code == 0
        strict = json.loads(captured.out)["skating_ratio"]
        code, captured = run(["metrics", ref, sim, "--skate-threshold", 1.0], capsys)
        loose = json.loads(captured.out)["skating_ratio"]
        assert strict == 1.0 and loose == 0.0

    def test_pelvis_threshold_flag(self, tmp_path, skel, capsys):
        seq = make_walk_sequence(skel, 1.0, 0.0, 10, 30.0)
        ref = tmp_path / "ref.json"
        save_motion(seq, ref, skel)
        moved = seq.copy()
        moved.root_pos[5:, 2] += 0.2
        sim = tmp_path / "sim.json"
        save_motion(moved, sim, skel)
        code, captured = run(["metrics", ref, sim], capsys)
        assert json.loads(captured.out)["success"] is True
        code, captured = run(["metrics", ref, sim, "--pelvis-z-threshold", 0.1], capsys)
        doc = json.loads(captured.out)
        assert doc["success"] is False and doc["failure_reason"] == "pelvis_z"

    @pytest.mark.parametrize("flag", ["--pelvis-z-threshold=nan", "--ground-z=nan",
                                      "--skate-threshold=inf", "--ee-z-threshold=-inf"])
    def test_non_finite_threshold_is_a_config_error(self, walk_file, capsys, flag):
        code, captured = run(["metrics", walk_file, walk_file, flag], capsys)
        err = one_error_line(code, captured)
        assert "is not a finite number" in err["message"]
        assert captured.out == ""
