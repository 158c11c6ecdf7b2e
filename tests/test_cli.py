import json

import numpy as np
import pytest

from helpers import make_walk_sequence, neutral_features, rigid_sequence
from motion_forge import router as rt
from motion_forge.cli import cli_dispatch
from motion_forge.features import FEATURE_DIM
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import load_features, save_features, save_motion


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

    def test_seeded_runs_byte_identical(self, tmp_path, walk_file):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["encode", walk_file, "--seed", 7, "--out", out1])
        run(["encode", walk_file, "--seed", 7, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()


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


def test_unknown_subcommand_exits_nonzero(capsys):
    assert cli_dispatch(["frobnicate"]) == 2


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
