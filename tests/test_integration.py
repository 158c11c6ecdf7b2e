"""End-to-end flows across modules: codec -> stats -> files -> loop -> metrics."""

import json

import numpy as np
import pytest

from helpers import make_walk_sequence, neutral_features
from motion_forge.cli import cli_dispatch
from motion_forge.features import (
    canonicalize_heading,
    denormalize_features,
    detect_contacts,
    encode_features,
    fit_norm_stats,
    normalize_features,
)
from motion_forge.metrics import GroundModel, evaluate
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import (
    load_features,
    load_norm_stats,
    save_features,
    save_motion,
    save_norm_stats,
)
from motion_forge.prefix_loop import (
    GeneratorConfig,
    PrefixLoopConfig,
    TrackerConfig,
    features_to_motion,
    identity_tracker,
    make_interpolation_generator,
    make_perturbation_tracker,
    run_prefix_loop,
)


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


def test_codec_stats_file_pipeline(tmp_path, skel):
    # encode a rotated walk, normalize, persist everything, recover the clip
    seq = make_walk_sequence(skel, 1.1, 0.25, 120, 30.0, start_yaw=1.3)
    canonical = canonicalize_heading(seq)
    feats = encode_features(canonical, skel, detect_contacts(canonical, skel))
    stats = fit_norm_stats(feats)
    normed = normalize_features(feats, stats)

    save_features(normed, 30.0, tmp_path / "normed.json")
    save_norm_stats(stats, tmp_path / "stats.json")
    normed_back, fps = load_features(tmp_path / "normed.json")
    stats_back = load_norm_stats(tmp_path / "stats.json")
    recovered = denormalize_features(normed_back, stats_back)
    assert np.max(np.abs(recovered - feats)) < 1e-9

    rebuilt = features_to_motion(recovered, fps, skel)
    err = np.linalg.norm(rebuilt.root_pos[:, :2] - canonical.root_pos[:, :2], axis=1)
    assert err.max() < 0.03


def test_prefix_loop_output_passes_metrics(skel):
    # a loop-assembled motion evaluated against itself is a clean report
    cfg = PrefixLoopConfig(fps=30.0, horizon_seconds=3.0, seed=21)
    gen = make_interpolation_generator(cfg.segment_frames, GeneratorConfig(noise_scale=0.001))
    tracker = make_perturbation_tracker(3, TrackerConfig(noise_scale=0.002))
    motion, trace = run_prefix_loop(
        neutral_features(30), neutral_features(1, height=0.85)[0],
        gen, tracker, cfg, skel,
    )
    assert trace.termination == "completed"
    report = evaluate(motion, motion, skel, GroundModel())
    assert report.success
    assert report.mpjpe_m == 0.0
    assert report.penetration_mm == 0.0


def test_cli_chain_encode_prefix_metrics(tmp_path, skel):
    # motion clip -> encode -> prefix-run -> decode, all through the CLI
    seq = make_walk_sequence(skel, 0.0, 0.0, 30, 30.0)
    clip = tmp_path / "clip.json"
    save_motion(seq, clip, skel)

    feats_path = tmp_path / "feats.json"
    assert cli_dispatch(["encode", str(clip), "--out", str(feats_path)]) == 0

    target_path = tmp_path / "target.json"
    save_features(neutral_features(2, height=0.85), 30.0, target_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "prefix_loop": {"horizon_seconds": 2.0},
        "tracker": {"noise_scale": 0.002},
    }))
    assembled = tmp_path / "assembled.json"
    trace_path = tmp_path / "trace.json"
    code = cli_dispatch([
        "prefix-run", str(feats_path), str(target_path),
        "--config", str(cfg_path), "--seed", "9",
        "--out", str(assembled), "--trace", str(trace_path),
    ])
    assert code == 0
    feats, fps = load_features(assembled)
    assert feats.shape[0] == 30 + 60
    trace = json.loads(trace_path.read_text())
    assert trace["termination"] == "completed"

    decoded = tmp_path / "traj.json"
    assert cli_dispatch(["decode", str(assembled), "--out", str(decoded)]) == 0
    traj = json.loads(decoded.read_text())
    assert len(traj["trajectory"]) == 90
