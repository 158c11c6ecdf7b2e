"""motion-forge command line: encode/decode, metrics, rewards, simulators.

Every subcommand reads JSON inputs, writes JSON or CSV outputs, and exits 0
on success.  Failures print one machine-readable JSON object to stderr
({"error": <type>, "message": <text>}) and exit nonzero.  A single --seed
flag feeds every random consumer of a subcommand, so identical invocations
produce byte-identical outputs.  Set MOTIONFORGE_LOG to adjust log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import curriculum as cur
from . import router as rt
from .config import AppConfig, TrackerConfig, load_config
from .errors import ConfigError, MotionForgeError, NonFiniteError
from .features import (
    canonicalize_heading,
    decode_root_trajectory,
    detect_contacts,
    encode_features,
)
from .generation import TagCatalog, asfo_multipliers, build_epoch_plan
from .metrics import evaluate
from .motion import default_skeleton
from .motion_io import load_features, load_motion, parse_features, parse_motion, save_features
from .prefix_loop import (
    identity_tracker,
    make_failure_tracker,
    make_interpolation_generator,
    make_perturbation_tracker,
    run_prefix_loop,
)
from .rewards import TASK_TERMS, task_rewards

log = logging.getLogger("motion_forge")

def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def _load_app_config(args) -> AppConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return AppConfig()


def _read_json_file(path, what: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return data


def cmd_encode(args) -> int:
    skel = default_skeleton()
    seq = load_motion(args.motion, skel)
    seq = canonicalize_heading(seq)
    feats = encode_features(seq, skel, detect_contacts(seq, skel))
    save_features(feats, seq.fps, args.out)
    log.info("encoded %d frames -> %s", feats.shape[0], args.out)
    return 0


def cmd_decode(args) -> int:
    feats, fps = load_features(args.features)
    pos, yaw = decode_root_trajectory(feats, fps)
    doc = {
        "fps": fps,
        "trajectory": [
            {"root_pos": pos[i].tolist(), "yaw": float(yaw[i])}
            for i in range(len(pos))
        ],
    }
    _write_output(json.dumps(doc, indent=1), args.out)
    return 0


def _override(section, args, names):
    """`section` with the threshold flags in `names` that were given; like a
    config file's numbers, each must be finite."""
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    for name, value in overrides.items():
        if not math.isfinite(value):
            raise ConfigError(f"threshold override {name}={value} is not a finite number")
    return dataclasses.replace(section, **overrides)


def cmd_metrics(args) -> int:
    cfg = _load_app_config(args)
    skel = default_skeleton()
    ref = load_motion(args.reference, skel)
    sim = load_motion(args.executed, skel)
    ground = _override(cfg.ground, args, ("ground_z", "contact_height_eps",
                                          "skate_disp_threshold"))
    success_cfg = _override(cfg.success, args, ("pelvis_z_threshold",
                                                 "trunk_gravity_threshold", "ee_z_threshold"))
    report = evaluate(ref, sim, skel, ground, success_cfg)
    _write_output(json.dumps(report.to_dict(), indent=1, allow_nan=False), args.out)
    return 0


def cmd_reward_eval(args) -> int:
    cfg = _load_app_config(args)
    skel = default_skeleton()
    ref = load_motion(args.reference, skel)
    sim = load_motion(args.executed, skel)
    terms, total = task_rewards(ref, sim, cfg.rewards, skel)
    table = np.column_stack([terms[name] for name in TASK_TERMS] + [total]).tolist()
    lines = ["frame," + ",".join(TASK_TERMS) + ",total"]
    lines += [f"{i}," + ",".join(format(v, ".10g") for v in row) for i, row in enumerate(table)]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_curriculum_sim(args) -> int:
    cfg = _load_app_config(args)
    data = _read_json_file(args.corpus, "corpus spec")
    if "files" not in data or not isinstance(data["files"], list):
        raise ConfigError("corpus spec needs a 'files' list")
    allowed = {"id", "level", "start_error", "error_floor", "improve_rate", "success_scale"}
    files = []
    for i, item in enumerate(data["files"]):
        if not isinstance(item, dict):
            raise ConfigError(f"corpus file {i} must be a JSON object")
        unknown = set(item) - allowed
        if unknown:
            raise ConfigError(f"corpus file {i}: unknown keys {sorted(unknown)}")
        if "id" not in item or "level" not in item:
            raise ConfigError(f"corpus file {i}: 'id' and 'level' are required")
        kwargs = dict(item)
        kwargs["file_id"] = kwargs.pop("id")
        files.append(cur.SyntheticFile(**kwargs))
    sim_cfg = cur.SimConfig(
        total_iters=args.iters if args.iters is not None else cfg.sim.total_iters,
        rollouts_per_iter=cfg.sim.rollouts_per_iter,
        eval_interval=cfg.sim.eval_interval,
        trace_interval=cfg.sim.trace_interval,
        seed=args.seed,
    )
    trace = cur.run_curriculum_sim(files, cfg.curriculum, sim_cfg)
    _write_output(trace.to_csv(), args.out)
    log.info("simulated %d iterations, %d events", sim_cfg.total_iters, len(trace.events))
    return 0


def _record_latent(rec, i: int) -> np.ndarray:
    try:
        z = np.asarray(rec["z"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"record {i} needs a latent 'z', a list of numbers") from exc
    if z.ndim != 1:
        raise ConfigError(f"record {i}: 'z' must be a list of numbers")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"record {i}: latent 'z' holds NaN or infinite values")
    return z


def cmd_route_sim(args) -> int:
    cfg = _load_app_config(args)
    data = _read_json_file(args.records, "records")
    records = data.get("records")
    if not isinstance(records, list) or not records:
        raise ConfigError("records file needs a non-empty 'records' list")
    latents = [_record_latent(rec, i) for i, rec in enumerate(records)]
    z_dim = latents[0].shape[0]
    if any(z.shape != (z_dim,) for z in latents):
        raise ConfigError(f"every record's 'z' needs the {z_dim} values of record 0's")
    rng = np.random.default_rng(args.seed)
    if args.pool:
        pool = rt.pool_from_dict(_read_json_file(args.pool, "expert pool"))
    else:
        pool = rt.make_random_pool(rng, num_experts=4, input_dim=z_dim,
                                   hidden=(16,), output_dim=8, capacity=16)
    state = rt.make_router(rng, pool.capacity, latent_dim=z_dim, config=cfg.router)
    l_max = pool.unlocked_count
    try:
        stage = int(data.get("stage", 2))
        levels = [int(rec.get("level", 1)) for rec in records]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"records: 'stage' and every 'level' must be integers: {exc}") from exc
    header = ["step", "level", "hard_routed", "entropy", "top_gap"]
    header += [f"w{j}" for j in range(pool.num_experts)]
    lines = [",".join(header)]
    for i, (rec, z, level) in enumerate(zip(records, latents, levels)):
        logits = rt.gate_logits(z, state, pool)
        rt.refresh_candidates(state, logits)
        if "obs" in rec:
            obs = np.asarray(rec["obs"], dtype=np.float64)
        elif pool.input_dim <= len(z):
            obs = z[: pool.input_dim]
        else:
            raise ConfigError(
                f"record {i} has no 'obs' and its latent has {len(z)} values, "
                f"fewer than the pool's input_dim {pool.input_dim}"
            )
        if stage == 1:
            _, weights, hard = rt.hard_bias_route(obs, level, l_max, rng, state, pool)
        else:
            _, weights = rt.mixture_action(obs, state, pool)
            hard = False
        row = [str(i), str(level), str(int(hard)),
               format(rt.routing_entropy(weights), ".10g"),
               format(rt.top_gap(weights), ".10g")]
        row += [format(w, ".10g") for w in weights]
        lines.append(",".join(row))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_asfo_plan(args) -> int:
    cfg = _load_app_config(args)
    data = _read_json_file(args.samples, "samples")
    samples = data.get("samples")
    if isinstance(samples, list):
        try:
            samples = {item["id"]: item["tags"] for item in samples}
        except (TypeError, KeyError) as exc:
            raise ConfigError("sample list entries need 'id' and 'tags'") from exc
    if not isinstance(samples, dict) or not samples:
        raise ConfigError("samples file needs a 'samples' mapping or list")
    for sample_id, tags in samples.items():
        if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
            raise ConfigError(f"sample {sample_id!r}: tags must be a list of strings")
    catalog = TagCatalog.from_samples(
        samples, rho_max=cfg.asfo.rho_max, mirror_alpha=cfg.asfo.mirror_alpha
    )
    plan = build_epoch_plan(catalog, np.random.default_rng(args.seed))
    doc = {
        "multipliers": asfo_multipliers(catalog),
        "plan_size": len(plan),
        "plan": [
            {"sample_id": e.sample_id, "mirrored": e.mirrored, "tags": list(e.tags)}
            for e in plan
        ],
    }
    _write_output(json.dumps(doc, indent=1), args.out)
    return 0


def make_tracker(cfg: TrackerConfig):
    if cfg.kind == "identity":
        return identity_tracker
    if cfg.kind == "perturbation":
        return make_perturbation_tracker(cfg.seed, cfg.noise_scale, cfg.offset)
    return make_failure_tracker(cfg.fail_after_frame, cfg.fail_offset)


def _load_prefix_features(path, skel):
    """Features of a clip (told apart by its joint names) or features file."""
    data = _read_json_file(path, "prefix")
    if "joint_names" in data:
        seq = canonicalize_heading(parse_motion(data, path, skel))
        return encode_features(seq, skel, detect_contacts(seq, skel)), seq.fps
    return parse_features(data, path)


def cmd_prefix_run(args) -> int:
    cfg = _load_app_config(args)
    skel = default_skeleton()
    prefix, fps = _load_prefix_features(args.prefix, skel)
    target_feats, _ = _load_prefix_features(args.target, skel)
    loop_cfg = dataclasses.replace(cfg.prefix_loop, fps=fps, seed=args.seed)
    generator = make_interpolation_generator(
        loop_cfg.segment_frames, cfg.generator.noise_scale
    )
    tracker = make_tracker(cfg.tracker)
    motion, trace = run_prefix_loop(
        prefix, target_feats[0], generator, tracker, loop_cfg, skel
    )
    save_features(trace.features, fps, args.out)
    if args.trace:
        Path(args.trace).write_text(json.dumps(trace.to_dict(), indent=1, allow_nan=False))
    log.info("prefix run: %s after %d segments, %d attempts",
             trace.termination, len(trace.segments), trace.total_attempts)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motion-forge",
        description="robot-native motion codec, metrics, and schedulers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--config", help="JSON config file")
        p.set_defaults(fn=fn)
        return p

    p = add("encode", cmd_encode, "motion clip -> 262-D feature file")
    p.add_argument("motion")
    p.add_argument("--out", required=True)

    p = add("decode", cmd_decode, "feature file -> root trajectory JSON")
    p.add_argument("features")
    p.add_argument("--out")

    p = add("metrics", cmd_metrics, "reference + executed clips -> metric report")
    p.add_argument("reference")
    p.add_argument("executed")
    p.add_argument("--out")
    p.add_argument("--ground-z", dest="ground_z", type=float)
    p.add_argument("--contact-eps", dest="contact_height_eps", type=float)
    p.add_argument("--skate-threshold", dest="skate_disp_threshold", type=float)
    p.add_argument("--pelvis-z-threshold", dest="pelvis_z_threshold", type=float)
    p.add_argument("--trunk-gravity-threshold", dest="trunk_gravity_threshold", type=float)
    p.add_argument("--ee-z-threshold", dest="ee_z_threshold", type=float)

    p = add("reward-eval", cmd_reward_eval, "per-frame task rewards as CSV")
    p.add_argument("reference")
    p.add_argument("executed")
    p.add_argument("--out")

    p = add("curriculum-sim", cmd_curriculum_sim, "run the scheduler on a synthetic corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--iters", type=int)
    p.add_argument("--out")

    p = add("route-sim", cmd_route_sim, "replay (z, level) records through the router")
    p.add_argument("records")
    p.add_argument("--pool", help="expert pool JSON (random pool when omitted)")
    p.add_argument("--out")

    p = add("asfo-plan", cmd_asfo_plan, "tagged samples -> oversampling epoch plan")
    p.add_argument("samples")
    p.add_argument("--out")

    p = add("prefix-run", cmd_prefix_run, "grow a validated prefix to the horizon")
    p.add_argument("prefix")
    p.add_argument("target")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")

    return parser


def cli_dispatch(argv) -> int:
    level = os.environ.get("MOTIONFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except MotionForgeError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "OSError", "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
