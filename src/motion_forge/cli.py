"""motion-forge command line: encode/decode, metrics, rewards, simulators.

Every subcommand reads JSON inputs, writes JSON or CSV outputs, and exits 0
on success.  Each is one row of `COMMANDS`, run by one dispatch
(`cli_dispatch`) that reads --config before any input and writes the text a
subcommand returns through one writer (stdout, or --out).  Failures print
one machine-readable JSON object to stderr ({"error": <type>, "message":
<text>}) and exit nonzero.  Every tunable value, thresholds and iteration
counts among them, comes from the --config file; flags name only files and
the seed.  The config file is one JSON object with one optional section per
`AppConfig` field, each read into the library's own settings class; unknown
keys are refused everywhere, so a typo fails loudly.  A single --seed flag
feeds every random consumer of a subcommand, prefix-run's generator and
reference tracker among them, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import curriculum as cur
from . import prefix_loop as pl
from . import router as rt
from .errors import ConfigError, MotionForgeError, check_numbers, check_object
from .features import canonicalize_heading, decode_root_trajectory, encode_features
from .generation import AsfoConfig, TagCatalog, asfo_multipliers, build_epoch_plan
from .metrics import GroundModel, SuccessConfig, evaluate
from .motion import default_skeleton
from .motion_io import (
    load_features,
    load_motion,
    parse_features,
    parse_motion,
    read_json,
    save_features,
)
from .rewards import TASK_TERMS, RewardConfig, RewardTerm, task_rewards


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def _from_json(annotation: str, value):
    """`value` in the JSON form of its field's (string) annotation: a RewardTerm
    is a [weight, sigma] pair, a tuple a list, and null passes only `| None`."""
    if value is None and annotation.endswith("| None"):
        return None
    if annotation == "RewardTerm":
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return RewardTerm(*value)
        raise ConfigError("reward terms must be [weight, sigma] pairs")
    if annotation.startswith("tuple["):
        return tuple(value)
    return value


def _build(cls, data, where: str):
    check_object(data, where, {f.name for f in dataclasses.fields(cls)})
    try:
        return cls(**{f.name: _from_json(f.type, data[f.name])
                      for f in dataclasses.fields(cls) if f.name in data})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclasses.dataclass
class AppConfig:
    ground: GroundModel = dataclasses.field(default_factory=GroundModel)
    success: SuccessConfig = dataclasses.field(default_factory=SuccessConfig)
    rewards: RewardConfig = dataclasses.field(default_factory=RewardConfig)
    curriculum: cur.SamplerConfig = dataclasses.field(default_factory=cur.SamplerConfig)
    sim: cur.SimConfig = dataclasses.field(default_factory=cur.SimConfig)
    router: rt.RouterConfig = dataclasses.field(default_factory=rt.RouterConfig)
    asfo: AsfoConfig = dataclasses.field(default_factory=AsfoConfig)
    prefix_loop: pl.PrefixLoopConfig = dataclasses.field(default_factory=pl.PrefixLoopConfig)
    tracker: pl.TrackerConfig = dataclasses.field(default_factory=pl.TrackerConfig)
    generator: pl.GeneratorConfig = dataclasses.field(default_factory=pl.GeneratorConfig)


def config_from_dict(data) -> AppConfig:
    """One section per AppConfig field, read into its default factory's class."""
    sections = {f.name: f.default_factory for f in dataclasses.fields(AppConfig)}
    check_object(data, "config", sections)
    return AppConfig(**{name: _build(cls, data[name], name)
                        for name, cls in sections.items() if name in data})


def read_config(path):
    """A config file's JSON document; a NaN, Infinity or out-of-range number is a ConfigError."""
    def finite(literal: str) -> float:
        # every JSON number with a fraction or exponent, and the NaN/Infinity
        # literals Python's json reads, pass through here
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"config {path}: {literal} is not a finite number")
        return value

    return read_json(path, "config", ConfigError, finite)


# config keys the CLI sets itself, and what sets each
_CLI_SET_KEYS = {("sim", "seed"): "--seed", ("prefix_loop", "seed"): "--seed",
                 ("prefix_loop", "fps"): "the prefix file's fps"}


def _load_app_config(path) -> AppConfig:
    if not path:
        return AppConfig()
    data = read_config(path)
    cfg = config_from_dict(data)
    for (section, key), setter in _CLI_SET_KEYS.items():
        if key in data.get(section, ()):
            raise ConfigError(f"config {path}: {section}.{key} is set by {setter}")
    return cfg


def cmd_encode(args, cfg) -> None:
    skel = default_skeleton()
    seq = canonicalize_heading(load_motion(args.motion, skel))
    feats = encode_features(seq, skel)
    save_features(feats, seq.fps, args.out)


def cmd_decode(args, cfg) -> str:
    feats, fps = load_features(args.features)
    pos, yaw = decode_root_trajectory(feats, fps)
    frames = [{"root_pos": p, "yaw": y} for p, y in zip(pos.tolist(), yaw.tolist())]
    return json.dumps({"fps": fps, "trajectory": frames}, indent=1)


def cmd_metrics(args, cfg) -> str:
    skel = default_skeleton()
    ref = load_motion(args.reference, skel)
    sim = load_motion(args.executed, skel)
    report = evaluate(ref, sim, skel, cfg.ground, cfg.success)
    return json.dumps(report.to_dict(), indent=1, allow_nan=False)


def cmd_reward_eval(args, cfg) -> str:
    skel = default_skeleton()
    ref = load_motion(args.reference, skel)
    sim = load_motion(args.executed, skel)
    terms, total = task_rewards(ref, sim, cfg.rewards, skel)
    table = np.column_stack([terms[name] for name in TASK_TERMS] + [total]).tolist()
    lines = ["frame," + ",".join(TASK_TERMS) + ",total"]
    lines += [f"{i}," + ",".join(format(v, ".10g") for v in row) for i, row in enumerate(table)]
    return "\n".join(lines) + "\n"


# corpus entry key -> SyntheticFile field; an entry spells file_id as id
_CORPUS_FIELDS = {("id" if f.name == "file_id" else f.name): f.name
                  for f in dataclasses.fields(cur.SyntheticFile)}


def cmd_curriculum_sim(args, cfg) -> str:
    data = check_object(read_json(args.corpus, "corpus spec", ConfigError),
                        f"corpus spec {args.corpus}", ("files",), ("files",))
    if not isinstance(data["files"], list):
        raise ConfigError("corpus spec needs a 'files' list")
    files = []
    for i, item in enumerate(data["files"]):
        check_object(item, f"corpus file {i}", _CORPUS_FIELDS, ("id", "level"))
        files.append(cur.SyntheticFile(**{_CORPUS_FIELDS[k]: value for k, value in item.items()}))
    sim_cfg = dataclasses.replace(cfg.sim, seed=args.seed)
    return cur.run_curriculum_sim(files, cfg.curriculum, sim_cfg).to_csv()


def cmd_route_sim(args, cfg) -> str:
    data = check_object(read_json(args.records, "records", ConfigError),
                        f"records {args.records}", ("stage", "records"), ("records",))
    stage = check_numbers(data.get("stage", 2), "records: 'stage'", (), whole=True).item()
    if stage not in (1, 2):
        raise ConfigError(f"records: 'stage' must be 1 or 2, got {stage}")
    records = data["records"]
    if not isinstance(records, list) or not records:
        raise ConfigError("records file needs a non-empty 'records' list")
    latents, levels = [], []
    for i, rec in enumerate(records):
        check_object(rec, f"record {i}", ("z", "obs", "level"), ("z",))
        latents.append(check_numbers(rec["z"], f"record {i}: latent 'z'", (None,)))
        levels.append(check_numbers(rec.get("level", 1), f"record {i}: 'level'", (),
                                    whole=True).item())
        if levels[-1] < 1:
            raise ConfigError(f"record {i}: 'level' must be >= 1, got {levels[-1]}")
    z_dim = latents[0].shape[0]
    if any(z.shape != (z_dim,) for z in latents):
        raise ConfigError(f"every record's 'z' needs the {z_dim} values of record 0's")
    rng = np.random.default_rng(args.seed)
    if args.pool:
        pool = rt.pool_from_dict(read_json(args.pool, "expert pool", ConfigError))
    else:
        pool = rt.make_random_pool(rng, num_experts=4, input_dim=z_dim,
                                   hidden=(16,), output_dim=8, capacity=16)
    state = rt.make_router(rng, pool.capacity, latent_dim=z_dim, config=cfg.router)
    l_max = pool.unlocked_count
    header = ["step", "level", "hard_routed", "entropy", "top_gap"]
    header += [f"w{j}" for j in range(pool.num_experts)]
    lines = [",".join(header)]
    for i, (rec, z, level) in enumerate(zip(records, latents, levels)):
        logits = rt.gate_logits(z, state, pool)
        rt.refresh_candidates(state, logits)
        if "obs" in rec:
            obs = check_numbers(rec["obs"], f"record {i}: observation 'obs'", (None,))
        elif pool.input_dim <= len(z):
            obs = z[: pool.input_dim]
        else:
            raise ConfigError(f"record {i} has no 'obs' and its latent has {len(z)} values, "
                              f"fewer than the pool's input_dim {pool.input_dim}")
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
    return "\n".join(lines) + "\n"


def cmd_asfo_plan(args, cfg) -> str:
    data = check_object(read_json(args.samples, "samples", ConfigError),
                        f"samples {args.samples}", ("samples",), ("samples",))
    samples = data["samples"]
    # the mapping's keys are sample ids, so it allows its own keys
    if not check_object(samples, "samples file's 'samples'", samples):
        raise ConfigError("samples file needs a non-empty 'samples' mapping")
    for sample_id, tags in samples.items():
        if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
            raise ConfigError(f"sample {sample_id!r}: tags must be a list of strings")
    catalog = TagCatalog.from_samples(samples, cfg.asfo)
    plan = build_epoch_plan(catalog, np.random.default_rng(args.seed))
    entries = [{"sample_id": e.sample_id, "mirrored": e.mirrored, "tags": list(e.tags)}
               for e in plan]
    return json.dumps({"multipliers": asfo_multipliers(catalog), "plan_size": len(plan),
                       "plan": entries}, indent=1)


def _load_prefix_features(path, skel):
    """Features of a clip (told apart by its joint names) or features file."""
    data = read_json(path, "prefix", ConfigError)
    if isinstance(data, dict) and "joint_names" in data:
        seq = canonicalize_heading(parse_motion(data, path, skel))
        return encode_features(seq, skel), seq.fps
    return parse_features(data, path)


def cmd_prefix_run(args, cfg) -> None:
    skel = default_skeleton()
    prefix, fps = _load_prefix_features(args.prefix, skel)
    target_feats, _ = _load_prefix_features(args.target, skel)
    loop_cfg = dataclasses.replace(cfg.prefix_loop, fps=fps, seed=args.seed)
    generator = pl.make_interpolation_generator(loop_cfg.segment_frames, cfg.generator)
    # --seed seeds the tracker too, through a stream apart from the loop's
    tracker = pl.make_perturbation_tracker([args.seed, 1], cfg.tracker)
    _, trace = pl.run_prefix_loop(prefix, target_feats[0], generator, tracker, loop_cfg, skel)
    save_features(trace.features, fps, args.out)
    if args.trace:
        Path(args.trace).write_text(json.dumps(trace.to_dict(), indent=1, allow_nan=False))


# name -> (function, help text, positional file arguments, options and their
# argparse keywords); every subcommand also takes --seed and --config
COMMANDS = {
    "encode": (cmd_encode, "motion clip -> 262-D feature file", ["motion"],
               {"--out": {"required": True}}),
    "decode": (cmd_decode, "feature file -> root trajectory JSON", ["features"], {"--out": {}}),
    "metrics": (cmd_metrics, "reference + executed clips -> metric report",
                ["reference", "executed"], {"--out": {}}),
    "reward-eval": (cmd_reward_eval, "per-frame task rewards as CSV", ["reference", "executed"],
                    {"--out": {}}),
    "curriculum-sim": (cmd_curriculum_sim, "run the scheduler on a synthetic corpus", [],
                       {"--corpus": {"required": True}, "--out": {}}),
    "route-sim": (cmd_route_sim, "replay (z, level) records through the router", ["records"],
                  {"--pool": {"help": "expert pool JSON (random pool when omitted)"},
                   "--out": {}}),
    "asfo-plan": (cmd_asfo_plan, "tagged samples -> oversampling epoch plan", ["samples"],
                  {"--out": {}}),
    "prefix-run": (cmd_prefix_run, "grow a validated prefix to the horizon", ["prefix", "target"],
                   {"--out": {"required": True}, "--trace": {}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motion-forge",
        description="robot-native motion codec, metrics, and schedulers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, files, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--config", help="JSON config file")
        p.set_defaults(fn=fn)
        for file in files:
            p.add_argument(file)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.seed >= 2**63:   # the config rule's bound on every seed field
            raise ConfigError("--seed holds an integer outside int64")
        # an input that drives the arithmetic past the float range fails
        # here, not as a warning beside an infinite or NaN result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            text = args.fn(args, _load_app_config(args.config))
        if text is not None:
            _write_output(text, args.out)
        return 0
    except FloatingPointError as exc:
        error, message = "NonFiniteError", f"the inputs drive a computation out of range: {exc}"
    except MotionForgeError as exc:
        error, message = type(exc).__name__, str(exc)
    except OSError as exc:
        error, message = "OSError", str(exc)
    sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
