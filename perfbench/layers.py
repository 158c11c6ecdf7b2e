"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the `motion_forge` modules.  Each metric is derived from the
tracer's per-target statistics, or from counts the workloads read off
their outputs (`outputs`), averaged per traced pass.  The table below is
also the source of the `per_layer` list in BENCHMARK.json.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod
from typing import Callable

from tracer import Target


def _rows(frames, *args, **kwargs):
    return len(frames)


def _seq_frames(seq, *args, **kwargs):
    return seq.num_frames


def _sixd_count(vec, *args, **kwargs):
    return prod(vec.shape[:-1])


def _matrix_count(rot, *args, **kwargs):
    return prod(rot.shape[:-2])


def _file_bytes(path, *args, **kwargs):
    return os.path.getsize(path)


def tpmoe_flops(x, token_embeddings, attention, params) -> float:
    """Floating-point operations of one `tpmoe_apply`, from shapes.

    Per token: the gate MLP, the parameter mix (a multiply-add per expert
    parameter) and the mixed FFN over every frame.
    """
    frames = x.shape[0]
    tokens = 1 if token_embeddings.ndim == 1 else token_embeddings.shape[0]
    gate = sum(2 * w.size for w, _ in params.gate_layers)
    (w1, b1), (w2, b2) = params.experts[0]
    expert_params = w1.size + b1.size + w2.size + b2.size
    mix = 2 * params.num_experts * expert_params
    ffn = 2 * frames * (w1.size + w2.size)
    return float(tokens * (gate + mix + ffn))


TARGETS = [
    Target("prefix_loop.run_prefix_loop", "prefix_loop", "run_prefix_loop", hot=False),
    Target("features.features_to_motion", "prefix_loop", "features_to_motion", hot=False, count=_rows),
    Target("features.decode_root_trajectory", "features", "decode_root_trajectory"),
    Target("features.project_valid_rot6d", "features", "project_valid_rot6d"),
    Target("features.encode_features", "features", "encode_features", hot=False, count=_seq_frames),
    Target("features.canonicalize_heading", "features", "canonicalize_heading", hot=False),
    Target("features.normalize_features", "features", "normalize_features"),
    Target("rotations.sixd_to_rot", "rotations", "sixd_to_rot", count=_sixd_count),
    Target("rotations.rot_to_6d", "rotations", "rot_to_6d", count=_matrix_count),
    Target("rotations.matrix_to_quat", "rotations", "matrix_to_quat", count=_matrix_count),
    Target("motion.MotionSequence", "motion", "MotionSequence.__init__"),
    Target("motion.validate", "motion", "MotionSequence.validate"),
    Target("motion.finite_difference", "motion", "finite_difference"),
    Target("motion.mirror_sequence", "motion", "mirror_sequence", hot=False),
    Target("metrics.mpjpe", "metrics", "mpjpe"),
    Target("metrics.evaluate", "metrics", "evaluate", hot=False),
    Target("rewards.task_rewards", "rewards", "task_rewards"),
    Target("motion_io.load_motion", "motion_io", "load_motion", hot=False, count=_file_bytes),
    Target("curriculum.run_curriculum_sim", "curriculum", "run_curriculum_sim", hot=False),
    Target("curriculum.sampling_distribution", "curriculum", "sampling_distribution"),
    Target("curriculum.apply_level_quota", "curriculum", "apply_level_quota"),
    Target("curriculum.update_file_stats", "curriculum", "update_file_stats"),
    Target("curriculum.check_freeze", "curriculum", "check_freeze"),
    Target("curriculum.default_error_process", "curriculum", "default_error_process"),
    Target("router.gate_logits", "router", "gate_logits"),
    Target("router.mixture_action", "router", "mixture_action"),
    Target("generation.tpmoe_apply", "generation", "tpmoe_apply", hot=False, count=tpmoe_flops),
    Target("generation.mix_expert_params", "generation", "mix_expert_params"),
    Target("generation.ddpm_sample", "generation", "ddpm_sample", hot=False),
    Target("generation.build_epoch_plan", "generation", "build_epoch_plan", hot=False),
]

# Benchmark-owned plug-ins, wrapped by the workloads when tracing.
PLUGIN_GENERATOR = "prefix_loop.generator"
PLUGIN_TRACKER = "prefix_loop.tracker"
PLUGIN_DENOISER = "generation.denoiser"

# Counts the workloads read off their outputs, summed over traced passes.
OUTPUT_KEYS = (
    "prefix_accepted",
    "prefix_output_frames",
    "curriculum_freezes",
    "curriculum_drops",
    "curriculum_promotions",
    "router_stage1_steps",
    "router_hard_routed",
    "plan_entries",
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable        # (ctx) -> float
    needs: tuple[str, ...] = ()


class Context:
    """Per-pass view of a tracer plus the workloads' output counts."""

    def __init__(self, tracer, outputs: dict, passes: int, overhead: float):
        self.tracer = tracer
        self.outputs = outputs
        self.passes = max(passes, 1)
        self.overhead = overhead

    def s(self, key):
        return self.tracer.seconds(key) / self.passes

    def self_s(self, key):
        return self.tracer.self_seconds(key) / self.passes

    def calls(self, key):
        return self.tracer.calls(key) / self.passes

    def work(self, key):
        return self.tracer.work(key) / self.passes

    def out(self, key):
        return self.outputs.get(key, 0) / self.passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timed(name: str, key: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", lambda c: c.s(key), (key,))


def _calls(name: str, key: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", lambda c: c.calls(key), (key,))


F2M = "features.features_to_motion"
TPMOE = "generation.tpmoe_apply"
LOAD = "motion_io.load_motion"
ROT_KEYS = ("rotations.sixd_to_rot", "rotations.rot_to_6d", "rotations.matrix_to_quat")

METRICS = [
    LayerMetric("prefix_loop.attempts", "count", "lower", lambda c: c.calls(PLUGIN_GENERATOR)),
    LayerMetric("prefix_loop.accept_ratio", "ratio", "higher",
                lambda c: _ratio(c.out("prefix_accepted"), c.calls(PLUGIN_GENERATOR))),
    LayerMetric("prefix_loop.self_s", "s", "lower",
                lambda c: c.self_s("prefix_loop.run_prefix_loop"), ("prefix_loop.run_prefix_loop",)),
    LayerMetric("prefix_loop.generator_s", "s", "lower", lambda c: c.s(PLUGIN_GENERATOR)),
    LayerMetric("prefix_loop.tracker_s", "s", "lower", lambda c: c.s(PLUGIN_TRACKER)),
    LayerMetric("features.frames_decoded", "count", "lower", lambda c: c.work(F2M), (F2M,)),
    LayerMetric("features.decode_per_output_frame", "ratio", "lower",
                lambda c: _ratio(c.work(F2M), c.out("prefix_output_frames")), (F2M,)),
    _timed("features.features_to_motion_s", F2M),
    _timed("features.decode_root_trajectory_s", "features.decode_root_trajectory"),
    _timed("features.project_valid_rot6d_s", "features.project_valid_rot6d"),
    LayerMetric("features.frames_encoded", "count", "lower",
                lambda c: c.work("features.encode_features"), ("features.encode_features",)),
    _timed("features.encode_features_s", "features.encode_features"),
    _timed("features.canonicalize_s", "features.canonicalize_heading"),
    _timed("features.normalize_s", "features.normalize_features"),
    _timed("rotations.sixd_to_rot_s", "rotations.sixd_to_rot"),
    _timed("rotations.rot_to_6d_s", "rotations.rot_to_6d"),
    _timed("rotations.matrix_to_quat_s", "rotations.matrix_to_quat"),
    LayerMetric("rotations.matrices", "count", "lower",
                lambda c: sum(c.work(k) for k in ROT_KEYS), ROT_KEYS),
    _calls("motion.sequences_built", "motion.MotionSequence"),
    _timed("motion.validate_s", "motion.validate"),
    _timed("motion.finite_difference_s", "motion.finite_difference"),
    _timed("motion.mirror_sequence_s", "motion.mirror_sequence"),
    _timed("metrics.mpjpe_s", "metrics.mpjpe"),
    _timed("metrics.evaluate_s", "metrics.evaluate"),
    _calls("rewards.task_rewards_calls", "rewards.task_rewards"),
    _timed("rewards.task_rewards_s", "rewards.task_rewards"),
    _timed("motion_io.load_motion_s", LOAD),
    LayerMetric("motion_io.bytes_read", "bytes", "lower", lambda c: c.work(LOAD), (LOAD,)),
    LayerMetric("motion_io.read_mb_per_s", "MB/s", "higher",
                lambda c: _ratio(c.work(LOAD) / 1e6, c.s(LOAD)), (LOAD,)),
    LayerMetric("curriculum.self_s", "s", "lower",
                lambda c: c.self_s("curriculum.run_curriculum_sim"), ("curriculum.run_curriculum_sim",)),
    _calls("curriculum.sampling_distribution_calls", "curriculum.sampling_distribution"),
    _timed("curriculum.sampling_distribution_s", "curriculum.sampling_distribution"),
    _timed("curriculum.apply_level_quota_s", "curriculum.apply_level_quota"),
    _calls("curriculum.update_file_stats_calls", "curriculum.update_file_stats"),
    _timed("curriculum.update_file_stats_s", "curriculum.update_file_stats"),
    _calls("curriculum.check_freeze_calls", "curriculum.check_freeze"),
    _timed("curriculum.check_freeze_s", "curriculum.check_freeze"),
    _timed("curriculum.error_process_s", "curriculum.default_error_process"),
    LayerMetric("curriculum.freezes", "count", "lower", lambda c: c.out("curriculum_freezes")),
    LayerMetric("curriculum.drops", "count", "lower", lambda c: c.out("curriculum_drops")),
    LayerMetric("curriculum.promotions", "count", "higher", lambda c: c.out("curriculum_promotions")),
    LayerMetric("router.steps", "count", "higher",
                lambda c: c.calls("router.gate_logits"), ("router.gate_logits",)),
    _timed("router.gate_logits_s", "router.gate_logits"),
    _timed("router.mixture_action_s", "router.mixture_action"),
    LayerMetric("router.hard_route_rate", "ratio", "higher",
                lambda c: _ratio(c.out("router_hard_routed"), c.out("router_stage1_steps"))),
    _calls("generation.tpmoe_calls", TPMOE),
    _timed("generation.tpmoe_apply_s", TPMOE),
    _timed("generation.mix_expert_params_s", "generation.mix_expert_params"),
    LayerMetric("generation.tpmoe_gflop", "GFLOP", "lower", lambda c: c.work(TPMOE) / 1e9, (TPMOE,)),
    LayerMetric("generation.tpmoe_gflop_per_s", "GFLOP/s", "higher",
                lambda c: _ratio(c.work(TPMOE) / 1e9, c.s(TPMOE)), (TPMOE,)),
    _timed("generation.ddpm_sample_s", "generation.ddpm_sample"),
    LayerMetric("generation.denoiser_s", "s", "lower", lambda c: c.s(PLUGIN_DENOISER)),
    _timed("generation.build_epoch_plan_s", "generation.build_epoch_plan"),
    LayerMetric("generation.plan_entries", "count", "higher", lambda c: c.out("plan_entries")),
    LayerMetric("trace.overhead", "ratio", "lower", lambda c: c.overhead),
]


def layer_metrics(ctx: Context) -> tuple[dict, list[str]]:
    """Every per-layer metric that can be computed, and the names left out
    because a target they need is missing."""
    missing = set(ctx.tracer.missing)
    values, skipped = {}, []
    for m in METRICS:
        if missing.intersection(m.needs):
            skipped.append(m.name)
            continue
        values[m.name] = {"value": float(m.value(ctx)), "unit": m.unit}
    return values, skipped
