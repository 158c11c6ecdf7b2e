"""Generation-side kernels: TP-MoE mixing, diffusion sampling, ASFO.

TP-MoE blends experts in *parameter* space, one mixed expert per text
token: the gate maps a token embedding to a softmax over K experts, every
parameter tensor is averaged under those weights, and the mixed expert's
output is gated along the motion timeline by a spatial mask derived from
cross-attention (sharpness gamma, threshold ratio beta against each token's
column maximum).  The per-token contributions sum into a residual update.

Diffusion uses ancestral sampling with a clean-sample parameterization: the
pluggable denoiser predicts the clean window from a noisy one, and the
posterior step mixes that prediction with the current iterate.  The final
step has zero posterior variance, so a denoiser that returns a fixed target
reproduces it exactly.  A prefix constraint is re-imposed at every step by
overwriting the prefix rows with a re-noised copy of the known frames
(inpainting-style anchoring); the finished sample carries the prefix
bit-exactly.  Classifier-free guidance is the affine rule
base + s * (cond - base), where base is the unconditional prediction or a
negative-prompt prediction.

ASFO (frequency-aware oversampling) duplicates rare-tag samples: each tag's
multiplier is its frequency deficit against the median tag frequency,
rounded and capped; a sample takes the max multiplier over its tags and is
mirrored with probability min(alpha * (r - 1), 1), so frequent samples are
never mirrored and scarce ones almost always are.
"""

from __future__ import annotations

import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from operator import attrgetter
from statistics import median
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, check_fields, check_finite
from .kernels import MLPParams, gelu, init_mlp, mlp_forward, silu, softmax_

TOKEN_DIM = 768
MODEL_DIM = 512
FFN_HIDDEN = 1024
NUM_EXPERTS = 12
MASK_SHARPNESS = 24.0
MASK_THRESHOLD = 0.25
GUIDANCE_SCALE = 2.5

# Denoiser plug-in contract, version 1:
#   denoiser(noisy_window: (T, D) float array, step: int in [1, num_steps],
#            condition: object) -> predicted clean window, shape (T, D).
Denoiser = Callable[[np.ndarray, int, object], np.ndarray]


# FFN expert parameters: ((w1, b1), (w2, b2)) with GELU between the layers.
FFNParams = tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class TPMoEParams:
    """Expert pool, gate MLP, and mask constants for one TP-MoE block.

    The K experts are stacked along a leading axis: w1 (K, H, D), b1 (K, H),
    w2 (K, D, H), b2 (K, D).  These four arrays are the only storage:
    `experts[k]` is expert k's ((w1, b1), (w2, b2)) as views into them.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gate_layers: MLPParams             # SiLU MLP, linear head
    mask_sharpness: float = MASK_SHARPNESS
    mask_threshold: float = MASK_THRESHOLD

    def __post_init__(self):
        k, h, d = self.w1.shape if self.w1.ndim == 3 else (0, 0, 0)
        if k < 1:
            raise ConfigError("need at least one expert")
        if self.b1.shape != (k, h) or self.w2.shape != (k, d, h) or self.b2.shape != (k, d):
            raise ConfigError(
                f"expert stack shapes disagree: w1 {self.w1.shape}, b1 {self.b1.shape}, "
                f"w2 {self.w2.shape}, b2 {self.b2.shape}"
            )
        check_fields(self, positive=("mask_sharpness", "mask_threshold"))
        if self.mask_threshold >= 1:
            raise ConfigError(f"TPMoEParams: mask_threshold must be < 1, "
                              f"got {self.mask_threshold!r}")

    @property
    def experts(self) -> list[FFNParams]:
        return [((self.w1[k], self.b1[k]), (self.w2[k], self.b2[k]))
                for k in range(self.num_experts)]

    @property
    def num_experts(self) -> int:
        return self.w1.shape[0]


def init_tpmoe(
    rng: np.random.Generator,
    token_dim: int = TOKEN_DIM,
    model_dim: int = MODEL_DIM,
    ffn_hidden: int = FFN_HIDDEN,
    num_experts: int = NUM_EXPERTS,
    gate_hidden: int | None = None,
    scale: float = 0.3,
) -> TPMoEParams:
    gate_hidden = model_dim if gate_hidden is None else gate_hidden
    w1 = np.empty((num_experts, ffn_hidden, model_dim))
    w2 = np.empty((num_experts, model_dim, ffn_hidden))
    for k in range(num_experts):   # draw order per expert: w1, then w2
        w1[k] = rng.normal(0.0, scale / np.sqrt(model_dim), w1.shape[1:])
        w2[k] = rng.normal(0.0, scale / np.sqrt(ffn_hidden), w2.shape[1:])
    return TPMoEParams(w1=w1, b1=np.zeros((num_experts, ffn_hidden)),
                       w2=w2, b2=np.zeros((num_experts, model_dim)),
                       gate_layers=init_mlp(rng, token_dim, (gate_hidden, gate_hidden),
                                            num_experts, scale))


def tpmoe_gate(token_embedding: np.ndarray, params: TPMoEParams) -> np.ndarray:
    """Per-token expert weights: softmax over the gate MLP's K outputs.

    One embedding (token_dim,) gives (K,); a batch (N, token_dim) gives
    (N, K), one softmax per row.  NaN or inf raises NonFiniteError.
    """
    x = check_finite(token_embedding, "token embedding")
    return softmax_(mlp_forward(params.gate_layers, x, silu))


def _mix(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Gate-weighted sum over a stack's leading expert axis: one contraction
    of weights (K,) or (N, K) with stack (K, ...), giving (...) or (N, ...)."""
    k = stack.shape[0]
    return (weights @ stack.reshape(k, -1)).reshape(weights.shape[:-1] + stack.shape[1:])


def mix_expert_params(weights: np.ndarray, params: TPMoEParams) -> FFNParams:
    """Blend every expert parameter tensor under the gate weights.

    weights (K,) gives one mixed expert; (N, K) gives N mixed experts
    stacked along a leading axis (w1 (N, H, D), ...).  Each tensor is one
    contraction over the expert axis, so every expert tensor is read once
    however many rows are mixed.  With one-hot weights this returns the
    selected expert's tensors exactly; in general the mixed expert is *not*
    the output-space mixture because the FFN is nonlinear.
    """
    weights = np.asarray(weights, dtype=np.float64)
    k = params.num_experts
    if weights.ndim not in (1, 2) or weights.shape[-1] != k:
        raise DimensionMismatchError(f"expected {k} weights per row, got {weights.shape}")
    return ((_mix(weights, params.w1), _mix(weights, params.b1)),
            (_mix(weights, params.w2), _mix(weights, params.b2)))


def spatial_mask(attention: np.ndarray, gamma: float = MASK_SHARPNESS,
                 beta: float = MASK_THRESHOLD) -> np.ndarray:
    """Sigmoid mask per (frame, token) against the token's attention peak."""
    a = check_finite(attention, "attention")
    col_max = a.max(axis=0, keepdims=True)
    with np.errstate(over="ignore"):   # an overflowing exp gives the limit, 0.0
        return 1.0 / (1.0 + np.exp(-gamma * (a - beta * col_max)))


# The current diffusion sample's mixes, keyed by the routing's bytes and the ids
# of the four stack arrays: (params, those arrays, mix_expert_params(routing,
# params)), holding the arrays so their ids stay unique.  None outside
# `ddpm_sample`, which opens a fresh dict and closes it when it returns.
_SAMPLE_MIXES: ContextVar[dict | None] = ContextVar("sample_mixes", default=None)
_stack_arrays = attrgetter("w1", "b1", "w2", "b2")


def _sample_mix(params: TPMoEParams, routing: np.ndarray) -> FFNParams:
    """`mix_expert_params(routing, params)`.  Inside a diffusion sample it is
    stored on first use and read back while the sample's stored mixes hold
    at most K mixed experts with it; outside a sample or over that budget it
    is built for the one call and dropped."""
    store = _SAMPLE_MIXES.get()
    if store is None:
        return mix_expert_params(routing, params)
    # a mix whose params got new arrays can never hit again: drop it
    for key, (owner, arrays, _) in list(store.items()):
        if any(a is not b for a, b in zip(_stack_arrays(owner), arrays)):
            del store[key]
    arrays = _stack_arrays(params)
    key = (routing.tobytes(), *map(id, arrays))
    if key not in store:
        stored = sum(mix[0][0].shape[0] for _, _, mix in store.values())
        if stored + routing.shape[0] > params.num_experts:
            return mix_expert_params(routing, params)
        store[key] = (params, arrays, mix_expert_params(routing, params))
    return store[key][2]


def tpmoe_apply(
    x: np.ndarray,
    token_embeddings: np.ndarray,
    attention: np.ndarray,
    params: TPMoEParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token-wise mixed experts, masked and summed into a residual.

    x: (T, d) motion features; token_embeddings: (N, token_dim);
    attention: (T, N) cross-attention weights.
    Returns (delta, x + delta, routing_weights (N, K)).  All N tokens are
    gated at once, and with ((w1, b1), (w2, b2)) =
    mix_expert_params(routing, params), one mixed expert per token n,
    delta = sum_n mask[:, n] * (gelu(x @ w1[n].T + b1[n]) @ w2[n].T + b2[n]),
    one matmul per weight over all N tokens.  Inside `ddpm_sample` each
    prompt's mix is stored the first time it is applied and read back by
    every later call in the sample with the same routing and the same stack
    arrays; the prompts stored in one sample hold at most K mixed experts in
    all, never more memory than the stack.  A call outside a sample, or a
    prompt over that budget, builds its mix and drops it when it returns.
    """
    x = check_finite(x, "motion features")
    tokens = np.atleast_2d(np.asarray(token_embeddings, dtype=np.float64))
    attention = np.asarray(attention, dtype=np.float64)
    if attention.shape != (x.shape[0], tokens.shape[0]):
        raise DimensionMismatchError(
            f"attention must be (frames, tokens) = {(x.shape[0], tokens.shape[0])}, "
            f"got {attention.shape}"
        )
    mask = spatial_mask(attention, params.mask_sharpness, params.mask_threshold)
    routing = tpmoe_gate(tokens, params)
    (w1, b1), (w2, b2) = _sample_mix(params, routing)
    hidden = gelu(x @ np.swapaxes(w1, -1, -2) + b1[:, None, :])
    per_token = hidden @ np.swapaxes(w2, -1, -2)
    per_token += b2[:, None, :]
    delta = (mask.T[:, :, None] * per_token).sum(axis=0)
    return delta, x + delta, routing


def generator_balance_loss(routing_means: np.ndarray) -> float:
    """K * sum_j (pbar_j - 1/K)^2 over a non-empty (K,) array; zero exactly at uniform usage."""
    p = check_finite(routing_means, "routing means")
    if p.ndim != 1 or p.shape[0] == 0:
        raise ConfigError("routing means must be a non-empty (K,) array")
    k = p.shape[0]
    return float(k * np.sum((p - 1.0 / k) ** 2))


# ---------------------------------------------------------------------------
# Attention pooling of text tokens


@dataclass
class AttentionPoolParams:
    """Learnable-query multi-head pooling plus the memory projection."""

    query: np.ndarray          # (token_dim,)
    w_k: np.ndarray            # (token_dim, token_dim)
    w_v: np.ndarray
    w_o: np.ndarray
    w_mem: np.ndarray          # (model_dim, token_dim)
    num_heads: int = 4

    def __post_init__(self):
        check_fields(self, positive=("num_heads",))
        d = self.query.shape[0]
        if d % self.num_heads != 0:
            raise ConfigError("token dim must divide evenly into heads")
        for name in ("w_k", "w_v", "w_o"):
            if getattr(self, name).shape != (d, d):
                raise ConfigError(f"{name} must be ({d}, {d})")


def init_attention_pool(
    rng: np.random.Generator,
    token_dim: int = TOKEN_DIM,
    model_dim: int = MODEL_DIM,
    num_heads: int = 4,
) -> AttentionPoolParams:
    s = 1.0 / np.sqrt(token_dim)
    return AttentionPoolParams(
        query=rng.normal(0.0, 1.0, token_dim),
        w_k=rng.normal(0.0, s, (token_dim, token_dim)),
        w_v=rng.normal(0.0, s, (token_dim, token_dim)),
        w_o=rng.normal(0.0, s, (token_dim, token_dim)),
        w_mem=rng.normal(0.0, s, (model_dim, token_dim)),
        num_heads=num_heads,
    )


def attention_pool_summary(
    tokens: np.ndarray, params: AttentionPoolParams
) -> tuple[np.ndarray, np.ndarray]:
    """Pool N token embeddings into one summary vector and build the memory.

    The learnable query attends over the tokens per head; the concatenated
    head contexts pass through the output projection.  The memory stacks the
    summary above the tokens and projects everything to the model dim,
    giving an (1 + N, model_dim) array.
    """
    tokens = np.atleast_2d(check_finite(tokens, "attention pool tokens"))
    if tokens.shape[0] < 1:
        raise DimensionMismatchError("need at least one token")
    d = params.query.shape[0]
    if tokens.shape[1] != d:
        raise DimensionMismatchError(f"tokens must have dim {d}")
    h = params.num_heads
    dh = d // h
    keys = tokens @ params.w_k.T          # (N, d)
    values = tokens @ params.w_v.T
    context = np.empty(d)
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        alpha = softmax_(keys[:, sl] @ params.query[sl] / np.sqrt(dh))
        context[sl] = alpha @ values[:, sl]
    summary = context @ params.w_o.T
    memory = np.vstack([summary, tokens]) @ params.w_mem.T
    return summary, memory


# ---------------------------------------------------------------------------
# Diffusion: loss, guidance, ancestral sampling with prefix anchoring


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule; alpha_bar[0] = 1 so the last step is exact."""

    betas: np.ndarray
    guidance_scale: float = GUIDANCE_SCALE

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        object.__setattr__(self, "betas", betas)
        if betas.ndim != 1 or betas.shape[0] < 1:
            raise ConfigError("betas must be a non-empty vector")
        if not np.all((betas > 0.0) & (betas < 1.0)):   # NaN fails both
            raise ConfigError("betas must lie in (0, 1)")
        check_fields(self, signed=("guidance_scale",))
        alphas = 1.0 - betas
        alpha_bar = np.concatenate([[1.0], np.cumprod(alphas)])
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bar", alpha_bar)

    @property
    def num_steps(self) -> int:
        return self.betas.shape[0]


def make_schedule(
    num_steps: int = 50,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
    guidance_scale: float = GUIDANCE_SCALE,
) -> DiffusionSchedule:
    betas = np.linspace(beta_start, beta_end, num_steps)
    return DiffusionSchedule(betas=betas, guidance_scale=guidance_scale)


def add_noise(
    clean: np.ndarray, step: int, schedule: DiffusionSchedule, rng: np.random.Generator
) -> np.ndarray:
    """Forward process: noise a clean window to diffusion step `step`, a
    whole number in 0..num_steps (0 leaves it clean)."""
    if (isinstance(step, bool) or not isinstance(step, numbers.Integral)
            or not 0 <= step <= schedule.num_steps):
        raise ConfigError(f"step must be a whole number in 0..{schedule.num_steps}, got {step!r}")
    clean = check_finite(clean, "clean window")
    ab = schedule.alpha_bar[step]
    noise = rng.standard_normal(clean.shape)
    return np.sqrt(ab) * clean + np.sqrt(1.0 - ab) * noise


def _denoise(denoiser: Denoiser, x: np.ndarray, step: int, condition, shape) -> np.ndarray:
    """The denoiser's prediction for `x` at `step`: finite and of the window's `shape`."""
    pred = check_finite(denoiser(x, step, condition), f"denoiser output at step {step}")
    if pred.shape != shape:
        raise DimensionMismatchError("denoiser changed the window shape")
    return pred


def diffusion_loss(
    clean_window: np.ndarray,
    noisy_window: np.ndarray,
    step: int,
    condition: object,
    denoiser: Denoiser,
) -> float:
    """Mean squared error between the clean window and the denoiser output."""
    clean = check_finite(clean_window, "clean window")
    pred = _denoise(denoiser, np.asarray(noisy_window, dtype=np.float64), step, condition,
                    clean.shape)
    return float(np.mean((clean - pred) ** 2))


def cfg_combine(cond_pred: np.ndarray, uncond_pred: np.ndarray,
                scale: float = GUIDANCE_SCALE) -> np.ndarray:
    """Standard guidance: uncond + s * (cond - uncond), exact at s in {0, 1}.
    A NaN or infinite scale raises ConfigError."""
    if not math.isfinite(scale):
        raise ConfigError(f"guidance scale must be finite, got {scale!r}")
    cond_pred = np.asarray(cond_pred, dtype=np.float64)
    uncond_pred = np.asarray(uncond_pred, dtype=np.float64)
    if cond_pred.shape != uncond_pred.shape:
        raise DimensionMismatchError("guidance inputs must have equal shapes")
    if scale == 0.0:
        return uncond_pred.copy()
    if scale == 1.0:
        return cond_pred.copy()
    return uncond_pred + scale * (cond_pred - uncond_pred)


def cfg_negative(cond_pred: np.ndarray, neg_pred: np.ndarray,
                 scale: float = GUIDANCE_SCALE) -> np.ndarray:
    """Negative-prompt guidance: the negative encoding replaces the
    unconditional baseline, steering the sample away from it."""
    return cfg_combine(cond_pred, neg_pred, scale)


def ddpm_sample(
    schedule: DiffusionSchedule,
    denoiser: Denoiser,
    condition: object,
    shape: tuple[int, int],
    rng: np.random.Generator,
    prefix: np.ndarray | None = None,
) -> np.ndarray:
    """Ancestral sampling under the clean-sample parameterization.

    When `prefix` is given, its rows replace the head of the window at every
    step (`add_noise` to the step's level) and are copied verbatim into the
    result, so prefix frames are returned bit-exactly.  NaN or inf in the
    prefix raises NonFiniteError.

    The sample is one scope for `tpmoe_apply`: each prompt is stored as
    `mix_expert_params(routing, params)` the first time it is applied and
    read back on later steps (see there), so a denoiser must not write into
    an expert stack in place while the sample runs; assigning new arrays is
    safe.
    """
    if prefix is not None:
        prefix = check_finite(prefix, "prefix")
        if prefix.ndim != 2 or prefix.shape[0] > shape[0] or prefix.shape[1] != shape[1]:
            raise DimensionMismatchError("prefix must be leading rows of the window shape")
    scope = _SAMPLE_MIXES.set({})
    try:
        x = rng.standard_normal(shape)
        for step in range(schedule.num_steps, 0, -1):
            pred = _denoise(denoiser, x, step, condition, x.shape)
            ab_t = schedule.alpha_bar[step]
            ab_prev = schedule.alpha_bar[step - 1]
            beta_t = schedule.betas[step - 1]
            alpha_t = schedule.alphas[step - 1]
            coef_clean = np.sqrt(ab_prev) * beta_t / (1.0 - ab_t)
            coef_noisy = np.sqrt(alpha_t) * (1.0 - ab_prev) / (1.0 - ab_t)
            x = coef_clean * pred + coef_noisy * x
            if step > 1:
                var = beta_t * (1.0 - ab_prev) / (1.0 - ab_t)
                x = x + np.sqrt(var) * rng.standard_normal(shape)
            if prefix is not None:
                x[: prefix.shape[0]] = add_noise(prefix, step - 1, schedule, rng)
        if prefix is not None:
            x[: prefix.shape[0]] = prefix
        return x
    finally:
        _SAMPLE_MIXES.reset(scope)


# ---------------------------------------------------------------------------
# ASFO: frequency-aware oversampling with left-right mirroring


@dataclass(frozen=True)
class AsfoConfig:
    rho_max: int = 8
    mirror_alpha: float = 0.3

    def __post_init__(self):
        check_fields(self, positive=("rho_max",))


@dataclass
class TagCatalog:
    """Tag frequencies and per-sample tag sets driving the oversampler."""

    tag_counts: dict[str, int]
    sample_tags: dict[str, tuple[str, ...]]
    asfo: AsfoConfig = AsfoConfig()

    def __post_init__(self):
        if any(c < 1 for c in self.tag_counts.values()):
            raise ConfigError("tag counts must be >= 1")
        uncounted = set().union(*self.sample_tags.values()) - self.tag_counts.keys()
        if uncounted:
            raise ConfigError(f"tag {min(uncounted, key=str)!r} has no count in tag_counts")

    @classmethod
    def from_samples(cls, sample_tags: Mapping[str, Sequence[str]],
                     asfo: AsfoConfig = AsfoConfig()) -> "TagCatalog":
        counts: dict[str, int] = {}
        for tags in sample_tags.values():
            for tag in tags:
                counts[tag] = counts.get(tag, 0) + 1
        return cls(tag_counts=counts,
                   sample_tags={k: tuple(v) for k, v in sample_tags.items()}, asfo=asfo)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def asfo_multipliers(catalog: TagCatalog) -> dict[str, int]:
    """Per-tag oversampling multiplier against the median tag frequency,
    rounded to the nearest integer and clamped to [1, rho_max]; none
    for a catalog without tags."""
    if not catalog.tag_counts:
        return {}
    tau = median(catalog.tag_counts.values())
    return {
        tag: max(1, min(_round_half_up(tau / count), catalog.asfo.rho_max))
        for tag, count in catalog.tag_counts.items()
    }


def sample_multipliers(catalog: TagCatalog) -> dict[str, int]:
    """Effective multiplier per sample: the max over its tags' multipliers;
    tagless samples get 1."""
    rho = asfo_multipliers(catalog)
    return {sample_id: max((rho[t] for t in tags), default=1)
            for sample_id, tags in catalog.sample_tags.items()}


def mirror_probability(multiplier, alpha: float):
    """min(alpha * (r - 1), 1): never mirror frequent samples.  Takes one
    multiplier or an array of them."""
    return np.clip(alpha * (np.asarray(multiplier) - 1), 0.0, 1.0)


def swap_side_tags(tags: Sequence[str]) -> tuple[str, ...]:
    """Swap the words 'left' and 'right' inside every tag."""
    out = []
    for tag in tags:
        words = [
            "right" if w == "left" else "left" if w == "right" else w
            for w in tag.split()
        ]
        out.append(" ".join(words))
    return tuple(out)


@dataclass(frozen=True)
class PlanEntry:
    sample_id: str
    mirrored: bool
    tags: tuple[str, ...]


def build_epoch_plan(catalog: TagCatalog, rng: np.random.Generator) -> list[PlanEntry]:
    """One training epoch: every sample appears multiplier-many times, each
    copy independently mirrored with its rarity-driven probability.  Samples
    iterate in sorted id order so a fixed seed fixes the plan; the coins are
    one draw of `rng.uniform`, in plan order."""
    multipliers = sample_multipliers(catalog)
    ids = sorted(multipliers)
    tags = [catalog.sample_tags[sample_id] for sample_id in ids]
    r = np.array([multipliers[sample_id] for sample_id in ids], dtype=np.int64)
    p_mir = mirror_probability(r, catalog.asfo.mirror_alpha)
    mirrored = rng.uniform(size=int(r.sum())) < np.repeat(p_mir, r)
    return [
        PlanEntry(sample_id=ids[i], mirrored=m, tags=swap_side_tags(tags[i]) if m else tags[i])
        for i, m in zip(np.repeat(np.arange(len(ids)), r).tolist(), mirrored.tolist())
    ]
