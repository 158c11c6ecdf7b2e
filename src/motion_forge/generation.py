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
from dataclasses import dataclass
from statistics import median
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteError

TOKEN_DIM = 768
MODEL_DIM = 512
FFN_HIDDEN = 1024
NUM_EXPERTS = 12
MASK_SHARPNESS = 24.0
MASK_THRESHOLD = 0.25
BALANCE_WEIGHT = 0.01
GUIDANCE_SCALE = 2.5
# Expert-stack rows (w1 hidden units, w2 output features) that `tpmoe_apply`
# mixes and applies per step.  Blocks split only output rows, so every sum
# keeps its length and order.  With OpenBLAS, blocks of 64 rows and more match
# the unblocked mix bit for bit; narrower panels can reach other BLAS edge
# kernels (16-row blocks differ by 2e-17), so keep it at 64 or more.
TPMOE_BLOCK_ROWS = 128

# Denoiser plug-in contract, version 1:
#   denoiser(noisy_window: (T, D) float array, step: int in [1, num_steps],
#            condition: object) -> predicted clean window, shape (T, D).
Denoiser = Callable[[np.ndarray, int, object], np.ndarray]


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation; x * x * x, because numpy's x**3 is a slow pow() per element
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def silu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):   # exp(-x) = inf below about -709: the limit, -0.0
        return x / (1.0 + np.exp(-x))


# FFN expert parameters: ((w1, b1), (w2, b2)) with GELU between the layers.
FFNParams = tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def ffn_apply(params: FFNParams, x: np.ndarray) -> np.ndarray:
    """GELU FFN over the frames of x (T, D).  Parameters stacked along
    leading axes (w1 (..., H, D), b1 (..., H), ...) give one output per
    stacked expert, shape (..., T, D)."""
    (w1, b1), (w2, b2) = params
    h = gelu(np.asarray(x, dtype=np.float64) @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
    return h @ np.swapaxes(w2, -1, -2) + b2[..., None, :]


@dataclass
class TPMoEParams:
    """Expert pool, gate MLP, and mask constants for one TP-MoE block.

    The K experts are stacked along a leading axis: w1 (K, H, D), b1 (K, H),
    w2 (K, D, H), b2 (K, D).  These four arrays are the only storage:
    `experts[k]` is expert k's ((w1, b1), (w2, b2)) as views into them, and
    assigning a list of such tuples to `experts` restacks.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gate_layers: list[tuple[np.ndarray, np.ndarray]]   # SiLU MLP, linear head
    mask_sharpness: float = MASK_SHARPNESS
    mask_threshold: float = MASK_THRESHOLD
    balance_weight: float = BALANCE_WEIGHT

    def __post_init__(self):
        self._check_stack()
        if self.mask_sharpness <= 0 or not 0.0 < self.mask_threshold < 1.0:
            raise ConfigError("mask constants out of range")

    def _check_stack(self) -> None:
        k, h, d = self.w1.shape if self.w1.ndim == 3 else (0, 0, 0)
        if k < 1:
            raise ConfigError("need at least one expert")
        if self.b1.shape != (k, h) or self.w2.shape != (k, d, h) or self.b2.shape != (k, d):
            raise ConfigError(
                f"expert stack shapes disagree: w1 {self.w1.shape}, b1 {self.b1.shape}, "
                f"w2 {self.w2.shape}, b2 {self.b2.shape}"
            )

    @property
    def experts(self) -> list[FFNParams]:
        return [((self.w1[k], self.b1[k]), (self.w2[k], self.b2[k]))
                for k in range(self.num_experts)]

    @experts.setter
    def experts(self, experts: Sequence[FFNParams]) -> None:
        if not experts:
            raise ConfigError("need at least one expert")
        flat = [(w1, b1, w2, b2) for (w1, b1), (w2, b2) in experts]
        self.w1, self.b1, self.w2, self.b2 = (np.stack(arrays) for arrays in zip(*flat))
        self._check_stack()

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
    dims = [token_dim, gate_hidden, gate_hidden, num_experts]
    gate_layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        gate_layers.append((rng.normal(0.0, scale / np.sqrt(d_in), (d_out, d_in)), np.zeros(d_out)))
    return TPMoEParams(w1=w1, b1=np.zeros((num_experts, ffn_hidden)),
                       w2=w2, b2=np.zeros((num_experts, model_dim)),
                       gate_layers=gate_layers)


def tpmoe_gate(token_embedding: np.ndarray, params: TPMoEParams) -> np.ndarray:
    """Per-token expert weights: softmax over the gate MLP's K outputs.

    One embedding (token_dim,) gives (K,); a batch (N, token_dim) gives
    (N, K), one softmax per row.
    """
    x = np.asarray(token_embedding, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("token embedding must be finite")
    for i, (w, b) in enumerate(params.gate_layers):
        x = x @ w.T + b
        if i < len(params.gate_layers) - 1:
            x = silu(x)
    x = x - x.max(axis=-1, keepdims=True)
    w = np.exp(x)
    return w / w.sum(axis=-1, keepdims=True)


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
    a = np.asarray(attention, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("attention must be finite")
    col_max = a.max(axis=0, keepdims=True)
    with np.errstate(over="ignore"):   # an overflowing exp gives the limit, 0.0
        return 1.0 / (1.0 + np.exp(-gamma * (a - beta * col_max)))


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
    gated at once.  The expert stack streams through in blocks of
    TPMOE_BLOCK_ROWS rows: each block of w1 (hidden units) or w2 (output
    features) is mixed for every token and applied to the frames straight
    away, so each expert tensor is read once per call and no mixed expert is
    ever built whole.  Every sum keeps the length and order it has in
    `ffn_apply(mix_expert_params(routing, params), x)`, masked and summed
    over tokens, which is the reference this matches.
    """
    x = np.asarray(x, dtype=np.float64)
    tokens = np.atleast_2d(np.asarray(token_embeddings, dtype=np.float64))
    attention = np.asarray(attention, dtype=np.float64)
    if attention.shape != (x.shape[0], tokens.shape[0]):
        raise DimensionMismatchError(
            f"attention must be (frames, tokens) = {(x.shape[0], tokens.shape[0])}, "
            f"got {attention.shape}"
        )
    mask = spatial_mask(attention, params.mask_sharpness, params.mask_threshold)
    routing = tpmoe_gate(tokens, params)
    n, t = tokens.shape[0], x.shape[0]

    def stream(source: np.ndarray, stack: np.ndarray) -> np.ndarray:
        # source (..., T, C) against every token's mixed stack rows: (N, T, rows)
        out = np.empty((n, t, stack.shape[1]))
        for start in range(0, stack.shape[1], TPMOE_BLOCK_ROWS):
            rows = slice(start, start + TPMOE_BLOCK_ROWS)
            np.matmul(source, np.swapaxes(_mix(routing, stack[:, rows]), -1, -2),
                      out=out[:, :, rows])
        return out

    hidden = gelu(stream(x, params.w1) + _mix(routing, params.b1)[:, None, :])
    per_token = stream(hidden, params.w2)
    per_token += _mix(routing, params.b2)[:, None, :]
    delta = (mask.T[:, :, None] * per_token).sum(axis=0)
    return delta, x + delta, routing


def generator_balance_loss(routing_means: np.ndarray) -> float:
    """K * sum_j (pbar_j - 1/K)^2; zero exactly at uniform usage."""
    p = np.asarray(routing_means, dtype=np.float64)
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
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.float64))
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
        scores = keys[:, sl] @ params.query[sl] / np.sqrt(dh)
        scores = scores - scores.max()
        alpha = np.exp(scores)
        alpha /= alpha.sum()
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
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ConfigError("betas must lie in (0, 1)")
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
    """Forward process: noise a clean window to diffusion step `step`."""
    ab = schedule.alpha_bar[step]
    noise = rng.standard_normal(np.shape(clean))
    return np.sqrt(ab) * np.asarray(clean) + np.sqrt(1.0 - ab) * noise


def diffusion_loss(
    clean_window: np.ndarray,
    noisy_window: np.ndarray,
    step: int,
    condition: object,
    denoiser: Denoiser,
) -> float:
    """Mean squared error between the clean window and the denoiser output."""
    clean = np.asarray(clean_window, dtype=np.float64)
    pred = np.asarray(denoiser(np.asarray(noisy_window, dtype=np.float64), step, condition))
    if pred.shape != clean.shape:
        raise DimensionMismatchError("denoiser changed the window shape")
    return float(np.mean((clean - pred) ** 2))


def cfg_combine(cond_pred: np.ndarray, uncond_pred: np.ndarray,
                scale: float = GUIDANCE_SCALE) -> np.ndarray:
    """Standard guidance: uncond + s * (cond - uncond), exact at s in {0, 1}."""
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
    step (re-noised to the step's level) and are copied verbatim into the
    result, so prefix frames are returned bit-exactly.
    """
    if prefix is not None:
        prefix = np.asarray(prefix, dtype=np.float64)
        if prefix.ndim != 2 or prefix.shape[0] > shape[0] or prefix.shape[1] != shape[1]:
            raise DimensionMismatchError("prefix must be leading rows of the window shape")
    x = rng.standard_normal(shape)
    for step in range(schedule.num_steps, 0, -1):
        pred = np.asarray(denoiser(x, step, condition), dtype=np.float64)
        if pred.shape != x.shape:
            raise DimensionMismatchError("denoiser changed the window shape")
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
            noise = rng.standard_normal(prefix.shape)
            x[: prefix.shape[0]] = (
                np.sqrt(ab_prev) * prefix + np.sqrt(1.0 - ab_prev) * noise
            )
    if prefix is not None:
        x[: prefix.shape[0]] = prefix
    return x


def make_oracle_denoiser(target: np.ndarray) -> Denoiser:
    """Denoiser that always predicts a fixed clean window (ground truth)."""
    target = np.asarray(target, dtype=np.float64)

    def denoiser(noisy, step, condition):
        return np.broadcast_to(target, np.shape(noisy)).copy()

    return denoiser


def zero_denoiser(noisy, step, condition) -> np.ndarray:
    return np.zeros_like(np.asarray(noisy, dtype=np.float64))


# ---------------------------------------------------------------------------
# ASFO: frequency-aware oversampling with left-right mirroring


@dataclass
class TagCatalog:
    """Tag frequencies and per-sample tag sets driving the oversampler."""

    tag_counts: dict[str, int]
    sample_tags: dict[str, tuple[str, ...]]
    rho_max: int = 8
    mirror_alpha: float = 0.3

    def __post_init__(self):
        if self.rho_max < 1:
            raise ConfigError("rho_max must be >= 1")
        if any(c < 1 for c in self.tag_counts.values()):
            raise ConfigError("tag counts must be >= 1")

    @classmethod
    def from_samples(
        cls,
        sample_tags: Mapping[str, Sequence[str]],
        rho_max: int = 8,
        mirror_alpha: float = 0.3,
    ) -> "TagCatalog":
        counts: dict[str, int] = {}
        for tags in sample_tags.values():
            for tag in tags:
                counts[tag] = counts.get(tag, 0) + 1
        return cls(
            tag_counts=counts,
            sample_tags={k: tuple(v) for k, v in sample_tags.items()},
            rho_max=rho_max,
            mirror_alpha=mirror_alpha,
        )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def asfo_multipliers(catalog: TagCatalog) -> dict[str, int]:
    """Per-tag oversampling multiplier against the median tag frequency,
    rounded to the nearest integer and clamped to [1, rho_max]."""
    if not catalog.tag_counts:
        raise ConfigError("catalog has no tags")
    tau = median(catalog.tag_counts.values())
    return {
        tag: max(1, min(_round_half_up(tau / count), catalog.rho_max))
        for tag, count in catalog.tag_counts.items()
    }


def sample_multipliers(catalog: TagCatalog) -> dict[str, int]:
    """Effective multiplier per sample: the max over its tags' multipliers;
    tagless samples get 1."""
    rho = asfo_multipliers(catalog)
    return {sample_id: max((rho[t] for t in tags), default=1)
            for sample_id, tags in catalog.sample_tags.items()}


def mirror_probability(multiplier, alpha: float = 0.3):
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
    p_mir = mirror_probability(r, catalog.mirror_alpha)
    mirrored = rng.uniform(size=int(r.sum())) < np.repeat(p_mir, r)
    return [
        PlanEntry(sample_id=ids[i], mirrored=m, tags=swap_side_tags(tags[i]) if m else tags[i])
        for i, m in zip(np.repeat(np.arange(len(ids)), r).tolist(), mirrored.tolist())
    ]
