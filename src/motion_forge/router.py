"""MoE actor routing: gate, low-frequency soft top-k, losses, expert growth.

The gate linearly maps a 128-dim look-ahead latent to one logit per expert.
Routing is low frequency: every `refresh_period` steps the candidate set is
re-selected as the top-k logits (ties break toward the lower index); between
refreshes only the mixture weights move.  The action is the convex
combination of the k candidate experts' outputs under a temperature softmax,
so each step costs exactly k expert forwards.

Stage I trains level to level: routing is restricted to the unlocked
experts, samples from the hardest unlocked level bypass the gate with
probability 0.8 and hard-route to that level's expert, and each promotion
clones the preceding expert's parameters.  Stage II drops those constraints
and relies on a load-balancing objective; persistently hard files (high
routing entropy, small top-1/top-2 gap) can trigger dynamic expert addition
with a cold-start cap on the new expert's routing mass.

Losses here are evaluated values for tests and external trainers; no
gradients are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteError

LATENT_DIM = 128
RHO_HARD = 0.8

# Parameters of one MLP: list of (weight (out, in), bias (out,)) pairs,
# ELU on every hidden layer, linear head.
MLPParams = list[tuple[np.ndarray, np.ndarray]]


def _finite(value, what: str) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise NonFiniteError(f"{what} holds NaN or infinite values")
    return array


def elu(x: np.ndarray) -> np.ndarray:
    """expm1(min(x, 0)) + max(x, 0) in three calls and one temporary; equal
    bit for bit, signed zeros included, to `where(x > 0, x, expm1(min(x, 0)))`."""
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def mlp_forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """Evaluate an ELU MLP; broadcasts over leading axes of x.  The bias is
    added in place to each layer's fresh product."""
    if not params:
        raise ConfigError("an MLP needs at least one layer")
    x = np.asarray(x, dtype=np.float64)
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        if x.shape[-1] != w.shape[1]:
            raise DimensionMismatchError(
                f"layer {i}: input dim {x.shape[-1]} != weight columns {w.shape[1]}"
            )
        x = x @ w.T
        x += b
        if i < last:
            x = elu(x)
    return x


def init_mlp(
    rng: np.random.Generator,
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    scale: float = 0.2,
) -> MLPParams:
    params: MLPParams = []
    dims = [input_dim, *hidden, output_dim]
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, scale / np.sqrt(d_in), (d_out, d_in))
        b = np.zeros(d_out)
        params.append((w, b))
    return params


def clone_mlp(params: MLPParams) -> MLPParams:
    return [(w.copy(), b.copy()) for w, b in params]


@dataclass
class ExpertPool:
    """Ordered expert parameter sets plus per-expert training metadata.  The
    constructor checks every pool invariant; growth keeps them."""

    experts: list[MLPParams]
    input_dim: int
    output_dim: int
    hidden: tuple[int, ...]
    capacity: int = 16
    unlocked_count: int = 1
    lr_multipliers: list[float] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.experts)
        if not n:
            raise ConfigError("expert pool needs at least one expert")
        if n > self.capacity:
            raise ConfigError("more experts than capacity")
        if not 1 <= self.unlocked_count <= n:
            raise ConfigError(f"unlocked_count {self.unlocked_count} is not in 1..{n}")
        if not self.lr_multipliers:
            self.lr_multipliers = [1.0] * n
        elif len(self.lr_multipliers) != n:
            raise ConfigError(f"{len(self.lr_multipliers)} lr_multipliers for {n} experts")
        dims = [self.input_dim, *self.hidden, self.output_dim]
        chain = [((d_out, d_in), (d_out,)) for d_in, d_out in zip(dims[:-1], dims[1:])]
        for k, expert in enumerate(self.experts):
            if [(w.shape, b.shape) for w, b in expert] != chain:
                raise ConfigError(f"expert {k}: layer shapes do not chain "
                                  f"input_dim -> hidden -> output_dim {dims}")

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    def forward(self, index: int, obs: np.ndarray) -> np.ndarray:
        return mlp_forward(self.experts[index], obs)


@dataclass(frozen=True)
class RouterConfig:
    top_k: int = 2
    refresh_period: int = 10
    temperature: float = 1.0
    ema_coeff: float = 0.9            # weight on the newest logits; 1.0 = raw
    ce_weight: float = 0.05
    rho_hard: float = RHO_HARD
    cold_start_cap: float = 0.1
    cold_start_steps: int = 2000
    new_expert_lr_multiplier: float = 2.0
    old_expert_lr_multiplier: float = 0.5

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if not 0.0 <= self.ema_coeff <= 1.0:
            raise ConfigError("ema_coeff must lie in [0, 1]")
        if not 0.0 < self.cold_start_cap <= 1.0:
            raise ConfigError("cold_start_cap must lie in (0, 1]")


@dataclass
class RouterState:
    """Gate parameters and the mutable routing state between refreshes."""

    gate_w: np.ndarray                  # (capacity, latent_dim)
    gate_b: np.ndarray                  # (capacity,)
    config: RouterConfig = field(default_factory=RouterConfig)
    candidates: list[int] = field(default_factory=list)
    steps_since_refresh: int = 0
    logits_ema: np.ndarray | None = None
    cold_expert: int | None = None
    cold_steps_remaining: int = 0

    def __post_init__(self):
        self.gate_w = np.asarray(self.gate_w, dtype=np.float64)
        self.gate_b = np.asarray(self.gate_b, dtype=np.float64)
        if self.gate_w.ndim != 2 or self.gate_b.shape != (self.gate_w.shape[0],):
            raise ConfigError("gate_w must be (experts, latent) with matching gate_b")


def make_router(
    rng: np.random.Generator,
    capacity: int,
    latent_dim: int = LATENT_DIM,
    config: RouterConfig | None = None,
    zero_gate: bool = False,
) -> RouterState:
    if zero_gate:
        w = np.zeros((capacity, latent_dim))
    else:
        w = rng.normal(0.0, 0.1, (capacity, latent_dim))
    return RouterState(gate_w=w, gate_b=np.zeros(capacity), config=config or RouterConfig())


def make_random_pool(
    rng: np.random.Generator,
    num_experts: int,
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    capacity: int = 16,
    unlocked_count: int | None = None,
) -> ExpertPool:
    experts = [init_mlp(rng, input_dim, hidden, output_dim) for _ in range(num_experts)]
    return ExpertPool(
        experts=experts,
        input_dim=input_dim,
        output_dim=output_dim,
        hidden=tuple(hidden),
        capacity=capacity,
        unlocked_count=num_experts if unlocked_count is None else unlocked_count,
    )


def gate_logits(z: np.ndarray, state: RouterState, pool: ExpertPool) -> np.ndarray:
    """Routing logits for the unlocked experts; locked experts get -inf.

    With `ema_coeff` below 1 the raw logits are blended with the stored
    smoothed logits (coefficient on the new value), without mutating state;
    `refresh_candidates` commits the blend.  A latent that is not one
    finite vector as wide as the gate raises DimensionMismatchError or
    NonFiniteError, and a pool with more experts than the gate has rows
    ConfigError.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != state.gate_w.shape[1:]:
        raise DimensionMismatchError(
            f"latent has shape {z.shape}, the gate takes ({state.gate_w.shape[1]},)")
    if not np.isfinite(z).all():
        raise NonFiniteError("latent must be finite")
    n = pool.num_experts
    if n > state.gate_w.shape[0]:
        raise ConfigError(f"{n} experts, but the gate has {state.gate_w.shape[0]} rows")
    logits = state.gate_w[:n] @ z
    logits += state.gate_b[:n]
    cfg = state.config
    if state.logits_ema is not None and cfg.ema_coeff < 1.0:
        prev = state.logits_ema
        if prev.shape[0] < n:               # pool grew since the last step
            prev = np.concatenate([prev, logits[prev.shape[0]:]])
        finite = np.isfinite(prev)
        if not finite.all():
            # freshly unlocked experts have -inf history: seed them with raw
            prev = np.where(finite, prev, logits)
        history = (1.0 - cfg.ema_coeff) * prev
        logits *= cfg.ema_coeff
        logits += history
    if pool.unlocked_count < n:
        logits[pool.unlocked_count:] = -np.inf
    return logits


def top_k_indices(logits: np.ndarray, k: int) -> list[int]:
    """Indices of the k largest finite logits; ties break to the lower index."""
    values = np.asarray(logits, dtype=np.float64).tolist()
    finite = [i for i, v in enumerate(values) if math.isfinite(v)]
    ordered = sorted(finite, key=lambda i: (-values[i], i))
    return sorted(ordered[: min(k, len(ordered))])


def refresh_candidates(state: RouterState, logits: np.ndarray) -> RouterState:
    """Per-step routing update: commit smoothed logits, advance counters, and
    re-select the candidate set when the refresh period has elapsed."""
    state.logits_ema = np.array(logits, dtype=np.float64)
    if state.cold_expert is not None:
        if state.cold_steps_remaining <= 0:
            state.cold_expert = None
        else:
            state.cold_steps_remaining -= 1
    if not state.candidates or state.steps_since_refresh >= state.config.refresh_period:
        state.candidates = top_k_indices(logits, state.config.top_k)
        state.steps_since_refresh = 1
    else:
        state.steps_since_refresh += 1
    return state


def _softmax_in_place(logits: np.ndarray) -> np.ndarray:
    logits -= logits.max()
    np.exp(logits, out=logits)
    logits /= logits.sum()
    return logits


def candidate_weights(state: RouterState, pool: ExpertPool) -> np.ndarray:
    """Mixture weights over the full expert list, supported on the candidates.

    Softmax at the configured temperature over the candidate logits; while a
    newly added expert is cold its weight is clamped to the cold-start cap
    and the other candidates share 1 - cap under a softmax over their own
    logits.  That is the rescaling (1 - cap) / (1 - w_cold) of their weights,
    without dividing by a remainder that rounds to 0 when the cold expert's
    softmax saturates.
    """
    if state.logits_ema is None or not state.candidates:
        raise ConfigError("router has not been stepped yet")
    cand = [c for c in state.candidates if c < pool.unlocked_count]
    if not cand:
        raise ConfigError("no unlocked candidates")
    temperature = state.config.temperature
    logits = state.logits_ema[cand]      # a gathered copy: the softmax runs in it
    logits /= temperature
    weights = np.zeros(pool.num_experts)
    weights[cand] = _softmax_in_place(logits)
    cold = state.cold_expert
    if cold is not None and cold in cand and len(cand) > 1:
        cap = state.config.cold_start_cap
        if weights[cold] > cap:
            logits = state.logits_ema[cand]
            logits /= temperature
            logits[cand.index(cold)] = -np.inf   # exp gives 0: only the others share
            weights[cand] = (1.0 - cap) * _softmax_in_place(logits)
            weights[cold] = cap
    return weights


def mixture_action(
    obs: np.ndarray, state: RouterState, pool: ExpertPool
) -> tuple[np.ndarray, np.ndarray]:
    """Convex mixture of the candidate experts' outputs: k forwards exactly."""
    weights = candidate_weights(state, pool)
    action = None
    for j in np.flatnonzero(weights).tolist():
        out = pool.forward(j, obs)
        out *= weights[j]
        if action is None:
            action = out
        else:
            action += out
    return action, weights


def hard_bias_route(
    obs: np.ndarray,
    file_level: int,
    l_max: int,
    rng: np.random.Generator,
    state: RouterState,
    pool: ExpertPool,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Stage-I routing: hardest-level samples bypass the gate with
    probability rho_hard and use that level's expert directly.

    Returns (action, weights, hard_routed); the weight vector is one-hot on
    the bypass path.  `l_max` must name an unlocked level, 1..unlocked_count,
    else ConfigError.
    """
    if not 1 <= l_max <= pool.unlocked_count:
        raise ConfigError(f"l_max {l_max} is not an unlocked level "
                          f"(1..{pool.unlocked_count})")
    if file_level == l_max and rng.uniform() < state.config.rho_hard:
        expert = l_max - 1      # level l is served by expert index l - 1
        weights = np.zeros(pool.num_experts)
        weights[expert] = 1.0
        return pool.forward(expert, obs), weights, True
    action, weights = mixture_action(obs, state, pool)
    return action, weights, False


def route_ce_loss(logits: np.ndarray, file_level: int, ce_weight: float = 0.05) -> float:
    """Weighted cross entropy aligning routing with the file's level.

    Locked experts carry -inf logits and drop out of the partition sum; a
    NaN or +inf logit raises NonFiniteError.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(logits < np.inf):     # false for NaN and +inf only
        raise NonFiniteError("routing logits hold NaN or +inf")
    label = file_level - 1
    if not 0 <= label < len(logits) or not np.isfinite(logits[label]):
        raise ConfigError(f"file level {file_level} exceeds the unlocked experts")
    finite = logits[np.isfinite(logits)]
    m = finite.max()
    log_z = m + np.log(np.sum(np.exp(finite - m)))
    return float(ce_weight * (log_z - logits[label]))


def load_balance_loss(weight_history: np.ndarray) -> float:
    """K * sum_j f_j * pbar_j over a routing history (S, K).

    f_j is the empirical top-1 fraction and pbar_j the mean routing mass of
    expert j; uniform routing scores 1, total collapse scores K.
    """
    weights = _finite(weight_history, "weight history")
    if weights.ndim != 2 or weights.shape[0] == 0:
        raise ConfigError("weight history must be a non-empty (S, K) array")
    k = weights.shape[1]
    top1 = np.argmax(weights, axis=1)
    f = np.bincount(top1, minlength=k) / weights.shape[0]
    p_bar = weights.mean(axis=0)
    return float(k * np.sum(f * p_bar))


def routing_entropy(weights: np.ndarray) -> float:
    w = _finite(weights, "routing weights")
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def top_gap(weights: np.ndarray) -> float:
    w = np.sort(_finite(weights, "routing weights"))[::-1]
    if len(w) == 0:
        raise ConfigError("top_gap needs at least one weight")
    if len(w) < 2:
        return float(w[0])
    return float(w[0] - w[1])


@dataclass(frozen=True)
class AddExpertConfig:
    hard_file_fraction: float = 0.10
    entropy_ratio: float = 0.9      # hard if H > ratio * log(unlocked)
    gap_threshold: float = 0.05     # and top-1/top-2 gap below this
    required_windows: int = 1
    ema_coeff: float = 0.1          # weight on the newest sample


@dataclass
class RoutingDiagnostics:
    """Per-file EMAs of routing entropy and top-gap, plus window bookkeeping."""

    config: AddExpertConfig = field(default_factory=AddExpertConfig)
    entropy_ema: dict[str, float] = field(default_factory=dict)
    gap_ema: dict[str, float] = field(default_factory=dict)
    consecutive_hard_windows: int = 0

    def update(self, file_id: str, weights: np.ndarray) -> None:
        h = routing_entropy(weights)
        g = top_gap(weights)
        a = self.config.ema_coeff
        if file_id in self.entropy_ema:
            self.entropy_ema[file_id] = (1 - a) * self.entropy_ema[file_id] + a * h
            self.gap_ema[file_id] = (1 - a) * self.gap_ema[file_id] + a * g
        else:
            self.entropy_ema[file_id] = h
            self.gap_ema[file_id] = g

    def hard_fraction(self, num_unlocked: int) -> float:
        if not self.entropy_ema or num_unlocked < 2:
            return 0.0
        h_limit = self.config.entropy_ratio * np.log(num_unlocked)
        hard = [
            fid
            for fid in self.entropy_ema
            if self.entropy_ema[fid] > h_limit and self.gap_ema[fid] < self.config.gap_threshold
        ]
        return len(hard) / len(self.entropy_ema)

    def close_window(self, num_unlocked: int) -> float:
        """End one observation window; returns the hard-file fraction."""
        fraction = self.hard_fraction(num_unlocked)
        if fraction >= self.config.hard_file_fraction:
            self.consecutive_hard_windows += 1
        else:
            self.consecutive_hard_windows = 0
        return fraction


def should_add_expert(diag: RoutingDiagnostics) -> bool:
    """True when enough files stayed persistently hard for the full window."""
    return diag.consecutive_hard_windows >= diag.config.required_windows


def unlock_next_expert(pool: ExpertPool) -> int:
    """The growth rule of both stages: clone the newest unlocked expert into
    the first locked slot, or append it (multiplier 1.0) when none is locked;
    unlock that slot and return its index, the old `unlocked_count`.  With
    all `capacity` slots unlocked it raises ConfigError and changes nothing."""
    new = pool.unlocked_count
    if new >= pool.capacity:
        raise ConfigError(f"expert pool is at capacity ({pool.capacity} unlocked)")
    if new == pool.num_experts:
        pool.lr_multipliers.append(1.0)
    pool.experts[new:new + 1] = [clone_mlp(pool.experts[new - 1])]
    pool.unlocked_count = new + 1
    return new


def add_expert(pool: ExpertPool, state: RouterState) -> int:
    """Stage-II dynamic addition: `unlock_next_expert`, then cap the new
    expert's routing mass for the cold-start budget and bias learning rates."""
    new = unlock_next_expert(pool)
    cfg = state.config
    pool.lr_multipliers = [cfg.old_expert_lr_multiplier * m for m in pool.lr_multipliers]
    pool.lr_multipliers[new] = cfg.new_expert_lr_multiplier
    state.cold_expert = new
    state.cold_steps_remaining = cfg.cold_start_steps
    return new


# ---------------------------------------------------------------------------
# Serialization (expert pools and router state as JSON-ready dicts)


def mlp_to_dict(params: MLPParams) -> dict:
    return {
        "layers": [
            {"shape": list(w.shape), "w": w.ravel().tolist(), "b": b.tolist()}
            for w, b in params
        ]
    }


def mlp_from_dict(data: dict, where: str = "mlp") -> MLPParams:
    """Inverse of `mlp_to_dict`; a `w` that does not fill its `shape` raises
    ConfigError and a NaN or infinite value NonFiniteError."""
    params: MLPParams = []
    for i, layer in enumerate(data["layers"]):
        at = f"{where} layer {i}"
        w, b = _finite(layer["w"], f"{at} 'w'"), _finite(layer["b"], f"{at} 'b'")
        if w.size != np.prod(layer["shape"]):
            raise ConfigError(f"{at}: 'w' has {w.size} values for shape {layer['shape']}")
        params.append((w.reshape(layer["shape"]), b))
    return params


def pool_to_dict(pool: ExpertPool) -> dict:
    return {
        "input_dim": pool.input_dim,
        "output_dim": pool.output_dim,
        "hidden": list(pool.hidden),
        "capacity": pool.capacity,
        "unlocked_count": pool.unlocked_count,
        "lr_multipliers": pool.lr_multipliers,
        "experts": [mlp_to_dict(e) for e in pool.experts],
    }


def pool_from_dict(data: dict) -> ExpertPool:
    """Inverse of `pool_to_dict`.  A missing key, a non-number, or a pool
    that breaks an `ExpertPool` invariant raise ConfigError; a NaN or
    infinite value raises NonFiniteError."""
    try:
        dims = [int(data["input_dim"]), *map(int, data["hidden"]), int(data["output_dim"])]
        experts = [mlp_from_dict(e, f"expert {k}") for k, e in enumerate(data["experts"])]
        capacity, unlocked = int(data["capacity"]), int(data["unlocked_count"])
        lr = [float(x) for x in _finite(data["lr_multipliers"], "lr_multipliers")]
    except KeyError as exc:
        raise ConfigError(f"expert pool: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expert pool: {exc}") from exc
    return ExpertPool(experts=experts, input_dim=dims[0], output_dim=dims[-1],
                      hidden=tuple(dims[1:-1]), capacity=capacity, unlocked_count=unlocked,
                      lr_multipliers=lr)
