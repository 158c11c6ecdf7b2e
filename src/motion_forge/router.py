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
and relies on a load-balancing objective; `add_expert` grows the pool with a
cold-start cap on the new expert's routing mass.  When to grow is the
caller's choice; the paper grows on persistently hard files (high routing
entropy, small top-1/top-2 gap).

Losses here are evaluated values for tests and external trainers; no
gradients are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    check_fields,
    check_finite,
    check_numbers,
    check_object,
)
from .kernels import MLPParams, clone_mlp, init_mlp, log_sum_exp, mlp_forward, softmax_

LATENT_DIM = 128
RHO_HARD = 0.8


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
        check_fields(self, positive=("input_dim", "output_dim"))
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
    rho_hard: float = RHO_HARD
    cold_start_cap: float = 0.1
    cold_start_steps: int = 2000
    new_expert_lr_multiplier: float = 2.0
    old_expert_lr_multiplier: float = 0.5

    def __post_init__(self):
        check_fields(self, positive=("top_k", "refresh_period", "temperature", "cold_start_cap"),
                     at_most_one=("ema_coeff", "rho_hard", "cold_start_cap"))


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
    config: RouterConfig = RouterConfig(),
    zero_gate: bool = False,
) -> RouterState:
    shape = (capacity, latent_dim)
    try:
        w = np.zeros(shape) if zero_gate else rng.normal(0.0, 0.1, shape)
    except (ValueError, MemoryError) as exc:   # numpy refuses the shape before it draws
        raise ConfigError(f"capacity {capacity}: a {shape} gate cannot be allocated") from exc
    return RouterState(gate_w=w, gate_b=np.zeros(capacity), config=config)


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
    z = check_finite(z, "latent")
    if z.shape != state.gate_w.shape[1:]:
        raise DimensionMismatchError(
            f"latent has shape {z.shape}, the gate takes ({state.gate_w.shape[1]},)")
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
    weights[cand] = softmax_(logits)
    cold = state.cold_expert
    if cold is not None and cold in cand and len(cand) > 1:
        cap = state.config.cold_start_cap
        if weights[cold] > cap:
            logits = state.logits_ema[cand]
            logits /= temperature
            logits[cand.index(cold)] = -np.inf   # exp gives 0: only the others share
            weights[cand] = (1.0 - cap) * softmax_(logits)
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
    log_z = log_sum_exp(logits[np.isfinite(logits)])
    return float(ce_weight * (log_z - logits[label]))


def load_balance_loss(weight_history: np.ndarray) -> float:
    """K * sum_j f_j * pbar_j over a routing history (S, K).

    f_j is the empirical top-1 fraction and pbar_j the mean routing mass of
    expert j; uniform routing scores 1, total collapse scores K.
    """
    weights = check_finite(weight_history, "weight history")
    if weights.ndim != 2 or weights.shape[0] == 0:
        raise ConfigError("weight history must be a non-empty (S, K) array")
    k = weights.shape[1]
    top1 = np.argmax(weights, axis=1)
    f = np.bincount(top1, minlength=k) / weights.shape[0]
    p_bar = weights.mean(axis=0)
    return float(k * np.sum(f * p_bar))


def routing_entropy(weights: np.ndarray) -> float:
    w = check_finite(weights, "routing weights")
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def top_gap(weights: np.ndarray) -> float:
    w = np.sort(check_finite(weights, "routing weights"))[::-1]
    if len(w) == 0:
        raise ConfigError("top_gap needs at least one weight")
    if len(w) < 2:
        return float(w[0])
    return float(w[0] - w[1])


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


_LAYER_KEYS = ("shape", "w", "b")
_POOL_KEYS = ("input_dim", "output_dim", "hidden", "capacity", "unlocked_count", "lr_multipliers",
              "experts")


def mlp_to_dict(params: MLPParams) -> dict:
    return {
        "layers": [
            {"shape": list(w.shape), "w": w.ravel().tolist(), "b": b.tolist()}
            for w, b in params
        ]
    }


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return value


def mlp_from_dict(data: dict, where: str = "mlp") -> MLPParams:
    """Inverse of `mlp_to_dict`.  A missing or unknown key, a value outside
    the number rule (`shape` is two integers >= 1, `w` and `b` lists of
    reals), or a `w` that does not fill its `shape` raises ConfigError; a
    NaN or infinite weight raises NonFiniteError."""
    params: MLPParams = []
    for i, layer in enumerate(_list(check_object(data, where, ("layers",), ("layers",))["layers"],
                                    f"{where}: 'layers'")):
        at = f"{where} layer {i}"
        check_object(layer, at, _LAYER_KEYS, _LAYER_KEYS)
        shape = check_numbers(layer["shape"], f"{at} 'shape'", (2,), whole=True)
        w = check_numbers(layer["w"], f"{at} 'w'", (None,))
        b = check_numbers(layer["b"], f"{at} 'b'", (None,))
        if (shape < 1).any():
            raise ConfigError(f"{at}: 'shape' entries must be >= 1, got {layer['shape']}")
        if w.size != math.prod(shape.tolist()):
            raise ConfigError(f"{at}: 'w' has {w.size} values for shape {layer['shape']}")
        params.append((w.reshape(shape), b))
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
    """Inverse of `pool_to_dict`.  A missing or unknown key, a value outside
    the number rule (the dims, `capacity` and `unlocked_count` are integers,
    `lr_multipliers` reals), or a pool that breaks an `ExpertPool` invariant
    raise ConfigError; a NaN or infinite weight or multiplier raises
    NonFiniteError."""
    check_object(data, "expert pool", _POOL_KEYS, _POOL_KEYS)
    ints = {key: int(check_numbers(data[key], f"expert pool: '{key}'", (), whole=True))
            for key in ("input_dim", "output_dim", "capacity", "unlocked_count")}
    hidden = check_numbers(data["hidden"], "expert pool: 'hidden'", (None,), whole=True)
    lr = check_numbers(data["lr_multipliers"], "expert pool: 'lr_multipliers'", (None,))
    experts = _list(data["experts"], "expert pool: 'experts'")
    return ExpertPool(experts=[mlp_from_dict(e, f"expert {k}") for k, e in enumerate(experts)],
                      hidden=tuple(hidden.tolist()), lr_multipliers=lr.tolist(), **ints)
