"""Two-stage data curriculum: adaptive sampling, freeze-and-drop, levels.

Per-file statistics are exponential moving averages: the tracking error uses
E <- (1 - alpha) E + alpha e_batch with alpha = 0.25, and the success rate
keeps decayed success/failure counters (decay beta = 0.4) whose ratio
S / (S + F + eps) estimates the success probability.

Sampling scores blend normalized error and failure rate,

    r_i = (1 - w) * min(E_i / c, 1) + w * (1 - p_succ_i),

with c = 0.3 and w = 0.15 after a 6000-iteration warmup (w = 0 before).
The distribution over active files is a tempered softmax with a uniform
floor:

    p_i = (1 - eps) * softmax(log(r_i + eps) / T) + eps / N,

with T = 1.05 and eps = 0.20, so every active file keeps at least eps / N
probability.

Freeze-and-drop removes untrackable files: once a file has at least 20000
rollouts and still has E >= 0.1 or success <= 0.15 it freezes for 4000
iterations; the third trigger drops it permanently.  Levels 1..10 unlock one
at a time, each introducing its files gradually from a 20% ratio, and a
level is left once MPJPE improvement stalls below 3% for three consecutive
evaluations (after at least 3000 iterations on the level).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, NonFiniteError, _holds_bool, check_fields, check_numbers,
                     check_object)
from .kernels import softmax_
from .motion_io import parse_json

STATE_ACTIVE, STATE_FROZEN, STATE_DROPPED = 0, 1, 2
STATE_NAMES = ("active", "frozen", "dropped")   # JSONL spelling of each code

MAX_TRAINABLE_LEVEL = 10
MAX_LEVEL = 12


@dataclass(frozen=True)
class SamplerConfig:
    error_ema_alpha: float = 0.25
    success_decay_beta: float = 0.4
    error_norm_c: float = 0.3
    success_weight_w: float = 0.15
    success_warmup_iters: int = 6000
    temperature: float = 1.05
    epsilon: float = 0.20
    success_eps: float = 1.0        # denominator prior in S / (S + F + eps)
    tau_err: float = 0.1
    tau_succ: float = 0.15
    n_min: int = 20000
    freeze_duration: int = 4000
    max_freezes: int = 2
    check_interval: int = 500
    intro_start_ratio: float = 0.2
    intro_base_iters: int = 3000
    intro_extra_iters: int = 2000   # added for levels >= intro_extra_level
    intro_extra_level: int = 4
    promote_rel_improvement: float = 0.03
    promote_consecutive: int = 3
    promote_min_iters: int = 3000
    level_mass_floor: float = 0.02  # minimum replay mass per unlocked level

    def __post_init__(self):
        check_fields(self, positive=(
            "error_ema_alpha", "success_decay_beta", "error_norm_c", "temperature", "epsilon",
            "success_eps", "tau_err", "tau_succ", "freeze_duration", "check_interval",
            "intro_base_iters", "promote_consecutive",
        ), at_most_one=("error_ema_alpha", "success_decay_beta", "success_weight_w", "epsilon",
                        "intro_start_ratio", "level_mass_floor"))
        if self.epsilon >= 1:
            raise ConfigError("epsilon must lie in (0, 1)")


# per-file statistics columns and their dtypes, in JSONL key order
COLUMNS = {
    "ema_error": np.float64,
    "success_count": np.float64,
    "failure_count": np.float64,
    "attempts": np.int64,
    "freeze_state": np.int8,
    "frozen_until": np.int64,
    "freeze_count": np.int64,
}


class CorpusState:
    """Curriculum state of a corpus: one row per file, one array per column.

    The columns are `file_id`, `level` and every name in COLUMNS;
    `freeze_state` holds STATE_* codes.  Columns not given start at zero
    (active, never sampled); a scalar fills the column.  Every column holds
    finite, non-negative numbers by the number rule, exact int64 integers
    in the integer columns; a column that breaks it raises ConfigError.
    """

    def __init__(self, file_ids: Sequence[str], levels: Sequence[int], **columns):
        self.file_id = np.array(file_ids, dtype=object)
        n = self.file_id.size
        if (self.file_id.ndim != 1 or not all(isinstance(f, str) for f in self.file_id)
                or len(set(self.file_id)) != n):
            raise ConfigError("file ids must be a list of unique strings")
        self.level = check_numbers(levels, "levels", (n,), whole=True)
        if ((self.level < 1) | (self.level > MAX_LEVEL)).any():
            raise ConfigError(f"every file needs a whole-number level in 1..{MAX_LEVEL}")
        for name, dtype in COLUMNS.items():
            try:
                value = check_numbers(columns.pop(name, 0), f"column {name}",
                                      whole=dtype is not np.float64)
            except NonFiniteError as exc:   # a corpus statistic is configuration
                raise ConfigError(str(exc)) from None
            if (value < 0).any():
                raise ConfigError(f"column {name} must hold non-negative numbers")
            if name == "freeze_state" and (value >= len(STATE_NAMES)).any():
                raise ConfigError(f"column freeze_state must hold STATE_* codes 0..{len(STATE_NAMES) - 1}")
            setattr(self, name, np.zeros(n, dtype))
            try:
                getattr(self, name)[:] = value
            except ValueError as exc:
                raise ConfigError(f"column {name}: {exc}") from exc
        if columns:
            raise ConfigError(f"unknown curriculum columns {sorted(columns)}")


def success_rate(state: CorpusState, cfg: SamplerConfig, rows=slice(None)) -> np.ndarray:
    """S / (S + F + eps) per row."""
    s = state.success_count[rows]
    return s / (s + state.failure_count[rows] + cfg.success_eps)


def active_mask(state: CorpusState, iteration: int, rows=slice(None)) -> np.ndarray:
    """Rows that may be sampled: trainable level, not dropped, and not
    frozen unless the freeze has run out by `iteration`."""
    code = state.freeze_state[rows]
    return (
        (state.level[rows] <= MAX_TRAINABLE_LEVEL)
        & (code != STATE_DROPPED)
        & ((code != STATE_FROZEN) | (state.frozen_until[rows] <= iteration))
    )


_PAST_INT64 = "batch successes and failures would push attempts past 2**63 - 1"


def update_file_stats(
    state: CorpusState,
    rows,
    batch_error,
    batch_successes,
    batch_failures,
    cfg: SamplerConfig,
) -> None:
    """Fold one batch of rollouts per row into the rows' EMA statistics.

    `rows` must be distinct; the batch arguments hold one value per row.
    Errors, successes and failures must be finite and non-negative, and
    successes and failures whole numbers (integers or whole floats, never
    bools), and no row's int64 `attempts` may pass 2**63 - 1.  A bad batch
    raises ValueError before any row changes.
    """
    batch_error = np.asarray(batch_error, dtype=np.float64)
    given = {"successes": batch_successes, "failures": batch_failures}
    batch_successes = np.asarray(batch_successes)
    batch_failures = np.asarray(batch_failures)
    for name, values, noun in (("error", batch_error, ""),
                               ("successes", batch_successes, " whole numbers"),
                               ("failures", batch_failures, " whole numbers")):
        if not values.size:
            continue
        low = np.minimum.reduce(values, None)
        if values.dtype.kind in "iu":   # integers are finite: only the sign can fail
            bad = low < 0
        else:   # every value lies in [0, inf): a NaN fails both comparisons
            bad = not 0.0 <= float(low) <= float(np.maximum.reduce(values, None)) < math.inf
            if noun and not bad:   # whole numbers, and no bools: True + True is True
                bad = values.dtype.kind == "b" or (values % 1).any()
        if noun and not bad and values.ndim:   # a bool among numbers: (1, True) reads (1, 1)
            bad = _holds_bool(given[name], values.ndim)
        if bad:
            raise ValueError(f"batch {name} must be finite and non-negative{noun}")
    # the counts in int64: whole counts below 2**63 convert exactly (and add to
    # the float columns with the same bits), and a sum past 2**63 - 1 wraps
    # below the count it started from
    counts = []
    for values in (batch_successes, batch_failures):
        if values.dtype != np.int64:
            if values.size and not np.maximum.reduce(values, None) < 2**63:
                raise ValueError(_PAST_INT64)
            values = values.astype(np.int64)
        counts.append(values)
    attempts = state.attempts[rows]
    new_attempts = np.add(attempts, np.add(*counts))
    if np.count_nonzero(new_attempts < attempts):
        raise ValueError(_PAST_INT64)
    a = cfg.error_ema_alpha
    b = cfg.success_decay_beta
    for column, keep, batch in ((state.ema_error, 1.0 - a, a * batch_error),
                                (state.success_count, b, counts[0]),
                                (state.failure_count, b, counts[1])):
        values = column[rows]
        values *= keep
        values += batch
        column[rows] = values
    state.attempts[rows] = new_attempts


def sampling_scores(state: CorpusState, cfg: SamplerConfig, iteration: int, rows=slice(None)) -> np.ndarray:
    """Raw priority score r_i per row (no activity filtering)."""
    w = cfg.success_weight_w if iteration >= cfg.success_warmup_iters else 0.0
    err = np.minimum(state.ema_error[rows] / cfg.error_norm_c, 1.0)
    fail = 1.0 - success_rate(state, cfg, rows)
    return (1.0 - w) * err + w * fail


def sampling_distribution(
    state: CorpusState,
    cfg: SamplerConfig,
    iteration: int,
    rows: np.ndarray,
) -> np.ndarray:
    """Sampling probability of each of `rows`, an index array of rows that
    are active at `iteration` (as a `ReplaySet` hands them over; the mask
    is not recomputed here).

    The rows receive (1 - eps) * softmax(log(r + eps) / T) + eps / N, which
    sums to 1 and floors every one of the N rows at eps / N.
    """
    n = rows.size
    if not n:
        raise ConfigError("no active records to sample from")
    logits = np.log(sampling_scores(state, cfg, iteration, rows) + cfg.epsilon) / cfg.temperature
    soft = softmax_(logits)
    soft *= 1.0 - cfg.epsilon
    soft += cfg.epsilon / n
    return soft


def apply_level_quota(
    probs: np.ndarray,
    sizes: Sequence[int],
    floor: float,
) -> np.ndarray:
    """Raise any unlocked level's total mass to the replay floor.

    Rows come grouped by level, as a `ReplaySet` holds them: `sizes` gives
    each level's row count in row order, and must be non-negative and add
    up to the rows (else ConfigError).  Deficits are added uniformly within
    the starved level and paid proportionally by levels above the floor;
    the result still sums to 1.
    """
    probs = np.array(probs, dtype=np.float64)
    if min(sizes, default=0) < 0 or sum(sizes) != probs.size:
        raise ConfigError(f"apply_level_quota needs level sizes that add up to the "
                          f"{probs.size} rows, got {list(sizes)}")
    ends = list(itertools.accumulate(sizes))
    bounds = list(zip([0, *ends], ends))
    # each level's mass sums its contiguous slice: the same pairwise sum as a
    # masked gather of the level's rows
    masses = [float(np.add.reduce(probs[a:b])) for a, b in bounds]
    present = [m for m in masses if m > 0.0]
    if len(present) < 2 or floor <= 0.0:
        return probs
    total_deficit = sum(max(0.0, floor - m) for m in present)   # left to right, in level order
    if total_deficit <= 0.0:
        return probs
    total_surplus = sum(max(0.0, m - floor) for m in present)
    if total_surplus <= 0.0:
        return probs
    positive = probs > 0.0   # only positive rows gain or pay
    for (a, b), m in zip(bounds, masses):
        level, rows = probs[a:b], positive[a:b]
        if 0.0 < m < floor:
            np.add(level, (floor - m) / np.count_nonzero(rows), out=level, where=rows)
        elif m > floor:
            share = total_deficit * (m - floor) / total_surplus
            np.subtract(level, level / m * share, out=level, where=rows)
    np.maximum(probs, 0.0, out=probs)
    probs /= np.add.reduce(probs)
    return probs


def check_freeze(state: CorpusState, cfg: SamplerConfig, iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply the freeze-and-drop rule to every row.

    Frozen rows whose freeze has run out thaw first.  An active row then
    triggers when (E >= tau_err or success <= tau_succ) and it has at least
    n_min rollouts.  Two triggers freeze temporarily; the third drops the
    file for good.  Returns the triggered rows in file order and their new
    STATE_FROZEN / STATE_DROPPED codes.
    """
    code = state.freeze_state
    code[(code == STATE_FROZEN) & (state.frozen_until <= iteration)] = STATE_ACTIVE
    struggling = (state.ema_error >= cfg.tau_err) | (success_rate(state, cfg) <= cfg.tau_succ)
    hit = np.flatnonzero((code == STATE_ACTIVE) & struggling & (state.attempts >= cfg.n_min))
    drop = state.freeze_count[hit] >= cfg.max_freezes
    code[hit] = np.where(drop, STATE_DROPPED, STATE_FROZEN)
    frozen = hit[~drop]
    state.freeze_count[frozen] += 1
    # a freeze that would outlast int64 lasts for the rest of the run
    state.frozen_until[frozen] = min(iteration + cfg.freeze_duration, 2**63 - 1)
    return hit, code[hit]


def ramp_iters(level: int, cfg: SamplerConfig) -> int:
    """Iterations a newly unlocked level takes to introduce all its files."""
    if level >= cfg.intro_extra_level:
        return cfg.intro_base_iters + cfg.intro_extra_iters
    return cfg.intro_base_iters


def introduction_ratio(iteration: int, unlock_iter: int, level: int, cfg: SamplerConfig) -> float:
    """Fraction of a newly unlocked level's files available at `iteration`."""
    if iteration < unlock_iter:
        raise ValueError("iteration precedes the level's unlock")
    horizon = ramp_iters(level, cfg)
    progress = min(iteration - unlock_iter, horizon) / horizon
    return cfg.intro_start_ratio + progress * (1.0 - cfg.intro_start_ratio)


def promotion_check(eval_errors: Sequence[float], iters_on_level: int, cfg: SamplerConfig) -> bool:
    """True when the level's metric has stalled: the last
    `promote_consecutive` relative improvements are all below the threshold
    and the level has run long enough."""
    if iters_on_level < cfg.promote_min_iters:
        return False
    k = cfg.promote_consecutive
    if len(eval_errors) < k + 1:
        return False
    tail = list(eval_errors)[-(k + 1):]
    for prev, cur in zip(tail[:-1], tail[1:]):
        if prev <= 0.0:
            return False
        if (prev - cur) / prev >= cfg.promote_rel_improvement:
            return False
    return True


def _introduced_count(order: np.ndarray, unlock_iter: int, level: int, iteration: int,
                      cfg: SamplerConfig) -> int:
    """How many rows of `order`, level `level` unlocked at `unlock_iter`,
    are introduced by `iteration`: none before the unlock, then the leading
    ceil(introduction_ratio * size)."""
    if iteration < unlock_iter:
        return 0
    return math.ceil(introduction_ratio(iteration, unlock_iter, level, cfg) * order.size)


_JSONL_KEYS = ("file_id", "level", *COLUMNS)


def save_records(state: CorpusState, path) -> None:
    """Persist the state as JSON lines, one object per file in row order."""
    columns = [getattr(state, key).tolist() for key in _JSONL_KEYS]
    columns[_JSONL_KEYS.index("freeze_state")] = np.array(STATE_NAMES)[state.freeze_state].tolist()
    lines = [json.dumps(dict(zip(_JSONL_KEYS, row)), separators=(",", ":")) for row in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_records(path) -> CorpusState:
    """Read a state written by `save_records`; only file_id and level are required."""
    records = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        if not line.strip():
            continue
        where = f"{path}: record on line {i + 1}"
        row = check_object(parse_json(line, where, ConfigError), where, _JSONL_KEYS,
                           ("file_id", "level"))
        name = row.get("freeze_state", "active")
        if name not in STATE_NAMES:
            raise ConfigError(f"{where}: freeze_state must be one of {STATE_NAMES}, got {name!r}")
        row["freeze_state"] = STATE_NAMES.index(name)
        records.append(row)
    columns = {key: [row.get(key, 0) for row in records] for key in _JSONL_KEYS}
    return CorpusState(columns.pop("file_id"), columns.pop("level"), **columns)


# ---------------------------------------------------------------------------
# Desk-scale curriculum simulation


@dataclass(frozen=True, slots=True)
class SyntheticFile:
    """Spec of one synthetic motion file for the scheduler driver.

    The tracking error decays exponentially in accumulated exposure,
    error(n) = floor + (start - floor) * exp(-improve_rate * n), and each
    rollout succeeds with probability exp(-error / success_scale).
    """

    file_id: str
    level: int
    start_error: float = 0.3
    error_floor: float = 0.02
    improve_rate: float = 5e-4
    success_scale: float = 0.15

    def __post_init__(self):
        check_fields(self, positive=("success_scale",), where=f"corpus file {self.file_id!r}")

    def error_at(self, exposures: int) -> float:
        return self.error_floor + (self.start_error - self.error_floor) * math.exp(
            -self.improve_rate * exposures
        )


ErrorProcess = Callable[[SyntheticFile, int, int, np.random.Generator], tuple[float, int, int]]


def default_error_process(
    spec: SyntheticFile, exposures: int, rollouts: int, rng: np.random.Generator
) -> tuple[float, int, int]:
    """(batch error, successes, failures) for `rollouts` draws of a file."""
    error = spec.error_at(exposures)
    p_succ = math.exp(-error / spec.success_scale)
    successes = rng.binomial(rollouts, p_succ)   # a Python int for scalar arguments
    return error, successes, rollouts - successes


@dataclass(frozen=True)
class SimConfig:
    total_iters: int = 20000
    rollouts_per_iter: int = 64
    eval_interval: int = 500
    trace_interval: int = 500
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("total_iters", "rollouts_per_iter", "eval_interval",
                                     "trace_interval"))
        # bounds every file's int64 `attempts` column over the run
        if self.total_iters * self.rollouts_per_iter >= 2**63:
            raise ConfigError("SimConfig: total_iters * rollouts_per_iter must be below 2**63")


@dataclass
class SimEvent:
    iteration: int
    kind: str       # "freeze" | "drop" | "promote"
    target: str     # file id or "level:<n>"


@dataclass
class TraceRow:
    iteration: int
    current_level: int
    active_files: int
    level_mass: dict[int, float]


@dataclass
class CurriculumTrace:
    rows: list[TraceRow] = field(default_factory=list)
    events: list[SimEvent] = field(default_factory=list)
    final_level: int = 1

    def to_csv(self) -> str:
        lines = ["iteration,current_level,active_files,"
                 + ",".join(f"level_{lv}_mass" for lv in range(1, MAX_TRAINABLE_LEVEL + 1))
                 + ",events"]
        events_by_iter: dict[int, list[str]] = {}
        for ev in self.events:
            events_by_iter.setdefault(ev.iteration, []).append(f"{ev.kind}:{ev.target}")
        for row in self.rows:
            masses = ",".join(
                format(row.level_mass.get(lv, 0.0), ".10g")
                for lv in range(1, MAX_TRAINABLE_LEVEL + 1)
            )
            evs = ";".join(events_by_iter.get(row.iteration, []))
            lines.append(f"{row.iteration},{row.current_level},{row.active_files},{masses},{evs}")
        return "\n".join(lines) + "\n"


class ReplaySet:
    """The rows a simulation samples from: the active introduced rows, level
    by level in introduction order, and each unlocked level's row count
    (`sizes`, for `apply_level_quota`).  `orders[k]` must hold rows of
    level k + 1 only (else ConfigError).

    The one cache is the corpus's activity mask, kept as each level's active
    rows in introduction order: it is recomputed only after `invalidate`
    (call it whenever `check_freeze` has run), when the iteration reaches
    the earliest `frozen_until` of a frozen row, or when it goes back.
    Every call recounts each unlocked level's introduced active rows (all of
    them once its ramp has ended, as the ratio is then exactly 1.0) and
    concatenates the rows anew only when a count changes, so an array once
    returned is never written again.  `unlock_iters` is read on every call,
    so appending to it unlocks a level; more unlocked levels than `orders`
    raise ConfigError.
    """

    def __init__(self, state: CorpusState, orders: Sequence[np.ndarray],
                 unlock_iters: Sequence[int], cfg: SamplerConfig):
        for lv, order in enumerate(orders, start=1):
            if (state.level[order] != lv).any():
                raise ConfigError(f"replay order {lv - 1} must hold rows of level {lv} only")
        self.state, self.orders, self.unlock_iters, self.cfg = state, orders, unlock_iters, cfg
        self.ramps = [ramp_iters(lv, cfg) for lv in range(1, len(orders) + 1)]
        self.invalidate()

    def invalidate(self) -> None:
        self.kept = None

    def at(self, iteration: int) -> np.ndarray:
        """The active introduced rows at `iteration`, grouped by level."""
        state, unlocks = self.state, self.unlock_iters
        if len(unlocks) > len(self.orders):
            raise ConfigError(f"ReplaySet: {len(unlocks)} unlocked levels but "
                              f"{len(self.orders)} replay orders")
        stale = self.kept is None or not self.since <= iteration < self.thaw_at
        if stale:
            active = active_mask(state, iteration)
            frozen = state.frozen_until[(state.freeze_state == STATE_FROZEN)
                                        & (state.frozen_until > iteration)]
            self.thaw_at = frozen.min().item() if frozen.size else math.inf
            self.since = iteration
            live = [active[order] for order in self.orders]
            self.kept = [order[mask] for order, mask in zip(self.orders, live)]
            # active_before[k][n]: active rows among the first n of orders[k]
            self.active_before = [[0, *np.cumsum(mask).tolist()] for mask in live]
        sizes = [before[-1] if iteration >= unlock + ramp else
                 before[_introduced_count(order, unlock, lv, iteration, self.cfg)]
                 for lv, (order, before, unlock, ramp) in enumerate(
                     zip(self.orders, self.active_before, unlocks, self.ramps), start=1)]
        if stale or sizes != self.sizes:   # a level not unlocked adds none of its rows
            self.sizes = sizes
            self.rows = np.concatenate([kept[:n] for kept, n in
                                        itertools.zip_longest(self.kept, sizes, fillvalue=0)])
        return self.rows

    def distribution(self, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """`at(iteration)` and the rows' level-floored sampling probabilities."""
        rows = self.at(iteration)
        if not rows.size:
            return rows, np.zeros(0)
        probs = sampling_distribution(self.state, self.cfg, iteration, rows)
        return rows, apply_level_quota(probs, self.sizes, self.cfg.level_mass_floor)


def run_curriculum_sim(
    files: Sequence[SyntheticFile],
    cfg: SamplerConfig = SamplerConfig(),
    sim: SimConfig = SimConfig(),
    error_process: ErrorProcess = default_error_process,
) -> CurriculumTrace:
    """Drive the scheduler end to end on synthetic files, deterministically.

    Every `trace_interval` iterations one row records the sampled mass per
    level; freeze, drop, and promotion events are logged as they happen.
    `error_process` is called once per sampled file, in sampling order,
    and must account for every rollout: successes + failures == rollouts.
    """
    rng = np.random.default_rng(sim.seed)
    state = CorpusState([f.file_id for f in files], [f.level for f in files])
    # seed-shuffled introduction order of each trainable level's rows
    intro_rng = np.random.default_rng(sim.seed)
    orders = [intro_rng.permutation(np.flatnonzero(state.level == lv))
              for lv in range(1, MAX_TRAINABLE_LEVEL + 1)]
    unlock_iters = [0]                 # unlock iteration of each opened level
    eval_history: list[float] = []     # eval means of the current level
    trace = CurriculumTrace()
    replay = ReplaySet(state, orders, unlock_iters, cfg)

    for it in range(sim.total_iters):
        rows, probs = replay.distribution(it)
        if rows.size:
            counts = rng.multinomial(sim.rollouts_per_iter, probs)
            picked = counts.nonzero()[0]
            sampled, rollouts = rows[picked], counts[picked].tolist()
            outcomes = [
                error_process(files[row], attempts, count, rng)
                for row, attempts, count in zip(
                    sampled.tolist(), state.attempts[sampled].tolist(), rollouts
                )
            ]
            # the draws sum to rollouts_per_iter >= 1, so some file was sampled
            errors, successes, failures = zip(*outcomes)
            if list(map(operator.add, successes, failures)) != rollouts:
                raise ConfigError("error process successes + failures must equal its rollouts")
            update_file_stats(state, sampled, errors, successes, failures, cfg)

        if (it + 1) % cfg.check_interval == 0:
            hit, codes = check_freeze(state, cfg, it + 1)
            replay.invalidate()
            trace.events.extend(
                SimEvent(it + 1, "drop" if code == STATE_DROPPED else "freeze", file_id)
                for file_id, code in zip(state.file_id[hit], codes.tolist())
            )

        if (it + 1) % sim.eval_interval == 0:
            lv = len(unlock_iters)
            errors = state.ema_error[state.level == lv]
            if errors.size:
                eval_history.append(float(errors.mean()))
            if lv < MAX_TRAINABLE_LEVEL and promotion_check(
                eval_history, (it + 1) - unlock_iters[-1], cfg
            ):
                unlock_iters.append(it + 1)
                eval_history = []
                trace.events.append(SimEvent(it + 1, "promote", f"level:{lv + 1}"))

        if (it + 1) % sim.trace_interval == 0:
            rows, probs = replay.distribution(it)
            # orders[k] holds level k + 1 only, so the rows' levels follow from the sizes
            levels = np.repeat(np.arange(1, len(replay.sizes) + 1), replay.sizes)
            mass = np.bincount(levels, weights=probs)
            trace.rows.append(TraceRow(
                it + 1, len(unlock_iters), rows.size,
                {lv: float(mass[lv]) for lv in np.unique(levels).tolist()},
            ))

    trace.final_level = len(unlock_iters)
    return trace
