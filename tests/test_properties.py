"""Property tests: decoded 6D frames are rotations, re-orthonormalizing is
idempotent, a motion clip's save/load cycle is bit-exact, mirroring a clip
or feature frames twice is bit-exact, normalization leaves unmasked dims
bit-identical, whole-clip task rewards equal the per-frame ones bit for
bit, TP-MoE gate rows and router mixture weights lie on the simplex, the
level quota and the router step match their reference formulas bit for
bit, expert-pool growth clones the newest unlocked expert into the next
slot, and the prefix loop carries its initial rows bit-exactly."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from helpers import make_random_sequence, neutral_features  # noqa: E402
from motion_forge.curriculum import apply_level_quota  # noqa: E402
from motion_forge.errors import ConfigError  # noqa: E402
from motion_forge.features import (  # noqa: E402
    FEATURE_DIM,
    ROOT_ANG_VEL,
    ROOT_HEIGHT,
    ROT6D,
    NormStats,
    denormalize_features,
    mirror_features,
    normalize_features,
    normalized_dim_mask,
    project_valid_rot6d,
)
from motion_forge.generation import init_tpmoe, tpmoe_gate  # noqa: E402
from motion_forge.motion import (  # noqa: E402
    FIELDS,
    NUM_BODIES,
    MotionSequence,
    default_skeleton,
    mirror_sequence,
)
from motion_forge.motion_io import load_motion, save_motion  # noqa: E402
from motion_forge.prefix_loop import (  # noqa: E402
    PrefixLoopConfig,
    make_interpolation_generator,
    run_prefix_loop,
)
from motion_forge.rewards import TASK_TERMS, RewardConfig, task_rewards  # noqa: E402
from motion_forge.router import (  # noqa: E402
    LATENT_DIM,
    RouterConfig,
    add_expert,
    candidate_weights,
    elu,
    gate_logits,
    hard_bias_route,
    make_random_pool,
    make_router,
    mixture_action,
    mlp_forward,
    refresh_candidates,
    top_k_indices,
    unlock_next_expert,
)
from motion_forge.rotations import sixd_to_rot  # noqa: E402

# Columns near parallel lose orthogonality to rounding (the error grows like
# 1 / sin of their angle), which is no defect, so the strategies keep the
# angle's sine at 1e-3 or more and both columns well away from zero.
MIN_SINE = 1e-3
MIN_NORM = 1e-3


def well_conditioned(vec: np.ndarray) -> bool:
    a, b = vec[..., :3], vec[..., 3:]
    norm_a, norm_b = np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)
    if np.any(norm_a < MIN_NORM) or np.any(norm_b < MIN_NORM):
        return False
    sine = np.linalg.norm(np.cross(a, b), axis=-1) / (norm_a * norm_b)
    return bool(np.all(sine >= MIN_SINE))


# One well-conditioned 6D vector per draw; most random rows pass the filter.
SIXD = arrays(np.float64, 6, elements=st.floats(-10.0, 10.0, allow_subnormal=False)).filter(
    well_conditioned)


def sixd_blocks(*shape: int):
    return st.lists(SIXD, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda rows: np.array(rows).reshape(shape + (6,)))


@given(st.integers(1, 8).flatmap(sixd_blocks))
def test_sixd_to_rot_is_a_rotation(vec):
    rot = sixd_to_rot(vec)
    gram = np.einsum("...ji,...jk->...ik", rot, rot)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-9
    assert np.max(np.abs(np.linalg.det(rot) - 1.0)) <= 1e-9


@given(sixd_blocks(1, 29))
def test_project_valid_rot6d_is_idempotent(blocks):
    frames = neutral_features(1)
    frames[:, ROT6D] = blocks.reshape(1, -1)
    once = project_valid_rot6d(frames)
    twice = project_valid_rot6d(once)
    assert np.max(np.abs(twice - once)) <= 1e-12
    outside = np.ones(frames.shape[1], dtype=bool)
    outside[ROT6D] = False
    assert np.array_equal(once[:, outside], frames[:, outside])


# Every finite double, with the values a decimal round trip gets wrong most
# easily drawn often: signed zeros, subnormals, the extremes of the range.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# root quaternions must be unit norm; the signs still carry negative zeros
UNIT_QUATS = [[1.0, 0.0, -0.0, 0.0], [-1.0, -0.0, -0.0, -0.0], [0.0, 0.6, -0.0, 0.8]]
CLIP_SHAPES = {name: field.shape for name, field in FIELDS.items() if name != "root_quat"}


@st.composite
def clips(draw):
    """A clip whose fields tile one drawn pool of doubles, each field from a
    different offset, so every field meets every kind of value."""
    t = draw(st.integers(2, 3))
    pool = np.array(draw(st.lists(FINITE, min_size=1, max_size=96)))
    fields = {name: np.resize(np.roll(pool, -k), (t,) + shape)
              for k, (name, shape) in enumerate(CLIP_SHAPES.items())}
    quats = draw(st.lists(st.sampled_from(UNIT_QUATS), min_size=t, max_size=t))
    fps = draw(st.one_of(st.sampled_from([30.0, 5e-324, 1e308]),
                         st.floats(0.0, 1e308, exclude_min=True)))
    return MotionSequence(fps=fps, root_quat=np.array(quats), **fields)


@pytest.fixture(scope="module")
def clip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("clip") / "clip.json"


@given(clips())
def test_motion_file_round_trip_is_bit_exact(clip_path, seq):
    skel = default_skeleton()
    save_motion(seq, clip_path, skel)
    back = load_motion(clip_path, skel)
    assert back.fps == seq.fps
    for name in FIELDS:
        # bytes, not values: -0.0 == 0.0 would hide a lost sign
        assert getattr(back, name).tobytes() == getattr(seq, name).tobytes(), name


@given(clips())
def test_mirroring_a_clip_twice_is_bit_exact(seq):
    skel = default_skeleton()
    back = mirror_sequence(mirror_sequence(seq, skel), skel)
    assert back.fps == seq.fps
    for name in FIELDS:
        assert getattr(back, name).tobytes() == getattr(seq, name).tobytes(), name


# Feature values for arithmetic that must not overflow: the edge cases
# except the extremes of the range, and otherwise |x| <= 1e300.
BOUNDED = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if abs(v) < 1e300]),
                    st.floats(-1e300, 1e300))


@st.composite
def feature_frames(draw, elements=FINITE):
    """(T, 262) frames that tile one drawn pool of doubles in a seeded order."""
    t = draw(st.integers(1, 3))
    pool = np.array(draw(st.lists(elements, min_size=1, max_size=96)))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(t * FEATURE_DIM)
    return np.resize(pool, t * FEATURE_DIM)[order].reshape(t, FEATURE_DIM)


@given(feature_frames())
def test_mirroring_features_twice_is_bit_exact(frames):
    skel = default_skeleton()
    back = mirror_features(mirror_features(frames, skel), skel)
    assert back.tobytes() == frames.tobytes()


@given(frames=feature_frames(BOUNDED), seed=st.integers(0, 2**32 - 1), layout=st.booleans())
def test_normalization_leaves_unmasked_dims_bit_identical(frames, seed, layout):
    """The stock mask or a random one; std in [1e-3, 1e3] on every dim."""
    rng = np.random.default_rng(seed)
    mask = normalized_dim_mask() if layout else rng.random(FEATURE_DIM) < 0.5
    stats = NormStats(mean=rng.normal(0.0, 10.0, FEATURE_DIM),
                      std=10.0 ** rng.uniform(-3.0, 3.0, FEATURE_DIM), mask=mask)
    for out in (normalize_features(frames, stats), denormalize_features(frames, stats)):
        assert out[:, ~mask].tobytes() == frames[:, ~mask].tobytes()


@given(seed=st.integers(0, 2**32 - 1), num_frames=st.integers(2, 6),
       tracked=st.one_of(st.none(), st.lists(st.integers(0, NUM_BODIES - 1), min_size=1,
                                             max_size=NUM_BODIES, unique=True)),
       anchor=st.integers(0, NUM_BODIES - 1))
def test_whole_clip_rewards_equal_per_frame(seed, num_frames, tracked, anchor):
    skel = default_skeleton()
    rng = np.random.default_rng(seed)
    ref = make_random_sequence(skel, rng, num_frames)
    sim = make_random_sequence(skel, rng, num_frames)
    cfg = RewardConfig(anchor_body=anchor,
                       tracked_bodies=None if tracked is None else tuple(tracked))
    terms, total = task_rewards(ref, sim, cfg, skel)
    per_frame = [task_rewards(ref.frame(i), sim.frame(i), cfg, skel) for i in range(num_frames)]
    for name in TASK_TERMS:
        assert np.array_equal(terms[name], [t[name] for t, _ in per_frame]), name
    assert np.array_equal(total, [tot for _, tot in per_frame])


def on_simplex(weights: np.ndarray) -> bool:
    """Finite, non-negative, and each row sums to 1 within 1e-12."""
    return bool(np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
                and np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-12))


@given(seed=st.integers(0, 2**32 - 1), experts=st.integers(1, 12), tokens=st.integers(0, 5),
       scale=st.floats(0.05, 2.0), spread=st.floats(0.0, 5.0))
def test_tpmoe_gate_rows_lie_on_the_simplex(seed, experts, tokens, scale, spread):
    # tokens == 0 draws one unbatched embedding
    rng = np.random.default_rng(seed)
    params = init_tpmoe(rng, token_dim=10, model_dim=6, ffn_hidden=9, num_experts=experts,
                        gate_hidden=7, scale=scale)
    embedding = rng.normal(0.0, spread, (tokens, 10) if tokens else 10)
    weights = tpmoe_gate(embedding, params)
    assert weights.shape == embedding.shape[:-1] + (experts,)
    assert on_simplex(weights)


@given(seed=st.integers(0, 2**32 - 1), experts=st.integers(1, 5), top_k=st.integers(1, 4),
       cold=st.sampled_from(["none", "highest", "as drawn"]), cap=st.floats(0.01, 1.0),
       temperature=st.floats(0.05, 5.0),
       logits=st.lists(st.floats(-1e4, 1e4), min_size=6, max_size=6))
def test_candidate_weights_lie_on_the_simplex(seed, experts, top_k, cold, cap, temperature,
                                              logits):
    """Stage-II weights, with and without a capped cold expert; "highest"
    makes the cold expert the top candidate, so its cap binds whenever it
    shares the candidate set."""
    rng = np.random.default_rng(seed)
    pool = make_random_pool(rng, experts, 3, (4,), 2, capacity=8)
    cfg = RouterConfig(top_k=top_k, temperature=temperature, cold_start_cap=cap,
                       cold_start_steps=50, ema_coeff=1.0)
    state = make_router(rng, pool.capacity, 4, config=cfg)
    logits = np.array(logits)
    if cold != "none":
        cold_index = add_expert(pool, state)
        if cold == "highest":
            logits[cold_index] = logits.max() + 50.0
    refresh_candidates(state, logits[: pool.num_experts])
    weights = candidate_weights(state, pool)
    assert weights.shape == (pool.num_experts,)
    assert on_simplex(weights)
    assert set(np.flatnonzero(weights).tolist()) <= set(state.candidates)
    if cold != "none" and cold_index in state.candidates and len(state.candidates) > 1:
        assert weights[cold_index] <= cap


def masked_level_quota(probs, levels, floor):
    """`apply_level_quota` as it was before rows had to come grouped by
    level: a mask per level, dicts and Python loops.  The bit-for-bit oracle."""
    probs = np.asarray(probs, dtype=np.float64).copy()
    levels = np.asarray(levels)
    present = [lv for lv in np.unique(levels) if probs[levels == lv].sum() > 0.0]
    if len(present) < 2 or floor <= 0.0:
        return probs
    masses = {lv: probs[levels == lv].sum() for lv in present}
    deficit = {lv: max(0.0, floor - m) for lv, m in masses.items()}
    total_deficit = sum(deficit.values())
    if total_deficit <= 0.0:
        return probs
    surplus = {lv: max(0.0, masses[lv] - floor) for lv in present}
    total_surplus = sum(surplus.values())
    if total_surplus <= 0.0:
        return probs
    for lv in present:
        sel = (levels == lv) & (probs > 0.0)
        if deficit[lv] > 0.0:
            probs[sel] += deficit[lv] / sel.sum()
        elif surplus[lv] > 0.0:
            probs[sel] -= probs[sel] / masses[lv] * (total_deficit * surplus[lv] / total_surplus)
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum()


@st.composite
def grouped_distributions(draw):
    """Rows grouped by ascending level, some of them zero, over 1..10 levels
    of up to 300 rows each (long enough for numpy's pairwise sums to block).
    Each level's rows are scaled by up to 1e-4, so that many levels fall
    below the floor."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sizes = draw(st.lists(st.integers(0, 300), min_size=1, max_size=10))
    levels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    level_scale = np.repeat(10.0 ** -rng.uniform(0.0, 4.0, len(sizes)), sizes)
    probs = level_scale * rng.random(levels.size) ** draw(st.floats(1.0, 8.0))
    probs[rng.random(levels.size) < draw(st.floats(0.0, 0.6))] = 0.0
    if probs.sum() > 0.0:
        probs /= probs.sum()
    floor = draw(st.sampled_from([0.0, 0.02, 0.05, 0.2]) | st.floats(0.0, 0.5))
    return probs, levels, floor


@given(grouped_distributions())
def test_level_quota_matches_masked_formula_bit_for_bit(case):
    probs, levels, floor = case
    out = apply_level_quota(probs, levels, floor)
    assert out.tobytes() == masked_level_quota(probs, levels, floor).tobytes()


# The router's per-step formulas as they stood before the in-place rework,
# kept as the bit-for-bit oracle for elu, mlp_forward, gate_logits,
# top_k_indices, candidate_weights and mixture_action.


def reference_elu(x):
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def reference_mlp_forward(params, x):
    x = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(params):
        x = x @ w.T + b
        if i < len(params) - 1:
            x = reference_elu(x)
    return x


def reference_gate_logits(z, state, pool):
    raw = state.gate_w[: pool.num_experts] @ z + state.gate_b[: pool.num_experts]
    cfg = state.config
    smoothed = raw
    if state.logits_ema is not None and cfg.ema_coeff < 1.0:
        prev = state.logits_ema
        if prev.shape[0] < raw.shape[0]:
            prev = np.concatenate([prev, raw[prev.shape[0]:]])
        prev = np.where(np.isfinite(prev), prev, raw)
        smoothed = cfg.ema_coeff * raw + (1.0 - cfg.ema_coeff) * prev
    logits = np.full(pool.num_experts, -np.inf)
    logits[: pool.unlocked_count] = smoothed[: pool.unlocked_count]
    return logits


def reference_top_k_indices(logits, k):
    finite = [i for i in range(len(logits)) if np.isfinite(logits[i])]
    ordered = sorted(finite, key=lambda i: (-logits[i], i))
    return sorted(ordered[: min(k, len(ordered))])


def reference_softmax(logits):
    p = np.exp(logits - logits.max())
    return p / p.sum()


def reference_candidate_weights(state, pool):
    cand = [c for c in state.candidates if c < pool.unlocked_count]
    logits = state.logits_ema[cand] / state.config.temperature
    weights = np.zeros(pool.num_experts)
    weights[cand] = reference_softmax(logits)
    cold = state.cold_expert
    if cold is not None and cold in cand and len(cand) > 1:
        cap = state.config.cold_start_cap
        if weights[cold] > cap:
            logits[cand.index(cold)] = -np.inf
            weights[cand] = (1.0 - cap) * reference_softmax(logits)
            weights[cold] = cap
    return weights


def reference_mixture_action(obs, state, pool):
    weights = reference_candidate_weights(state, pool)
    action = None
    for j in np.flatnonzero(weights):
        out = reference_mlp_forward(pool.experts[int(j)], obs) * weights[j]
        action = out if action is None else action + out
    return action, weights


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Signed zeros, subnormals and both infinities next to ordinary values.
ELU_EDGES = [0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308, 1e-300, -1e-300,
             -745.2, -40.0, 709.0, np.inf, -np.inf]


@given(arrays(np.float64, st.integers(1, 300),
              elements=st.one_of(st.sampled_from(ELU_EDGES), st.floats(allow_nan=False))))
def test_elu_matches_the_select_form_bit_for_bit(x):
    assert same_bits(elu(x), reference_elu(x))


# Events between router steps: "unlock" unlocks a locked expert (its
# history is -inf), "add" grows the pool through add_expert (a cold expert,
# a shorter history), "boost" lifts the newest expert's gate bias so that
# the cold-start cap binds once it is a candidate.
ROUTER_EVENTS = st.lists(st.sampled_from(["step", "unlock", "add", "boost"]),
                         min_size=1, max_size=12)


@given(seed=st.integers(0, 2**32 - 1), experts=st.integers(1, 5), locked=st.integers(0, 2),
       top_k=st.integers(1, 4), refresh=st.integers(1, 3),
       temperature=st.sampled_from([1.0]) | st.floats(0.05, 5.0),
       ema=st.sampled_from([1.0, 0.9]) | st.floats(0.0, 1.0), cap=st.floats(0.01, 1.0),
       hidden=st.sampled_from([(4,), (5, 3)]), events=ROUTER_EVENTS)
def test_router_step_matches_the_reference_formulas_bit_for_bit(
        seed, experts, locked, top_k, refresh, temperature, ema, cap, hidden, events):
    rng = np.random.default_rng(seed)
    pool = make_random_pool(rng, experts, 3, hidden, 2, capacity=8,
                            unlocked_count=max(1, experts - locked))
    cfg = RouterConfig(top_k=top_k, refresh_period=refresh, temperature=temperature,
                       ema_coeff=ema, cold_start_cap=cap, cold_start_steps=20)
    state = make_router(rng, pool.capacity, 4, config=cfg)
    for event in events:
        if event == "unlock" and pool.unlocked_count < pool.num_experts:
            pool.unlocked_count += 1
        elif event == "add" and pool.num_experts < pool.capacity:
            add_expert(pool, state)
        elif event == "boost":
            state.gate_b[pool.num_experts - 1] += 20.0
        z, obs = rng.normal(0.0, 1.0, 4), rng.normal(0.0, 1.0, (2, 3))
        logits = gate_logits(z, state, pool)
        assert same_bits(logits, reference_gate_logits(z, state, pool))
        assert top_k_indices(logits, top_k) == reference_top_k_indices(logits, top_k)
        refresh_candidates(state, logits)
        assert same_bits(candidate_weights(state, pool), reference_candidate_weights(state, pool))
        action, weights = mixture_action(obs[0], state, pool)
        want_action, want_weights = reference_mixture_action(obs[0], state, pool)
        assert same_bits(action, want_action) and same_bits(weights, want_weights)
        expert = pool.experts[pool.num_experts - 1]
        assert same_bits(mlp_forward(expert, obs), reference_mlp_forward(expert, obs))


def test_seeded_stage_one_and_two_replay_matches_the_reference_bit_for_bit():
    """Stage I (hard-bias routing) for the first half, stage II with one
    add_expert after, at the default router widths and config."""
    n = 200
    rng = np.random.default_rng([7, 0])
    zs = rng.normal(0.0, 1.0, (n, LATENT_DIM))
    levels = rng.choice(np.arange(1, 5), n, p=[0.2, 0.2, 0.2, 0.4])
    runs = []
    for reference in (False, True):
        init = np.random.default_rng([7, 5])
        pool = make_random_pool(init, 4, LATENT_DIM, (256, 128), 29, capacity=8)
        state = make_router(init, pool.capacity)
        draws = np.random.default_rng([7, 6])
        l_max = pool.unlocked_count
        steps = []
        for i in range(n):
            if i == (3 * n) // 4:
                add_expert(pool, state)
            if reference:
                logits = reference_gate_logits(zs[i], state, pool)
            else:
                logits = gate_logits(zs[i], state, pool)
            refresh_candidates(state, logits)
            if i < n // 2:
                if reference:
                    hard = levels[i] == l_max and draws.uniform() < state.config.rho_hard
                    if hard:
                        weights = np.zeros(pool.num_experts)
                        weights[l_max - 1] = 1.0
                        action = reference_mlp_forward(pool.experts[l_max - 1], zs[i])
                    else:
                        action, weights = reference_mixture_action(zs[i], state, pool)
                else:
                    action, weights, hard = hard_bias_route(zs[i], int(levels[i]), l_max,
                                                            draws, state, pool)
            elif reference:
                action, weights, hard = *reference_mixture_action(zs[i], state, pool), False
            else:
                action, weights, hard = *mixture_action(zs[i], state, pool), False
            steps.append((action.tobytes(), weights.tobytes(), bool(hard)))
        runs.append(steps)
    assert runs[0] == runs[1]
    assert 0 < sum(hard for _, _, hard in runs[0]) < n // 2


def pool_bytes(pool) -> list:
    return [[(w.tobytes(), b.tobytes()) for w, b in expert] for expert in pool.experts]


@given(seed=st.integers(0, 2**32 - 1), experts=st.integers(1, 5), locked=st.integers(0, 2),
       spare=st.integers(0, 2), ops=st.lists(st.sampled_from(["unlock", "add"]),
                                             min_size=1, max_size=5))
def test_growth_clones_the_newest_unlocked_expert_into_the_next_slot(seed, experts, locked,
                                                                      spare, ops):
    """Both growth calls on pools with locked slots, up to and past capacity."""
    rng = np.random.default_rng(seed)
    pool = make_random_pool(rng, experts, 3, (4,), 2, capacity=experts + spare,
                            unlocked_count=max(1, experts - locked))
    cfg = RouterConfig(cold_start_steps=20)
    state = make_router(rng, pool.capacity, 4, config=cfg)
    for op in ops:
        new = pool.unlocked_count
        before = pool_bytes(pool), list(pool.lr_multipliers), new, pool.num_experts
        cold = state.cold_expert, state.cold_steps_remaining
        if new == pool.capacity:
            with pytest.raises(ConfigError, match="at capacity"):
                unlock_next_expert(pool) if op == "unlock" else add_expert(pool, state)
            after = pool_bytes(pool), pool.lr_multipliers, pool.unlocked_count, pool.num_experts
            assert after == before and (state.cold_expert, state.cold_steps_remaining) == cold
            continue
        index = unlock_next_expert(pool) if op == "unlock" else add_expert(pool, state)
        assert index == new and pool.unlocked_count == new + 1
        assert pool.num_experts == max(before[3], new + 1)
        grown = pool_bytes(pool)
        assert grown[index] == grown[new - 1]
        assert grown[:index] + grown[index + 1:] == before[0][:index] + before[0][index + 1:]
        for (w, b), (w_src, b_src) in zip(pool.experts[index], pool.experts[new - 1]):
            assert not np.shares_memory(w, w_src) and not np.shares_memory(b, b_src)
        assert len(pool.lr_multipliers) == pool.num_experts
        if op == "add":
            assert state.cold_expert == index
            assert state.cold_steps_remaining == cfg.cold_start_steps
            assert pool.lr_multipliers[index] == cfg.new_expert_lr_multiplier
            others = [m for k, m in enumerate(before[1]) if k != index]
            assert [m for k, m in enumerate(pool.lr_multipliers) if k != index] == [
                cfg.old_expert_lr_multiplier * m for m in others]
        assert state.cold_expert is None or state.cold_expert < pool.unlocked_count


def rejecting_tracker(seed: int, rate: float):
    """Rejects a seeded share of attempts by lifting every body 1 m, far
    past the loop's 0.15 m mpjpe tolerance."""
    rng = np.random.default_rng(seed)

    def tracker(reference):
        if rng.uniform() >= rate:
            return reference
        out = reference.copy()
        out.body_pos[..., 2] += 1.0
        return out

    return tracker


@given(rows=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), rate=st.floats(0.0, 1.0))
def test_prefix_loop_carries_the_initial_prefix_bit_exactly(rows, seed, rate):
    rng = np.random.default_rng(seed)
    prefix = neutral_features(rows)
    prefix[:, ROOT_ANG_VEL.start:ROOT_HEIGHT.stop] += rng.normal(0.0, 0.01, (rows, 7))
    cfg = PrefixLoopConfig(segment_seconds=0.2, horizon_seconds=0.8, max_resamples=4, seed=seed)
    generator = make_interpolation_generator(cfg.segment_frames, noise_scale=0.002)
    _, trace = run_prefix_loop(prefix.copy(), neutral_features(1)[0], generator,
                               rejecting_tracker(seed, rate), cfg, default_skeleton())
    assert trace.features[:rows].tobytes() == prefix.tobytes()
