"""Property tests: decoded 6D frames are rotations, re-orthonormalizing is
idempotent, a motion clip's save/load cycle is bit-exact, mirroring a clip
or feature frames twice is bit-exact, encoding a mirrored clip equals
mirroring its features bit for bit and a mirrored clip pair scores the same
task rewards within a few ulps, normalization leaves unmasked dims
bit-identical, whole-clip task rewards equal the per-frame ones bit for
bit and task rewards match their one-term-at-a-time reference bit for bit,
TP-MoE gate rows and router mixture weights lie on the simplex, the
level quota, the sampling distribution, the replayed distribution and the
router step match their reference formulas bit for bit, the shared
softmax, log-sum-exp and MLP kernels equal the formulas they replaced at
the curriculum, TP-MoE gate, attention pool and routing-loss call sites
bit for bit and the TP-MoE gate draws its layers as before, the sampling
distribution floors every active row and sums to 1, the level quota keeps
the simplex and lifts every level to its floor, the replay set equals the
introduced active rows at every iteration, expert-pool growth clones the
newest unlocked expert into the next slot, and the prefix loop carries its
initial rows bit-exactly."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from helpers import (  # noqa: E402
    introduced_rows,
    make_random_sequence,
    neutral_features,
    random_quaternions,
    reference_task_rewards,
)
from motion_forge.curriculum import (  # noqa: E402
    COLUMNS,
    MAX_LEVEL,
    MAX_TRAINABLE_LEVEL,
    STATE_FROZEN,
    CorpusState,
    ReplaySet,
    SamplerConfig,
    SyntheticFile,
    active_mask,
    apply_level_quota,
    check_freeze,
    default_error_process,
    ramp_iters,
    sampling_distribution,
    sampling_scores,
    update_file_stats,
)
from motion_forge.errors import ConfigError  # noqa: E402
from motion_forge.features import (  # noqa: E402
    FEATURE_DIM,
    ROOT_ANG_VEL,
    ROOT_HEIGHT,
    ROT6D,
    NormStats,
    denormalize_features,
    encode_features,
    mirror_features,
    normalize_features,
    normalized_dim_mask,
    project_valid_rot6d,
)
from motion_forge.generation import (  # noqa: E402
    attention_pool_summary,
    init_attention_pool,
    init_tpmoe,
    tpmoe_gate,
)
from motion_forge.kernels import elu, mlp_forward, softmax_  # noqa: E402
from motion_forge.motion import (  # noqa: E402
    FIELDS,
    NUM_BODIES,
    MotionSequence,
    default_skeleton,
    mirror_sequence,
)
from motion_forge.motion_io import load_motion, save_motion  # noqa: E402
from motion_forge.prefix_loop import (  # noqa: E402
    GeneratorConfig,
    PrefixLoopConfig,
    make_interpolation_generator,
    run_prefix_loop,
)
from motion_forge.rewards import (  # noqa: E402
    TASK_TERMS,
    RewardConfig,
    RewardTerm,
    orientation_error_6d,
    task_rewards,
)
from motion_forge.router import (  # noqa: E402
    LATENT_DIM,
    RouterConfig,
    add_expert,
    candidate_weights,
    gate_logits,
    hard_bias_route,
    make_random_pool,
    make_router,
    mixture_action,
    refresh_candidates,
    route_ce_loss,
    top_k_indices,
    unlock_next_expert,
)
from motion_forge.rotations import quat_to_matrix, sixd_to_rot  # noqa: E402

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


@given(seed=st.integers(0, 2**32 - 1), shape=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_orientation_error_6d_rotates_the_executed_onto_the_reference(seed, shape):
    # R_sim @ R(err) = R_ref: the error is sim^-1 * ref, not its inverse or ref * sim
    q_ref, q_sim = random_quaternions(np.random.default_rng(seed), (2, *shape))
    err = orientation_error_6d(q_ref, q_sim)
    assert err.shape == (*shape, 6)
    rebuilt = quat_to_matrix(q_sim) @ sixd_to_rot(err)
    assert np.max(np.abs(rebuilt - quat_to_matrix(q_ref))) <= 16 * np.finfo(np.float64).eps


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


# A round trip passes a mirror map that is wrong but its own inverse; these
# two compare a mirrored clip with the original instead.
@given(seed=st.integers(0, 2**32 - 1), num_frames=st.integers(2, 8),
       fps=st.sampled_from([24.0, 30.0, 50.0]))
def test_encoding_a_mirrored_clip_equals_mirroring_its_features(seed, num_frames, fps):
    skel = default_skeleton()
    seq = make_random_sequence(skel, np.random.default_rng(seed), num_frames, fps)
    via_clip = encode_features(mirror_sequence(seq, skel), skel)
    via_features = mirror_features(encode_features(seq, skel), skel)
    assert via_clip.tobytes() == via_features.tobytes()


@st.composite
def mirror_symmetric_reward_configs(draw):
    """A signed weight and a positive sigma per term, an anchor on the
    mirror plane, and the stock key bodies or a tracked set closed under the
    mirror, so a mirrored pair tracks the same bodies."""
    perm = default_skeleton().mirror_map.body_perm
    centre = [b for b in range(NUM_BODIES) if perm[b] == b]
    picked = draw(st.one_of(st.none(), st.lists(st.integers(0, NUM_BODIES - 1), min_size=1,
                                                 max_size=NUM_BODIES)))
    tracked = None if picked is None else tuple(sorted({*picked, *perm[picked].tolist()}))
    terms = {name: RewardTerm(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 10.0)))
             for name in TASK_TERMS}
    return RewardConfig(**terms, anchor_body=draw(st.sampled_from(centre)),
                        tracked_bodies=tracked)


@given(seed=st.integers(0, 2**32 - 1), num_frames=st.integers(2, 6),
       cfg=mirror_symmetric_reward_configs())
def test_a_mirrored_pair_scores_the_original_task_rewards(seed, num_frames, cfg):
    """Within 4 ulps of 1.0, the largest kernel value, per term, and the
    weighted sum of those bounds for the total: the mirror permutes the
    bodies, so their sums add in another order."""
    skel = default_skeleton()
    rng = np.random.default_rng(seed)
    ref = make_random_sequence(skel, rng, num_frames)
    sim = make_random_sequence(skel, rng, num_frames)
    terms, total = task_rewards(ref, sim, cfg, skel)
    mirrored, mirrored_total = task_rewards(mirror_sequence(ref, skel), mirror_sequence(sim, skel),
                                            cfg, skel)
    ulp = np.finfo(np.float64).eps
    for name in TASK_TERMS:
        assert np.abs(mirrored[name] - terms[name]).max() <= 4 * ulp, name
    weights = sum(abs(getattr(cfg, name).weight) for name in TASK_TERMS)
    assert np.abs(mirrored_total - total).max() <= 4 * ulp * weights


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


@st.composite
def reward_configs(draw):
    """Any anchor, the stock key bodies or any tracked list (repeats
    allowed), and a signed weight and a positive sigma per task term."""
    tracked = draw(st.one_of(st.none(), st.lists(st.integers(0, NUM_BODIES - 1),
                                                 min_size=1, max_size=2 * NUM_BODIES)))
    terms = {name: RewardTerm(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 10.0)))
             for name in TASK_TERMS}
    return RewardConfig(**terms, anchor_body=draw(st.integers(0, NUM_BODIES - 1)),
                        tracked_bodies=None if tracked is None else tuple(tracked))


@given(seed=st.integers(0, 2**32 - 1), num_frames=st.integers(2, 6), cfg=reward_configs(),
       per_frame=st.booleans(), with_skeleton=st.booleans())
def test_task_rewards_match_the_reference_bit_for_bit(seed, num_frames, cfg, per_frame,
                                                      with_skeleton):
    """A pair of random clips, or one frame of each; without a skeleton the
    stock body set is every body."""
    skel = default_skeleton()
    rng = np.random.default_rng(seed)
    ref = make_random_sequence(skel, rng, num_frames)
    sim = make_random_sequence(skel, rng, num_frames)
    if per_frame:
        i = int(rng.integers(num_frames))
        ref, sim = ref.frame(i), sim.frame(i)
    skel = skel if with_skeleton else None
    terms, total = task_rewards(ref, sim, cfg, skel)
    want_terms, want_total = reference_task_rewards(ref, sim, cfg, skel)
    assert list(terms) == list(TASK_TERMS)
    for name in TASK_TERMS:
        assert type(terms[name]) is type(want_terms[name]), name
        assert np.asarray(terms[name]).tobytes() == np.asarray(want_terms[name]).tobytes(), name
    assert type(total) is type(want_total)
    assert np.asarray(total).tobytes() == np.asarray(want_total).tobytes()


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
    return probs, sizes, levels, floor


@given(grouped_distributions())
def test_level_quota_matches_masked_formula_bit_for_bit(case):
    probs, sizes, levels, floor = case
    out = apply_level_quota(probs, sizes, floor)
    assert out.tobytes() == masked_level_quota(probs, levels, floor).tobytes()


@given(grouped_distributions())
def test_level_quota_keeps_the_simplex_and_lifts_every_level_to_the_floor(case):
    probs, sizes, levels, floor = case
    assume(probs.sum() > 0.0)
    out = apply_level_quota(probs, sizes, floor)
    assert abs(out.sum() - 1.0) <= 1e-12
    present = [lv for lv in np.unique(levels) if probs[levels == lv].sum() > 0.0]
    if floor * len(present) <= 1.0:
        for lv in present:
            assert out[levels == lv].sum() >= floor - 1e-12


LEVEL_KINDS = ("starved", "surplus", "absent", "at_floor", "empty")


@st.composite
def quota_levels(draw):
    """Rows grouped by level, each level one of LEVEL_KINDS: a positive mass
    below the floor, a mass above it, only zero rows, exactly the floor (one
    row holding it, the rest zero), or no rows; starved and surplus levels
    hold some zero rows too.  Returns the rows, the sizes, each row's level,
    the floor and each level's kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floor = draw(st.sampled_from([0.02, 0.05, 0.1, 0.25]))
    kinds = draw(st.lists(st.sampled_from(LEVEL_KINDS), min_size=1, max_size=10))
    groups = []
    for kind in kinds:
        size = 0 if kind == "empty" else int(rng.integers(1, 300))
        rows = np.zeros(size)
        if kind == "at_floor":
            rows[rng.integers(size)] = floor
        elif kind in ("starved", "surplus"):
            rows[:] = rng.random(size) ** rng.uniform(1.0, 8.0)
            rows[rng.random(size) < 0.3] = 0.0
            rows[rng.integers(size)] = rng.uniform(0.5, 1.0)   # at least one positive row
            scale = rng.uniform(0.05, 0.9) if kind == "starved" else rng.uniform(1.2, 30.0)
            rows *= floor * scale / rows.sum()
        groups.append(rows)
    sizes = [rows.size for rows in groups]
    return (np.concatenate(groups), sizes, np.repeat(np.arange(1, len(sizes) + 1), sizes),
            floor, kinds)


@given(quota_levels())
def test_one_pass_level_quota_matches_the_per_level_oracle_bit_for_bit(case):
    """Every kind of level, side by side: the one-pass update gives the
    per-level masked oracle's bytes."""
    probs, sizes, levels, floor, kinds = case
    masses = [np.add.reduce(probs[levels == lv]) for lv in range(1, len(kinds) + 1)]
    for kind, mass in zip(kinds, masses):   # the drawn kinds hold
        assert {"starved": 0.0 < mass < floor, "surplus": mass > floor, "at_floor": mass == floor,
                "absent": mass == 0.0, "empty": mass == 0.0}[kind], (kind, mass)
    out = apply_level_quota(probs, sizes, floor)
    assert out.tobytes() == masked_level_quota(probs, levels, floor).tobytes()


# The scheduler's per-iteration kernels as they stood before the replay set,
# kept as the bit-for-bit oracle for sampling_distribution and the replayed
# distribution.  The level quota inside is the masked oracle above.


def reference_sampling_distribution(state, cfg, iteration, rows=slice(None)):
    mask = active_mask(state, iteration, rows)
    active = mask.nonzero()[0]
    if not active.size:
        raise ConfigError("no active records to sample from")
    scores = sampling_scores(state, cfg, iteration, rows)[active]
    logits = np.log(scores + cfg.epsilon) / cfg.temperature
    logits -= logits.max()
    soft = np.exp(logits)
    soft /= soft.sum()
    out = np.zeros(mask.size)
    out[active] = (1.0 - cfg.epsilon) * soft + cfg.epsilon / active.size
    return out


def reference_replay_distribution(state, rows, iteration, cfg):
    rows = rows[active_mask(state, iteration, rows)]
    if not rows.size:
        return rows, np.zeros(0)
    probs = reference_sampling_distribution(state, cfg, iteration, rows)
    return rows, masked_level_quota(probs, state.level[rows], cfg.level_mass_floor)


@st.composite
def corpus_states(draw):
    """A corpus of 1..300 rows over every level, some frozen (with freezes
    running out around the drawn iteration) or dropped, with statistics
    from zero up to past the error cap; a config with a drawn warmup,
    temperature and floor; and either every row or a random subset of rows
    in random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    iteration = draw(st.integers(0, 100))
    codes = rng.choice(3, n, p=[0.6, 0.3, 0.1])
    state = CorpusState(
        [f"f{i}" for i in range(n)], rng.integers(1, MAX_LEVEL + 1, n),
        ema_error=rng.exponential(0.2, n) * (rng.random(n) < 0.9),
        success_count=rng.exponential(5.0, n) * (rng.random(n) < 0.8),
        failure_count=rng.exponential(5.0, n) * (rng.random(n) < 0.8),
        freeze_state=codes, frozen_until=rng.integers(0, 120, n),
    )
    cfg = SamplerConfig(success_warmup_iters=draw(st.integers(0, 100)),
                        temperature=draw(st.floats(0.1, 5.0)), epsilon=draw(st.floats(0.01, 0.99)))
    rows = draw(st.sampled_from([slice(None), "subset"]))
    if rows == "subset":
        rows = rng.permutation(n)[:draw(st.integers(1, n))]
    return state, cfg, iteration, rows


def active_subset(state, iteration, rows):
    """`rows` (a slice or an index array) as an index array, with the rows
    `active_mask` refuses removed: what `sampling_distribution` takes."""
    rows = np.arange(state.level.size)[rows]
    return rows[active_mask(state, iteration, rows)]


@given(corpus_states())
def test_sampling_distribution_matches_the_reference_bit_for_bit(case):
    state, cfg, iteration, rows = case
    active = active_subset(state, iteration, rows)
    if not active.size:
        with pytest.raises(ConfigError):
            sampling_distribution(state, cfg, iteration, active)
        return
    want = reference_sampling_distribution(state, cfg, iteration, rows)
    got = sampling_distribution(state, cfg, iteration, active)
    assert same_bits(got, want[active_mask(state, iteration, rows)])


@given(corpus_states())
def test_sampling_distribution_floors_active_rows_and_sums_to_one(case):
    state, cfg, iteration, rows = case
    active = active_subset(state, iteration, rows)
    assume(active.size)
    probs = sampling_distribution(state, cfg, iteration, active)
    assert (probs >= cfg.epsilon / active.size).all()
    assert abs(probs.sum() - 1.0) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), check_interval=st.integers(2, 12),
       freeze_duration=st.integers(1, 40),
       unlocks=st.lists(st.integers(1, 69), max_size=MAX_TRAINABLE_LEVEL - 1, unique=True),
       turn=st.integers(0, 40))
def test_replay_set_matches_introduced_active_rows_at_every_iteration(
        seed, check_interval, freeze_duration, unlocks, turn):
    """Freezes, thaws between checks and drops, levels unlocked at drawn
    iterations the way a promotion unlocks them (ramps of 15 and 25
    iterations, so one level's ramp can end while the next one's runs), and
    one step back in time, across the first ramp end from iteration `turn`
    on, driven in the simulation's order; the replay set must equal the
    introduced rows filtered by `active_mask`, recomputed from scratch.
    The arrays already returned must stay as they were."""
    assume(freeze_duration % check_interval)
    rng = np.random.default_rng(seed)
    state = CorpusState([f"f{i}" for i in range(240)], rng.integers(1, MAX_LEVEL + 1, 240))
    cfg = SamplerConfig(n_min=6, check_interval=check_interval, freeze_duration=freeze_duration,
                        intro_base_iters=15, intro_extra_iters=10, success_warmup_iters=30)
    orders = [rng.permutation(np.flatnonzero(state.level == lv))
              for lv in range(1, MAX_TRAINABLE_LEVEL + 1)]
    unlock_iters = [0]
    replay = ReplaySet(state, orders, unlock_iters, cfg)
    returned = []   # the last call's rows and their bytes then

    def check(iteration):
        intro = introduced_rows(orders, unlock_iters, iteration, cfg)
        want = intro[active_mask(state, iteration, intro)]
        rows = replay.at(iteration)
        assert all(array.tobytes() == data for array, data in returned)   # never written again
        returned[:] = [(rows, rows.tobytes())]
        assert rows.tolist() == want.tolist()
        # the levels the simulation's trace row derives from the sizes
        levels = np.repeat(np.arange(1, len(replay.sizes) + 1), replay.sizes)
        assert levels.tolist() == state.level[want].tolist()
        assert replay.sizes == [np.count_nonzero(state.level[want] == lv)
                                for lv in range(1, len(unlock_iters) + 1)]
        got_rows, got = replay.distribution(iteration)
        want_rows, want_probs = reference_replay_distribution(state, intro, iteration, cfg)
        assert same_bits(got_rows, want_rows) and same_bits(got, want_probs)
        return rows

    stepped_back = False
    for it in range(70):
        rows = check(it)
        ends = [unlock + ramp_iters(lv, cfg) for lv, unlock in enumerate(unlock_iters, start=1)]
        if not stepped_back and it >= turn and it in ends:
            check(it - 1)
            stepped_back = True
        batch = rows[rng.random(rows.size) < 0.4]
        update_file_stats(state, batch, rng.uniform(0.0, 0.2, batch.size),
                          rng.integers(0, 3, batch.size), rng.integers(0, 3, batch.size), cfg)
        if (it + 1) % check_interval == 0:
            check_freeze(state, cfg, it + 1)
            replay.invalidate()
        if it + 1 in unlocks:
            unlock_iters.append(it + 1)
        check(it)   # the trace row's query, after the freeze check and promotion
    assert (state.freeze_state == STATE_FROZEN).any() or state.freeze_count.any()


def test_replay_set_refuses_an_order_of_mixed_levels():
    state = CorpusState(["a", "b", "c"], [1, 2, 1])
    with pytest.raises(ConfigError, match="replay order 0 must hold rows of level 1 only"):
        ReplaySet(state, [np.array([0, 1]), np.array([2])], [0], SamplerConfig())


# update_file_stats and default_error_process as they stood before the
# outcome path was trimmed, kept as the bit-for-bit oracle for both.


def reference_update_file_stats(state, rows, batch_error, batch_successes, batch_failures, cfg):
    batch_error = np.asarray(batch_error, dtype=np.float64)
    batch_successes = np.asarray(batch_successes)
    batch_failures = np.asarray(batch_failures)
    for name, values, noun in (("error", batch_error, ""),
                               ("successes", batch_successes, " whole numbers"),
                               ("failures", batch_failures, " whole numbers")):
        bad = values.size and not (0.0 <= float(np.minimum.reduce(values, None))
                                   <= float(np.maximum.reduce(values, None)) < math.inf)
        if noun and not bad and values.dtype.kind == "f":
            bad = (values % 1).any()
        if bad:
            raise ValueError(f"batch {name} must be finite and non-negative{noun}")
    a = cfg.error_ema_alpha
    b = cfg.success_decay_beta
    state.ema_error[rows] = (1.0 - a) * state.ema_error[rows] + a * batch_error
    state.success_count[rows] = b * state.success_count[rows] + batch_successes
    state.failure_count[rows] = b * state.failure_count[rows] + batch_failures
    state.attempts[rows] += batch_successes + batch_failures


def reference_default_error_process(spec, exposures, rollouts, rng):
    error = spec.error_at(exposures)
    p_succ = math.exp(-error / spec.success_scale)
    successes = int(rng.binomial(rollouts, p_succ))
    return error, successes, rollouts - successes


# One bad value in one batch: (batch index, value).  Index 0 is the error,
# 1 the successes, 2 the failures.
BAD_BATCH_VALUES = [(0, -0.1), (0, np.nan), (0, np.inf), (1, -1), (1, 1.5), (1, np.nan),
                    (2, -3), (2, 0.25), (2, np.inf)]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
       whole=st.sampled_from(["int", "float"]), form=st.sampled_from(["array", "tuple"]),
       bad=st.none() | st.sampled_from(BAD_BATCH_VALUES))
def test_outcome_path_matches_the_reference_bit_for_bit(seed, n, whole, form, bad):
    """`update_file_stats` on random states and batches (integer counts, or
    floats holding whole numbers; arrays, or tuples of Python numbers as
    the simulation passes them) leaves every column with the reference's
    bytes, and a bad batch raises the reference's ValueError with no row
    changed; `default_error_process` returns the reference's outcome and
    leaves the generator in the same state."""
    rng = np.random.default_rng(seed)

    def corpus():
        draws = np.random.default_rng(seed)
        return CorpusState(
            [f"f{i}" for i in range(n)], draws.integers(1, MAX_LEVEL + 1, n),
            ema_error=draws.exponential(0.2, n), success_count=draws.exponential(5.0, n),
            failure_count=draws.exponential(5.0, n), attempts=draws.integers(0, 10**6, n))

    rows = rng.permutation(n)[:rng.integers(0, n + 1)]
    batch = [rng.exponential(0.2, rows.size), rng.integers(0, 40, rows.size),
             rng.integers(0, 40, rows.size)]
    if whole == "float":
        batch[1:] = [counts.astype(np.float64) for counts in batch[1:]]
    if bad is not None and rows.size:
        which, value = bad
        batch[which] = batch[which].astype(np.result_type(batch[which], value))
        batch[which][rng.integers(rows.size)] = value
    if form == "tuple":
        batch = [tuple(values.tolist()) for values in batch]
    cfg = SamplerConfig(error_ema_alpha=float(rng.uniform(0.01, 1.0)),
                        success_decay_beta=float(rng.uniform(0.01, 1.0)))
    # the reference's in-place add cannot cast float counts (an empty tuple
    # is one) into the int64 attempts column, so it gets whole counts as integers
    counts = [np.asarray(values) for values in batch[1:]]
    if bad is None or not rows.size:
        counts = [values.astype(np.int64) for values in counts]
    want, got = corpus(), corpus()
    try:
        reference_update_file_stats(want, rows, batch[0], *counts, cfg)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            update_file_stats(got, rows, *batch, cfg)
        want = corpus()   # the reference refuses before any row changes, too
    else:
        update_file_stats(got, rows, *batch, cfg)
    for name in ("level", *COLUMNS):
        assert same_bits(getattr(got, name), getattr(want, name)), name

    spec = SyntheticFile("f", 1, start_error=float(rng.uniform(0.0, 1.0)),
                         error_floor=float(rng.uniform(0.0, 0.2)),
                         improve_rate=float(rng.uniform(0.0, 0.01)),
                         success_scale=float(rng.uniform(0.01, 1.0)))
    exposures, rollouts = int(rng.integers(0, 10**5)), int(rng.integers(1, 100))
    draws_want, draws_got = np.random.default_rng(seed), np.random.default_rng(seed)
    want_outcome = reference_default_error_process(spec, exposures, rollouts, draws_want)
    got_outcome = default_error_process(spec, exposures, rollouts, draws_got)
    assert [type(v) for v in got_outcome] == [float, int, int]
    assert got_outcome == want_outcome
    assert draws_got.bit_generator.state == draws_want.bit_generator.state


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


# The softmax, log-sum-exp and TP-MoE gate formulas as they stood at their
# call sites before they moved into motion_forge.kernels, kept as the
# bit-for-bit oracle for the shared kernels.


def reference_curriculum_softmax(logits):
    logits = logits.copy()
    logits -= np.maximum.reduce(logits)
    soft = np.exp(logits)
    soft /= np.add.reduce(soft)
    return soft


def reference_silu(x):
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def reference_tpmoe_gate(token_embedding, params):
    x = np.asarray(token_embedding, dtype=np.float64)
    for i, (w, b) in enumerate(params.gate_layers):
        x = x @ w.T + b
        if i < len(params.gate_layers) - 1:
            x = reference_silu(x)
    x = x - x.max(axis=-1, keepdims=True)
    w = np.exp(x)
    return w / w.sum(axis=-1, keepdims=True)


def reference_init_tpmoe_gate(rng, token_dim, model_dim, ffn_hidden, num_experts,
                              gate_hidden, scale):
    """The gate layers `init_tpmoe` drew with its own per-layer loop, after
    the experts' w1 and w2 draws."""
    for _ in range(num_experts):
        rng.normal(0.0, scale / np.sqrt(model_dim), (ffn_hidden, model_dim))
        rng.normal(0.0, scale / np.sqrt(ffn_hidden), (model_dim, ffn_hidden))
    dims = [token_dim, gate_hidden, gate_hidden, num_experts]
    gate_layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        gate_layers.append((rng.normal(0.0, scale / np.sqrt(d_in), (d_out, d_in)), np.zeros(d_out)))
    return gate_layers


def reference_attention_pool_summary(tokens, params):
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.float64))
    d = params.query.shape[0]
    dh = d // params.num_heads
    keys = tokens @ params.w_k.T
    values = tokens @ params.w_v.T
    context = np.empty(d)
    for head in range(params.num_heads):
        sl = slice(head * dh, (head + 1) * dh)
        scores = keys[:, sl] @ params.query[sl] / np.sqrt(dh)
        scores = scores - scores.max()
        alpha = np.exp(scores)
        alpha /= alpha.sum()
        context[sl] = alpha @ values[:, sl]
    summary = context @ params.w_o.T
    return summary, np.vstack([summary, tokens]) @ params.w_mem.T


def reference_route_ce_loss(logits, file_level, ce_weight):
    finite = logits[np.isfinite(logits)]
    m = finite.max()
    log_z = m + np.log(np.sum(np.exp(finite - m)))
    return float(ce_weight * (log_z - logits[file_level - 1]))


def float_bits(value) -> bytes:
    return np.float64(value).tobytes()


@given(arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e4, 1e4)))
def test_softmax_matches_the_curriculum_three_line_form_bit_for_bit(logits):
    want = reference_curriculum_softmax(logits)
    assert same_bits(softmax_(logits.copy()), want)


@given(seed=st.integers(0, 2**32 - 1), experts=st.integers(1, 12), tokens=st.integers(0, 5),
       scale=st.floats(0.05, 2.0), spread=st.floats(0.0, 50.0))
def test_tpmoe_gate_matches_the_layer_loop_bit_for_bit(seed, experts, tokens, scale, spread):
    # tokens == 0 draws one unbatched embedding, else an (N, token_dim) batch
    rng = np.random.default_rng(seed)
    params = init_tpmoe(rng, token_dim=10, model_dim=6, ffn_hidden=9, num_experts=experts,
                        gate_hidden=7, scale=scale)
    embedding = rng.normal(0.0, spread, (tokens, 10) if tokens else 10)
    assert same_bits(tpmoe_gate(embedding, params), reference_tpmoe_gate(embedding, params))


@pytest.mark.parametrize("tokens", [0, 4])
def test_tpmoe_gate_matches_the_layer_loop_at_the_default_gate_widths(tokens):
    rng = np.random.default_rng([16, tokens])
    params = init_tpmoe(rng, model_dim=512, ffn_hidden=8)
    embedding = rng.normal(0.0, 1.0, (tokens, 768) if tokens else 768)
    assert same_bits(tpmoe_gate(embedding, params), reference_tpmoe_gate(embedding, params))


@given(seed=st.integers(0, 2**32 - 1), token_dim=st.integers(1, 12),
       model_dim=st.integers(1, 8), ffn_hidden=st.integers(1, 8), experts=st.integers(1, 12),
       gate_hidden=st.integers(1, 9), scale=st.floats(0.05, 2.0))
def test_tpmoe_gate_draws_its_layers_as_the_per_layer_loop_did(
        seed, token_dim, model_dim, ffn_hidden, experts, gate_hidden, scale):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    params = init_tpmoe(rng, token_dim, model_dim, ffn_hidden, experts, gate_hidden, scale)
    want = reference_init_tpmoe_gate(ref_rng, token_dim, model_dim, ffn_hidden, experts,
                                     gate_hidden, scale)
    assert len(params.gate_layers) == len(want) == 3
    for (w, b), (w_ref, b_ref) in zip(params.gate_layers, want):
        assert same_bits(w, w_ref) and same_bits(b, b_ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(seed=st.integers(0, 2**32 - 1), heads=st.sampled_from([1, 2, 4]),
       head_dim=st.integers(1, 6), tokens=st.integers(1, 6), spread=st.floats(0.0, 20.0))
def test_attention_pool_head_softmax_matches_the_old_form_bit_for_bit(seed, heads, head_dim,
                                                                      tokens, spread):
    rng = np.random.default_rng(seed)
    params = init_attention_pool(rng, token_dim=heads * head_dim, model_dim=5, num_heads=heads)
    embeddings = rng.normal(0.0, spread, (tokens, heads * head_dim))
    summary, memory = attention_pool_summary(embeddings, params)
    want_summary, want_memory = reference_attention_pool_summary(embeddings, params)
    assert same_bits(summary, want_summary) and same_bits(memory, want_memory)


@given(logits=st.lists(st.floats(-50.0, 50.0) | st.just(-np.inf), min_size=1, max_size=12),
       pick=st.integers(0, 11), ce_weight=st.sampled_from([1.0, 0.05]) | st.floats(0.0, 2.0))
def test_route_ce_loss_log_sum_exp_matches_the_old_form_bit_for_bit(logits, pick, ce_weight):
    logits = np.array(logits)
    finite = np.flatnonzero(np.isfinite(logits))
    assume(finite.size)
    file_level = int(finite[pick % finite.size]) + 1
    assert float_bits(route_ce_loss(logits, file_level, ce_weight)) == float_bits(
        reference_route_ce_loss(logits, file_level, ce_weight))


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
    generator = make_interpolation_generator(cfg.segment_frames, GeneratorConfig(noise_scale=0.002))
    _, trace = run_prefix_loop(prefix.copy(), neutral_features(1)[0], generator,
                               rejecting_tracker(seed, rate), cfg, default_skeleton())
    assert trace.features[:rows].tobytes() == prefix.tobytes()
