"""Property tests: decoded 6D frames are rotations, re-orthonormalizing is
idempotent, a motion clip's save/load cycle is bit-exact, mirroring a clip
or feature frames twice is bit-exact, normalization leaves unmasked dims
bit-identical, whole-clip task rewards equal the per-frame ones bit for
bit, TP-MoE gate rows and router mixture weights lie on the simplex, and
the level quota matches its masked reference formula bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from helpers import make_random_sequence, neutral_features  # noqa: E402
from motion_forge.curriculum import apply_level_quota  # noqa: E402
from motion_forge.features import (  # noqa: E402
    FEATURE_DIM,
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
from motion_forge.rewards import TASK_TERMS, RewardConfig, task_rewards  # noqa: E402
from motion_forge.router import (  # noqa: E402
    RouterConfig,
    add_expert,
    candidate_weights,
    make_random_pool,
    make_router,
    refresh_candidates,
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
