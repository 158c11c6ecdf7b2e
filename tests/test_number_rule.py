"""The number rule (`errors.check_numbers`) and the inputs that used to
succeed wrongly: bools, numeric strings and fractions among JSON numbers,
JSON integers that float64 would round, and JSON objects that repeat a key."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import make_walk_sequence
from motion_forge import errors
from motion_forge import router as rt
from motion_forge.cli import cli_dispatch
from motion_forge.curriculum import CorpusState, load_records
from motion_forge.errors import (
    ConfigError,
    DimensionMismatchError,
    FileFormatError,
    MotionForgeError,
    NonFiniteError,
    check_numbers,
)
from motion_forge.features import FEATURE_DIM, NormStats, normalized_dim_mask
from motion_forge.motion import default_skeleton
from motion_forge.motion_io import (
    load_features,
    load_motion,
    load_norm_stats,
    save_motion,
    save_norm_stats,
)
from motion_forge.rotations import rot_to_6d, sixd_to_rot

ERRORS = {cls.__name__ for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, MotionForgeError)}


class TestCheckNumbers:
    @pytest.mark.parametrize("value", [
        [True, 1.5], [1, False], [[0.5, 0.25], [True, 2.0]], [np.True_, 0.5], True, None, "0.5",
        ["0.1", "0.2"], [0.1, None], [{"a": 1}], [[1.0], [1.0, 2.0]], {"a": 1},
    ], ids=["bool_among_floats", "bool_among_ints", "bool_in_a_row", "numpy_bool", "bool",
            "null", "numeric_string", "numeric_strings", "null_among_floats", "object", "ragged",
            "mapping"])
    def test_non_numbers_are_rejected(self, value):
        with pytest.raises(ConfigError, match="^x must "):
            check_numbers(value, "x")

    def test_reals_come_back_as_float64(self):
        out = check_numbers([[1, 2.5], [3, 4]], "x", (2, 2))
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.5], [3.0, 4.0]]
        assert check_numbers(7, "x", ()).shape == ()

    @pytest.mark.parametrize("value, shape", [
        ([1.0, 2.0], (3,)), ([[1.0, 2.0]], (None,)), (1.0, (None,)), ([1.0], ()),
    ])
    def test_shape_is_checked_with_none_for_any_length(self, value, shape):
        with pytest.raises(FileFormatError, match="^x must "):
            check_numbers(value, "x", shape, error=FileFormatError)
        assert check_numbers([1.0, 2.0, 3.0], "x", (None,)).shape == (3,)

    def test_whole_numbers_reject_fractions_and_accept_integral_floats(self):
        out = check_numbers([4.0, 2, 0], "x", whole=True)
        assert out.dtype == np.int64 and out.tolist() == [4, 2, 0]
        with pytest.raises(ConfigError, match=r"x must be an integer, got 4\.9"):
            check_numbers(4.9, "x", (), whole=True)
        # also beside an integer numpy keeps as an object
        for value in [[1, 3.7], [1.5, 2**64], [True, 2**64]]:
            with pytest.raises(ConfigError, match="^x must be integers$"):
                check_numbers(value, "x", whole=True)
        # float64 would round 2**53 + 1 to 2**53; int64 holds it
        assert check_numbers([1, 2**53 + 1], "x", whole=True).tolist() == [1, 2**53 + 1]
        assert check_numbers(2.0**55, "x", (), whole=True) == 2**55
        with pytest.raises(ConfigError, match="x holds an integer outside int64"):
            check_numbers(1e300, "x", (), whole=True)

    @given(st.integers(-2**63, 2**63 - 1))
    @example(-2**63)
    @example(2**63 - 1)
    @example(2**53 + 1)   # the first integer float64 rounds
    def test_every_int64_reads_back_exactly(self, n):
        for text, want in [(f"{n}", n), (f"[{n}]", [n]), (f"[0, {n}]", [0, n]),
                           (f"[1.0, {n}]", [1, n])]:
            out = check_numbers(json.loads(text), "x", whole=True)
            assert out.dtype == np.int64 and out.tolist() == want, text

    @given(st.integers(max_value=-2**63 - 1) | st.integers(min_value=2**63))
    @example(-2**63 - 1)
    @example(2**63)
    def test_every_integer_outside_int64_is_refused(self, n):
        for text in [f"{n}", f"[{n}]", f"[0, {n}]", f"[1.0, {n}]"]:
            with pytest.raises(ConfigError, match="^x holds an integer outside int64$"):
                check_numbers(json.loads(text), "x", whole=True)

    @pytest.mark.parametrize("value", [2**64, -2**63 - 1, [1.0, 10**400], [[1, 2**64], [3, 4]]],
                             ids=["2**64", "-2**63-1", "huge_after_a_float", "in_a_row"])
    def test_integer_numpy_keeps_as_an_object_is_outside_int64(self, value):
        with pytest.raises(ConfigError, match="^x holds an integer outside int64$"):
            check_numbers(value, "x", whole=True)

    @pytest.mark.parametrize("value", [
        np.array([2.0**63]), np.array([2**63], dtype=np.uint64), np.float64(-2.0**64), 2.0**63,
    ], ids=["float64_array", "uint64_array", "float64_scalar", "float"])
    def test_numpy_input_outside_int64_is_refused_without_a_cast_warning(self, value):
        # numpy's own int64 cast would warn (float64) or wrap (uint64)
        with pytest.raises(ConfigError, match="x holds an integer outside int64"):
            check_numbers(value, "x", whole=True)

    @pytest.mark.parametrize("value", [2**64, -2**64, [1.0, 2**64], [[1, 2**64], [3.5, 4]]],
                             ids=["2**64", "-2**64", "after_a_float", "in_a_row"])
    def test_integer_numpy_keeps_as_an_object_is_a_real(self, value):
        out = check_numbers(value, "x")
        assert out.dtype == np.float64 and out.tolist() == np.array(value, dtype=float).tolist()
        # a bool beside it is still no number
        with pytest.raises(ConfigError, match="^x must hold only numbers$"):
            check_numbers([True, value], "x")

    @pytest.mark.parametrize("value", [10**400, -10**400, [1.0, 10**400]],
                             ids=["10**400", "-10**400", "after_a_float"])
    def test_integer_past_float64_is_non_finite_like_1e400(self, value):
        # json reads the literal 1e400 as inf, which is a NonFiniteError
        with pytest.raises(NonFiniteError, match="^x holds NaN or infinite values$"):
            check_numbers(value, "x")

    @pytest.mark.parametrize("bad, word", [(np.nan, "NaN"), (np.inf, "infinity")])
    def test_non_finite_values(self, bad, word):
        with pytest.raises(NonFiniteError, match="x holds NaN or infinite values"):
            check_numbers([1.0, bad], "x")
        # NaN and inf are no integers: the caller's error, as int() refuses them
        with pytest.raises(ConfigError, match=f"x: cannot convert float {word} to integer"):
            check_numbers([1.0, bad], "x", whole=True)


def _run(argv, capsys) -> dict:
    """`cli_dispatch` on `argv`; exit 1 with exactly one JSON error line, returned."""
    code = cli_dispatch([str(a) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1, (code, lines)
    err = json.loads(lines[0])
    assert err["error"] in ERRORS
    return err


RECORDS = {"records": [{"z": [0.1, 0.2, 0.3, 0.4], "level": 1}]}


def _pool() -> dict:
    pool = rt.make_random_pool(np.random.default_rng(0), num_experts=2, input_dim=4,
                               hidden=(3,), output_dim=2, capacity=4)
    return rt.pool_to_dict(pool)


class TestRouteSimProbes:
    """Each of these exited 0 before the number rule."""

    @pytest.mark.parametrize("z", [["0.1", "0.2", "0.3", "0.4"], [0.1, True, 0.3, 0.4]],
                             ids=["numeric_strings", "bool"])
    def test_latent_that_is_not_numbers(self, tmp_path, capsys, z):
        path = tmp_path / "records.json"
        path.write_text(json.dumps({"records": [{"z": z}]}))
        err = _run(["route-sim", path, "--out", tmp_path / "out.csv"], capsys)
        assert err["error"] == "ConfigError" and "record 0: latent 'z'" in err["message"]
        assert not (tmp_path / "out.csv").exists()

    def test_level_past_2_53_is_printed_exactly(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        path.write_text(json.dumps({"records": [{"z": [0.1] * 8, "level": 2**53 + 1}]}))
        assert cli_dispatch(["route-sim", str(path)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:2] == ["0", "9007199254740993"]

    def test_level_outside_int64_is_one_config_error(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        path.write_text(json.dumps({"records": [{"z": [0.1] * 8, "level": 9223372036854775813}]}))
        err = _run(["route-sim", path, "--out", tmp_path / "out.csv"], capsys)
        assert err == {"error": "ConfigError",
                       "message": "record 0: 'level' holds an integer outside int64"}
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("capacity", 4.9), ("hidden", [3.7]), ("unlocked_count", True),
        ("lr_multipliers", [True, "1.0"]), ("input_dim", "4"),
    ])
    def test_pool_number_that_breaks_the_rule(self, tmp_path, capsys, key, value):
        pool = _pool()
        pool[key] = value
        assert f"expert pool: '{key}' must" in self._route(tmp_path, capsys, pool)["message"]

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "numeric_string"])
    @pytest.mark.parametrize("key", ["w", "b"])
    def test_layer_value_that_is_not_a_number(self, tmp_path, capsys, key, value):
        pool = _pool()
        pool["experts"][1]["layers"][0][key][0] = value
        err = self._route(tmp_path, capsys, pool)
        assert f"expert 1 layer 0 '{key}' must hold only numbers" in err["message"]

    @pytest.mark.parametrize("shape", [[3, 4.5], [0, 4], [True, 4], [3], "3x4"])
    def test_layer_shape_must_be_two_integers_of_at_least_1(self, tmp_path, capsys, shape):
        pool = _pool()
        pool["experts"][0]["layers"][0]["shape"] = shape
        assert "expert 0 layer 0" in self._route(tmp_path, capsys, pool)["message"]

    @staticmethod
    def _route(tmp_path, capsys, pool) -> dict:
        (tmp_path / "records.json").write_text(json.dumps(RECORDS))
        (tmp_path / "pool.json").write_text(json.dumps(pool))
        err = _run(["route-sim", tmp_path / "records.json", "--pool", tmp_path / "pool.json",
                    "--out", tmp_path / "out.csv"], capsys)
        assert err["error"] == "ConfigError"
        return err


class TestCurriculumRecords:
    @pytest.mark.parametrize("key", ["level", "attempts"])
    def test_bool_in_a_whole_number_column(self, tmp_path, key):
        path = tmp_path / "records.jsonl"
        row = {"file_id": "a", "level": 1, key: True}
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ConfigError, match="must be integers"):
            load_records(path)

    def test_numeric_string_in_a_real_column(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"file_id": "a", "level": 1, "ema_error": "0.1"}\n')
        with pytest.raises(ConfigError, match="column ema_error must hold only numbers"):
            load_records(path)

    def test_bool_level_in_code_built_state(self):
        with pytest.raises(ConfigError):
            CorpusState(["a", "b"], [1, True])


class TestFileProbes:
    @pytest.fixture(scope="class")
    def skel(self):
        return default_skeleton()

    def test_clip_with_a_bool_among_its_numbers_names_the_frame(self, tmp_path, skel):
        path = tmp_path / "clip.json"
        save_motion(make_walk_sequence(skel, 1.0, 0.0, 6, 30.0), path, skel)
        doc = json.loads(path.read_text())
        doc["body_pos"][4][7] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError,
                           match=r"clip\.json: frame 4 field 'body_pos' must hold only numbers"):
            load_motion(path, skel)

    @pytest.mark.parametrize("edit, pattern", [
        (lambda doc: doc["features"][1].__setitem__(3, True),
         r"feats\.json: frame 1 field 'features' must hold only numbers"),
        (lambda doc: doc.update(fps=True), r"feats\.json: 'fps' must be a number, got True"),
        (lambda doc: doc.update(format_version=True),
         r"feats\.json: format_version must be an integer, got True"),
    ], ids=["bool_feature", "bool_fps", "bool_version"])
    def test_features_with_a_bool(self, tmp_path, edit, pattern):
        path = tmp_path / "feats.json"
        doc = {"format_version": 1, "fps": 30.0, "features": [[0.0] * FEATURE_DIM for _ in range(2)]}
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=pattern):
            load_features(path)

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_norm_stats_with_a_bool(self, tmp_path, field):
        path = tmp_path / "stats.json"
        save_norm_stats(NormStats(mean=np.zeros(FEATURE_DIM), std=np.ones(FEATURE_DIM),
                                  mask=normalized_dim_mask()), path)
        doc = json.loads(path.read_text())
        doc[field][9] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=rf"field '{field}' must hold only numbers"):
            load_norm_stats(path)

    def test_norm_stats_ragged_mask(self, tmp_path):
        path = tmp_path / "stats.json"
        save_norm_stats(NormStats(mean=np.zeros(FEATURE_DIM), std=np.ones(FEATURE_DIM),
                                  mask=normalized_dim_mask()), path)
        doc = json.loads(path.read_text())
        doc["mask"][5] = [True]
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionMismatchError, match="field 'mask' must have shape"):
            load_norm_stats(path)


class TestRepeatedKeys:
    def test_config_with_a_repeated_section(self, tmp_path, capsys):
        (tmp_path / "records.json").write_text(json.dumps(RECORDS))
        config = tmp_path / "config.json"
        config.write_text('{"router": {"top_k": 3}, "router": {"top_k": 1}}')
        err = _run(["route-sim", tmp_path / "records.json", "--config", config,
                    "--out", tmp_path / "out.csv"], capsys)
        assert err["error"] == "ConfigError" and "repeats the key 'router'" in err["message"]

    def test_records_line_with_a_repeated_key(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"file_id": "a", "level": 1}\n{"file_id": "b", "level": 1, "level": 2}\n')
        with pytest.raises(ConfigError, match="line 2 repeats the key 'level'"):
            load_records(path)

    def test_asfo_mapping_with_a_repeated_id(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text('{"samples": {"a": ["walk"], "a": ["flip"]}}')
        err = _run(["asfo-plan", path], capsys)
        assert err["error"] == "ConfigError" and "repeats the key 'a'" in err["message"]

    def test_clip_with_a_repeated_field(self, tmp_path):
        skel = default_skeleton()
        path = tmp_path / "clip.json"
        save_motion(make_walk_sequence(skel, 1.0, 0.0, 4, 30.0), path, skel)
        text = path.read_text()
        path.write_text(text[:-2] + ',"fps":60.0}\n')
        with pytest.raises(FileFormatError, match="repeats the key 'fps'"):
            load_motion(path, skel)


def test_rot_to_6d_sign_test_matches_the_determinant():
    rng = np.random.default_rng(5)
    rot = sixd_to_rot(rng.normal(size=(200, 6)))
    assert np.array_equal(rot_to_6d(rot), np.concatenate([rot[:, :, 0], rot[:, :, 1]], axis=-1))
    flipped = rot.copy()
    flipped[:, :, 2] *= -1.0
    assert (np.linalg.det(flipped) < 0).all()
    for one in flipped[:20]:
        with pytest.raises(MotionForgeError, match="negative determinant"):
            rot_to_6d(one)
