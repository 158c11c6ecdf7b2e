"""Exception types shared across the library, the non-finite check, the
config field rule, and the JSON object and number rules."""

import dataclasses
import functools
import itertools
import math
import numbers

import numpy as np


class MotionForgeError(Exception):
    """Base class for all library errors."""


class InvalidRotationError(MotionForgeError):
    """A matrix that should be a rotation is not orthonormal with det +1."""


class DegenerateRotationError(MotionForgeError):
    """A 6D rotation vector cannot be orthonormalized (parallel/zero columns)."""


class DimensionMismatchError(MotionForgeError):
    """An array does not have the joint/body/feature dimensions it must have."""


class AlignmentError(MotionForgeError):
    """Two sequences that must be compared frame-for-frame do not align."""


class ConfigError(MotionForgeError):
    """A configuration value or structure is invalid."""


class FileFormatError(MotionForgeError):
    """A serialized artifact is malformed or has an unsupported version."""


class NonFiniteError(MotionForgeError):
    """A plug-in output or a loaded file holds NaN or infinite values where
    finite ones are required."""


def check_finite(value, what: str) -> np.ndarray:
    """`value` as a float64 array; NonFiniteError naming `what` if it holds NaN or inf."""
    array = np.asarray(value, dtype=np.float64)
    if not np.isfinite(array).all():
        raise NonFiniteError(f"{what} holds NaN or infinite values")
    return array


def check_object(data, where, allowed, required=(), error=ConfigError) -> dict:
    """`data` if it is a JSON object (a dict) with no key outside `allowed`
    and every key in `required`; else `error` naming `where` and the key.
    `data` itself as `allowed` lets every key through: a mapping whose keys
    are data, not names, or a first look at a document's version."""
    if not isinstance(data, dict):
        raise error(f"{where} must be a JSON object")
    unknown = data.keys() - allowed
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown, key=str)}")
    for key in required:
        if key not in data:
            raise error(f"{where}: missing required field '{key}'")
    return data


_BOOLS = frozenset({bool, np.bool_})


def _holds_bool(value, depth: int) -> bool:
    """Whether a bool hides in `value`, a rectangular nested list or object
    array `depth` >= 1 deep (numpy reads [true, 1.5] as [1.0, 1.5]), by one
    C-level type scan."""
    if isinstance(value, np.ndarray) and value.dtype != object:   # its dtype already tells
        return False
    for _ in range(depth - 1):
        value = itertools.chain.from_iterable(value)
    return not _BOOLS.isdisjoint(map(type, value))


def _python_reals(array) -> list:
    """The items of an object array if each is a Python int or float, else
    []: numpy keeps an int outside 64 bits (2**64, or a huge one listed with
    floats) as a Python object."""
    items = array.ravel().tolist() if array is not None and array.dtype == object else []
    return items if all(type(x) is int or type(x) is float for x in items) else []


def check_numbers(value, where, shape=None, whole=False, error=ConfigError) -> np.ndarray:
    """The number rule for JSON input: `value`, a number or a rectangular
    nested list of numbers (never a bool, string, null or object), as an
    array of `shape` if given (None matches any length): float64, or exact
    int64 if `whole` (4.0 is an integer; one outside int64 is refused);
    else `error` naming `where`.  NaN or inf raises NonFiniteError among
    reals, `error` among integers."""
    try:
        array = np.asarray(value)
    except ValueError:   # ragged nested lists
        array = None
    scalar = shape == () or (shape is None and getattr(array, "ndim", 1) == 0)
    if scalar:
        rule = f"{where} must be {'an integer' if whole else 'a number'}, got {value!r:.40}"
    else:
        rule = f"{where} must {'be integers' if whole else 'hold only numbers'}"
    if shape is not None and (array is None or array.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, array.shape))):
        shown = str(tuple("n" if want is None else want for want in shape)).replace("'", "")
        raise error(rule if scalar else f"{where} must have shape {shown}")
    if (array is None or array.dtype.kind not in "iuf"
            or (array.ndim and _holds_bool(value, array.ndim))):
        reals = _python_reals(array)
        if reals and not whole:
            try:
                return check_finite(np.array(reals, dtype=np.float64).reshape(array.shape), where)
            except OverflowError:   # an int past float64's range, as 1e400 reads as inf
                raise NonFiniteError(f"{where} holds NaN or infinite values") from None
        if reals and all(type(x) is int or x.is_integer() for x in reals) and any(
                type(x) is int and not -2**63 <= x < 2**63 for x in reals):
            raise error(f"{where} holds an integer outside int64")
        raise error(rule)
    if not whole:
        return check_finite(array, where)
    if not np.isfinite(array).all():
        raise error(f"{where}: cannot convert float "
                    f"{'NaN' if np.isnan(array).any() else 'infinity'} to integer")
    if (array % 1).any():
        raise error(rule)
    if isinstance(value, np.ndarray | np.generic):
        value = value.tolist()   # numpy's own cast would wrap or warn out of range
    try:   # from the Python numbers: `array` rounds integers listed with floats
        return np.asarray(value, dtype=np.int64)
    except OverflowError:
        raise error(f"{where} holds an integer outside int64") from None


@functools.cache
def _number_fields(cls) -> tuple[tuple[str, type], ...]:
    """(name, numbers ABC) of each field annotated `int` or `float` (or its string)."""
    return tuple((f.name, numbers.Integral if f.type in (int, "int") else numbers.Real)
                 for f in dataclasses.fields(cls) if f.type in (int, "int", float, "float"))


def check_fields(obj, positive=(), at_most_one=(), signed=(), where=None) -> None:
    """Raise ConfigError unless every `int` field of the dataclass `obj` holds
    a whole number in int64 and every `float` field a real one finite in
    float64 (never a bool), >= 0 unless named in `signed`, > 0 if in
    `positive`, <= 1 if in `at_most_one`."""
    where = where or type(obj).__name__
    for name, kind in _number_fields(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "whole" if kind is numbers.Integral else "real"
            raise ConfigError(f"{where}: {name} must be a {noun} number, got {value!r}")
        if kind is numbers.Integral and not -2**63 <= value < 2**63:
            raise ConfigError(f"{where}: {name} holds an integer outside int64")
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an int past float64's range
            raise ConfigError(f"{where}: {name} lies outside float64's range") from None
        if not finite:
            raise ConfigError(f"{where}: {name}={value!r} is not a finite number")
        if name in positive and value <= 0:
            raise ConfigError(f"{where}: {name} must be > 0, got {value!r}")
        if name not in signed and value < 0:
            raise ConfigError(f"{where}: {name} must be >= 0, got {value!r}")
        if name in at_most_one and value > 1:
            raise ConfigError(f"{where}: {name} must be <= 1, got {value!r}")
