"""Exception types shared across the library."""


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
