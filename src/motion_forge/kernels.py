"""Shared numeric kernels: softmax, log-sum-exp, activations and the MLP.

Every softmax, log-sum-exp and MLP forward in the library runs here, each
written once with a fixed order of operations, so changing how one is
computed changes this module only.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionMismatchError

# One MLP: a (weight (out, in), bias (out,)) pair per layer; linear head.
MLPParams = list[tuple[np.ndarray, np.ndarray]]


def softmax_(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a float64 array, in place; returns x.  The
    row max is subtracted first, so no exp overflows and -inf gets weight 0."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def log_sum_exp(x: np.ndarray):
    """log(sum(exp(x))) over the last axis, shifted by the max so no exp overflows."""
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.add.reduce(np.exp(x - m), axis=-1))


def elu(x: np.ndarray) -> np.ndarray:
    """expm1(min(x, 0)) + max(x, 0) in three calls and one temporary; equal
    bit for bit, signed zeros included, to `where(x > 0, x, expm1(min(x, 0)))`."""
    out = np.minimum(x, 0.0)
    np.expm1(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation; x * x * x, because numpy's x**3 is a slow pow() per element
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def silu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):   # exp(-x) = inf below about -709: the limit, -0.0
        return x / (1.0 + np.exp(-x))


def mlp_forward(params: MLPParams, x: np.ndarray, activation=elu) -> np.ndarray:
    """Evaluate an MLP with `activation` on every hidden layer; broadcasts
    over leading axes of x.  The bias is added in place to each layer's
    fresh product.  An input of the wrong width raises DimensionMismatchError."""
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
            x = activation(x)
    return x


def init_mlp(
    rng: np.random.Generator,
    input_dim: int,
    hidden: tuple[int, ...],
    output_dim: int,
    scale: float = 0.2,
) -> MLPParams:
    dims = [input_dim, *hidden, output_dim]   # one weight draw per layer, in order
    return [(rng.normal(0.0, scale / np.sqrt(d_in), (d_out, d_in)), np.zeros(d_out))
            for d_in, d_out in zip(dims[:-1], dims[1:])]


def clone_mlp(params: MLPParams) -> MLPParams:
    return [(w.copy(), b.copy()) for w, b in params]
