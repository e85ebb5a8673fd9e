"""Dense kernels and seeded sampling that everything else builds on.

Matrices are plain 2-D numpy arrays, row-major, batch in the leading
dimension. Training runs in float32 by default; gradient checking requires
float64.
"""

import numpy as np

DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}   # also the checkpoint byte codes

_MASK64 = (1 << 64) - 1


class NumericalError(ArithmeticError):
    """Raised when a computation produced non-finite values it cannot recover from."""


def _mix64(x):
    # splitmix64 finalizer; stable across platforms, used to derive stream seeds
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngState:
    """Counter-based deterministic random stream.

    Every draw keys a Philox generator with (seed, counter) and bumps the
    counter, so a stream is fully described by two integers and can be
    replayed bit-exactly from a checkpoint. The generator is built once;
    later draws reset it to a fresh generator's state under the new key,
    which skips the OS entropy pull that building one costs.
    """

    def __init__(self, seed, counter=0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter)
        self._generator = None

    def _next_generator(self):
        key = np.array([self.seed, self.counter], dtype=np.uint64)
        self.counter += 1
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(key=key))
            self._fresh_state = self._generator.bit_generator.state
        else:
            self._fresh_state["state"]["key"] = key
            self._generator.bit_generator.state = self._fresh_state
        return self._generator

    def uniform(self, shape):
        """Uniform float64 draws in [0, 1)."""
        return self._next_generator().random(shape)

    def integers(self, low, high, size=None):
        """Uniform integers in [low, high)."""
        return self._next_generator().integers(low, high, size=size)

    def fork(self, tag):
        """Independent stream keyed by (seed, tag); this stream is untouched."""
        return RngState(_mix64(self.seed ^ _mix64(tag)))

    def state(self):
        return (self.seed, self.counter)

    def __repr__(self):
        return f"RngState(seed={self.seed}, counter={self.counter})"


def softmax_rows(y, out=None):
    """Softmax over the last axis with max subtraction so large logits cannot
    overflow. Any leading shape is accepted: a (B, M) step or a (k, B, M)
    block of steps, each row rounding as it would alone."""
    # the ufunc reductions y.max and e.sum call, without their Python wrappers
    e = np.exp(y - np.maximum.reduce(y, axis=-1, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def sample_bernoulli(probs, rng):
    """Binary matrix with entrywise P(1) = probs; advances rng by one draw.

    The underlying uniforms are always float64, so the sampled pattern for a
    given (seed, counter) does not depend on the model precision.
    """
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
        raise ValueError(
            f"bernoulli probabilities outside [0, 1]: min={probs.min()}, max={probs.max()}"
        )
    u = rng.uniform(probs.shape)
    return (u < probs).astype(probs.dtype)
