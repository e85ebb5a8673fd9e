"""Parameter initialization and Adadelta updates.

Adadelta here is the learning-rate-scaled form: the canonical accumulator
ratio is multiplied by an explicit lr (TrainConfig.lr) before being applied.
"""

import numpy as np

from .cell import GradientSet, require
from .numerics import NumericalError

# elements per Adadelta piece: 256 KiB of f32, 512 KiB of f64
ADADELTA_CHUNK = 1 << 16


def xavier_init(params, rng):
    """Fill every weight matrix uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)).

    Biases start at zero except the erase-gate bias b_f, which starts at 1 so
    fresh cells barely erase. The standard variant keeps its surprisal
    weights V_* at zero. Draw order follows PARAM_KEYS, so equal seeds give
    bit-identical parameters.
    """
    for name, block in params.blocks():
        if name == "b_f":
            block.fill(1.0)
        elif block.ndim == 1:
            block.fill(0.0)
        else:
            fan_out, fan_in = block.shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            draw = rng.uniform(block.shape) * (2.0 * a) - a
            if name.startswith("V_") and params.variant == "standard":
                # burn the draw anyway: equal seeds then give every variant
                # identical W/U/b/W_y, which keeps ablations comparable
                block.fill(0.0)
            else:
                block[...] = draw.astype(block.dtype)
    return params


class AdadeltaState:
    """Running E[g^2] and E[dx^2] accumulators in the ModelParams layout and a
    TrainConfig's rho, eps and lr; both accumulators start at zero unless an
    (E[g^2], E[dx^2]) pair, such as a checkpoint's, is adopted through them."""

    def __init__(self, params, cfg, accumulators=None):
        cfg.validate()
        self.rho = float(cfg.rho)
        self.eps = float(cfg.eps)
        self.lr = float(cfg.lr)
        self.eg2, self.edx2 = accumulators or (GradientSet.zeros_like(params),
                                               GradientSet.zeros_like(params))


def adadelta_step(params, grads, state):
    """One Adadelta update in place; returns params.

    The E[dx^2] accumulator tracks the unscaled accumulator-ratio step and lr
    only scales the applied update, the same convention the major frameworks
    use; lr=1 recovers the canonical method. Each trainable slice of the flat
    buffers is updated in ADADELTA_CHUNK-element pieces, which keeps the
    temporaries cache-sized; the update is elementwise, so the bits do not
    depend on the piece size. Non-finite gradients abort with the offending
    block named rather than poisoning the accumulators.
    """
    rho, eps, lr = state.rho, state.eps, state.lr
    for sl in params.trainable_slices():
        g_all = grads.flat[sl]
        if not np.all(np.isfinite(g_all)):
            name = next(k for k in params.trainable_keys()
                        if not np.all(np.isfinite(getattr(grads, k))))
            raise NumericalError(f"non-finite gradient in block {name}")
        p_all, eg2_all, edx2_all = params.flat[sl], state.eg2.flat[sl], state.edx2.flat[sl]
        for a in range(0, g_all.shape[0], ADADELTA_CHUNK):
            piece = slice(a, a + ADADELTA_CHUNK)
            g, eg2, edx2 = g_all[piece], eg2_all[piece], edx2_all[piece]
            eg2 *= rho
            eg2 += (1.0 - rho) * g * g
            delta = np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
            edx2 *= rho
            edx2 += (1.0 - rho) * delta * delta
            p_all[piece] -= lr * delta
    return params


def clip_gradients(grads, max_norm):
    """Rescale all blocks together if the global L2 norm exceeds max_norm."""
    require("max_norm", max_norm, max_norm > 0, "be positive")
    norm = grads.global_norm()
    if norm > max_norm:
        grads.flat *= max_norm / norm
    return grads
