"""Small tanh MLP feature encoder with manual backpropagation.

Hidden layers use tanh, a smooth nonlinearity, so finite-difference
gradient checks are well behaved; the final layer is linear so embedding
norms genuinely vary across samples.

``forward`` returns the embeddings and the activations list: the input to
each layer, then the embeddings, so ``activations[l]`` feeds layer l and
``backward`` reads the list back. Each layer's output is computed in
place: the bias is added into the matmul result and the tanh is written
over it, so a layer needs one array and the list holds exactly those
arrays. The caller's features are never written. Both passes compute in
the dtype of their inputs: float32 in the training step (whose parameters
are a float32 working copy), float64 in evaluation.

Both passes write into arrays the caller may provide, and make them only
where it does not: ``forward``'s layer outputs, and ``backward``'s weight
and bias gradients, back-propagated deltas and tanh-derivative scratch.
The trainer makes them once per run, as views of its flat gradient buffer
and of its work buffer, and evaluation once per scoring call, so a
training step allocates no array of the batch's size and gathers no
gradients. Only parameter gradients are computed; nothing needs the
gradient wrt the input features.

Each pass hands its kernels to ``parallel``, which, given the training
run's helper (``parallel.Helper``), computes a large one as two parts: the
forward pass in row halves (``parallel.halves``), and a layer's weight
gradient beside the propagation below it (``parallel.pair``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError
from .parallel import Helper, halves, pair


@dataclass
class EncoderParams:
    weights: list[np.ndarray]  # layer l: (out_dim, in_dim)
    biases: list[np.ndarray]

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


def init_params(dims: list[int], seed: int) -> EncoderParams:
    """Deterministic variance-scaled uniform init; biases zero."""
    if len(dims) < 2:
        raise ValueError("init_params: need at least input and output widths")
    if any(d <= 0 for d in dims):
        raise ValueError(f"init_params: widths must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights=weights, biases=biases)


def _layers(activations: list, params: EncoderParams) -> None:
    """Every layer of the rows ``activations[0]``: layer l's output,
    ``activations[l] @ w.T + b`` and then tanh in all but the last layer, is
    computed in ``activations[l + 1]``."""
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = np.matmul(activations[l], w.T, out=activations[l + 1])
        x += b
        if l < last:
            np.tanh(x, out=x)


def forward(params: EncoderParams, features: np.ndarray, helper: Helper | None = None,
            out: list[np.ndarray] | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map (n, input_dim) features to (n, d) raw embeddings and the activations.

    ``parallel.halves`` computes it whole, or, given the ``helper`` and
    enough work, in two row halves at once, whose bits a BLAS may make
    differ from the whole's. The activations take the dtype the features
    and weights promote to. ``out`` holds one C-contiguous (n, width) array
    of that dtype per layer, which the layers' outputs are written into
    (without a helper, one may share memory with the one two layers down);
    without it they are made here.
    """
    features = np.asarray(features)
    if not np.logical_and.reduce(np.isfinite(features), axis=None):
        bad = ~np.isfinite(features).all(axis=1)
        raise NumericalError(
            f"encoder.forward: non-finite input at sample {int(np.flatnonzero(bad)[0])}")
    if features.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"encoder.forward: feature width {features.shape[1]} != input dim {params.weights[0].shape[1]}"
        )
    rows = features.shape[0]
    if out is None:
        dtype = np.result_type(features, params.weights[0])
        out = [np.empty((rows, w.shape[0]), dtype) for w in params.weights]
    activations = [features, *out]
    halves(helper, rows * sum(w.size for w in params.weights), _layers, (activations,), params)
    return activations[-1], activations


def _param_grads(delta: np.ndarray, a: np.ndarray, dw: np.ndarray, db: np.ndarray) -> None:
    """A layer's weight and bias gradients from its output gradient ``delta``
    and its input ``a``, written into ``dw`` and ``db``."""
    np.matmul(delta.T, a, out=dw)
    np.add.reduce(delta, axis=0, out=db)


def _propagate(delta: np.ndarray, a: np.ndarray, w: np.ndarray, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """The output gradient of the layer below the one with output gradient
    ``delta``, weights ``w`` and input ``a``, a tanh output, written into
    ``out``; ``scratch``, shaped like ``a``, holds tanh's derivative."""
    np.matmul(delta, w, out=out)
    grad = np.multiply(a, a, out=scratch)  # tanh' is 1 - a^2, from the layer's output a
    out *= np.subtract(1.0, grad, out=grad)
    return out


def backward(
    params: EncoderParams,
    activations: list[np.ndarray],
    grad_embeddings: np.ndarray,
    out: list[tuple[np.ndarray, np.ndarray]],
    helper: Helper | None = None,
    work: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradients wrt the parameters, written into ``out`` and returned.

    ``out[l]`` is the ``(dW, db)`` pair of layer l: C-contiguous arrays
    shaped like ``params.weights[l]`` and ``params.biases[l]``, of the
    activations' dtype. ``work[l]``, for each layer l above the first, is a
    pair of C-contiguous arrays shaped like ``activations[l]``: the delta
    propagated to layer l - 1's output, and the scratch it is computed with
    (layers may share a scratch, not a delta); without it they are made here.
    Each layer's ``dW`` and the propagation to the layer below are two
    independent calls (``parallel.pair``), made at once given the ``helper``
    and enough work; the first layer's, with nothing to propagate, is alone.
    """
    if grad_embeddings.shape != activations[-1].shape:
        raise ValueError("encoder.backward: upstream gradient shape mismatch")
    if work is None:
        work = [None, *((np.empty_like(a), np.empty_like(a)) for a in activations[1:-1])]
    delta = grad_embeddings
    for l in range(len(params.weights) - 1, 0, -1):
        dw, db = out[l]
        a = activations[l]
        # dW and db read delta while the propagation writes the next one.
        delta = pair(helper, delta.shape[0] * dw.size, _param_grads, (delta, a, dw, db),
                     _propagate, (delta, a, params.weights[l], *work[l]))
    _param_grads(delta, activations[0], *out[0])  # nothing to propagate beside it
    return out
