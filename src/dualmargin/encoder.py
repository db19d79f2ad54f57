"""Small tanh MLP feature encoder with manual backpropagation.

Hidden layers use tanh, a smooth nonlinearity, so finite-difference
gradient checks are well behaved; the final layer is linear so embedding
norms genuinely vary across samples.

``forward`` returns the embeddings and the activations list: the input to
each layer, then the embeddings, so ``activations[l]`` feeds layer l and
``backward`` reads the list back. Each layer's output is computed in
place: the bias is added into the matmul result and the tanh is written
over it, so a layer allocates one array and the list holds exactly those
arrays. The caller's features are never written.

The backward pass writes each layer's weight and bias gradients into
buffers the caller provides: the trainer makes them once per run, as views
of its flat gradient buffer, so a step allocates no gradient arrays and
gathers none. Only parameter gradients are computed; nothing needs the
gradient wrt the input features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError


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


def forward(params: EncoderParams, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map (n, input_dim) features to (n, d) raw embeddings and the activations."""
    features = np.asarray(features, dtype=np.float64)
    if not np.isfinite(features).all():
        bad = ~np.isfinite(features).all(axis=1)
        raise NumericalError(
            f"encoder.forward: non-finite input at sample {int(np.flatnonzero(bad)[0])}")
    if features.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"encoder.forward: feature width {features.shape[1]} != input dim {params.weights[0].shape[1]}"
        )
    num_layers = len(params.weights)
    activations = [features]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = activations[-1] @ w.T
        z += b
        if l < num_layers - 1:
            np.tanh(z, out=z)
        activations.append(z)
    return activations[-1], activations


def backward(
    params: EncoderParams,
    activations: list[np.ndarray],
    grad_embeddings: np.ndarray,
    out: list[tuple[np.ndarray, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradients wrt the parameters, written into ``out`` and returned.

    ``out[l]`` is the ``(dW, db)`` pair of layer l: C-contiguous float64
    arrays shaped like ``params.weights[l]`` and ``params.biases[l]``.
    """
    grad_embeddings = np.asarray(grad_embeddings, dtype=np.float64)
    if grad_embeddings.shape != activations[-1].shape:
        raise ValueError("encoder.backward: upstream gradient shape mismatch")
    delta = grad_embeddings
    for l in range(len(params.weights) - 1, -1, -1):
        dw, db = out[l]
        np.matmul(delta.T, activations[l], out=dw)
        np.add.reduce(delta, axis=0, out=db)
        if l:
            delta = delta @ params.weights[l]
            a = activations[l]
            grad = a * a  # tanh' is 1 - a^2, from the layer's output a
            delta *= np.subtract(1.0, grad, out=grad)
    return out
