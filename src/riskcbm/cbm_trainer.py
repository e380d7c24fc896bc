"""Linear concept-bottleneck classifier and its joint training objective.

The bottleneck maps an image embedding to per-concept logits; the head
consumes the sigmoid concept activations, so the class prediction depends on
the input only through the concept scores. Training minimizes

    concept BCE + gamma1 * task CE + gamma2 * elastic_net(head weights)

by mini-batch gradient descent with analytic gradients. Everything runs in
float64 numpy and is bit-deterministic for a fixed seed and batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import DataError, NumericError
from .dataset_builder import ConceptLabeledSample, ConceptVocabulary

__all__ = [
    "CbmModel",
    "TrainConfig",
    "Batch",
    "TrainLogRow",
    "TrainingDivergedError",
    "sigmoid",
    "forward",
    "regularizer",
    "objective",
    "gradients",
    "train",
    "gradient_check",
    "make_batch",
]


class TrainingDivergedError(NumericError):
    """The training objective became non-finite."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp only ever of a non-positive argument."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass(eq=False)
class CbmModel:
    """Bottleneck map (embedding -> concept logits) plus linear head on activations."""

    concept_weights: np.ndarray  # (k, d)
    concept_bias: np.ndarray  # (k,)
    head_weights: np.ndarray  # (L, k)
    head_bias: np.ndarray  # (L,)

    def __post_init__(self) -> None:
        self.concept_weights = np.array(self.concept_weights, dtype=np.float64, copy=True)
        self.concept_bias = np.array(self.concept_bias, dtype=np.float64, copy=True)
        self.head_weights = np.array(self.head_weights, dtype=np.float64, copy=True)
        self.head_bias = np.array(self.head_bias, dtype=np.float64, copy=True)
        k, d = self.concept_weights.shape
        L = self.head_weights.shape[0]
        if self.concept_bias.shape != (k,):
            raise DataError(f"concept bias shape {self.concept_bias.shape} != ({k},)")
        if self.head_weights.shape != (L, k):
            raise DataError(f"head weight shape {self.head_weights.shape} != ({L}, {k})")
        if self.head_bias.shape != (L,):
            raise DataError(f"head bias shape {self.head_bias.shape} != ({L},)")
        for arr in self._arrays():
            if not np.all(np.isfinite(arr)):
                raise DataError("model parameters must be finite")

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.concept_weights, self.concept_bias, self.head_weights, self.head_bias)

    @property
    def embedding_dim(self) -> int:
        return self.concept_weights.shape[1]

    @property
    def num_concepts(self) -> int:
        return self.concept_weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.head_weights.shape[0]

    def clone(self) -> "CbmModel":
        return CbmModel(*self._arrays())

    def freeze(self) -> "CbmModel":
        for arr in self._arrays():
            arr.setflags(write=False)
        return self


@dataclass(frozen=True)
class TrainConfig:
    gamma1: float = 1.0  # task-loss weight
    gamma2: float = 1e-4  # regularization weight
    beta: float = 0.5  # elastic-net mix: 0 = ridge, 1 = lasso
    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 64
    rng_seed: int = 0
    momentum: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma1", "gamma2", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0,1], got {self.beta}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(eq=False)
class Batch:
    embeddings: np.ndarray  # (n, d)
    concept_targets: np.ndarray  # (n, k) in {0,1}
    labels: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.concept_targets = np.asarray(self.concept_targets, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if len(self.embeddings) == 0:
            raise DataError("batch must be nonempty")

    def __len__(self) -> int:
        return len(self.embeddings)


def make_batch(samples: Sequence[ConceptLabeledSample]) -> Batch:
    return Batch(
        embeddings=np.stack([s.image_embedding for s in samples]),
        concept_targets=np.stack([s.concept_vector for s in samples]),
        labels=np.array([s.label for s in samples]),
    )


def forward(
    model: CbmModel, embeddings: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass over an (n, d) batch: (concept logits, sigmoid concept
    activations, class logits), one row per sample.

    Class logits are computed from the activations, never from the
    embeddings directly.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.embedding_dim:
        raise DataError(
            f"embedding shape {Z.shape[1:]} != ({model.embedding_dim},)"
        )
    U = Z @ model.concept_weights.T + model.concept_bias
    A = sigmoid(U)
    V = A @ model.head_weights.T + model.head_bias
    return U, A, V


def _bce(U: np.ndarray, targets: np.ndarray) -> float:
    """mean(softplus(U) - O*U), softplus in the stable form `sigmoid` uses."""
    softplus = np.maximum(U, 0.0) + np.log1p(np.exp(-np.abs(U)))
    return float(np.mean(softplus - targets * U))


def _cross_entropy(V: np.ndarray, labels: np.ndarray) -> float:
    vmax = V.max(axis=1, keepdims=True)
    lse = vmax[:, 0] + np.log(np.sum(np.exp(V - vmax), axis=1))
    picked = V[np.arange(len(V)), labels]
    return float(np.mean(lse - picked))


def regularizer(model: CbmModel, beta: float) -> float:
    """Elastic net on the head weights: (1-beta) * 0.5 * ||W||_2^2 + beta * ||W||_1."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0,1], got {beta}")
    W = model.head_weights
    return float((1.0 - beta) * 0.5 * np.sum(W * W) + beta * np.sum(np.abs(W)))


def _terms(model: CbmModel, batch: Batch, config: TrainConfig) -> tuple[float, ...]:
    """(concept loss, task loss, regularizer, total) from one forward pass."""
    U, _, V = forward(model, batch.embeddings)
    lc = _bce(U, batch.concept_targets)
    ly = _cross_entropy(V, batch.labels)
    reg = regularizer(model, config.beta)
    return lc, ly, reg, lc + config.gamma1 * ly + config.gamma2 * reg


def objective(model: CbmModel, batch: Batch, config: TrainConfig) -> float:
    return _terms(model, batch, config)[3]


class Gradients(NamedTuple):
    """One gradient array per model parameter, in `CbmModel._arrays` order."""

    concept_weights: np.ndarray
    concept_bias: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray


def _views(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views of the contiguous vector `flat`, one per array of `like` and of
    its shape, laid end to end in order."""
    views, start = [], 0
    for arr in like:
        views.append(flat[start : start + arr.size].reshape(arr.shape))
        start += arr.size
    return views


def gradients(model: CbmModel, batch: Batch, config: TrainConfig) -> Gradients:
    """Analytic gradient of the full objective on the batch.

    The L1 part uses the subgradient convention sign(0) = 0.
    """
    arrays = model._arrays()
    grad = Gradients(*_views(np.empty(sum(a.size for a in arrays)), arrays))
    _gradients_into(
        grad, model, batch.embeddings, batch.concept_targets, batch.labels, config
    )
    return grad


def _gradients_into(
    grad: Gradients,
    model: CbmModel,
    Z: np.ndarray,
    targets: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
) -> None:
    """Write `gradients` of the batch (Z, targets, labels) into `grad`'s arrays."""
    n, k = targets.shape
    U, A, V = forward(model, Z)

    # Concept BCE: d/dU mean(softplus(U) - O*U) = (sigmoid(U) - O) / (n*k)
    dU = (A - targets) / (n * k)

    # Task CE: d/dV mean(lse(V) - V_y) = (softmax(V) - onehot) / n
    vmax = V.max(axis=1, keepdims=True)
    expv = np.exp(V - vmax)
    dV = expv / expv.sum(axis=1, keepdims=True)
    dV[np.arange(n), labels] -= 1.0
    dV *= config.gamma1 / n

    dA = dV @ model.head_weights
    dU += dA * A * (1.0 - A)

    np.matmul(dV.T, A, out=grad.head_weights)
    dV.sum(axis=0, out=grad.head_bias)
    np.matmul(dU.T, Z, out=grad.concept_weights)
    dU.sum(axis=0, out=grad.concept_bias)

    W, dW_head = model.head_weights, grad.head_weights
    dW_head += config.gamma2 * (1.0 - config.beta) * W
    dW_head += config.gamma2 * config.beta * np.sign(W)


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    loss_concept: float
    loss_task: float
    regularizer: float
    total: float


def _init_model(d: int, k: int, L: int, rng: np.random.Generator) -> CbmModel:
    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return CbmModel(
        concept_weights=uniform((k, d), d),
        concept_bias=uniform((k,), d),
        head_weights=uniform((L, k), k),
        head_bias=uniform((L,), k),
    )


def _log_epochs(epochs: int) -> set[int]:
    """The epochs `train` logs: 0, every power of two up to `epochs`, and `epochs`."""
    return {0, epochs} | {1 << i for i in range(epochs.bit_length())}


def train(
    dataset: Sequence[ConceptLabeledSample],
    vocab: ConceptVocabulary,
    config: TrainConfig,
    *,
    n_classes: int,
) -> tuple[CbmModel, list[TrainLogRow]]:
    """Fit the bottleneck and head jointly by mini-batch gradient descent.

    Returns the final model (frozen read-only) and a log of the full-dataset
    objective components after epoch 0 (the initialization), every power of
    two up to `config.epochs`, and the last epoch: for 200 epochs, epochs 0,
    1, 2, 4, ..., 128 and 200. Every epoch, the parameters and the
    regularizer must be finite, as must each logged objective; otherwise
    `TrainingDivergedError`. Every label must lie in ``[0, n_classes)``; the
    count is not read off the labels, which may lack the top class.
    """
    if len(dataset) == 0:
        raise DataError("training dataset is empty")
    k = len(vocab)
    if k < 1:
        raise DataError("vocabulary is empty")
    vocab.check_aligned(dataset)
    full = make_batch(dataset)
    L = int(n_classes)
    if L < 2:
        raise DataError(f"need at least 2 classes, got {L}")
    outside = (full.labels < 0) | (full.labels >= L)
    if outside.any():
        i = int(np.argmax(outside))
        raise DataError(
            f"sample {dataset[i].sample_id}: class label {full.labels[i]} outside [0, {L})"
        )
    d = full.embeddings.shape[1]
    n = len(full)

    rng = np.random.default_rng(config.rng_seed)
    model = _init_model(d, k, L, rng)
    # The four parameter arrays, their gradient and their velocity are each
    # views of one contiguous vector, so the update is one pass over each.
    params = np.concatenate([a.ravel() for a in model._arrays()])
    arrays = _views(params, model._arrays())
    model.concept_weights, model.concept_bias, model.head_weights, model.head_bias = arrays
    flat_grad = np.empty_like(params)
    grad = Gradients(*_views(flat_grad, arrays))
    velocity = np.zeros_like(params)
    # Each epoch's permutation of the data, gathered once; a step's batch is
    # a slice of rows.
    Z = np.empty_like(full.embeddings)
    targets = np.empty_like(full.concept_targets)
    labels = np.empty_like(full.labels)

    def diverged(epoch: int, what: str) -> TrainingDivergedError:
        return TrainingDivergedError(
            f"objective diverged at epoch {epoch}: {what} "
            f"(learning rate {config.learning_rate} likely too large)"
        )

    logged = _log_epochs(config.epochs)
    log = [TrainLogRow(0, *_terms(model, full, config))]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        # mode="clip" only so that `take` writes `out` unbuffered; every
        # index is in range.
        full.embeddings.take(order, axis=0, out=Z, mode="clip")
        full.concept_targets.take(order, axis=0, out=targets, mode="clip")
        full.labels.take(order, out=labels, mode="clip")
        for start in range(0, n, config.batch_size):
            rows = slice(start, start + config.batch_size)
            _gradients_into(grad, model, Z[rows], targets[rows], labels[rows], config)
            velocity *= config.momentum
            velocity += flat_grad
            params -= config.learning_rate * velocity
        if not np.isfinite(params).all():
            raise diverged(epoch, "a parameter is not finite")
        reg = regularizer(model, config.beta)
        if not math.isfinite(reg):
            raise diverged(epoch, f"regularizer={reg}")
        if epoch in logged:
            row = TrainLogRow(epoch, *_terms(model, full, config))
            if not math.isfinite(row.total):
                raise diverged(epoch, f"total={row.total}")
            log.append(row)
    return model.freeze(), log


def gradient_check(
    model: CbmModel,
    batch: Batch,
    config: TrainConfig,
    *,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Meant for smooth points: keep |head weight| entries above ~1e-3 so the
    perturbation cannot cross the L1 kink. The relative error is floored at
    scale 1e-4 so finite-difference noise on near-zero entries does not
    register as disagreement.
    """
    work = model.clone()
    analytic = gradients(work, batch, config)
    worst = 0.0
    for param, grad in zip(work._arrays(), analytic):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = objective(work, batch, config)
            flat[i] = saved - step
            lo = objective(work, batch, config)
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * step)
            scale = max(abs(gflat[i]), abs(numeric), 1e-4)
            worst = max(worst, abs(gflat[i] - numeric) / scale)
    return worst
