"""Linear concept-bottleneck classifier and its joint training objective.

The bottleneck maps an image embedding to per-concept logits; the head
consumes the sigmoid concept activations, so the class prediction depends on
the input only through the concept scores. Training minimizes

    concept BCE + gamma1 * task CE + gamma2 * elastic_net(head weights)

by mini-batch gradient descent with analytic gradients. Everything runs in
float64 numpy and is bit-deterministic for a fixed seed and batch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    "loss_concept",
    "loss_task",
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


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


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
    l1_proximal: bool = False  # soft-threshold step instead of L1 subgradient

    def __post_init__(self) -> None:
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("gamma1 and gamma2 must be >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0,1], got {self.beta}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")


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


def forward(model: CbmModel, embedding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample forward pass: (concept logits, class logits).

    Class logits are computed from the sigmoid concept activations, never
    from the embedding directly.
    """
    z = np.asarray(embedding, dtype=np.float64)
    if z.shape != (model.embedding_dim,):
        raise DataError(
            f"embedding shape {z.shape} != ({model.embedding_dim},)"
        )
    concept_logits = model.concept_weights @ z + model.concept_bias
    class_logits = model.head_weights @ sigmoid(concept_logits) + model.head_bias
    return concept_logits, class_logits


def _forward_batch(model: CbmModel, Z: np.ndarray):
    U = Z @ model.concept_weights.T + model.concept_bias
    A = sigmoid(U)
    V = A @ model.head_weights.T + model.head_bias
    return U, A, V


def _bce(U: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean(_softplus(U) - targets * U))


def _cross_entropy(V: np.ndarray, labels: np.ndarray) -> float:
    vmax = V.max(axis=1, keepdims=True)
    lse = vmax[:, 0] + np.log(np.sum(np.exp(V - vmax), axis=1))
    picked = V[np.arange(len(V)), labels]
    return float(np.mean(lse - picked))


def loss_concept(model: CbmModel, batch: Batch) -> float:
    """Binary cross entropy between concept activations and labels, averaged over samples and concepts."""
    U, _, _ = _forward_batch(model, batch.embeddings)
    return _bce(U, batch.concept_targets)


def loss_task(model: CbmModel, batch: Batch) -> float:
    """Softmax cross entropy of the class logits, averaged over samples."""
    _, _, V = _forward_batch(model, batch.embeddings)
    return _cross_entropy(V, batch.labels)


def regularizer(model: CbmModel, beta: float) -> float:
    """Elastic net on the head weights: (1-beta) * 0.5 * ||W||_2^2 + beta * ||W||_1."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0,1], got {beta}")
    W = model.head_weights
    return float((1.0 - beta) * 0.5 * np.sum(W * W) + beta * np.sum(np.abs(W)))


def objective(model: CbmModel, batch: Batch, config: TrainConfig) -> float:
    return (
        loss_concept(model, batch)
        + config.gamma1 * loss_task(model, batch)
        + config.gamma2 * regularizer(model, config.beta)
    )


@dataclass(eq=False)
class Gradients:
    concept_weights: np.ndarray
    concept_bias: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray


def gradients(
    model: CbmModel, batch: Batch, config: TrainConfig, *, include_l1: bool = True
) -> Gradients:
    """Analytic gradient of the full objective on the batch.

    The L1 part uses the subgradient convention sign(0) = 0; pass
    ``include_l1=False`` to get only the smooth part (used by the proximal
    update).
    """
    n, k = batch.concept_targets.shape
    Z = batch.embeddings
    U, A, V = _forward_batch(model, Z)

    # Concept BCE: d/dU mean(softplus(U) - O*U) = (sigmoid(U) - O) / (n*k)
    dU = (A - batch.concept_targets) / (n * k)

    # Task CE: d/dV mean(lse(V) - V_y) = (softmax(V) - onehot) / n
    vmax = V.max(axis=1, keepdims=True)
    expv = np.exp(V - vmax)
    dV = expv / expv.sum(axis=1, keepdims=True)
    dV[np.arange(n), batch.labels] -= 1.0
    dV *= config.gamma1 / n

    dA = dV @ model.head_weights
    dU += dA * A * (1.0 - A)

    dW_head = dV.T @ A
    db_head = dV.sum(axis=0)
    dW_concept = dU.T @ Z
    db_concept = dU.sum(axis=0)

    W = model.head_weights
    dW_head = dW_head + config.gamma2 * (1.0 - config.beta) * W
    if include_l1:
        dW_head = dW_head + config.gamma2 * config.beta * np.sign(W)
    return Gradients(dW_concept, db_concept, dW_head, db_head)


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


def _soft_threshold(W: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(W) * np.maximum(np.abs(W) - amount, 0.0)


def train(
    dataset: Sequence[ConceptLabeledSample],
    vocab: ConceptVocabulary,
    config: TrainConfig,
    *,
    n_classes: "int | None" = None,
) -> tuple[CbmModel, list[TrainLogRow]]:
    """Fit the bottleneck and head jointly by mini-batch gradient descent.

    Returns the final model (frozen read-only) and a per-epoch log of the
    full-dataset objective components; row 0 records the initialization.
    """
    if len(dataset) == 0:
        raise DataError("training dataset is empty")
    k = len(vocab)
    if k < 1:
        raise DataError("vocabulary is empty")
    full = make_batch(dataset)
    if full.concept_targets.shape[1] != k:
        raise DataError(
            f"concept vectors have length {full.concept_targets.shape[1]}, "
            f"vocabulary has {k}"
        )
    L = int(n_classes) if n_classes is not None else int(full.labels.max()) + 1
    if L < 2:
        raise DataError(f"need at least 2 classes, got {L}")
    if int(full.labels.max()) >= L:
        raise DataError("class label outside declared class count")
    d = full.embeddings.shape[1]
    n = len(full)

    rng = np.random.default_rng(config.rng_seed)
    model = _init_model(d, k, L, rng)
    velocity = Gradients(
        np.zeros_like(model.concept_weights),
        np.zeros_like(model.concept_bias),
        np.zeros_like(model.head_weights),
        np.zeros_like(model.head_bias),
    )

    def log_row(epoch: int) -> TrainLogRow:
        U, _, V = _forward_batch(model, full.embeddings)
        lc = _bce(U, full.concept_targets)
        ly = _cross_entropy(V, full.labels)
        reg = regularizer(model, config.beta)
        return TrainLogRow(epoch, lc, ly, reg, lc + config.gamma1 * ly + config.gamma2 * reg)

    log = [log_row(0)]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            batch = Batch(
                embeddings=full.embeddings[rows],
                concept_targets=full.concept_targets[rows],
                labels=full.labels[rows],
            )
            grad = gradients(model, batch, config, include_l1=not config.l1_proximal)
            for vel, g, param in (
                (velocity.concept_weights, grad.concept_weights, model.concept_weights),
                (velocity.concept_bias, grad.concept_bias, model.concept_bias),
                (velocity.head_weights, grad.head_weights, model.head_weights),
                (velocity.head_bias, grad.head_bias, model.head_bias),
            ):
                vel *= config.momentum
                vel += g
                param -= config.learning_rate * vel
            if config.l1_proximal:
                model.head_weights[:] = _soft_threshold(
                    model.head_weights,
                    config.learning_rate * config.gamma2 * config.beta,
                )
        row = log_row(epoch)
        if not np.isfinite(row.total):
            raise TrainingDivergedError(
                f"objective diverged at epoch {epoch}: total={row.total} "
                f"(learning rate {config.learning_rate} likely too large)"
            )
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
    pairs = (
        (work.concept_weights, analytic.concept_weights),
        (work.concept_bias, analytic.concept_bias),
        (work.head_weights, analytic.head_weights),
        (work.head_bias, analytic.head_bias),
    )
    worst = 0.0
    for param, grad in pairs:
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
