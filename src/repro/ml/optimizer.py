"""Mini-batch SGD for hashed-feature logistic regression."""

from __future__ import annotations


import numpy as np

from repro.ml.backends import SERVER_BACKEND, NumericBackend


class SGD:
    """Stochastic gradient descent over multi-hot hashed features.

    Parameters
    ----------
    learning_rate:
        Step size (the paper uses 1e-3).
    l2:
        Weight-decay coefficient applied to the weight vector (not the
        intercept).
    batch_size:
        Mini-batch size; batches beyond the final full one keep the
        remainder (no records are dropped).
    """

    def __init__(self, learning_rate: float = 1e-3, l2: float = 0.0, batch_size: int = 32) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if l2 < 0:
            raise ValueError("l2 must be >= 0")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)
        self.batch_size = int(batch_size)

    def run_epoch(
        self,
        weights: np.ndarray,
        bias: float,
        features: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator | None = None,
        backend: NumericBackend = SERVER_BACKEND,
    ) -> tuple[np.ndarray, float]:
        """One pass over the data; returns updated ``(weights, bias)``.

        The forward pass (scores, sigmoid) runs in the backend's precision
        so that server/device implementations diverge realistically, while
        the parameter update accumulates in float64 master weights — the
        standard mixed-precision training recipe.
        """
        if len(features) != len(labels):
            raise ValueError("features and labels must align")
        n_records = len(labels)
        weights = np.array(weights, dtype=np.float64, copy=True)
        bias = float(bias)
        order = np.arange(n_records) if rng is None else rng.permutation(n_records)
        for start in range(0, n_records, self.batch_size):
            batch = order[start : start + self.batch_size]
            batch_features = features[batch]
            batch_labels = labels[batch].astype(np.float64)
            scores = backend.gather_scores(weights, bias, batch_features)
            probabilities = backend.sigmoid(scores).astype(np.float64)
            errors = probabilities - batch_labels  # dL/dscore
            # Scatter-add gradients to the touched hash buckets.
            gradient = np.zeros_like(weights)
            np.add.at(gradient, batch_features.ravel(), np.repeat(errors, batch_features.shape[1]))
            gradient /= len(batch)
            if self.l2 > 0.0:
                gradient += self.l2 * weights
            weights -= self.learning_rate * gradient
            bias -= self.learning_rate * float(errors.mean())
        return weights, bias

    def run_epochs(
        self,
        weights: np.ndarray,
        bias: float,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        rng: np.random.Generator | None = None,
        backend: NumericBackend = SERVER_BACKEND,
    ) -> tuple[np.ndarray, float]:
        """Run ``epochs`` sequential epochs (the paper's local loop of 10)."""
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        for _ in range(epochs):
            weights, bias = self.run_epoch(weights, bias, features, labels, rng=rng, backend=backend)
        return weights, bias

    def run_epochs_block(
        self,
        weights: np.ndarray,
        biases: np.ndarray,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        rngs: list[np.random.Generator | None] | None = None,
        backend: NumericBackend = SERVER_BACKEND,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Train a stacked block of devices in lock-step.

        ``weights`` is ``(n_devices, dim)``, ``biases`` ``(n_devices,)``,
        ``features`` ``(n_devices, n_records, n_fields)`` and ``labels``
        ``(n_devices, n_records)`` — every device in the block holds the
        same number of records, which is what lets the whole mini-batch
        loop run as a handful of array operations per step instead of a
        Python loop per device.

        Device ``d``'s result is bit-identical to
        ``run_epochs(weights[d], biases[d], features[d], labels[d], ...,
        rng=rngs[d])``: shuffles come from the same per-device generators
        in the same order, the forward pass reduces field-by-field in the
        backend's precision exactly as the scalar path does, and the
        scatter-add accumulates each device's gradient contributions in
        the same element order (devices occupy disjoint slices of one flat
        gradient buffer).
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if features.ndim != 3:
            raise ValueError("features must be 3-D (devices x records x fields)")
        if features.shape[:2] != labels.shape:
            raise ValueError("features and labels must align")
        n_devices, n_records, n_fields = features.shape
        weights = np.array(weights, dtype=np.float64, copy=True)
        biases = np.array(biases, dtype=np.float64, copy=True)
        if n_records == 0 or n_devices == 0:
            return weights, biases
        dim = weights.shape[1]
        row_offsets = (np.arange(n_devices, dtype=np.intp) * dim)[:, None]
        for _ in range(epochs):
            orders = (
                np.broadcast_to(np.arange(n_records), (n_devices, n_records))
                if rngs is None
                else np.stack(
                    [
                        rng.permutation(n_records) if rng is not None else np.arange(n_records)
                        for rng in rngs
                    ]
                )
            )
            for start in range(0, n_records, self.batch_size):
                batch = orders[:, start : start + self.batch_size]
                batch_features = np.take_along_axis(features, batch[:, :, None], axis=1)
                batch_labels = np.take_along_axis(labels, batch, axis=1).astype(np.float64)
                scores = backend.gather_scores_block(weights, biases, batch_features)
                probabilities = backend.sigmoid(scores).astype(np.float64)
                errors = probabilities - batch_labels  # (n_devices, batch)
                # One flat scatter-add; device d's contributions land in its
                # own dim-sized slice, in the scalar path's element order.
                gradient = np.zeros(n_devices * dim, dtype=np.float64)
                flat_indices = (batch_features.reshape(n_devices, -1) + row_offsets).ravel()
                np.add.at(gradient, flat_indices, np.repeat(errors, n_fields, axis=1).ravel())
                gradient = gradient.reshape(n_devices, dim)
                gradient /= batch.shape[1]
                if self.l2 > 0.0:
                    gradient += self.l2 * weights
                weights -= self.learning_rate * gradient
                biases -= self.learning_rate * errors.mean(axis=1)
        return weights, biases
