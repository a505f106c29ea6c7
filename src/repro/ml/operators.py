"""Operator flows — the unit of computation SimDC tasks execute.

§III-A: a task is "a singular operator flow, composed of multiple operators
in a predetermined sequence", executed repeatedly (once per collaboration
round) by every simulated device.  Operators carry a declared ``work``
measure so execution tiers (logical actors, virtual phones) can convert
flow execution into simulated time via their speed models, while the
numeric effect of the flow runs eagerly in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.data.avazu import DeviceDataset
from repro.ml.backends import SERVER_BACKEND, NumericBackend
from repro.ml.client import BlockTrainer
from repro.ml.fedavg import ModelUpdate
from repro.ml.metrics import block_metrics
from repro.ml.model import LogisticRegressionModel


@dataclass
class OperatorContext:
    """Mutable state threaded through one device's flow execution.

    Attributes
    ----------
    device_id / grade:
        Identity of the simulated device.
    dataset:
        The device's local shard.
    feature_dim:
        Model dimensionality.
    backend:
        Numeric backend of the executing tier.
    global_weights / global_bias:
        Parameters downloaded at the start of the round.
    round_index:
        Current collaboration round (1-based).
    rng:
        Seeded generator for local shuffling.
    outputs:
        Results produced by operators (e.g. ``outputs["update"]``).
    """

    device_id: str
    grade: str
    dataset: DeviceDataset
    feature_dim: int
    backend: NumericBackend = SERVER_BACKEND
    global_weights: np.ndarray | None = None
    global_bias: float = 0.0
    round_index: int = 1
    rng: np.random.Generator | None = None
    outputs: dict[str, Any] = field(default_factory=dict)


@dataclass
class BlockOperatorContext:
    """Mutable state threaded through one *block's* vectorized execution.

    A block is one wave of the batched logical tier: every device in it
    shares the grade, backend and global model, so operators can act on
    stacked arrays instead of per-device objects.  Block-capable operators
    read and write:

    * ``outputs["weights"]`` / ``outputs["biases"]`` — the stacked
      ``(n_devices, feature_dim)`` / ``(n_devices,)`` working parameters;
    * ``outputs["update_weights"]`` / ``outputs["update_biases"]`` — the
      packaged per-device results (columnar stand-in for
      ``OperatorContext.outputs["update"]``);
    * ``outputs["local_metrics"]`` — per-device metric dicts in block order.
    """

    device_ids: list[str]
    grade: str
    datasets: list[DeviceDataset]
    feature_dim: int
    backend: NumericBackend = SERVER_BACKEND
    global_weights: np.ndarray | None = None
    global_bias: float = 0.0
    round_index: int = 1
    rngs: list[np.random.Generator | None] | None = None
    outputs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.device_ids) != len(self.datasets):
            raise ValueError("device_ids and datasets must align")

    def __len__(self) -> int:
        return len(self.device_ids)


class Operator:
    """Base class of user-definable operators.

    Subclasses set :attr:`name`, declare :attr:`work` (abstract cost units;
    1.0 ~ one local training epoch over an average shard) and implement
    :meth:`apply`.  Operators that can also execute a whole wave of devices
    against stacked arrays additionally implement :meth:`apply_block` and
    set :attr:`supports_block`; flows whose operators all do so run
    vectorized, any other flow runs :meth:`apply` once per block row.
    """

    name: str = "operator"
    work: float = 0.0
    supports_block: bool = False

    def apply(self, context: OperatorContext) -> None:
        """Execute the operator's effect against the context."""
        raise NotImplementedError

    def apply_block(self, block: BlockOperatorContext) -> None:
        """Execute the operator against a whole block at once.

        Must be bit-identical, per device, to :meth:`apply` over the
        equivalent :class:`OperatorContext`.  Only called when
        :attr:`supports_block` is true.
        """
        raise NotImplementedError(f"{type(self).__name__} has no block implementation")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(work={self.work})"


class DownloadModelOp(Operator):
    """Fetch the round's global model into the context.

    The actual bytes move through storage in the platform layer; at the
    operator level the parameters are assumed staged by the runner.
    """

    name = "download_model"
    work = 0.1
    supports_block = True

    def apply(self, context: OperatorContext) -> None:
        if context.global_weights is None:
            raise RuntimeError(
                f"device {context.device_id}: global model was not staged before the flow ran"
            )
        context.outputs["model"] = LogisticRegressionModel(context.feature_dim, context.backend)
        context.outputs["model"].set_params(context.global_weights, context.global_bias)

    def apply_block(self, block: BlockOperatorContext) -> None:
        if block.global_weights is None:
            raise RuntimeError(
                f"device {block.device_ids[0]}: global model was not staged before the flow ran"
            )
        weights = np.asarray(block.global_weights, dtype=np.float64)
        if weights.shape != (block.feature_dim,):
            raise ValueError(f"weights shape {weights.shape} != ({block.feature_dim},)")
        block.outputs["weights"] = np.tile(weights, (len(block), 1))
        block.outputs["biases"] = np.full(len(block), float(block.global_bias), dtype=np.float64)


class TrainOp(Operator):
    """Local SGD refinement (the paper's 10-epoch, lr 1e-3 recipe)."""

    name = "train"

    def __init__(self, epochs: int = 10, learning_rate: float = 1e-3, batch_size: int = 32) -> None:
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.work = float(epochs)

    supports_block = True

    def apply(self, context: OperatorContext) -> None:
        model = context.outputs.get("model")
        if model is None:
            raise RuntimeError("TrainOp requires DownloadModelOp earlier in the flow")
        model.fit_local(
            context.dataset.features,
            context.dataset.labels,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            rng=context.rng,
        )

    def apply_block(self, block: BlockOperatorContext) -> None:
        weights = block.outputs.get("weights")
        if weights is None:
            raise RuntimeError("TrainOp requires DownloadModelOp earlier in the flow")
        trainer = BlockTrainer(
            block.feature_dim,
            block.backend,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
        )
        block.outputs["weights"], block.outputs["biases"] = trainer.train(
            weights, block.outputs["biases"], block.datasets, block.rngs
        )


class EvalOp(Operator):
    """Evaluate the current model on the local shard."""

    name = "evaluate"
    work = 0.2
    supports_block = True

    def apply(self, context: OperatorContext) -> None:
        model = context.outputs.get("model")
        if model is None:
            raise RuntimeError("EvalOp requires DownloadModelOp earlier in the flow")
        context.outputs["local_metrics"] = model.evaluate(
            context.dataset.features, context.dataset.labels
        )

    def apply_block(self, block: BlockOperatorContext) -> None:
        weights = block.outputs.get("weights")
        if weights is None:
            raise RuntimeError("EvalOp requires DownloadModelOp earlier in the flow")
        biases = block.outputs["biases"]
        groups: dict[int, list[int]] = {}
        for position, dataset in enumerate(block.datasets):
            groups.setdefault(dataset.n_samples, []).append(position)
        results: list[dict[str, float] | None] = [None] * len(block)
        for positions in groups.values():
            features = np.stack([block.datasets[i].features for i in positions])
            labels = np.stack([block.datasets[i].labels for i in positions])
            scores = block.backend.gather_scores_block(
                weights[positions], biases[positions], features
            )
            probabilities = block.backend.sigmoid(scores).astype(np.float64)
            for position, row_metrics in zip(positions, block_metrics(labels, probabilities)):
                results[position] = row_metrics
        block.outputs["local_metrics"] = results


class UploadUpdateOp(Operator):
    """Package the trained parameters as a :class:`ModelUpdate`.

    The platform layer turns ``outputs["update"]`` into a storage upload
    plus a DeviceFlow message.
    """

    name = "upload_update"
    work = 0.1
    supports_block = True

    def apply(self, context: OperatorContext) -> None:
        model = context.outputs.get("model")
        if model is None:
            raise RuntimeError("UploadUpdateOp requires a trained model in the flow")
        weights, bias = model.get_params()
        context.outputs["update"] = ModelUpdate(
            device_id=context.device_id,
            round_index=context.round_index,
            weights=weights,
            bias=bias,
            n_samples=context.dataset.n_samples,
            metadata={"grade": context.grade, "backend": context.backend.name},
        )

    def apply_block(self, block: BlockOperatorContext) -> None:
        weights = block.outputs.get("weights")
        if weights is None:
            raise RuntimeError("UploadUpdateOp requires a trained model in the flow")
        # Columnar counterpart of outputs["update"]: stacked copies so later
        # operators mutating the working parameters can't corrupt uploads.
        block.outputs["update_weights"] = np.array(weights, dtype=np.float64, copy=True)
        block.outputs["update_biases"] = np.array(
            block.outputs["biases"], dtype=np.float64, copy=True
        )


class OperatorFlow:
    """An ordered operator sequence, executed once per round per device."""

    def __init__(self, operators: Sequence[Operator]) -> None:
        if not operators:
            raise ValueError("an operator flow needs at least one operator")
        for op in operators:
            if not isinstance(op, Operator):
                raise TypeError(f"flow items must be Operators, got {type(op).__name__}")
        self.operators = list(operators)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    @property
    def total_work(self) -> float:
        """Sum of operator work units — the tier cost models scale this."""
        return sum(op.work for op in self.operators)

    @property
    def supports_block(self) -> bool:
        """Whether every operator can execute stacked device blocks."""
        return all(op.supports_block for op in self.operators)

    def execute(self, context: OperatorContext) -> OperatorContext:
        """Run every operator in order against ``context``."""
        for op in self.operators:
            op.apply(context)
        return context

    def execute_block(self, block: BlockOperatorContext) -> BlockOperatorContext:
        """Run every operator in order against a stacked device block.

        A flow with an operator lacking a block implementation runs the
        whole flow once per row instead, each row with its own
        :class:`OperatorContext` and ``block.rngs[i]``; the rows'
        ``outputs["update"]`` are stacked into ``update_weights`` /
        ``update_biases``.
        """
        if self.supports_block:
            for op in self.operators:
                op.apply_block(block)
            return block
        updates = []
        rngs = block.rngs if block.rngs is not None else [None] * len(block)
        for device_id, dataset, rng in zip(block.device_ids, block.datasets, rngs):
            context = OperatorContext(
                device_id, block.grade, dataset, block.feature_dim, block.backend,
                block.global_weights, block.global_bias, block.round_index, rng,
            )
            for op in self.operators:
                op.apply(context)
            updates.append(context.outputs.get("update"))
        uploaded = [u for u in updates if u is not None]
        if uploaded:
            if len(uploaded) != len(updates):
                raise RuntimeError("flow uploaded an update for some devices of a block but not all")
            block.outputs["update_weights"] = np.stack([u.weights for u in uploaded]).astype(np.float64)
            block.outputs["update_biases"] = np.array([u.bias for u in uploaded], dtype=np.float64)
        return block

    def describe(self) -> list[str]:
        """Operator names in order (for task specs and monitoring)."""
        return [op.name for op in self.operators]


def standard_fl_flow(
    epochs: int = 10, learning_rate: float = 1e-3, batch_size: int = 32
) -> OperatorFlow:
    """The canonical federated-learning round: download→train→eval→upload."""
    return OperatorFlow(
        [
            DownloadModelOp(),
            TrainOp(epochs=epochs, learning_rate=learning_rate, batch_size=batch_size),
            EvalOp(),
            UploadUpdateOp(),
        ]
    )
