"""Unit tests for FedAvg, clients, the synchronous trainer and operators."""

import numpy as np
import pytest

from repro.data import SyntheticAvazu
from repro.ml import (
    DEVICE_BACKEND,
    FLClient,
    FedAvgAggregator,
    ModelUpdate,
    OperatorContext,
    OperatorFlow,
    SynchronousTrainer,
    TrainOp,
    fedavg,
    standard_fl_flow,
)
from repro.ml.operators import DownloadModelOp, EvalOp, UploadUpdateOp


def make_update(device_id, weights, bias=0.0, n_samples=10, round_index=1):
    return ModelUpdate(
        device_id=device_id,
        round_index=round_index,
        weights=np.asarray(weights, dtype=np.float64),
        bias=bias,
        n_samples=n_samples,
    )


class TestFedAvg:
    def test_weighted_mean(self):
        a = make_update("a", [1.0, 0.0], bias=1.0, n_samples=30)
        b = make_update("b", [0.0, 1.0], bias=0.0, n_samples=10)
        weights, bias = fedavg([a, b])
        assert np.allclose(weights, [0.75, 0.25])
        assert bias == pytest.approx(0.75)

    def test_single_update_identity(self):
        update = make_update("a", [0.5, -0.5], bias=0.3)
        weights, bias = fedavg([update])
        assert np.allclose(weights, update.weights)
        assert bias == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fedavg([make_update("a", [1.0]), make_update("b", [1.0, 2.0])])

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            make_update("a", [1.0], n_samples=-1)

    def test_zero_sample_update_allowed_but_weightless(self):
        # Zero-sample updates may occur (a device lost its shard mid-round)
        # and must not move the aggregate.
        backed = make_update("a", [2.0], n_samples=4)
        ghost = make_update("g", [100.0], n_samples=0)
        weights, bias = fedavg([backed, ghost])
        assert np.allclose(weights, [2.0])
        with pytest.raises(ValueError):
            fedavg([ghost])  # zero total samples cannot be averaged

    def test_aggregator_lifecycle(self):
        aggregator = FedAvgAggregator()
        aggregator.add(make_update("a", [2.0], n_samples=5))
        aggregator.add(make_update("b", [4.0], n_samples=5))
        assert len(aggregator) == 2
        assert aggregator.pending_samples == 10
        assert aggregator.pending_devices == ["a", "b"]
        weights, bias, count = aggregator.aggregate()
        assert count == 2
        assert np.allclose(weights, [3.0])
        assert len(aggregator) == 0

    def test_aggregator_type_check(self):
        aggregator = FedAvgAggregator()
        with pytest.raises(TypeError):
            aggregator.add({"weights": [1.0]})

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            FedAvgAggregator().aggregate()

    def test_clear(self):
        aggregator = FedAvgAggregator()
        aggregator.add(make_update("a", [1.0]))
        aggregator.clear()
        assert len(aggregator) == 0

    def test_payload_bytes_scale_with_dim(self):
        small = make_update("a", np.zeros(10))
        large = make_update("a", np.zeros(1000))
        assert large.payload_bytes() > small.payload_bytes()


@pytest.fixture(scope="module")
def federated_data():
    return SyntheticAvazu(
        n_devices=20, records_per_device=30, feature_dim=256, seed=7
    ).generate(test_records=600)


class TestFLClient:
    def test_local_train_produces_update(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        client = FLClient(shard, feature_dim=256, epochs=2, learning_rate=0.05)
        update = client.local_train(np.zeros(256), 0.0, round_index=3)
        assert update.device_id == shard.device_id
        assert update.round_index == 3
        assert update.n_samples == shard.n_samples
        assert update.weights.shape == (256,)
        assert np.abs(update.weights).sum() > 0

    def test_backend_recorded_in_metadata(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        client = FLClient(shard, feature_dim=256, backend=DEVICE_BACKEND, epochs=1)
        update = client.local_train(np.zeros(256), 0.0, round_index=1)
        assert update.metadata["backend"] == "mnn-device"

    def test_evaluate(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        client = FLClient(shard, feature_dim=256)
        metrics = client.evaluate(np.zeros(256), 0.0)
        assert set(metrics) == {"accuracy", "log_loss", "auc"}

    def test_invalid_epochs(self, federated_data):
        shard = federated_data.shard(federated_data.device_ids()[0])
        with pytest.raises(ValueError):
            FLClient(shard, feature_dim=256, epochs=0)


class TestSynchronousTrainer:
    def test_training_improves_test_loss(self, federated_data):
        clients = [
            FLClient(federated_data.shard(d), 256, epochs=3, learning_rate=0.05)
            for d in federated_data.device_ids()
        ]
        trainer = SynchronousTrainer(clients, federated_data.test, 256)
        history = trainer.run(rounds=4)
        assert len(history) == 4
        assert history[-1].test_loss < history[0].test_loss + 1e-9
        assert history[0].n_updates == len(clients)

    def test_participation_sampling(self, federated_data):
        clients = [
            FLClient(federated_data.shard(d), 256, epochs=1) for d in federated_data.device_ids()
        ]
        trainer = SynchronousTrainer(clients, federated_data.test, 256)
        rng = np.random.default_rng(0)
        history = trainer.run(rounds=1, participation=0.5, rng=rng)
        assert history[0].n_updates == 10

    def test_validation(self, federated_data):
        clients = [FLClient(federated_data.shard(federated_data.device_ids()[0]), 256)]
        trainer = SynchronousTrainer(clients, federated_data.test, 256)
        with pytest.raises(ValueError):
            trainer.run(rounds=0)
        with pytest.raises(ValueError):
            trainer.run(rounds=1, participation=0.0)
        with pytest.raises(ValueError):
            SynchronousTrainer([], federated_data.test, 256)


class TestOperatorFlow:
    def make_context(self, federated_data, with_model=True):
        shard = federated_data.shard(federated_data.device_ids()[0])
        context = OperatorContext(
            device_id=shard.device_id,
            grade="High",
            dataset=shard,
            feature_dim=256,
        )
        if with_model:
            context.global_weights = np.zeros(256)
            context.global_bias = 0.0
        return context

    def test_standard_flow_round_trip(self, federated_data):
        flow = standard_fl_flow(epochs=2, learning_rate=0.05)
        context = self.make_context(federated_data)
        flow.execute(context)
        update = context.outputs["update"]
        assert update.device_id == context.device_id
        assert "local_metrics" in context.outputs
        assert update.metadata["grade"] == "High"

    def test_flow_names(self):
        flow = standard_fl_flow()
        assert flow.describe() == ["download_model", "train", "evaluate", "upload_update"]
        assert flow.total_work == pytest.approx(10.4)

    def test_download_requires_staged_model(self, federated_data):
        flow = OperatorFlow([DownloadModelOp()])
        context = self.make_context(federated_data, with_model=False)
        with pytest.raises(RuntimeError):
            flow.execute(context)

    def test_train_requires_download(self, federated_data):
        flow = OperatorFlow([TrainOp(epochs=1)])
        context = self.make_context(federated_data)
        with pytest.raises(RuntimeError):
            flow.execute(context)

    def test_eval_requires_download(self, federated_data):
        context = self.make_context(federated_data)
        with pytest.raises(RuntimeError):
            OperatorFlow([EvalOp()]).execute(context)

    def test_upload_requires_model(self, federated_data):
        context = self.make_context(federated_data)
        with pytest.raises(RuntimeError):
            OperatorFlow([UploadUpdateOp()]).execute(context)

    def test_empty_flow_rejected(self):
        with pytest.raises(ValueError):
            OperatorFlow([])

    def test_non_operator_rejected(self):
        with pytest.raises(TypeError):
            OperatorFlow([lambda ctx: None])

    def test_train_work_scales_with_epochs(self):
        assert TrainOp(epochs=5).work == pytest.approx(5.0)


class TestAnnotations:
    def test_block_rng_annotations_resolve(self):
        # Every name in these annotations must be importable at runtime:
        # documentation tools and dataclass introspection evaluate them.
        import typing

        from repro.ml.client import BlockTrainer
        from repro.ml.operators import BlockOperatorContext
        from repro.ml.optimizer import SGD

        expected = np.random.Generator | None
        assert typing.get_type_hints(BlockOperatorContext)["rngs"] == list[expected] | None
        for function in (BlockTrainer.train, BlockTrainer.train_from_global, SGD.run_epochs_block):
            container, _ = typing.get_args(typing.get_type_hints(function)["rngs"])
            assert typing.get_args(container) == (expected,)
