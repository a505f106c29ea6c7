"""Unit tests for the synthetic Avazu data substrate."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    AVAZU_FIELDS,
    DeviceDataset,
    HashingEncoder,
    SyntheticAvazu,
    label_skew_device_biases,
    make_federated_ctr_data,
    split_by_device_column,
)
from repro.data.avazu import _FIELD_CARDINALITIES, FederatedDataset, _sigmoid
from repro.data.partition import assign_delay_profiles, iid_sample_counts


# ----------------------------------------------------------------------
# Reference model: the per-device draw loop that ``SyntheticAvazu.generate``
# replaced.  Every shard calls ``rng.choice(p=)`` once per field and then
# ``rng.random`` for its labels; the columnar generator must consume the
# same stream and return the same bits.
# ----------------------------------------------------------------------
def reference_generate(
    generator: SyntheticAvazu,
    device_biases: np.ndarray | None = None,
    test_records: int = 2000,
) -> FederatedDataset:
    rng = np.random.default_rng(np.random.SeedSequence((generator.seed, 0xA7A2)))
    true_weights, _ = _reference_ground_truth(generator, rng)
    vocab_for_calibration = {
        fld: generator.encoder.vocabulary_indices(fld, _FIELD_CARDINALITIES[fld])
        for fld in AVAZU_FIELDS
    }
    global_bias = _reference_calibrate_intercept(
        generator, rng, true_weights, vocab_for_calibration
    )
    if device_biases is None:
        device_biases = rng.normal(0.0, generator.device_bias_std, generator.n_devices)

    vocab = vocab_for_calibration
    sizes = np.maximum(2, rng.poisson(generator.records_per_device, generator.n_devices))

    devices: dict[str, DeviceDataset] = {}
    bias_map: dict[str, float] = {}
    for i in range(generator.n_devices):
        device_id = f"dev-{i:06d}"
        features = _reference_draw_features(rng, int(sizes[i]), vocab)
        labels = _reference_draw_labels(
            rng, features, true_weights, global_bias + float(device_biases[i])
        )
        devices[device_id] = DeviceDataset(device_id, features, labels)
        bias_map[device_id] = float(device_biases[i])

    test_features = _reference_draw_features(rng, test_records, vocab)
    test_labels = _reference_draw_labels(rng, test_features, true_weights, global_bias)
    test = DeviceDataset("test", test_features, test_labels)
    return FederatedDataset(
        devices=devices,
        test=test,
        feature_dim=generator.feature_dim,
        device_biases=bias_map,
    )


def _reference_ground_truth(generator, rng):
    weights = np.zeros(generator.feature_dim)
    n_active = max(8, int(generator.active_fraction * generator.feature_dim))
    active = rng.choice(generator.feature_dim, size=n_active, replace=False)
    weights[active] = rng.normal(0.0, generator.signal_scale, n_active)
    intercept = float(np.log(generator.base_ctr / (1.0 - generator.base_ctr)))
    return weights, intercept


def _reference_calibrate_intercept(generator, rng, true_weights, vocab, n_calibration=4000):
    features = _reference_draw_features(rng, n_calibration, vocab)
    scores = true_weights[features].sum(axis=1)
    low, high = -15.0, 15.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if float(_sigmoid(scores + mid).mean()) < generator.base_ctr:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def _reference_draw_features(rng, n_records, vocab):
    columns = []
    for fld in AVAZU_FIELDS:
        table = vocab[fld]
        cardinality = len(table)
        ranks = np.arange(1, cardinality + 1, dtype=float)
        probs = 1.0 / ranks
        probs /= probs.sum()
        ids = rng.choice(cardinality, size=n_records, p=probs)
        columns.append(table[ids])
    return np.stack(columns, axis=1).astype(np.int32)


def _reference_draw_labels(rng, features, true_weights, bias):
    logits = true_weights[features].sum(axis=1) + bias
    probs = _sigmoid(logits)
    return (rng.random(len(probs)) < probs).astype(np.int8)


def dataset_digest(data: FederatedDataset) -> str:
    """sha256 over every shard's ids, bytes and bias, then the test shard."""
    digest = hashlib.sha256()
    for device_id in data.device_ids():
        shard = data.devices[device_id]
        digest.update(device_id.encode())
        digest.update(shard.features.tobytes())
        digest.update(shard.labels.tobytes())
        digest.update(np.float64(data.device_biases[device_id]).tobytes())
    digest.update(data.test.features.tobytes())
    digest.update(data.test.labels.tobytes())
    return digest.hexdigest()


def assert_same_shard(actual: DeviceDataset, expected: DeviceDataset) -> None:
    assert actual.device_id == expected.device_id
    for name in ("features", "labels"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestHashingEncoder:
    def test_index_in_range(self):
        encoder = HashingEncoder(dim=64, fields=["a", "b"])
        for value in ["x", "y", "longer-value"]:
            assert 0 <= encoder.index_of("a", value) < 64

    def test_deterministic_across_instances(self):
        one = HashingEncoder(dim=1024, fields=["f"])
        two = HashingEncoder(dim=1024, fields=["f"])
        assert one.index_of("f", "hello") == two.index_of("f", "hello")

    def test_field_name_participates_in_hash(self):
        encoder = HashingEncoder(dim=2**20, fields=["a", "b"])
        assert encoder.index_of("a", "v") != encoder.index_of("b", "v")

    def test_encode_record_shape_and_order(self):
        encoder = HashingEncoder(dim=128, fields=["a", "b", "c"])
        row = encoder.encode_record(["1", "2", "3"])
        assert row.shape == (3,)
        assert row[0] == encoder.index_of("a", "1")
        assert row[2] == encoder.index_of("c", "3")

    def test_encode_record_wrong_arity(self):
        encoder = HashingEncoder(dim=128, fields=["a", "b"])
        with pytest.raises(ValueError):
            encoder.encode_record(["only-one"])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HashingEncoder(dim=0, fields=["a"])
        with pytest.raises(ValueError):
            HashingEncoder(dim=8, fields=[])

    def test_vocabulary_indices(self):
        encoder = HashingEncoder(dim=256, fields=["a"])
        vocab = encoder.vocabulary_indices("a", 10)
        assert vocab.shape == (10,)
        assert vocab[3] == encoder.index_of("a", "3")


class TestDeviceDataset:
    def test_basic_properties(self):
        features = np.zeros((5, 3), dtype=np.int32)
        labels = np.array([1, 0, 1, 1, 0], dtype=np.int8)
        shard = DeviceDataset("dev-0", features, labels)
        assert len(shard) == 5
        assert shard.n_samples == 5
        assert shard.positive_rate == pytest.approx(0.6)
        assert shard.nbytes() > 0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            DeviceDataset("d", np.zeros((3, 2), dtype=np.int32), np.zeros(4, dtype=np.int8))

    def test_one_dim_features_rejected(self):
        with pytest.raises(ValueError):
            DeviceDataset("d", np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int8))


class TestSyntheticAvazu:
    def test_shapes_and_determinism(self):
        data_a = SyntheticAvazu(n_devices=10, records_per_device=15, feature_dim=512, seed=3).generate()
        data_b = SyntheticAvazu(n_devices=10, records_per_device=15, feature_dim=512, seed=3).generate()
        assert data_a.n_devices == 10
        for device_id in data_a.device_ids():
            shard_a = data_a.shard(device_id)
            shard_b = data_b.shard(device_id)
            assert np.array_equal(shard_a.features, shard_b.features)
            assert np.array_equal(shard_a.labels, shard_b.labels)
        assert data_a.shard("dev-000000").features.shape[1] == len(AVAZU_FIELDS)

    def test_different_seeds_differ(self):
        data_a = SyntheticAvazu(n_devices=5, seed=1).generate()
        data_b = SyntheticAvazu(n_devices=5, seed=2).generate()
        same = all(
            np.array_equal(data_a.shard(d).labels, data_b.shard(d).labels)
            for d in data_a.device_ids()
        )
        assert not same

    def test_feature_indices_in_range(self):
        data = SyntheticAvazu(n_devices=8, feature_dim=256, seed=0).generate()
        for device_id in data.device_ids():
            features = data.shard(device_id).features
            assert features.min() >= 0
            assert features.max() < 256

    def test_base_ctr_roughly_respected(self):
        data = SyntheticAvazu(
            n_devices=200, records_per_device=50, base_ctr=0.2, device_bias_std=0.0, seed=0
        ).generate()
        labels = np.concatenate([data.shard(d).labels for d in data.device_ids()])
        # Planted weights add variance; the population CTR should stay in a
        # generous band around the intercept-implied rate.
        assert 0.08 < labels.mean() < 0.45

    def test_device_bias_shifts_ctr(self):
        n = 60
        biases = np.concatenate([np.full(n // 2, 3.0), np.full(n // 2, -3.0)])
        data = SyntheticAvazu(n_devices=n, records_per_device=60, seed=0).generate(
            device_biases=biases
        )
        rates = [data.shard(d).positive_rate for d in data.device_ids()]
        high = [r for d, r in zip(data.device_ids(), rates) if data.device_biases[d] > 0]
        low = [r for d, r in zip(data.device_ids(), rates) if data.device_biases[d] < 0]
        assert np.mean(high) > np.mean(low) + 0.3

    def test_bias_length_validated(self):
        generator = SyntheticAvazu(n_devices=4, seed=0)
        with pytest.raises(ValueError):
            generator.generate(device_biases=np.zeros(3))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticAvazu(n_devices=0)
        with pytest.raises(ValueError):
            SyntheticAvazu(records_per_device=1)
        with pytest.raises(ValueError):
            SyntheticAvazu(base_ctr=1.5)

    def test_subset_view(self):
        data = SyntheticAvazu(n_devices=6, seed=0).generate()
        ids = data.device_ids()[:2]
        view = data.subset(ids)
        assert view.n_devices == 2
        assert view.test is data.test

    @settings(max_examples=40, deadline=None)
    @given(
        n_devices=st.integers(1, 200),
        records_per_device=st.integers(2, 30),
        feature_dim=st.sampled_from([16, 64, 4096]),
        seed=st.integers(0, 2**31 - 1),
        skew=st.sampled_from([None, {"positive_fraction": 0.7, "spread": 2.5}]),
        test_records=st.sampled_from([0, 1, 2000]),
    )
    def test_columnar_draw_matches_per_device_reference(
        self, n_devices, records_per_device, feature_dim, seed, skew, test_records
    ):
        generator = SyntheticAvazu(
            n_devices=n_devices,
            records_per_device=records_per_device,
            feature_dim=feature_dim,
            seed=seed,
        )
        biases = None
        if skew is not None:
            biases = label_skew_device_biases(n_devices, seed=seed, **skew)
        data = generator.generate(device_biases=biases, test_records=test_records)
        expected = reference_generate(generator, device_biases=biases, test_records=test_records)
        assert data.device_ids() == expected.device_ids()
        for device_id in expected.device_ids():
            assert_same_shard(data.shard(device_id), expected.shard(device_id))
        assert_same_shard(data.test, expected.test)
        assert data.device_biases == expected.device_biases

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                {"n_devices": 37, "records_per_device": 12, "feature_dim": 512, "seed": 5,
                 "test_records": 300},
                "c4def9e4b8d61160e95cec83f79bb43d122f041026aa1e1ea31fe390ec988459",
            ),
            (
                {"n_devices": 120, "records_per_device": 8, "feature_dim": 4096, "seed": 11,
                 "skew": {"positive_fraction": 0.7, "spread": 2.5}},
                "71b927ddff03139bac288d368a11c36a5559ba6160e2d6f2aaea3ece96f646fb",
            ),
        ],
        ids=["iid-37x12", "skew-120x8"],
    )
    def test_pinned_dataset_digest(self, kwargs, digest):
        # Recorded with the per-device draw loop; a numpy change to the
        # random stream or to ``choice``'s CDF arithmetic breaks it.
        assert dataset_digest(make_federated_ctr_data(**kwargs)) == digest

    def test_shards_are_views_of_one_buffer(self):
        data = SyntheticAvazu(n_devices=5, records_per_device=4, seed=0).generate(test_records=7)
        buffer = data.test.features.base
        assert buffer is not None
        assert all(data.shard(d).features.base is buffer for d in data.device_ids())
        assert data.test.features.shape == (7, len(AVAZU_FIELDS))


class TestPartitioners:
    def test_label_skew_split_fractions(self):
        biases = label_skew_device_biases(100, positive_fraction=0.7, spread=2.5, seed=1)
        assert (biases > 0).sum() == 70
        assert (biases < 0).sum() == 30

    def test_label_skew_shuffled(self):
        biases = label_skew_device_biases(50, positive_fraction=0.5, seed=1)
        # Not simply first half positive.
        assert not (biases[:25] > 0).all()

    def test_label_skew_validation(self):
        with pytest.raises(ValueError):
            label_skew_device_biases(10, positive_fraction=1.2)
        with pytest.raises(ValueError):
            label_skew_device_biases(10, spread=-1)

    def test_delay_profiles_monotone_in_ctr(self):
        biases = {f"d{i}": float(b) for i, b in enumerate(np.linspace(3, -3, 20))}
        delays = assign_delay_profiles(biases, sigma=1.0, max_delay=600.0, seed=0)
        ordered = [delays[f"d{i}"] for i in range(20)]
        assert ordered == sorted(ordered)
        assert max(ordered) <= 600.0
        assert min(ordered) >= 0.0

    def test_delay_profiles_sigma_orders_mass(self):
        biases = {f"d{i}": float(i) for i in range(400)}
        tight = assign_delay_profiles(biases, sigma=1.0, max_delay=1200.0, seed=0)
        wide = assign_delay_profiles(biases, sigma=3.0, max_delay=1200.0, seed=0)
        # Smaller sigma concentrates arrivals earlier: its median delay is
        # a smaller fraction of the max.
        assert np.median(list(tight.values())) < np.median(list(wide.values()))

    def test_delay_profiles_validation(self):
        with pytest.raises(ValueError):
            assign_delay_profiles({"a": 0.0}, sigma=0.0, max_delay=10.0)
        with pytest.raises(ValueError):
            assign_delay_profiles({"a": 0.0}, sigma=1.0, max_delay=0.0)

    def test_split_by_device_column(self):
        features = np.arange(12).reshape(6, 2)
        labels = np.array([0, 1, 0, 1, 0, 1])
        ids = ["a", "b", "a", "c", "b", "a"]
        shards = split_by_device_column(features, labels, ids)
        assert sorted(shards) == ["a", "b", "c"]
        shard_features, shard_labels = shards["a"]
        assert shard_features.shape == (3, 2)
        assert list(shard_labels) == [0, 0, 1]

    def test_split_misaligned(self):
        with pytest.raises(ValueError):
            split_by_device_column(np.zeros((2, 2)), np.zeros(2), ["a"])

    def test_iid_sample_counts_sum(self):
        counts = iid_sample_counts(7, 100, seed=0)
        assert counts.sum() == 100
        assert counts.min() >= 100 // 7

    def test_iid_sample_counts_validation(self):
        with pytest.raises(ValueError):
            iid_sample_counts(0, 10)
        with pytest.raises(ValueError):
            iid_sample_counts(10, 5)


class TestMakeFederatedCtrData:
    def test_iid_helper(self):
        data = make_federated_ctr_data(12, records_per_device=10, feature_dim=256, seed=5)
        assert data.n_devices == 12
        assert data.feature_dim == 256

    def test_skew_helper_creates_bimodal_biases(self):
        data = make_federated_ctr_data(
            20, seed=5, skew={"positive_fraction": 0.7, "spread": 2.5}
        )
        biases = np.array([data.device_biases[d] for d in data.device_ids()])
        assert (biases > 0).sum() == 14
        assert (biases < 0).sum() == 6
