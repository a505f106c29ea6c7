"""Property-based tests for FedAvg partial aggregation.

The cloud aggregation service relies on one invariant: folding any
partition of an update set into partials (one per columnar block, plus
the streamed scalar buffer) and merging them must produce *bit-identical*
results to the flat :func:`repro.ml.fedavg.fedavg` call — for any group
boundaries, any group order, empty groups, and zero-sample updates.  Hypothesis hunts for partitions that break it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.fedavg import FedAvgAggregator, FedAvgPartial, ModelUpdate, fedavg


def build_updates(n_updates: int, dim: int, seed: int, with_zero_samples: bool) -> list[ModelUpdate]:
    rng = np.random.default_rng(seed)
    updates = []
    for index in range(n_updates):
        n_samples = int(rng.integers(0 if with_zero_samples else 1, 40))
        updates.append(
            ModelUpdate(
                device_id=f"d{index}",
                round_index=1,
                # Spread magnitudes over many decades so naive summation
                # orders would actually disagree in the low bits.
                weights=rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9),
                bias=float(rng.normal()),
                n_samples=n_samples,
            )
        )
    if all(u.n_samples == 0 for u in updates):
        updates[0].n_samples = 3  # keep the aggregate well-defined
    return updates


def partition(items: list, boundaries: list[int]) -> list[list]:
    bounds = sorted(min(b, len(items)) for b in boundaries)
    edges = [0, *bounds, len(items)]
    return [items[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


class TestPartitionInvariance:
    @given(
        n_updates=st.integers(min_value=1, max_value=24),
        dim=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=10_000),
        boundaries=st.lists(st.integers(min_value=0, max_value=24), max_size=6),
        shard_order_seed=st.integers(min_value=0, max_value=1000),
        with_zero_samples=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_merges_to_flat_fedavg(
        self, n_updates, dim, seed, boundaries, shard_order_seed, with_zero_samples
    ):
        updates = build_updates(n_updates, dim, seed, with_zero_samples)
        flat_weights, flat_bias = fedavg(updates)

        shards = partition(updates, boundaries)
        partials = [FedAvgPartial.from_updates(shard) for shard in shards]
        # Merge order must not matter either.
        order = np.random.default_rng(shard_order_seed).permutation(len(partials))
        merged_weights, merged_bias, n_merged = FedAvgAggregator.merge(
            [partials[i] for i in order]
        )

        assert n_merged == n_updates
        assert merged_weights.tobytes() == flat_weights.tobytes()
        assert np.float64(merged_bias).tobytes() == np.float64(flat_bias).tobytes()

    @given(
        n_updates=st.integers(min_value=1, max_value=16),
        dim=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
        n_empty=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_shards_are_identity(self, n_updates, dim, seed, n_empty):
        updates = build_updates(n_updates, dim, seed, with_zero_samples=True)
        flat_weights, flat_bias = fedavg(updates)
        partials = [FedAvgPartial.from_updates(updates)] + [
            FedAvgPartial.empty() for _ in range(n_empty)
        ]
        merged_weights, merged_bias, n_merged = FedAvgAggregator.merge(partials)
        assert n_merged == n_updates
        assert merged_weights.tobytes() == flat_weights.tobytes()
        assert np.float64(merged_bias).tobytes() == np.float64(flat_bias).tobytes()

    @given(
        n_updates=st.integers(min_value=1, max_value=16),
        dim=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_from_arrays_matches_from_updates(self, n_updates, dim, seed):
        updates = build_updates(n_updates, dim, seed, with_zero_samples=True)
        stacked = FedAvgPartial.from_arrays(
            np.stack([u.weights for u in updates]),
            np.array([u.bias for u in updates]),
            np.array([u.n_samples for u in updates]),
        )
        object_based = FedAvgPartial.from_updates(updates)
        assert stacked.finalize()[0].tobytes() == object_based.finalize()[0].tobytes()
        assert stacked.finalize()[1] == object_based.finalize()[1]
        assert stacked.total_samples == object_based.total_samples
        assert stacked.n_updates == object_based.n_updates

    @given(
        n_updates=st.integers(min_value=1, max_value=12),
        dim=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_aggregator_partial_equals_aggregate(self, n_updates, dim, seed):
        updates = build_updates(n_updates, dim, seed, with_zero_samples=False)
        by_aggregate = FedAvgAggregator()
        by_partial = FedAvgAggregator()
        for update in updates:
            by_aggregate.add(update)
            by_partial.add(update)
        agg_weights, agg_bias, agg_count = by_aggregate.aggregate()
        partial = by_partial.partial()
        assert len(by_partial) == 0  # partial() drains the buffer
        merged_weights, merged_bias, merged_count = FedAvgAggregator.merge([partial])
        assert merged_count == agg_count
        assert merged_weights.tobytes() == agg_weights.tobytes()
        assert np.float64(merged_bias).tobytes() == np.float64(agg_bias).tobytes()


class TestEdgeCases:
    def test_merge_of_only_empty_partials_cannot_finalize(self):
        merged = FedAvgPartial.merge([FedAvgPartial.empty(), FedAvgPartial.empty()])
        assert merged.n_updates == 0
        with pytest.raises(ValueError):
            merged.finalize()

    def test_all_zero_sample_updates_rejected(self):
        ghost = ModelUpdate("g", 1, np.ones(3), 0.5, n_samples=0)
        with pytest.raises(ValueError):
            FedAvgPartial.from_updates([ghost]).finalize()

    def test_dimension_mismatch_rejected(self):
        a = FedAvgPartial.from_updates([ModelUpdate("a", 1, np.ones(3), 0.0, 5)])
        b = FedAvgPartial.from_updates([ModelUpdate("b", 1, np.ones(4), 0.0, 5)])
        with pytest.raises(ValueError):
            FedAvgPartial.merge([a, b])

    def test_partials_survive_pickling(self):
        import pickle

        updates = build_updates(6, 8, seed=1, with_zero_samples=False)
        partial = FedAvgPartial.from_updates(updates)
        restored = pickle.loads(pickle.dumps(partial))
        assert restored.finalize()[0].tobytes() == partial.finalize()[0].tobytes()
        assert restored.total_samples == partial.total_samples
