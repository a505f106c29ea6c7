"""Synthetic Avazu-like federated CTR dataset.

Each record is an ad impression: a handful of categorical fields hashed to
feature indices plus a binary click label.  Records are grouped by device;
the generator plants a logistic ground truth so that (a) models can
actually learn, (b) per-device click-through rates are controllable, which
the paper's non-IID experiments (Fig. 9, Fig. 11) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.data.features import HashingEncoder

#: Categorical fields modelled after the public Avazu schema.
AVAZU_FIELDS: tuple[str, ...] = (
    "hour_of_day",
    "banner_pos",
    "site_category",
    "app_category",
    "device_model",
    "device_type",
    "device_conn_type",
    "C14",
    "C17",
    "C21",
)

#: Vocabulary sizes per field (rough Avazu orders of magnitude, trimmed so
#: a 4096-bucket hash space stays informative).
_FIELD_CARDINALITIES: dict[str, int] = {
    "hour_of_day": 24,
    "banner_pos": 7,
    "site_category": 26,
    "app_category": 36,
    "device_model": 200,
    "device_type": 5,
    "device_conn_type": 4,
    "C14": 300,
    "C17": 120,
    "C21": 60,
}


def _zipf_cdf(cardinality: int) -> np.ndarray:
    """Cumulative Zipf popularity of ``cardinality`` category ids.

    Categorical fields in click logs are heavily skewed toward a few
    frequent values.  The arithmetic is exactly that of
    ``Generator.choice`` given these Zipf probabilities, so
    ``cdf.searchsorted(u, side="right")`` on the same uniforms ``u``
    returns the ids it would.
    """
    ranks = np.arange(1, cardinality + 1, dtype=float)
    probs = 1.0 / ranks
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


#: Zipf CDF per field cardinality, built once at import.
_ZIPF_CDFS: dict[int, np.ndarray] = {
    cardinality: _zipf_cdf(cardinality) for cardinality in set(_FIELD_CARDINALITIES.values())
}


@dataclass
class DeviceDataset:
    """The local data of one simulated device.

    Attributes
    ----------
    device_id:
        Stable identifier, mirrors Avazu's ``device_id`` column.
    features:
        ``(n_records, n_fields)`` int32 array of hashed feature indices.
    labels:
        ``(n_records,)`` int8 array of click labels.
    """

    device_id: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (records x fields)")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_samples(self) -> int:
        """Number of local records."""
        return len(self.labels)

    @property
    def positive_rate(self) -> float:
        """Observed click-through rate of this shard."""
        if len(self.labels) == 0:
            return 0.0
        return float(self.labels.mean())

    def nbytes(self) -> int:
        """Approximate in-memory payload size (used for transfer costing)."""
        return int(self.features.nbytes + self.labels.nbytes)


@dataclass
class FederatedDataset:
    """A device-partitioned CTR dataset plus a held-out test shard."""

    devices: dict[str, DeviceDataset]
    test: DeviceDataset
    feature_dim: int
    fields: tuple[str, ...] = AVAZU_FIELDS
    device_biases: dict[str, float] = field(default_factory=dict)

    @property
    def n_devices(self) -> int:
        """Number of device shards."""
        return len(self.devices)

    @property
    def n_records(self) -> int:
        """Total training records across all devices."""
        return sum(len(shard) for shard in self.devices.values())

    def device_ids(self) -> list[str]:
        """Sorted device identifiers (stable iteration order)."""
        return sorted(self.devices)

    def shard(self, device_id: str) -> DeviceDataset:
        """Return the shard of one device."""
        return self.devices[device_id]

    def subset(self, device_ids: Sequence[str]) -> FederatedDataset:
        """A view restricted to ``device_ids`` (same test shard)."""
        return FederatedDataset(
            devices={d: self.devices[d] for d in device_ids},
            test=self.test,
            feature_dim=self.feature_dim,
            fields=self.fields,
            device_biases={d: self.device_biases.get(d, 0.0) for d in device_ids},
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def _draw_shards(
    rng: np.random.Generator,
    sizes: np.ndarray,
    vocab: dict[str, np.ndarray],
    true_weights: np.ndarray,
    shard_biases: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Features, and labels if ``shard_biases`` is given, of consecutive shards.

    One ``rng.random`` call supplies every uniform.  Shard ``i`` of
    ``sizes[i]`` rows owns the next block of the stream: one column of
    ``sizes[i]`` uniforms per field in :data:`AVAZU_FIELDS` order, then
    (with labels) ``sizes[i]`` label uniforms.  Label ``j`` of shard ``i``
    is a Bernoulli draw of the planted logistic model with logit bias
    ``shard_biases[i]``.  Returns ``(n_rows, n_fields)`` int32 features
    and ``(n_rows,)`` int8 labels (``None`` without ``shard_biases``).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_rows = int(sizes.sum())
    width = len(AVAZU_FIELDS) + (shard_biases is not None)
    starts = np.cumsum(sizes) - sizes
    uniforms = rng.random(width * n_rows)
    # Row r of the shard starting at row s reads field f at
    # width * s + f * size + (r - s) of the stream.
    position = np.repeat((width - 1) * starts, sizes) + np.arange(n_rows)
    stride = np.repeat(sizes, sizes)
    features = np.empty((n_rows, len(AVAZU_FIELDS)), dtype=np.int32)
    for column, fld in enumerate(AVAZU_FIELDS):
        table = vocab[fld]
        ids = _ZIPF_CDFS[len(table)].searchsorted(uniforms[position], side="right")
        features[:, column] = table[ids]
        position += stride
    if shard_biases is None:
        return features, None
    logits = true_weights[features].sum(axis=1) + np.repeat(shard_biases, sizes)
    labels = (uniforms[position] < _sigmoid(logits)).astype(np.int8)
    return features, labels


class SyntheticAvazu:
    """Generator of device-partitioned synthetic CTR data.

    The ground truth is a sparse logistic model over the hashed feature
    space.  Each device adds a scalar logit bias: zero for the IID setting,
    or drawn from a two-component distribution for the paper's
    "differentially distributed" scenario.

    Parameters
    ----------
    n_devices:
        Number of device shards to generate.
    records_per_device:
        Mean local dataset size (actual sizes are Poisson-distributed
        around this mean, min 2 records).
    feature_dim:
        Hash-bucket count (model dimensionality).
    base_ctr:
        Population click-through rate before device bias.
    device_bias_std:
        Standard deviation of benign device-level logit noise.
    signal_scale / active_fraction:
        Strength of the planted logistic signal: standard deviation of
        the active weights and the fraction of hash buckets that carry
        signal.  The defaults make the task genuinely learnable (test
        accuracy climbs well above the majority rate within a few
        FedAvg rounds), which the aggregation-dynamics experiments
        (Figs. 6, 9, 11) rely on.
    seed:
        Reproducibility seed (independent of any simulator seed).
    """

    def __init__(
        self,
        n_devices: int = 100,
        records_per_device: int = 20,
        feature_dim: int = 4096,
        base_ctr: float = 0.17,
        device_bias_std: float = 0.3,
        signal_scale: float = 1.5,
        active_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if records_per_device < 2:
            raise ValueError("records_per_device must be >= 2")
        if not 0.0 < base_ctr < 1.0:
            raise ValueError("base_ctr must be in (0, 1)")
        if signal_scale <= 0:
            raise ValueError("signal_scale must be positive")
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        self.n_devices = int(n_devices)
        self.records_per_device = int(records_per_device)
        self.feature_dim = int(feature_dim)
        self.base_ctr = float(base_ctr)
        self.device_bias_std = float(device_bias_std)
        self.signal_scale = float(signal_scale)
        self.active_fraction = float(active_fraction)
        self.seed = int(seed)
        self.encoder = HashingEncoder(feature_dim, AVAZU_FIELDS)

    def generate(
        self,
        device_biases: np.ndarray | None = None,
        test_records: int = 2000,
    ) -> FederatedDataset:
        """Create the federated dataset.

        Draw order: one seeded stream yields the ground truth, a 4000-row
        calibration sample (ten field columns), the device biases (unless
        given), the Poisson shard sizes, and then every shard's uniforms
        in one block: the devices in id order, then the test shard.  Each
        shard consumes one column of uniforms per field and then one
        column of label uniforms, the order of a per-device
        ``rng.choice(p=...)`` loop, so the shards are bit-identical to
        that loop's.  The shards are row views of one feature array and
        one label array, and the test shard is the last view.

        Parameters
        ----------
        device_biases:
            Optional per-device logit offsets of length ``n_devices``;
            overrides the benign Gaussian biases.  Use
            :func:`repro.data.partition.label_skew_device_biases` for the
            paper's 70/30 differential distribution.
        test_records:
            Size of the held-out (bias-free) test shard.
        """
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xA7A2)))
        true_weights, _ = self._ground_truth(rng)
        vocab = {
            fld: self.encoder.vocabulary_indices(fld, _FIELD_CARDINALITIES[fld])
            for fld in AVAZU_FIELDS
        }
        global_bias = self._calibrate_intercept(rng, true_weights, vocab)
        if device_biases is None:
            device_biases = rng.normal(0.0, self.device_bias_std, self.n_devices)
        elif len(device_biases) != self.n_devices:
            raise ValueError(
                f"device_biases must have length {self.n_devices}, got {len(device_biases)}"
            )
        biases = np.asarray(device_biases, dtype=float)

        sizes = np.maximum(2, rng.poisson(self.records_per_device, self.n_devices))
        # The test shard comes last and carries no device bias.
        shard_sizes = np.append(sizes, test_records)
        features, labels = _draw_shards(
            rng, shard_sizes, vocab, true_weights, global_bias + np.append(biases, 0.0)
        )

        ends = np.cumsum(shard_sizes).tolist()
        starts = [0, *ends[:-1]]
        device_ids = [f"dev-{i:06d}" for i in range(self.n_devices)]
        devices = {
            device_id: DeviceDataset(device_id, features[start:end], labels[start:end])
            for device_id, start, end in zip(device_ids, starts, ends)
        }
        test = DeviceDataset("test", features[starts[-1] :], labels[starts[-1] :])
        return FederatedDataset(
            devices=devices,
            test=test,
            feature_dim=self.feature_dim,
            device_biases=dict(zip(device_ids, biases.tolist())),
        )

    # ------------------------------------------------------------------
    def _ground_truth(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Sparse true weights plus the naive (uncalibrated) intercept."""
        weights = np.zeros(self.feature_dim)
        n_active = max(8, int(self.active_fraction * self.feature_dim))
        active = rng.choice(self.feature_dim, size=n_active, replace=False)
        weights[active] = rng.normal(0.0, self.signal_scale, n_active)
        intercept = float(np.log(self.base_ctr / (1.0 - self.base_ctr)))
        return weights, intercept

    def _calibrate_intercept(
        self,
        rng: np.random.Generator,
        true_weights: np.ndarray,
        vocab: dict[str, np.ndarray],
        n_calibration: int = 4000,
    ) -> float:
        """Intercept such that the *population* CTR hits ``base_ctr``.

        High-variance logits pull the mean of a sigmoid toward 0.5, so the
        naive log-odds intercept undershoots skewed targets; bisection on
        a calibration sample fixes the realised rate.
        """
        features, _ = _draw_shards(rng, np.array([n_calibration]), vocab, true_weights)
        scores = true_weights[features].sum(axis=1)
        low, high = -15.0, 15.0
        for _ in range(60):
            mid = (low + high) / 2.0
            if float(_sigmoid(scores + mid).mean()) < self.base_ctr:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0


def make_federated_ctr_data(
    n_devices: int,
    records_per_device: int = 20,
    feature_dim: int = 4096,
    seed: int = 0,
    skew: dict | None = None,
    test_records: int = 2000,
    base_ctr: float = 0.17,
) -> FederatedDataset:
    """One-call helper combining the generator with optional label skew.

    ``skew`` of ``None`` produces the identically-distributed setting; a
    dict like ``{"positive_fraction": 0.7, "spread": 2.5}`` produces the
    paper's differentially-distributed devices (see
    :func:`repro.data.partition.label_skew_device_biases`).  ``base_ctr``
    of 0.5 yields a balanced population, which keeps plain accuracy an
    informative convergence metric in the aggregation experiments.
    """
    from repro.data.partition import label_skew_device_biases

    generator = SyntheticAvazu(
        n_devices=n_devices,
        records_per_device=records_per_device,
        feature_dim=feature_dim,
        seed=seed,
        base_ctr=base_ctr,
    )
    biases = None
    if skew is not None:
        biases = label_skew_device_biases(
            n_devices,
            positive_fraction=skew.get("positive_fraction", 0.7),
            spread=skew.get("spread", 2.5),
            seed=seed,
        )
    return generator.generate(device_biases=biases, test_records=test_records)
