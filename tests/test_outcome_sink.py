"""The OutcomeSink contract and the block-vs-scalar ingestion differential.

Four layers of the same guarantee:

1. Protocol mechanics — structural ``isinstance`` checks, rejection of
   non-sinks, block materialization.
2. Sink level — one ``accept_block`` of a block leaves storage and the
   aggregation service bit-identical to ``accept`` of each materialized
   outcome.
3. Tier level — a ``LogicalSimulation`` round delivered to a
   ``CloudIngestSink`` in block mode matches the same round streamed per
   device.
4. Platform level — a multi-tenant scenario (including a DeviceFlow
   tenant, which always streams) reproduces the report digest recorded
   when block and scalar ingestion were both selectable.
"""

import numpy as np
import pytest

from repro.cloud import (
    AggregationService,
    CallbackSink,
    CloudIngestSink,
    ObjectStorage,
    OutcomeSink,
    check_sink,
)
from repro.cloud.aggregation import AggregationTrigger
from repro.cluster import (
    DeviceAssignment,
    GradeExecutionPlan,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    ResourceBundle,
)
from repro.data.avazu import DeviceDataset
from repro.deviceflow import DeviceFlow, RealTimeAccumulatedStrategy
from repro.ml import standard_fl_flow
from repro.ml.model import LogisticRegressionModel
from repro.scenarios import (
    ArrivalSpec,
    DispatchSpec,
    GradeSpec,
    ScenarioSpec,
    TenantSpec,
    run_scenario,
)
from repro.reference import ReferenceLogicalSimulation, reference_tiers
from repro.simkernel import ProcessError, RandomStreams, Simulator

FEATURE_DIM = 16
MODEL_BYTES = 2048
NODES = [NodeSpec(cpus=10, memory_gb=20)] * 2
COST = LogicalCostModel(alpha={"Std": 9.0}, actor_startup=0.5, runner_setup=2.0)


# ----------------------------------------------------------------------
# protocol mechanics
# ----------------------------------------------------------------------
class TestProtocol:
    def test_structural_isinstance(self):
        class Good:
            def accept(self, outcome):
                pass

            def accept_block(self, block):
                pass

        class Missing:
            def accept(self, outcome):
                pass

        assert isinstance(Good(), OutcomeSink)
        assert not isinstance(Missing(), OutcomeSink)
        assert isinstance(CallbackSink(lambda o: None), OutcomeSink)
        sim = Simulator()
        sink = CloudIngestSink(
            sim, "t", ObjectStorage(),
            AggregationService(sim, ObjectStorage(), AggregationTrigger()),
        )
        assert isinstance(sink, OutcomeSink)

    def test_check_sink_passes_sinks_and_none(self):
        check_sink(CallbackSink(lambda o: None))
        check_sink(None)
        with pytest.raises(TypeError):
            CallbackSink("not-callable")

    @pytest.mark.parametrize("bad", [lambda o: None, 42], ids=["bare-callable", "int"])
    def test_run_round_rejects_non_sinks(self, bad):
        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(0))
        plan = make_plan(n_devices=4, numeric=False)

        def drive():
            yield sim.process(logical.prepare([plan]))
            yield sim.process(logical.run_round(1, None, 0.0, 0, bad))

        sim.process(drive())
        with pytest.raises(ProcessError, match="wrap a bare callable in CallbackSink"):
            sim.run()
        logical.teardown()

    def test_flow_connected_sink_always_streams(self):
        sim = Simulator()
        service = AggregationService(sim, ObjectStorage(), AggregationTrigger())
        flow = DeviceFlow(sim)
        flow.register_task("t", RealTimeAccumulatedStrategy(thresholds=[1]), service.receive_message)
        sink = CloudIngestSink(sim, "t", ObjectStorage(), service, deviceflow=flow)
        assert sink.prefers_blocks is False
        direct = CloudIngestSink(sim, "t", ObjectStorage(), service)
        assert direct.prefers_blocks is True


# ----------------------------------------------------------------------
# tier-level differential
# ----------------------------------------------------------------------
def make_plan(n_devices=12, n_actors=4, numeric=True):
    rng = np.random.default_rng(17)
    assignments = []
    for i in range(n_devices):
        features = rng.integers(0, FEATURE_DIM, size=(10, 4)).astype(np.int32)
        labels = rng.integers(0, 2, size=10).astype(np.int8)
        assignments.append(
            DeviceAssignment(
                f"d{i:04d}", "Std", 10,
                dataset=DeviceDataset(f"d{i:04d}", features, labels) if numeric else None,
            )
        )
    return GradeExecutionPlan(
        grade="Std",
        assignments=assignments,
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=standard_fl_flow(epochs=1, batch_size=8),
        feature_dim=FEATURE_DIM,
        numeric=numeric,
    )


def run_tier_round(blocks):
    """One numeric round delivered through a CloudIngestSink.

    ``blocks=False`` streams the round into the sink per device (through
    a CallbackSink wrapped around ``sink.accept``).
    """
    sim = Simulator()
    logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
    storage = ObjectStorage()
    service = AggregationService(
        sim, storage, AggregationTrigger(), model=LogisticRegressionModel(FEATURE_DIM)
    )
    ingest = CloudIngestSink(sim, "t", storage, service)
    sink = ingest if blocks else CallbackSink(ingest.accept)
    plan = make_plan()

    def drive():
        yield sim.process(logical.prepare([plan], task_id="t"))
        yield sim.process(
            logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink)
        )

    sim.process(drive())
    sim.run(batch=True)
    record = service.aggregate_now()
    logical.teardown()
    return storage, service, record


def assert_ingest_identical(scalar, block) -> None:
    """Storage, aggregation service and fold record agree bit for bit."""
    storage_s, service_s, record_s = scalar
    storage_b, service_b, record_b = block

    # Aggregation: same fold, bit-identical model.
    assert np.array_equal(service_b.model.weights, service_s.model.weights)
    assert service_b.model.bias == service_s.model.bias
    assert record_b.n_updates == record_s.n_updates
    assert record_b.n_samples == record_s.n_samples
    assert record_b.time == record_s.time
    assert service_b.messages_received == service_s.messages_received
    assert service_b.bytes_received == service_s.bytes_received

    # Storage: same keys, same payload bits, same metadata.
    shared_keys = storage_s.keys()
    assert storage_b.keys() == shared_keys
    assert storage_b.put_count == storage_s.put_count
    assert storage_b.total_bytes_written == storage_s.total_bytes_written
    for key in shared_keys:
        head_b, head_s = storage_b.head(key), storage_s.head(key)
        assert head_b.size_bytes == head_s.size_bytes
        assert head_b.stored_at == head_s.stored_at
        assert head_b.writer == head_s.writer
        update_b, update_s = storage_b.get(key), storage_s.get(key)
        assert np.array_equal(update_b.weights, update_s.weights)
        assert update_b.bias == update_s.bias
        assert update_b.n_samples == update_s.n_samples


def wave_block():
    """One numeric round's columnar block (no sink: nothing delivered)."""
    sim = Simulator()
    logical = LogicalSimulation(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))

    def drive():
        yield sim.process(logical.prepare([make_plan()], task_id="t"))
        yield sim.process(logical.run_round(1, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, None))

    sim.process(drive())
    sim.run(batch=True)
    logical.teardown()
    (block,) = logical.rounds[0].columnar
    return block


def ingest(block, blocks: bool):
    """Feed ``block`` to a fresh CloudIngestSink whole or per outcome.

    Each delivery happens at its simulated completion time, as a tier
    would make it.
    """
    sim = Simulator()
    storage = ObjectStorage()
    service = AggregationService(
        sim, storage, AggregationTrigger(), model=LogisticRegressionModel(FEATURE_DIM)
    )
    sink = CloudIngestSink(sim, "t", storage, service)
    if blocks:
        sim.schedule_at(float(block.finished_at.max()), sink.accept_block, block)
    else:
        for outcome in block.materialize():
            sim.schedule_at(outcome.finished_at, sink.accept, outcome)
    sim.run()
    return storage, service, service.aggregate_now()


class TestSinkDifferential:
    def test_accept_block_matches_accept_of_materialized_outcomes(self):
        block = wave_block()
        assert len(block) == 12 and block.update_weights is not None
        assert_ingest_identical(ingest(block, blocks=False), ingest(block, blocks=True))


class TestTierDifferential:
    def test_block_and_scalar_ingestion_identical(self):
        assert_ingest_identical(run_tier_round(blocks=False), run_tier_round(blocks=True))

    def test_callback_sink_materializes_blocks_in_completion_order(self):
        # A CallbackSink handed to the wave-scheduled tier must observe
        # the same per-device stream as the reference model's actors.
        seen = {}
        for tier in (LogicalSimulation, ReferenceLogicalSimulation):
            sim = Simulator()
            logical = tier(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
            plan = make_plan(numeric=False)
            sink = CallbackSink(seen.setdefault(tier, []).append)

            def drive():
                yield sim.process(logical.prepare([plan], task_id="t"))
                yield sim.process(logical.run_round(1, None, 0.0, 0, sink))

            sim.process(drive())
            sim.run(batch=tier is LogicalSimulation)
            logical.teardown()
        wave, reference = seen[LogicalSimulation], seen[ReferenceLogicalSimulation]
        assert len(wave) == 12
        assert [o.device_id for o in wave] == [o.device_id for o in reference]
        assert [o.finished_at for o in wave] == [o.finished_at for o in reference]


# ----------------------------------------------------------------------
# platform-level differential
# ----------------------------------------------------------------------
def sink_scenario() -> ScenarioSpec:
    """Two tenants: a DeviceFlow (always-streaming) one and a direct
    numeric one whose rounds take the columnar block path."""
    return ScenarioSpec(
        name="sink-differential",
        seed=0,
        horizon_s=600.0,
        cluster_nodes=2,
        tenants=[
            TenantSpec(
                name="flow",
                priority=5,
                rounds=2,
                grades=[GradeSpec(grade="High", n_devices=8, bundles=8, n_phones=1)],
                arrival=ArrivalSpec(kind="periodic", count=1, period_s=200.0, offset_s=10.0),
                dispatch=DispatchSpec(kind="realtime", thresholds=[3], failure_prob=0.1),
            ),
            TenantSpec(
                name="direct",
                priority=1,
                numeric=True,
                feature_dim=32,
                records_per_device=6,
                rounds=2,
                grades=[GradeSpec(grade="Low", n_devices=6, bundles=6)],
                arrival=ArrivalSpec(kind="trace", times=[20.0]),
            ),
        ],
    )


class TestPlatformDifferential:
    def test_cloud_blocks_report_byte_identical(self, golden, sha256):
        # The direct tenant's rounds reach the cloud as columnar blocks;
        # the digest was recorded with per-device (scalar) ingestion.
        report = run_scenario(sink_scenario())
        assert sha256(report.to_json()) == golden["differential"]["sink_differential"]

    def test_cloud_blocks_matches_legacy_generator_path(self, golden, sha256):
        # The same digest matched the per-device generator engine; the
        # reference model must still reproduce it.
        with reference_tiers():
            report = run_scenario(sink_scenario())
        assert sha256(report.to_json()) == golden["differential"]["sink_differential"]
