"""Unit tests for the logical-simulation cluster substrate."""

import numpy as np
import pytest

from repro.cloud import CallbackSink
from repro.cluster import (
    DeviceAssignment,
    GradeExecutionPlan,
    JobState,
    K8sCluster,
    LogicalCostModel,
    LogicalSimulation,
    NodeSpec,
    PlacementStrategy,
    RayJob,
    ResourceBundle,
)
from repro.cluster.resources import WorkerNode
from repro.data import SyntheticAvazu
from repro.ml import standard_fl_flow
from repro.reference import partition_round_robin
from repro.simkernel import ProcessError, RandomStreams, Simulator, Timeout


class TestResourceBundle:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBundle(cpus=-1)
        with pytest.raises(ValueError):
            ResourceBundle(cpus=0, memory_gb=0, gpus=0)

    def test_units_relative_to_unit_bundle(self):
        unit = ResourceBundle(cpus=1, memory_gb=1)
        high = ResourceBundle(cpus=4, memory_gb=12)
        low = ResourceBundle(cpus=1, memory_gb=6)
        assert high.units_relative_to(unit) == 12
        assert low.units_relative_to(unit) == 6

    def test_units_paper_example(self):
        # §IV-B: a High-grade device requiring 8 unit bundles.
        unit = ResourceBundle(cpus=1, memory_gb=1)
        grade = ResourceBundle(cpus=8, memory_gb=8)
        assert grade.units_relative_to(unit) == 8

    def test_units_missing_dimension_rejected(self):
        unit = ResourceBundle(cpus=1, memory_gb=1, gpus=0)
        with_gpu = ResourceBundle(cpus=1, memory_gb=1, gpus=1)
        with pytest.raises(ValueError):
            with_gpu.units_relative_to(unit)

    def test_scaled(self):
        bundle = ResourceBundle(cpus=2, memory_gb=4).scaled(1.5)
        assert bundle.cpus == 3
        assert bundle.memory_gb == 6


class TestWorkerNode:
    def test_allocate_release_cycle(self):
        node = WorkerNode("n0", NodeSpec(cpus=8, memory_gb=16))
        bundle = ResourceBundle(cpus=4, memory_gb=12)
        assert node.can_fit(bundle)
        node.allocate(bundle)
        assert not node.can_fit(bundle)
        assert not node.idle
        node.release(bundle)
        assert node.idle

    def test_over_allocation_rejected(self):
        node = WorkerNode("n0", NodeSpec(cpus=2, memory_gb=2))
        with pytest.raises(RuntimeError):
            node.allocate(ResourceBundle(cpus=4, memory_gb=1))

    def test_over_release_detected(self):
        node = WorkerNode("n0", NodeSpec(cpus=2, memory_gb=2))
        with pytest.raises(RuntimeError):
            node.release(ResourceBundle(cpus=1, memory_gb=1))


class TestK8sCluster:
    def test_default_experiment_cluster_matches_paper(self):
        cluster = K8sCluster.default_experiment_cluster()
        assert cluster.total_cpus == 200
        assert cluster.total_memory_gb == 300

    def test_elastic_scaling(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        node_id = cluster.add_node(NodeSpec(4, 8))
        assert cluster.total_cpus == 8
        cluster.remove_node(node_id)
        assert cluster.total_cpus == 4

    def test_remove_busy_node_rejected(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        group = cluster.allocate([ResourceBundle(cpus=2, memory_gb=2)])
        node_id = group.node_ids[0]
        with pytest.raises(RuntimeError):
            cluster.remove_node(node_id)

    def test_gang_allocation_all_or_nothing(self):
        cluster = K8sCluster([NodeSpec(4, 8), NodeSpec(4, 8)])
        # 3 bundles of 3 CPUs: only 2 fit (one per node); gang must fail
        # without leaking partial allocations.
        bundles = [ResourceBundle(cpus=3, memory_gb=1)] * 3
        assert cluster.allocate(bundles) is None
        assert cluster.free_cpus == 8

    def test_pack_fills_first_node(self):
        cluster = K8sCluster([NodeSpec(8, 16), NodeSpec(8, 16)])
        group = cluster.allocate(
            [ResourceBundle(cpus=2, memory_gb=2)] * 3, PlacementStrategy.PACK
        )
        assert len(set(group.node_ids)) == 1

    def test_spread_uses_both_nodes(self):
        cluster = K8sCluster([NodeSpec(8, 16), NodeSpec(8, 16)])
        group = cluster.allocate(
            [ResourceBundle(cpus=2, memory_gb=2)] * 2, PlacementStrategy.SPREAD
        )
        assert len(set(group.node_ids)) == 2

    def test_release_returns_capacity(self):
        cluster = K8sCluster([NodeSpec(8, 16)])
        group = cluster.allocate([ResourceBundle(cpus=4, memory_gb=4)])
        assert cluster.free_cpus == 4
        cluster.release(group)
        assert cluster.free_cpus == 8

    def test_double_release_rejected(self):
        cluster = K8sCluster([NodeSpec(8, 16)])
        group = cluster.allocate([ResourceBundle(cpus=1, memory_gb=1)])
        cluster.release(group)
        with pytest.raises(RuntimeError):
            cluster.release(group)

    def test_can_allocate_is_side_effect_free(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        assert cluster.can_allocate([ResourceBundle(cpus=4, memory_gb=8)])
        assert cluster.free_cpus == 4

    def test_empty_allocation_rejected(self):
        cluster = K8sCluster([NodeSpec(4, 8)])
        with pytest.raises(ValueError):
            cluster.allocate([])


class TestLogicalCostModel:
    def test_waves(self):
        model = LogicalCostModel()
        assert model.waves(100, 10) == 10
        assert model.waves(101, 10) == 11
        assert model.waves(0, 10) == 0

    def test_device_round_duration_scales_with_work(self):
        model = LogicalCostModel(alpha={"High": 10.0})
        assert model.device_round_duration("High") == 10.0
        assert model.device_round_duration("High", model.flow_reference_work * 2) == 20.0

    def test_unknown_grade(self):
        with pytest.raises(KeyError):
            LogicalCostModel().device_round_duration("Ultra")

    def test_tier_duration_closed_form(self):
        model = LogicalCostModel(alpha={"High": 10.0})
        assert model.tier_duration("High", 25, 10) == 30.0

    def test_transfer_duration(self):
        model = LogicalCostModel()
        small = model.transfer_duration(0)
        large = model.transfer_duration(10**9)
        assert small == pytest.approx(model.download_latency)
        assert large > 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LogicalCostModel(alpha={})
        with pytest.raises(ValueError):
            LogicalCostModel(alpha={"High": -1.0})
        with pytest.raises(ValueError):
            LogicalCostModel().waves(10, 0)


class TestRayJob:
    def test_successful_lifecycle(self):
        sim = Simulator()

        def body():
            yield Timeout(5.0)
            return 42

        job = RayJob(body, name="test-job").submit(sim)
        assert job.state is JobState.PENDING
        sim.run()
        assert job.state is JobState.SUCCEEDED
        assert job.result == 42
        assert job.duration == 5.0
        assert job.completion.fired

    def test_failed_job_captured(self):
        sim = Simulator()

        def body():
            yield Timeout(1.0)
            raise RuntimeError("job exploded")

        job = RayJob(body).submit(sim)
        waited = []

        def waiter():
            try:
                yield job.completion
            except RuntimeError as exc:
                waited.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert job.state is JobState.FAILED
        assert waited == ["job exploded"]

    def test_double_submit_rejected(self):
        sim = Simulator()

        def body():
            return None
            yield  # pragma: no cover

        job = RayJob(body).submit(sim)
        with pytest.raises(RuntimeError):
            job.submit(sim)


def build_plan(n_devices, n_actors, grade="High", numeric=False, flow=None):
    assignments = [
        DeviceAssignment(device_id=f"d{i}", grade=grade, n_samples=10)
        for i in range(n_devices)
    ]
    return GradeExecutionPlan(
        grade=grade,
        assignments=assignments,
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=4, memory_gb=12),
        flow=flow or standard_fl_flow(epochs=1),
        numeric=numeric,
    )


class TestLogicalSimulation:
    def test_time_only_round_makespan(self):
        sim = Simulator()
        cluster = K8sCluster.default_experiment_cluster()
        cost = LogicalCostModel(alpha={"High": 10.0}, actor_startup=0.0, runner_setup=0.0,
                                download_latency=0.0, download_bandwidth_bps=1e18)
        logical = LogicalSimulation(sim, cluster, cost)
        flow = standard_fl_flow()  # total_work == reference -> alpha as-is
        plan = build_plan(25, 10, flow=flow)
        outcomes = []

        def run():
            yield sim.process(logical.prepare([plan], task_id="t"))
            result = yield sim.process(
                logical.run_round(1, None, 0.0, model_bytes=0, sink=CallbackSink(outcomes.append))
            )
            return result

        proc = sim.process(run())
        sim.run()
        result = proc.result
        # 25 devices over 10 actors -> 3 waves of 10 s.
        assert result.duration == pytest.approx(30.0)
        assert result.n_devices == 25
        assert len(outcomes) == 25
        logical.teardown()
        assert cluster.free_cpus == cluster.total_cpus

    def test_numeric_round_produces_updates(self):
        sim = Simulator()
        cluster = K8sCluster.default_experiment_cluster()
        logical = LogicalSimulation(sim, cluster, streams=RandomStreams(3))
        data = SyntheticAvazu(n_devices=6, records_per_device=15, feature_dim=128, seed=1).generate()
        assignments = [
            DeviceAssignment(device_id=d, grade="High", n_samples=data.shard(d).n_samples,
                             dataset=data.shard(d))
            for d in data.device_ids()
        ]
        plan = GradeExecutionPlan(
            grade="High",
            assignments=assignments,
            n_actors=2,
            bundle=ResourceBundle(cpus=4, memory_gb=12),
            flow=standard_fl_flow(epochs=1),
            feature_dim=128,
            numeric=True,
        )
        updates = []

        def run():
            yield sim.process(logical.prepare([plan]))
            yield sim.process(
                logical.run_round(
                    1, np.zeros(128), 0.0, model_bytes=1024,
                    sink=CallbackSink(lambda o: updates.append(o.update)),
                )
            )

        sim.process(run())
        sim.run()
        assert len(updates) == 6
        assert all(u is not None for u in updates)
        assert {u.device_id for u in updates} == set(data.device_ids())

    def test_insufficient_cluster_rejected(self):
        sim = Simulator()
        cluster = K8sCluster([NodeSpec(2, 2)])
        logical = LogicalSimulation(sim, cluster)
        plan = build_plan(4, 4)

        def run():
            yield sim.process(logical.prepare([plan]))

        proc = sim.process(run())
        with pytest.raises(ProcessError):
            sim.run()
        assert proc.error is not None or sim.orphan_failures

    def test_round_before_prepare_rejected(self):
        sim = Simulator()
        logical = LogicalSimulation(sim, K8sCluster([NodeSpec(8, 16)]))
        logical.plans = [build_plan(2, 1)]
        with pytest.raises(RuntimeError):
            list(logical.run_round(1, None, 0.0, 0, CallbackSink(lambda o: None)))

    def test_partition_round_robin(self):
        assignments = [DeviceAssignment(f"d{i}", "High", 1) for i in range(5)]
        queues = partition_round_robin(assignments, 2)
        assert [a.device_id for a in queues[0]] == ["d0", "d2", "d4"]
        assert [a.device_id for a in queues[1]] == ["d1", "d3"]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            build_plan(4, 0)
        with pytest.raises(ValueError):
            DeviceAssignment("d", "High", n_samples=0)
