"""The reference model is a test-only oracle, and a flow without block
support runs on the wave schedule yet matches it bit for bit."""

import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from repro.cloud import CallbackSink
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
from repro.ml import standard_fl_flow
from repro.ml.operators import BlockOperatorContext, Operator, OperatorFlow, UploadUpdateOp
from repro.reference import ReferenceLogicalSimulation
from repro.simkernel import RandomStreams, Simulator

SRC = Path(__file__).resolve().parent.parent / "src"
NODES = [NodeSpec(cpus=10, memory_gb=20)] * 2
COST = LogicalCostModel(alpha={"Std": 9.0}, actor_startup=0.5, runner_setup=2.0)
FEATURE_DIM = 16
MODEL_BYTES = 2048


class NoBlockUpload(UploadUpdateOp):
    """An operator with only a per-device implementation."""

    supports_block = False


def no_block_flow() -> OperatorFlow:
    return OperatorFlow(list(standard_fl_flow(epochs=2, batch_size=4).operators[:-1]) + [NoBlockUpload()])


def make_plan(flow: OperatorFlow, n_devices: int = 11, n_actors: int = 4) -> GradeExecutionPlan:
    rng = np.random.default_rng(5)
    assignments = []
    for i in range(n_devices):
        n = 6 + i % 3
        features = rng.integers(0, FEATURE_DIM, size=(n, 3)).astype(np.int32)
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        assignments.append(
            DeviceAssignment(f"d{i:03d}", "Std", n, dataset=DeviceDataset(f"d{i:03d}", features, labels))
        )
    return GradeExecutionPlan(
        grade="Std",
        assignments=assignments,
        n_actors=n_actors,
        bundle=ResourceBundle(cpus=1, memory_gb=1),
        flow=flow,
        feature_dim=FEATURE_DIM,
        numeric=True,
    )


def run_logical(tier_cls, sink_factory, rounds: int = 2):
    """Drive ``rounds`` FedAvg-free rounds; return (round results, outcomes)."""
    sim = Simulator()
    logical = tier_cls(sim, K8sCluster(NODES), COST, streams=RandomStreams(3))
    plan = make_plan(no_block_flow())
    outcomes = []

    def drive():
        yield sim.process(logical.prepare([plan], task_id="t"))
        for round_index in range(1, rounds + 1):
            yield sim.process(
                logical.run_round(round_index, np.zeros(FEATURE_DIM), 0.0, MODEL_BYTES, sink_factory(outcomes))
            )

    sim.process(drive())
    sim.run(batch=tier_cls is LogicalSimulation)
    logical.teardown()
    return logical.rounds, outcomes


def test_production_never_imports_the_reference_model():
    code = (
        "import sys, repro\n"
        "from repro.scenarios import build_scenario, run_scenario\n"
        "from repro.experiments import run_fig5_device_trace\n"
        "run_scenario(build_scenario('diurnal_multitenant', scale=200, seed=0))\n"
        "run_fig5_device_trace(rounds=1)\n"
        "assert 'repro.reference' not in sys.modules, 'repro.reference was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestNonBlockFlowOnTheWaveSchedule:
    def test_logical_tier_matches_reference_bitwise(self):
        assert not no_block_flow().supports_block
        ref_rounds, ref_outcomes = run_logical(ReferenceLogicalSimulation, lambda seen: CallbackSink(seen.append))
        wave_rounds, _ = run_logical(LogicalSimulation, lambda seen: None)
        # Both rounds took the wave schedule: one columnar block each.
        assert all(len(r.columnar) == 1 and not r.outcomes for r in wave_rounds)
        wave_outcomes = [o for r in wave_rounds for o in r.all_outcomes()]
        key = attrgetter("round_index", "device_id")
        assert len(ref_outcomes) == len(wave_outcomes) == 22
        for a, b in zip(sorted(ref_outcomes, key=key), sorted(wave_outcomes, key=key)):
            assert (a.device_id, a.round_index, a.n_samples, a.payload_bytes) == (
                b.device_id, b.round_index, b.n_samples, b.payload_bytes
            )
            assert a.finished_at == b.finished_at
            assert a.update.weights.tobytes() == b.update.weights.tobytes()
            assert a.update.bias == b.update.bias
            assert a.update.metadata == b.update.metadata
        for a, b in zip(ref_rounds, wave_rounds):
            assert (a.started_at, a.finished_at) == (b.started_at, b.finished_at)

    def test_streaming_sink_sees_the_reference_order(self):
        _, ref_outcomes = run_logical(ReferenceLogicalSimulation, lambda seen: CallbackSink(seen.append))
        _, wave_outcomes = run_logical(LogicalSimulation, lambda seen: CallbackSink(seen.append))
        assert [(o.device_id, o.finished_at) for o in ref_outcomes] == [
            (o.device_id, o.finished_at) for o in wave_outcomes
        ]


class TestRowFallback:
    def block_for(self, plan, rngs):
        return BlockOperatorContext(
            device_ids=[a.device_id for a in plan.assignments],
            grade="Std",
            datasets=[a.dataset for a in plan.assignments],
            feature_dim=FEATURE_DIM,
            global_weights=np.zeros(FEATURE_DIM),
            round_index=1,
            rngs=rngs,
        )

    def test_rows_use_their_own_generators(self):
        plan = make_plan(no_block_flow(), n_devices=3)
        fast = self.block_for(plan, [np.random.default_rng(i) for i in range(3)])
        plan.flow.execute_block(fast)
        vectorized = make_plan(standard_fl_flow(epochs=2, batch_size=4), n_devices=3)
        block = self.block_for(vectorized, [np.random.default_rng(i) for i in range(3)])
        vectorized.flow.execute_block(block)
        assert fast.outputs["update_weights"].tobytes() == block.outputs["update_weights"].tobytes()
        assert fast.outputs["update_biases"].tobytes() == block.outputs["update_biases"].tobytes()

    def test_flow_without_uploads_leaves_no_update_arrays(self):
        flow = OperatorFlow(list(no_block_flow().operators[:-1]) + [NoBlockMark()])
        plan = make_plan(flow, n_devices=2)
        block = self.block_for(plan, None)
        flow.execute_block(block)
        assert "update_weights" not in block.outputs

    def test_partial_uploads_are_rejected(self):
        class UploadFirstOnly(UploadUpdateOp):
            supports_block = False

            def apply(self, context):
                if context.device_id == "d000":
                    super().apply(context)

        flow = OperatorFlow(list(no_block_flow().operators[:-1]) + [UploadFirstOnly()])
        plan = make_plan(flow, n_devices=2)
        with pytest.raises(RuntimeError, match="some devices"):
            flow.execute_block(self.block_for(plan, None))


class NoBlockMark(Operator):
    """A per-device operator that uploads nothing."""

    name = "mark"

    def apply(self, context):
        context.outputs["touched"] = True
