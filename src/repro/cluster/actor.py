"""Actors: the concurrent device slots of the logical simulation.

"This master node utilizes Ray's distributed computing framework to
directly launch placement groups of actors on worker nodes, with each actor
sequentially simulating multiple devices" (§IV-A).  An actor therefore owns
one composite resource bundle and works through its queue of simulated
devices one at a time; a grade with ``f`` requested unit bundles and ``k``
units per device runs ``f/k`` actors concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator
from typing import Any

from repro.cluster.cost import LogicalCostModel
from repro.data.avazu import DeviceDataset
from repro.simkernel import Simulator, Timeout


@dataclass
class DeviceAssignment:
    """One simulated device queued on an actor.

    ``dataset`` may be ``None`` for *time-only* runs (the large-scale
    scalability experiments), in which case ``n_samples`` still feeds the
    dummy update so aggregation triggers behave realistically.
    """

    device_id: str
    grade: str
    n_samples: int
    dataset: DeviceDataset | None = None

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")


@dataclass
class DeviceRoundOutcome:
    """What one device produced in one round."""

    device_id: str
    grade: str
    round_index: int
    n_samples: int
    payload_bytes: int
    update: Any | None  # ModelUpdate when the run is numeric
    finished_at: float


class SimActor:
    """A sequential device-execution slot on the logical tier.

    The slot's rounds are laid out by
    :class:`~repro.cluster.runner.LogicalSimulation`'s wave schedule; the
    actor itself pays startup and download time.

    Parameters
    ----------
    sim:
        Shared simulator.
    actor_id:
        Unique id (also names the actor's random stream).
    grade:
        Device grade this actor simulates.
    cost_model:
        Simulated-time cost constants.
    """

    def __init__(
        self,
        sim: Simulator,
        actor_id: str,
        grade: str,
        cost_model: LogicalCostModel,
    ) -> None:
        self.sim = sim
        self.actor_id = actor_id
        self.grade = grade
        self.cost_model = cost_model

    def startup(self) -> Generator:
        """Actor creation + runtime parameter configuration."""
        yield Timeout(self.cost_model.actor_startup)

    def download(self, n_bytes: int) -> Generator:
        """Pull data or model bytes from shared storage."""
        yield Timeout(self.cost_model.transfer_duration(n_bytes))

    def __repr__(self) -> str:
        return f"SimActor({self.actor_id!r}, grade={self.grade!r})"
