"""Alarm-driven autoscaling: closing the remediation loop in-simulation.

An :class:`AutoscaleSpec` names an alarm rule; the live
:class:`AutoscalePolicy` subscribes to the monitor stream and reacts to
that rule's ``alarm_raised`` / ``alarm_cleared`` events by driving
:meth:`ResourceManager.scale_up` / :meth:`ResourceManager.scale_down`
and prodding :meth:`TaskManager.notify_resources_changed`, so queued
tasks grab the new capacity on the same simulated tick.

Every action runs as its *own* kernel event (``sim.schedule(0.0, ...)``)
rather than inside the monitor callback that observed the alarm: the
alarm may fire mid-scheduling-pass, and mutating the cluster under a
scheduler decision that was planned against the previous capacity
snapshot would corrupt the pass.  Deferred actions preserve determinism —
same-timestamp events fire in scheduling order — and keep the whole loop
replayable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.cluster.resources import NodeSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.monitor import Monitor, MonitorEvent
    from repro.scheduler.resource_manager import ResourceManager
    from repro.scheduler.task_manager import TaskManager


@dataclass
class AutoscaleSpec:
    """Declarative autoscaling policy bound to one alarm rule.

    Attributes
    ----------
    alarm:
        Name of the :class:`~repro.observability.alarms.AlarmRule` whose
        raise/clear transitions drive scaling.
    node_cpus / node_memory_gb:
        Shape of the nodes the policy adds (defaults to the paper's
        20-core/30-GB worker).
    step:
        Nodes added per scale-up action.
    max_extra_nodes:
        Hard cap on policy-added nodes alive at once.
    cooldown_s:
        Minimum simulated seconds between scale-up actions.  While the
        alarm stays raised the policy re-checks every cooldown and adds
        another ``step`` until the cap (escalating remediation).
    scale_down_on_clear:
        Drain policy-added nodes once the alarm clears (busy nodes are
        retried as their tasks complete).
    """

    alarm: str
    node_cpus: float = 20.0
    node_memory_gb: float = 30.0
    step: int = 1
    max_extra_nodes: int = 4
    cooldown_s: float = 120.0
    scale_down_on_clear: bool = True

    def __post_init__(self) -> None:
        if not self.alarm:
            raise ValueError("autoscale policy needs an alarm rule name")
        if self.node_cpus <= 0 or self.node_memory_gb <= 0:
            raise ValueError("autoscale node shape must be positive")
        if self.step < 1:
            raise ValueError("autoscale step must be >= 1")
        if self.max_extra_nodes < 1:
            raise ValueError("max_extra_nodes must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")

    def node_spec(self) -> NodeSpec:
        return NodeSpec(cpus=self.node_cpus, memory_gb=self.node_memory_gb)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> AutoscaleSpec:
        return cls(**data)


class AutoscalePolicy:
    """Live remediation loop: alarm events in, scaling actions out."""

    def __init__(
        self,
        spec: AutoscaleSpec,
        monitor: Monitor,
        resource_manager: ResourceManager,
        task_manager: TaskManager,
    ) -> None:
        self.spec = spec
        self.monitor = monitor
        self.sim = monitor.sim
        self.resource_manager = resource_manager
        self.task_manager = task_manager
        #: Node ids this policy added and has not yet drained.
        self.added_nodes: list[str] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self._alarm_active = False
        self._last_up_at: float | None = None
        self._up_pending = False
        self._down_pending = False
        monitor.subscribe(self._on_event)

    # ------------------------------------------------------------------
    def _on_event(self, event: MonitorEvent) -> None:
        kind = event.kind
        if kind == "alarm_raised" and event.fields.get("alarm") == self.spec.alarm:
            self._alarm_active = True
            self._request_scale_up()
        elif kind == "alarm_cleared" and event.fields.get("alarm") == self.spec.alarm:
            self._alarm_active = False
            if self.spec.scale_down_on_clear:
                self._request_scale_down()
        elif (
            kind in ("task_completed", "task_failed")
            and self.added_nodes
            and not self._alarm_active
            and self.spec.scale_down_on_clear
        ):
            # A finished task may have freed a policy node we still owe.
            self._request_scale_down()

    # ------------------------------------------------------------------
    def _request_scale_up(self) -> None:
        if self._up_pending or len(self.added_nodes) >= self.spec.max_extra_nodes:
            return
        self._up_pending = True
        now = self.sim.now
        in_cooldown = self._last_up_at is not None and now - self._last_up_at < self.spec.cooldown_s
        delay = self._last_up_at + self.spec.cooldown_s - now if in_cooldown else 0.0
        self.sim.schedule(delay, self._scale_up)

    def _scale_up(self) -> None:
        self._up_pending = False
        if not self._alarm_active or len(self.added_nodes) >= self.spec.max_extra_nodes:
            return
        count = min(self.spec.step, self.spec.max_extra_nodes - len(self.added_nodes))
        node_ids = self.resource_manager.scale_up(self.spec.node_spec(), count)
        self.added_nodes.extend(node_ids)
        self.scale_ups += 1
        self._last_up_at = self.sim.now
        self.monitor.log(
            "autoscale_up",
            alarm=self.spec.alarm,
            nodes=list(node_ids),
            extra_nodes=len(self.added_nodes),
        )
        self.task_manager.notify_resources_changed()
        # Escalate while the alarm stays raised: re-check after cooldown.
        if len(self.added_nodes) < self.spec.max_extra_nodes:
            self._up_pending = True
            self.sim.schedule(max(self.spec.cooldown_s, 1e-9), self._recheck_up)

    def _recheck_up(self) -> None:
        self._up_pending = False
        if self._alarm_active:
            self._request_scale_up()

    # ------------------------------------------------------------------
    def _request_scale_down(self) -> None:
        if self._down_pending or not self.added_nodes:
            return
        self._down_pending = True
        self.sim.schedule(0.0, self._scale_down)

    def _scale_down(self) -> None:
        self._down_pending = False
        if self._alarm_active or not self.added_nodes:
            return
        nodes = self.resource_manager.cluster.nodes
        idle = [nid for nid in self.added_nodes if nid in nodes and nodes[nid].idle]
        if not idle:
            return
        self.resource_manager.scale_down(idle)
        drained = set(idle)
        self.added_nodes = [nid for nid in self.added_nodes if nid not in drained]
        self.scale_downs += 1
        self.monitor.log(
            "autoscale_down",
            alarm=self.spec.alarm,
            nodes=idle,
            extra_nodes=len(self.added_nodes),
        )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Plain-data action totals for the scenario report."""
        return {
            "alarm": self.spec.alarm,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "extra_nodes_left": len(self.added_nodes),
        }
