"""Outside-in per-layer time ledger for one scenario replay.

The ledger wraps the public entry points of each SimDC layer (the table
in :data:`ENTRY_POINTS`) from outside the program: it swaps the class or
module attribute for a timing wrapper and swaps the original back when
the replay ends.  Nothing under ``src/`` knows it is being measured, and
the program's own ``Tracer`` and ``RunProfiler`` stay off.

Self time uses an enter/exit stack: a wrapped call's duration is charged
to its layer minus whatever nested wrapped calls took, so nested layers
never double-count and the layers' self times plus the unattributed rest
sum to the wall time of the measured window.

Entry points that return a generator (the tiers' ``run_round`` processes)
do their work when the kernel resumes them, not when they are called, so
the wrapper hands the kernel a proxy that charges every resumption to the
layer.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections.abc import Callable, Generator
from typing import Any

#: Layer names in report order.
LAYERS = (
    "simkernel",
    "data",
    "ml",
    "cluster",
    "phones",
    "deviceflow",
    "transport",
    "cloud_ingest",
    "aggregation",
    "observability",
    "scheduler",
    "scenarios",
)


def _one(_args: tuple, _result: Any) -> int:
    return 1


def _returned(_args: tuple, result: Any) -> int:
    return int(result)


def _records(_args: tuple, result: Any) -> int:
    return result.n_records


def _block_devices(args: tuple, _result: Any) -> int:
    return len(args[1].device_ids)


def _block_rows(args: tuple, _result: Any) -> int:
    return len(args[1])


#: (module, owner attribute or None for a module function, name, layer,
#: work counter the call adds to or None, units-per-call function).
ENTRY_POINTS: tuple[tuple[str, str | None, str, str, str | None, Callable | None], ...] = (
    ("repro.simkernel.simulator", "Simulator", "step_batch", "simkernel", "simkernel.events", _returned),
    ("repro.data.avazu", "SyntheticAvazu", "generate", "data", "data.records", _records),
    ("repro.ml.operators", "OperatorFlow", "execute_block", "ml", "ml.devices", _block_devices),
    ("repro.ml.operators", "OperatorFlow", "execute", "ml", "ml.devices", _one),
    ("repro.cluster.runner", "LogicalSimulation", "run_round", "cluster", "cluster.rounds", _one),
    ("repro.phones.phonemgr", "PhoneMgr", "run_round", "phones", "phones.rounds", _one),
    ("repro.deviceflow.controller", "DeviceFlow", "submit", "deviceflow", "deviceflow.messages", _one),
    ("repro.deviceflow.controller", "DeviceFlow", "submit_block", "deviceflow", "deviceflow.messages", _returned),
    ("repro.deviceflow.dispatcher", "Dispatcher", "dispatch", "deviceflow", None, None),
    ("repro.cloud.transport", "TransportChannel", "accept", "transport", None, None),
    ("repro.cloud.transport", "TransportChannel", "accept_block", "transport", None, None),
    ("repro.cloud.sink", "CloudIngestSink", "accept", "cloud_ingest", "cloud_ingest.scalar_calls", _one),
    ("repro.cloud.sink", "CloudIngestSink", "accept_block", "cloud_ingest", "cloud_ingest.block_calls", _one),
    ("repro.cloud.sink", "CloudIngestSink", "flow_receive", "cloud_ingest", "cloud_ingest.scalar_calls", _one),
    ("repro.cloud.aggregation", "AggregationService", "receive_message", "aggregation", "aggregation.folds", _one),
    ("repro.cloud.aggregation", "AggregationService", "receive_block", "aggregation", "aggregation.folds", _block_rows),
    ("repro.cloud.aggregation", "AggregationService", "aggregate_now", "aggregation", None, None),
    ("repro.cloud.monitor", "Monitor", "log", "observability", "observability.events", _one),
    ("repro.scheduler.task_manager", "TaskManager", "submit_at", "scheduler", "scheduler.tasks", _one),
    ("repro.scheduler.task_runner", None, "solve_allocation", "scheduler", None, None),
    ("repro.scenarios.engine", None, "build_report", "scenarios", None, None),
)

_MISSING = object()

#: Work counters the ledger reports (each must repeat exactly run to run).
COUNTERS = (
    "simkernel.events",
    "data.records",
    "ml.devices",
    "cluster.rounds",
    "phones.rounds",
    "deviceflow.messages",
    "transport.uploads",
    "transport.retries",
    "cloud_ingest.scalar_calls",
    "cloud_ingest.block_calls",
    "aggregation.folds",
    "observability.events",
    "scheduler.tasks",
)


class _TimedGenerator(Generator):
    """Generator proxy charging each resumption of ``inner`` to a layer."""

    def __init__(self, inner: Generator, enter: Callable[[], Any], leave: Callable[[Any], None]) -> None:
        self._inner = inner
        self._enter = enter
        self._leave = leave

    def send(self, value: Any) -> Any:
        frame = self._enter()
        try:
            return self._inner.send(value)
        finally:
            self._leave(frame)

    def throw(self, *args: Any) -> Any:
        frame = self._enter()
        try:
            return self._inner.throw(*args)
        finally:
            self._leave(frame)

    def close(self) -> None:
        self._inner.close()


class Ledger:
    """Wraps every entry point on :meth:`install`, restores on :meth:`uninstall`.

    Times (``self_s``, ``calls``) accumulate until :meth:`reset_times`;
    work counters accumulate over the whole life of the ledger.
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[float]] = []
        #: (owner, name, original, owned) for every swapped attribute.
        self._swapped: list[tuple[Any, str, Any, bool]] = []
        #: Transport channels seen, for their end-of-run totals.
        self.channels: list[Any] = []
        #: DeviceFlow (received, delivered) per task, read as each detaches.
        self.flow_traffic: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def reset_times(self) -> None:
        """Start a new timing window (counters keep accumulating)."""
        # In place: the installed wrappers hold these dicts.
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("ledger already installed")
        for module_name, owner_name, name, layer, counter, units in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._swap(owner, name, self._wrap(getattr(owner, name), layer, counter, units))
        # Probes outside the ledger's timing: they only keep hold of what
        # the end-of-run ratios read.
        from repro.cloud.transport import TransportChannel
        from repro.deviceflow.controller import DeviceFlow

        self._swap(TransportChannel, "__init__", self._channel_probe(TransportChannel.__init__))
        for name in ("unregister_task", "force_unregister"):
            self._swap(DeviceFlow, name, self._flow_probe(getattr(DeviceFlow, name)))

    def uninstall(self) -> list[str]:
        """Restore every attribute; return the ones not restored by identity."""
        broken = []
        for owner, name, original, owned in reversed(self._swapped):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        for owner, name, original, owned in self._swapped:
            current = vars(owner).get(name, _MISSING)
            if current is not (original if owned else _MISSING):
                broken.append(f"{getattr(owner, '__name__', owner)}.{name}")
        self._swapped.clear()
        return broken

    # ------------------------------------------------------------------
    def _swap(self, owner: Any, name: str, replacement: Any) -> None:
        # Record the owner's own attribute (not an inherited one) so the
        # restore puts back exactly what was there, or nothing.
        owned = name in vars(owner)
        self._swapped.append((owner, name, vars(owner).get(name), owned))
        setattr(owner, name, replacement)

    def _enter(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave_into(self, layer: str, count_call: bool) -> Callable[[list[float]], None]:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def leave(frame: list[float]) -> None:
            elapsed = time.perf_counter() - frame[0]
            stack.pop()
            self_s[layer] += elapsed - frame[1]
            if count_call:
                calls[layer] += 1
            if stack:
                stack[-1][1] += elapsed

        return leave

    def _wrap(self, original: Callable, layer: str, counter: str | None, units: Callable | None) -> Callable:
        enter = self._enter
        leave = self._leave_into(layer, True)
        counters = self.counters
        # A generator's resumptions add time, not calls: the call was
        # counted when the generator was created.
        resume_leave = self._leave_into(layer, False) if inspect.isgeneratorfunction(original) else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter()
            try:
                result = original(*args, **kwargs)
            finally:
                leave(frame)
            if counter is not None:
                counters[counter] += units(args, result)
            if resume_leave is not None:
                return _TimedGenerator(result, enter, resume_leave)
            return result

        return wrapper

    def _channel_probe(self, init: Callable) -> Callable:
        channels = self.channels

        def probe(channel: Any, *args: Any, **kwargs: Any) -> None:
            init(channel, *args, **kwargs)
            channels.append(channel)

        return probe

    def _flow_probe(self, original: Callable) -> Callable:
        traffic = self.flow_traffic

        def probe(flow: Any, task_id: str) -> Any:
            stats = flow.stats(task_id)
            traffic[task_id] = (stats.received, stats.delivered)
            return original(flow, task_id)

        return probe

    # ------------------------------------------------------------------
    def finish_counters(self) -> None:
        """Fold the transport channels' totals into the counters."""
        self.counters["transport.uploads"] = sum(c.totals.uploads for c in self.channels)
        self.counters["transport.retries"] = sum(c.totals.retries for c in self.channels)

    def ratios(self) -> dict[str, float]:
        """Useful-outcome shares of the layers that can waste work (0 when idle)."""
        received = sum(r for r, _ in self.flow_traffic.values())
        delivered = sum(d for _, d in self.flow_traffic.values())
        uploads = self.counters["transport.uploads"]
        transported = sum(c.totals.delivered for c in self.channels)
        return {
            "deviceflow.delivered_share": delivered / received if received else 0.0,
            "transport.attempts_per_update": (
                (uploads + self.counters["transport.retries"]) / uploads if uploads else 0.0
            ),
            "transport.delivered_share": transported / uploads if uploads else 0.0,
        }
