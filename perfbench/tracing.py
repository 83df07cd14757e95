"""Span tracing around the public functions of each layer.

The traced run installs wrappers from this file -- nothing under ``src/``
changes -- around the calls into each layer.  Every call records a span
(layer name, start, end, parent span, operation id) and adds to the
layer's call count, inclusive time and self time.  Self time is a span's
duration minus the time its child spans cover.  Raw spans are kept in
memory, up to a cap, and written out when the run ends; the per-layer
accumulators cover every call, capped or not.

The wrappers are installed on classes and on the module attribute the
asyncio transport calls (``repro.runtime.aio.decode_frames``), so they see
objects built after installation.  Callbacks a program object binds at
construction (the cleanup tick, the evaluators' accept callbacks) are only
seen on objects built after :meth:`Tracer.install`, which is why each
workload builds its traced system after installing.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

#: Raw spans kept per run; later spans still feed the accumulators.
SPAN_CAP = 400_000


def _slot_of_general(general: object) -> Optional[int]:
    if isinstance(general, tuple) and len(general) == 2:
        return general[1]
    return None


def _slot_of_payload(args: tuple) -> Optional[int]:
    # (transport, sender, payload) for broadcast; (..., receiver, payload)
    # for send: the payload is always last.
    return _slot_of_general(getattr(args[-1], "general", None))


def _slot_of_envelope(args: tuple) -> Optional[int]:
    return _slot_of_general(getattr(args[1].payload, "general", None))


def _slot_of_decision(args: tuple) -> Optional[int]:
    return _slot_of_general(args[1].general)


def _slot_of_proposal(args: tuple) -> Optional[int]:
    general = args[0]
    index = args[2] if len(args) > 2 else None
    return general.next_index if index is None else index


def _slot_of_frames(frames: Any) -> Optional[int]:
    if frames:
        return _slot_of_general(getattr(frames[0].payload, "general", None))
    return None


def _targets() -> list[tuple]:
    """(owner, attribute, layer, op_of_args, op_of_result, counter) rows."""
    from repro.core.agreement import AgreementInstance, ProtocolNode
    from repro.core.initiator_accept import InitiatorAccept
    from repro.core.msgd_broadcast import MsgdBroadcast
    from repro.extensions.concurrent import ConcurrentGeneral
    from repro.faults.transient import TransientFaultInjector
    from repro.net.network import Network
    from repro.node.msglog import MessageLog
    from repro.runtime import aio
    from repro.runtime.framing import FrameEncoder
    from repro.service.applier import ReplicaApplier
    from repro.service.coordinator import LogCoordinator
    from repro.sim.engine import Simulator

    def count_pruned(tracer: "Tracer", result: int) -> None:
        tracer.counters["msglog.pruned"] += result

    def count_bytes(tracer: "Tracer", result: Any) -> None:
        tracer.counters["wire.bytes"] += len(result)

    def count_frames(tracer: "Tracer", result: Any) -> None:
        tracer.counters["wire.frames_decoded"] += len(result)

    return [
        (Simulator, "run_until", "sim.kernel", None, None, None),
        (Network, "send", "net.send", None, None, None),
        (Network, "broadcast", "net.send", None, None, None),
        (MessageLog, "add", "msglog.add", None, None, None),
        (MessageLog, "prune_older_than", "msglog.prune", None, None, count_pruned),
        (MessageLog, "prune_future", "msglog.prune", None, None, count_pruned),
        (ProtocolNode, "on_message", "core.dispatch", _slot_of_envelope, None, None),
        (ProtocolNode, "_cleanup_tick", "core.cleanup", None, None, None),
        (MsgdBroadcast, "on_message", "core.msgd", None, None, None),
        (MsgdBroadcast, "invoke", "core.msgd", None, None, None),
        (MsgdBroadcast, "set_anchor", "core.msgd", None, None, None),
        (InitiatorAccept, "on_message", "core.ia", None, None, None),
        (InitiatorAccept, "invoke", "core.ia", None, None, None),
        (AgreementInstance, "handle", "core.agree", None, None, None),
        (AgreementInstance, "_on_i_accept", "core.agree", None, None, None),
        (AgreementInstance, "_on_mb_accept", "core.agree", None, None, None),
        (AgreementInstance, "_at_deadline", "core.agree", None, None, None),
        (TransientFaultInjector, "havoc", "faults.havoc", None, None, None),
        (FrameEncoder, "encode_body", "wire.encode", None, None, None),
        (FrameEncoder, "frame", "wire.encode", None, None, count_bytes),
        (FrameEncoder, "frame_batch", "wire.encode", None, None, count_bytes),
        (aio, "decode_frames", "wire.decode", None, _slot_of_frames, count_frames),
        (aio.AsyncioTransport, "send", "aio.send", _slot_of_payload, None, None),
        (aio.AsyncioTransport, "broadcast", "aio.send", _slot_of_payload, None, None),
        (ConcurrentGeneral, "propose", "service.coord", _slot_of_proposal, None, None),
        (LogCoordinator, "submit_nowait", "service.coord", None, None, None),
        (LogCoordinator, "_on_decision", "service.coord", _slot_of_decision, None, None),
        (ReplicaApplier, "_on_decision", "service.apply", _slot_of_decision, None, None),
    ]


class Tracer:
    """In-memory span recorder with per-layer accumulators."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.counters: dict[str, int] = {
            "msglog.pruned": 0,
            "wire.bytes": 0,
            "wire.frames_decoded": 0,
        }
        #: Operation id given to top-level spans (the sim op index); spans
        #: whose arguments name a service slot use that slot instead.
        self.op = -1
        self.active = False
        self._stack: list[list] = []
        self._next_id = 0
        self.spans_dropped = 0
        self._sp_id = array("q")
        self._sp_layer = array("H")
        self._sp_parent = array("q")
        self._sp_op = array("q")
        self._sp_start = array("q")
        self._sp_end = array("q")
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function (idempotent per tracer)."""
        if self._installed:
            return
        for owner, attr, layer, op_of, op_of_result, counter in _targets():
            original = owner.__dict__[attr]
            setattr(
                owner, attr, self._wrap(original, layer, op_of, op_of_result, counter)
            )
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        """Zero the accumulators and drop raw spans (start of a window)."""
        for i in range(len(self.layers)):
            self.calls[i] = self.self_ns[i] = self.incl_ns[i] = 0
        for key in self.counters:
            self.counters[key] = 0
        self._next_id = 0
        self.spans_dropped = 0
        for buf in (self._sp_id, self._sp_layer, self._sp_parent, self._sp_op, self._sp_start, self._sp_end):
            del buf[:]

    def _index(self, layer: str) -> int:
        index = self._layer_index.get(layer)
        if index is None:
            index = self._layer_index[layer] = len(self.layers)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
        return index

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        op_of: Optional[Callable[[tuple], Optional[int]]],
        op_of_result: Optional[Callable[[Any], Optional[int]]],
        counter: Optional[Callable[["Tracer", Any], None]],
    ) -> Callable:
        index = self._index(layer)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            op = op_of(args) if op_of is not None else None
            if op is None:
                op = parent[2] if parent is not None else tracer.op
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0, op]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[index] += duration - frame[1]
                tracer.incl_ns[index] += duration
                tracer.calls[index] += 1
                if parent is not None:
                    parent[1] += duration
            if op_of_result is not None and parent is None:
                found = op_of_result(result)
                if found is not None:
                    op = found
            if counter is not None:
                counter(tracer, result)
            if len(tracer._sp_layer) < SPAN_CAP:
                tracer._sp_id.append(span_id)
                tracer._sp_layer.append(index)
                tracer._sp_parent.append(parent[0] if parent is not None else -1)
                tracer._sp_op.append(op)
                tracer._sp_start.append(start)
                tracer._sp_end.append(end)
            else:
                tracer.spans_dropped += 1
            return result

        return traced

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_ms(self, layer: str) -> float:
        index = self._layer_index.get(layer)
        return 0.0 if index is None else self.self_ns[index] / 1e6

    def incl_ms(self, layer: str) -> float:
        index = self._layer_index.get(layer)
        return 0.0 if index is None else self.incl_ns[index] / 1e6

    def call_count(self, layer: str) -> int:
        index = self._layer_index.get(layer)
        return 0 if index is None else self.calls[index]

    def layer_table(self, cpu_s: float) -> list[dict]:
        """Per-layer calls, self time and share of process CPU."""
        rows = []
        covered = 0.0
        for i, layer in enumerate(self.layers):
            if not self.calls[i]:
                continue
            self_s = self.self_ns[i] / 1e9
            covered += self_s
            rows.append(
                {
                    "layer": layer,
                    "calls": self.calls[i],
                    "self_s": self_s,
                    "incl_s": self.incl_ns[i] / 1e9,
                    "cpu_share": self_s / cpu_s if cpu_s > 0 else 0.0,
                }
            )
        rows.sort(key=lambda row: -row["self_s"])
        rows.append(
            {
                "layer": "uncovered",
                "calls": 0,
                "self_s": cpu_s - covered,
                "incl_s": cpu_s - covered,
                "cpu_share": (cpu_s - covered) / cpu_s if cpu_s > 0 else 0.0,
            }
        )
        return rows

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as gzip TSV; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        layers = self.layers
        count = len(self._sp_layer)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tlayer\top\tstart_ns\tend_ns\n")
            for i in range(count):
                out.write(
                    f"{self._sp_id[i]}\t{self._sp_parent[i]}\t{layers[self._sp_layer[i]]}\t"
                    f"{self._sp_op[i]}\t{self._sp_start[i]}\t{self._sp_end[i]}\n"
                )
        return count
