"""The three benchmark workloads.

Each workload turns the benchmark seed into its inputs (cluster seeds,
proposed values, arrival schedules), drives the program the way a user
does, and checks every operation with :mod:`checks`.  The program only
receives the generated inputs.

* ``sim_agreement`` -- serial simulator, n=25, f=8: one proposal by a
  correct General per operation, on a fresh seeded cluster.
* ``sim_recovery`` -- serial simulator, n=13, f=4 with two-faced
  Byzantine relays: havoc on every correct node, ``Delta_stb`` of waiting,
  then one proposal that must succeed.
* ``service_log`` -- the replicated command log on the asyncio backend
  under a seeded Poisson open loop.

A workload offers ``setup()`` (build plus one warm-up, repeated by the
runner to time set-up; it returns the set-up's seconds at the reference
speed, or None where set-up is timed raw), ``measure(seconds, tracer)``
(one measured window of whole operations) and ``prepare_traced()``
(rebuild what must be constructed after the tracer's wrappers are
installed).
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import calibration
from checks import DecisionRecord, check_agreement_op, check_log, flatten_applied
from repro.core.params import ProtocolParams
from repro.faults.byzantine import TwoFacedParticipantStrategy
from repro.faults.transient import TransientFaultInjector
from repro.harness.scenario import Cluster, ScenarioConfig
from repro.runtime.aio import AsyncioCluster
from repro.service import ReplicatedLogService

# ---------------------------------------------------------------------------
# Input make-up (recorded in README.md)
# ---------------------------------------------------------------------------
AGREEMENT_N, AGREEMENT_F = 25, 8
RECOVERY_N, RECOVERY_F = 13, 4
RECOVERY_GARBAGE = 200
DELTA = 1.0
RHO = 1e-4

SERVICE_N, SERVICE_F = 4, 1
SERVICE_TIME_SCALE = 0.1  # d = 100 ms of injected delay
SERVICE_WINDOW = 2
SERVICE_MAX_BATCH = 128
SERVICE_RATE = 600.0  # Poisson arrivals per second
SERVICE_WARMUP_S = 1.0
SERVICE_DRAIN_TIMEOUT_S = 30.0
LOOP_LAG_INTERVAL_S = 0.01
#: A sim operation is timed in segments: the simulator advances STEP_D
#: of protocol time at a time, and once a segment has run CHECKPOINT_S of
#: wall time a calibration sample closes it.  Busy and quiet spells
#: on a shared host switch within seconds, so scaling a 1 s operation by
#: samples taken only at its ends mis-scales the operations a switch
#: falls inside.
STEP_D = 10.0
CHECKPOINT_S = 0.1
#: The service samples machine speed this often, with a loop this short
#: (under 1 ms), so the samples barely stall the event loop.
CALIBRATION_INTERVAL_S = 0.25
CALIBRATION_FRACTION = 1 / 4


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the ``ceil(q * n)``-th smallest value)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(len(ordered) - 1, index)]


@dataclass
class Window:
    """What one measured window did and what it cost."""

    ops: int = 0
    failed: int = 0
    #: Outputs no operation accounts for (e.g. a command nobody sent).
    foreign: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Per-operation latency samples, seconds.
    latencies: list[float] = field(default_factory=list)
    #: The same at the calibrated reference speed, where CPU-bound (see
    #: calibration.py); equal to the raw figures where a workload's
    #: quantity is bound by injected delays instead.
    wall_ref_s: float = 0.0
    cpu_ref_s: float = 0.0
    latencies_ref: list[float] = field(default_factory=list)
    #: Calibration samples taken during the window, seconds.
    calibrations: list[float] = field(default_factory=list)
    #: Layer counts and monitor readings (keys depend on the workload).
    counts: dict[str, float] = field(default_factory=dict)


class _Segments:
    """One operation's wall and CPU time, scaled segment by segment."""

    def __init__(self, calibration_s: float) -> None:
        self.calibration_s = calibration_s
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self._restart()

    def _restart(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def due(self) -> bool:
        return time.perf_counter() - self._wall0 >= CHECKPOINT_S

    def close(self) -> None:
        """End the segment: sample, scale it by the bracketing samples."""
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        sample = calibration.sample()
        factor = calibration.scale((self.calibration_s + sample) / 2)
        self.calibration_s = sample
        self.wall += wall
        self.cpu += cpu
        self.wall_ref += wall * factor
        self.cpu_ref += cpu * factor
        self._restart()


class _Clock:
    """Wall and process-CPU stopwatch for one window."""

    def __init__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def stop(self, window: Window) -> None:
        window.wall_s = time.perf_counter() - self.wall0
        window.cpu_s = time.process_time() - self.cpu0


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------
class _SimWorkload:
    """Serial-simulator workload: one operation = one fresh seeded cluster."""

    name = ""
    n = 0
    f = 0

    def __init__(self, seed: int, calibration_s: float) -> None:
        self.params = ProtocolParams(n=self.n, f=self.f, delta=DELTA, rho=RHO)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.warmups = Window()
        self.op_index = 0
        #: The latest calibration sample; the next segment opens with it.
        self._calibration = calibration_s
        self._segments: Optional[_Segments] = None

    def setup(self) -> float:
        """One warm-up operation (checked; counted as attempted).

        Returns its wall time at the reference speed.
        """
        self._run_ops(self.warmups)
        return self.warmups.latencies_ref[-1]

    def prepare_traced(self) -> None:
        """Nothing to rebuild: every operation builds a fresh cluster."""

    def measure(self, seconds: float, tracer=None) -> Window:
        window = Window()
        clock = _Clock()
        self._run_ops(window, until=clock.wall0 + seconds, tracer=tracer)
        clock.stop(window)
        return window

    def _run_ops(self, window: Window, until=None, tracer=None) -> None:
        """Whole operations: one, or as many as start before ``until``.

        Each operation is timed in calibrated segments (see ``STEP_D``);
        the calibration samples themselves fall outside the segments.
        """
        while True:
            if tracer is not None:
                tracer.op = self.op_index
            inp = self.next_input()
            segments = self._segments = _Segments(self._calibration)
            failures, counts = self.run_op(inp)
            segments.close()
            self._calibration = segments.calibration_s
            window.calibrations.append(segments.calibration_s)
            window.latencies.append(segments.wall)
            window.latencies_ref.append(segments.wall_ref)
            window.wall_ref_s += segments.wall_ref
            window.cpu_ref_s += segments.cpu_ref
            window.ops += 1
            if failures:
                window.failed += 1
                window.failures.append(f"op {self.op_index}: " + "; ".join(failures))
            for key, value in counts.items():
                if key == "decide_latency_d":
                    window.counts.setdefault(key, []).append(value)
                else:
                    window.counts[key] = window.counts.get(key, 0) + value
            self.op_index += 1
            if until is None or time.perf_counter() >= until:
                return

    def _advance(self, cluster, duration: float) -> None:
        """``cluster.run_for(duration)``, in calibrated segments."""
        sim = cluster.sim
        end = sim.now + duration
        step = STEP_D * self.params.d
        while sim.now < end:
            sim.run_until(min(sim.now + step, end))
            if self._segments.due():
                self._segments.close()

    def next_input(self):
        raise NotImplementedError

    def run_op(self, inp) -> tuple[list[str], dict]:
        raise NotImplementedError

    def _judge(self, cluster, general, value, t0, proposed: bool):
        records = [
            DecisionRecord(
                dec.node, dec.value, dec.decided, dec.tau_g_real, dec.returned_real
            )
            for node in cluster.correct_nodes()
            for dec in node.decisions
            if dec.general == general and dec.returned_real >= t0
        ]
        failures = [] if proposed else ["proposal refused by the General"]
        failures += check_agreement_op(
            records, cluster.correct_ids, value, t0, DELTA, RHO
        )
        decided = [rec.returned_real for rec in records if rec.decided]
        counts = {
            "events": cluster.sim.events_executed,
            "copies": cluster.net.sent_count,
        }
        if decided:
            counts["decide_latency_d"] = (max(decided) - t0) / self.params.d
        return failures, counts


class SimAgreement(_SimWorkload):
    name = "sim_agreement"
    n, f = AGREEMENT_N, AGREEMENT_F

    def next_input(self):
        rng = self.rng
        return (rng.getrandbits(32), rng.randrange(self.n), f"v{rng.getrandbits(24):06x}")

    def run_op(self, inp):
        cluster_seed, general, value = inp
        cluster = Cluster(
            ScenarioConfig(params=self.params, seed=cluster_seed, trace=False)
        )
        t0 = cluster.sim.now
        proposed = cluster.propose(general, value)
        self._advance(cluster, 3 * self.params.delta_agr)
        return self._judge(cluster, general, value, t0, proposed)


class SimRecovery(_SimWorkload):
    name = "sim_recovery"
    n, f = RECOVERY_N, RECOVERY_F

    def next_input(self):
        rng = self.rng
        pool = [f"m{rng.getrandbits(24):06x}" for _ in range(3)]
        return (rng.getrandbits(32), pool, pool[rng.randrange(3)])

    def run_op(self, inp):
        cluster_seed, pool, value = inp
        p = self.params
        correct = list(range(self.n - self.f))
        camp = tuple(correct[::2])
        byzantine = {
            node: TwoFacedParticipantStrategy(camp=camp)
            for node in range(self.n - self.f, self.n)
        }
        cluster = Cluster(
            ScenarioConfig(
                params=p, seed=cluster_seed, byzantine=byzantine, trace=False
            )
        )
        injector = TransientFaultInjector(
            p, cluster.rng.split("inj"), value_pool=pool, generals=[0, 1]
        )
        self._advance(cluster, 5 * p.d)
        injector.havoc(cluster.correct_nodes(), cluster.net, RECOVERY_GARBAGE)
        self._advance(cluster, p.delta_stb)
        t0 = cluster.sim.now
        proposed = cluster.propose(0, value)
        self._advance(cluster, p.delta_agr + 10 * p.d)
        return self._judge(cluster, 0, value, t0, proposed)


# ---------------------------------------------------------------------------
# Replicated-log service workload
# ---------------------------------------------------------------------------
class _ServiceRun:
    """One cluster + service + benchmark-side monitors, on its own loop."""

    def __init__(self, cluster_seed: int) -> None:
        self.cluster_seed = cluster_seed
        self.commands: list[str] = []
        self.arrival: dict[str, float] = {}
        self.launch: dict[int, float] = {}
        self.launch_units: dict[int, float] = {}
        self.queue_wait: list[float] = []
        self.slot_decide: list[float] = []
        self.last_decide_units: dict[int, float] = {}
        self.loop_lag: list[float] = []
        self.gen_lag: list[float] = []
        self.calibrations: list[float] = []

    async def start(self) -> None:
        params = ProtocolParams(n=SERVICE_N, f=SERVICE_F, delta=DELTA, rho=0.0)
        self.params = params
        self.loop = asyncio.get_running_loop()
        self.cluster = AsyncioCluster(
            params, seed=self.cluster_seed, time_scale=SERVICE_TIME_SCALE
        )
        self.service = ReplicatedLogService(
            self.cluster,
            primary=0,
            window=SERVICE_WINDOW,
            max_batch=SERVICE_MAX_BATCH,
        )
        self.coordinator = self.service.coordinator
        general = self.coordinator.general
        propose = general.propose

        def timed_propose(value, index=None):
            slot = propose(value, index)
            now = time.monotonic()
            self.launch[slot] = now
            self.launch_units[slot] = self.cluster.transport.now()
            # A requeued command has been counted at its first launch.
            arrival = self.arrival
            for cmd in value:
                stamp = arrival.pop(cmd, None)
                if stamp is not None:
                    self.queue_wait.append(now - stamp)
            return slot

        # Benchmark-side monitor: the coordinator calls its general's
        # propose once per slot launch.
        general.propose = timed_propose
        self.cluster.add_decision_observer(self._observe)
        self.service.start()
        self._lag_handle = None
        self._schedule_lag_tick(self.loop.time())
        self._calibration_handle = self.loop.call_later(
            CALIBRATION_INTERVAL_S, self._calibrate
        )

    def _calibrate(self) -> None:
        self.calibrations.append(calibration.sample(CALIBRATION_FRACTION))
        self._calibration_handle = self.loop.call_later(
            CALIBRATION_INTERVAL_S, self._calibrate
        )

    def _schedule_lag_tick(self, now: float) -> None:
        due = now + LOOP_LAG_INTERVAL_S

        def tick() -> None:
            fired = self.loop.time()
            self.loop_lag.append(fired - due)
            self._schedule_lag_tick(fired)

        self._lag_handle = self.loop.call_at(due, tick)

    def _observe(self, decision) -> None:
        general = decision.general
        if not (isinstance(general, tuple) and general[0] == 0):
            return
        slot = general[1]
        if decision.decided:
            held = self.last_decide_units.get(slot)
            if held is None or decision.returned_real > held:
                self.last_decide_units[slot] = decision.returned_real
        if decision.node != 0 or not decision.decided:
            return
        launched = self.launch.get(slot)
        if launched is not None:
            self.slot_decide.append(time.monotonic() - launched)

    async def offer(self, commands: list[str], gaps: list[float]) -> None:
        """Open loop: submit each command at its scheduled instant.

        Each command is stamped with its scheduled arrival, so waiting
        imposed by a stall or by back-pressure counts against its latency.
        """
        submit = self.coordinator.submit
        start = time.monotonic()
        offset = 0.0
        for cmd, gap in zip(commands, gaps):
            offset += gap
            due = start + offset
            ahead = due - time.monotonic()
            if ahead > 0.0:
                await asyncio.sleep(ahead)
            self.gen_lag.append(max(0.0, time.monotonic() - due))
            self.commands.append(cmd)
            self.arrival[cmd] = due
            await submit(cmd, due)

    async def drain(self) -> bool:
        drained = await self.service.drain(SERVICE_DRAIN_TIMEOUT_S)
        self.service.repair()
        return drained

    async def close(self) -> None:
        for handle in (self._lag_handle, self._calibration_handle):
            if handle is not None:
                handle.cancel()
        self._lag_handle = self._calibration_handle = None
        await self.service.stop()
        self.cluster.close()

    def check(self) -> tuple[set, list[str]]:
        sequences = {
            node: flatten_applied(applier.applied)
            for node, applier in self.service.appliers.items()
        }
        return check_log(self.commands, sequences)


class ServiceLog:
    """Open-loop Poisson traffic into ``LogCoordinator.submit``."""

    name = "service_log"

    def __init__(self, seed: int, calibration_s: float) -> None:
        """``calibration_s`` goes unused: the service samples machine speed
        on its own event loop, and its set-up is not calibrated."""
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.run: Optional[_ServiceRun] = None
        self.warmups = Window()
        self._serial = 0
        self.failed_commands: set = set()

    def close(self) -> None:
        if self.run is not None:
            self.loop.run_until_complete(self.run.close())
            self.run = None
        self.loop.close()

    def _schedule(self, seconds: float) -> tuple[list[str], list[float]]:
        rng = self.rng
        commands, gaps = [], []
        offset = 0.0
        while True:
            gap = rng.expovariate(SERVICE_RATE) if commands else 0.0
            if offset + gap >= seconds:
                break
            offset += gap
            commands.append(f"c{self.seed:x}.{self._serial:07d}")
            gaps.append(gap)
            self._serial += 1
        return commands, gaps

    def _fresh_run(self) -> None:
        if self.run is not None:
            self.loop.run_until_complete(self.run.close())
        self.run = _ServiceRun(self.rng.getrandbits(32))
        self.loop.run_until_complete(self.run.start())

    def _offer_window(self, seconds: float, window: Window) -> None:
        run = self.run
        commands, gaps = self._schedule(seconds)
        self.loop.run_until_complete(run.offer(commands, gaps))
        drained = self.loop.run_until_complete(run.drain())
        if not drained:
            window.failures.append("drain timed out")
        window.ops += len(commands)
        window.counts["commands"] = len(commands)

    def setup(self) -> None:
        """Fresh cluster and service, then a drained warm-up burst.

        Returns None: the set-up is mostly injected delay, timed raw.
        """
        self._fresh_run()
        self._offer_window(SERVICE_WARMUP_S, self.warmups)
        self._account(self.warmups)

    def prepare_traced(self) -> None:
        """Build the traced cluster after the wrappers are installed."""
        self.setup()

    def _account(self, window: Window) -> None:
        failed, foreign = self.run.check()
        new = failed - self.failed_commands
        window.failed += len(new)
        self.failed_commands |= failed
        window.foreign.extend(foreign)
        if new:
            window.failures.append(f"{len(new)} commands not applied exactly once at one position")

    def measure(self, seconds: float, tracer=None) -> Window:
        run = self.run
        coordinator = run.coordinator
        transport = run.cluster.transport
        before = {
            "launched": coordinator.slots_launched,
            "decided": coordinator.slots_decided,
            "copies": transport.sent_count,
            "datagrams": transport.datagrams_sent,
            "latencies": len(coordinator.latencies),
            "queue_wait": len(run.queue_wait),
            "slot_decide": len(run.slot_decide),
            "loop_lag": len(run.loop_lag),
            "gen_lag": len(run.gen_lag),
            "calibrations": len(run.calibrations),
            "slots": set(run.launch),
        }
        window = Window()
        clock = _Clock()
        self._offer_window(seconds, window)
        clock.stop(window)
        self._account(window)
        window.latencies = coordinator.latencies[before["latencies"]:]
        # Only CPU per command is CPU-bound here: throughput follows the
        # offered rate and latency is mostly injected delay, so those stay
        # raw.
        window.calibrations = run.calibrations[before["calibrations"]:] or [
            calibration.sample(CALIBRATION_FRACTION)
        ]
        mean_calibration = sum(window.calibrations) / len(window.calibrations)
        window.cpu_ref_s = window.cpu_s * calibration.scale(mean_calibration)
        window.wall_ref_s = window.wall_s
        window.latencies_ref = window.latencies
        new_slots = [s for s in run.launch if s not in before["slots"]]
        decide_units = [
            run.last_decide_units[s] - run.launch_units[s]
            for s in new_slots
            if s in run.last_decide_units
        ]
        window.counts.update(
            {
                "slots_launched": coordinator.slots_launched - before["launched"],
                "slots_decided": coordinator.slots_decided - before["decided"],
                "copies": transport.sent_count - before["copies"],
                "datagrams": transport.datagrams_sent - before["datagrams"],
                "queue_wait": run.queue_wait[before["queue_wait"]:],
                "slot_decide": run.slot_decide[before["slot_decide"]:],
                "loop_lag": run.loop_lag[before["loop_lag"]:],
                "gen_lag": run.gen_lag[before["gen_lag"]:],
                "decide_latency_d": [u / run.params.d for u in decide_units],
                "peak_live_instances": run.service.peak_live_instances,
                "aborts": coordinator.slots_aborted,
            }
        )
        return window


WORKLOADS = {
    cls.name: cls for cls in (SimAgreement, SimRecovery, ServiceLog)
}

__all__ = ["WORKLOADS", "Window", "nearest_rank"]
