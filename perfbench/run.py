"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_agreement --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing.  With ``--trace 1`` it measures a third of the time untraced,
then installs the span wrappers from ``tracing.py`` and measures the rest
traced, reporting the per-layer metrics, each layer's share of process
CPU, and the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record (provenance, failures, layer table) is written under
``.perfbench_out/`` in the working directory, with the raw spans of a
traced run beside it.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".perfbench_out")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: latency_p99_ms is the median of the p99s of this many equal, consecutive
#: slices of a run's operations.  A service command's p99 over a whole
#: 30 s run is set by its two or three slowest slots, and a sim's by its
#: one slowest operation, so one busy spell on the shared host moves it.
#: Over sets of ten runs the slices' median spread about half as far on
#: the sims (4-9% against 9-16%), and on the service 15% against 37% in
#: a busy hour, about the same (9-13%) in a quiet one.
P99_SLICES = 6
WORKLOAD_NAMES = ("sim_agreement", "sim_recovery", "service_log")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def provenance() -> dict:
    from repro.runtime.framing import MSGPACK_IMPL

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "msgpack": MSGPACK_IMPL,
        "gc_enabled": gc.isenabled(),
    }


def sliced_p99(latencies: list[float]) -> float:
    from workloads import nearest_rank

    n = len(latencies)
    if n < P99_SLICES:
        return nearest_rank(latencies, 0.99)
    return statistics.median(
        nearest_rank(latencies[i * n // P99_SLICES:(i + 1) * n // P99_SLICES], 0.99)
        for i in range(P99_SLICES)
    )


def end_to_end(window, setup_s: float, calibrated: bool = True) -> dict:
    """The end-to-end metrics; CPU-bound ones at the reference speed.

    ``calibrated=False`` gives the raw figures, printed for comparison.
    """
    from workloads import nearest_rank

    ops = window.ops
    done = ops - window.failed
    wall = window.wall_ref_s if calibrated else window.wall_s
    cpu = window.cpu_ref_s if calibrated else window.cpu_s
    latencies = window.latencies_ref if calibrated else window.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / wall, "1/s"),
        "cpu_ms_per_op": (cpu * 1000.0 / ops, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "latency_p50_ms": (nearest_rank(latencies, 0.50) * 1000.0, "ms"),
        "latency_p99_ms": (sliced_p99(latencies) * 1000.0, "ms"),
        "latency_p99_whole_run_ms": (nearest_rank(latencies, 0.99) * 1000.0, "ms"),
    }


def print_calibration(window, record: dict) -> None:
    from calibration import REFERENCE_S

    median_s = statistics.median(window.calibrations)
    record["calibration"] = {
        "reference_ms": REFERENCE_S * 1000.0,
        "median_ms": median_s * 1000.0,
        "samples": len(window.calibrations),
    }
    print(
        f"calibration: {len(window.calibrations)} samples, median "
        f"{median_s * 1000:.2f} ms against the reference {REFERENCE_S * 1000:.2f} ms"
    )


def per_layer(window, tracer) -> dict:
    from workloads import nearest_rank

    ops = window.ops
    counts = window.counts
    wall = window.wall_s

    def per_op(value: float) -> float:
        return value / ops

    def p50_ms(key: str) -> float:
        return nearest_rank(counts.get(key, []), 0.50) * 1000.0

    decide_d = counts.get("decide_latency_d", [])
    slots_decided = counts.get("slots_decided", 0)
    slots_launched = counts.get("slots_launched", 0)
    decodes = tracer.call_count("wire.decode")
    service = "commands" in counts
    return {
        "sim.events_per_op": (per_op(counts.get("events", 0)), "count"),
        "sim.events_per_s": (counts.get("events", 0) / wall, "1/s"),
        "sim.kernel_self_ms_per_op": (per_op(tracer.self_ms("sim.kernel")), "ms"),
        "net.copies_per_op": (
            0.0 if service else per_op(counts.get("copies", 0)),
            "count",
        ),
        "net.send_self_ms_per_op": (per_op(tracer.self_ms("net.send")), "ms"),
        "msglog.adds_per_op": (per_op(tracer.call_count("msglog.add")), "count"),
        "msglog.add_self_ms_per_op": (per_op(tracer.self_ms("msglog.add")), "ms"),
        "msglog.pruned_per_op": (
            per_op(tracer.counters["msglog.pruned"]),
            "count",
        ),
        "msglog.prune_self_ms_per_op": (per_op(tracer.self_ms("msglog.prune")), "ms"),
        "core.dispatch_ms_per_op": (per_op(tracer.incl_ms("core.dispatch")), "ms"),
        "core.msgd_self_ms_per_op": (per_op(tracer.self_ms("core.msgd")), "ms"),
        "core.ia_self_ms_per_op": (per_op(tracer.self_ms("core.ia")), "ms"),
        "core.agree_self_ms_per_op": (per_op(tracer.self_ms("core.agree")), "ms"),
        "core.cleanup_self_ms_per_op": (per_op(tracer.self_ms("core.cleanup")), "ms"),
        "core.decide_latency_d": (
            statistics.median(decide_d) if decide_d else 0.0,
            "d",
        ),
        "faults.havoc_ms_per_op": (per_op(tracer.incl_ms("faults.havoc")), "ms"),
        "wire.encode_self_ms_per_cmd": (per_op(tracer.self_ms("wire.encode")), "ms"),
        "wire.decode_self_ms_per_cmd": (per_op(tracer.self_ms("wire.decode")), "ms"),
        "wire.bytes_per_cmd": (per_op(tracer.counters["wire.bytes"]), "B"),
        "wire.msgs_per_cmd": (
            per_op(counts.get("copies", 0)) if service else 0.0,
            "count",
        ),
        "wire.datagrams_per_cmd": (per_op(counts.get("datagrams", 0)), "count"),
        "wire.msgs_per_datagram": (
            tracer.counters["wire.frames_decoded"] / decodes if decodes else 0.0,
            "count",
        ),
        "aio.send_self_ms_per_cmd": (per_op(tracer.self_ms("aio.send")), "ms"),
        "aio.loop_lag_p99_ms": (
            nearest_rank(counts.get("loop_lag", []), 0.99) * 1000.0,
            "ms",
        ),
        "aio.cpu_util": (window.cpu_s / wall, "s/s"),
        "service.slots_per_s": (slots_decided / wall, "1/s"),
        "service.cmds_per_slot": (
            ops / slots_decided if slots_decided else 0.0,
            "count",
        ),
        "service.queue_wait_p50_ms": (p50_ms("queue_wait"), "ms"),
        "service.slot_decide_p50_ms": (p50_ms("slot_decide"), "ms"),
        "service.slot_yield": (
            slots_decided / slots_launched if slots_launched else 0.0,
            "ratio",
        ),
        "service.apply_self_ms_per_cmd": (per_op(tracer.self_ms("service.apply")), "ms"),
        "service.peak_live_instances": (
            counts.get("peak_live_instances", 0),
            "count",
        ),
        "service.gen_lag_max_ms": (
            max(counts.get("gen_lag", [0.0])) * 1000.0,
            "ms",
        ),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import calibration
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_T0
    # Imports are CPU-bound and scaled by the sample that follows them.
    # A sim's set-up is a warm-up operation, timed in calibrated segments
    # that open with the same sample; the service's set-up is mostly its
    # 1 s of warm-up traffic and stays raw.
    opening = calibration.sample()
    import_ref_s = import_s * calibration.scale(opening)
    workload = WORKLOADS[args.workload](args.seed, opening)
    repeats, repeats_ref = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ref_s = workload.setup()
        elapsed = time.perf_counter() - started
        repeats.append(elapsed)
        repeats_ref.append(elapsed if ref_s is None else ref_s)
    setup_s = import_ref_s + statistics.median(repeats_ref)

    windows = [workload.warmups]
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "import_s": import_s,
        "setup_repeats_s": repeats,
        "setup_s_raw": import_s + statistics.median(repeats),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    print(
        f"set-up (raw): imports {import_s:.3f} s, repeats "
        + ", ".join(f"{r:.3f}" for r in repeats)
        + f" s; setup_s raw {record['setup_s_raw']:.4f} s"
    )

    try:
        if args.trace == 0:
            window = workload.measure(args.seconds)
            windows.append(window)
            metrics = end_to_end(window, setup_s)
            print_metrics("end-to-end (CPU-bound figures at the reference speed):", metrics)
            raw = end_to_end(window, record["setup_s_raw"], calibrated=False)
            print_metrics("end-to-end, raw:", raw)
            record["raw"] = {name: value for name, (value, _unit) in raw.items()}
            print_calibration(window, record)
            if "loop_lag" in window.counts:
                from workloads import nearest_rank

                counts = window.counts
                monitors = {
                    "loop_lag_p99_ms": nearest_rank(counts["loop_lag"], 0.99) * 1000,
                    "loop_lag_max_ms": max(counts["loop_lag"]) * 1000,
                    "gen_lag_max_ms": max(counts["gen_lag"]) * 1000,
                    "aborted_slots": counts["aborts"],
                }
                record["monitors"] = monitors
                print("monitors: " + ", ".join(f"{k} {v:.1f}" for k, v in monitors.items()))
        else:
            untraced = workload.measure(args.seconds / 3.0)
            windows.append(untraced)
            tracer = Tracer()
            tracer.install()
            workload.prepare_traced()
            tracer.reset()
            tracer.active = True
            window = workload.measure(args.seconds * 2.0 / 3.0, tracer)
            tracer.active = False
            windows.append(window)
            metrics = per_layer(window, tracer)
            print_metrics("per-layer (traced window):", metrics)
            base = end_to_end(untraced, setup_s)
            traced = end_to_end(window, setup_s)
            overhead = {
                key: (traced[key][0] - base[key][0], base[key][0], traced[key][0])
                for key in ("ops_per_s", "cpu_ms_per_op")
            }
            print("tracing overhead (traced - untraced):")
            for key, (diff, before, after) in overhead.items():
                print(f"  {key:32s} {before:12.4f} -> {after:12.4f} ({diff / before:+.1%})")
            table = tracer.layer_table(window.cpu_s)
            print(f"layer self time, share of process CPU ({window.cpu_s:.3f} s):")
            for row in table:
                print(
                    f"  {row['layer']:16s} calls {row['calls']:10d} "
                    f"self {row['self_s']:9.3f} s  {row['cpu_share']:7.1%}"
                )
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
            written = tracer.write_spans(spans_path)
            print(f"spans: {written} written to {spans_path}, {tracer.spans_dropped} past the cap")
            tracer.uninstall()
            record.update(
                overhead={k: {"untraced": v[1], "traced": v[2]} for k, v in overhead.items()},
                layers=table,
                spans_written=written,
                spans_dropped=tracer.spans_dropped,
            )
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed for w in windows)
    foreign = [item for w in windows for item in w.foreign]
    failures = [item for w in windows for item in w.failures]
    print(f"operations: attempted {attempted}, failed {failed}")
    for line in failures[:20] + foreign[:20]:
        print(f"  FAIL {line}")
    # The result line carries exactly the metrics BENCHMARK.json gates;
    # the lines above it and the record keep the rest.
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    result = {
        "correct": not foreign,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in gated
        },
    }
    record["all_metrics"] = {name: value for name, (value, _unit) in metrics.items()}
    record.update(result=result, failures=failures, foreign=foreign)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
