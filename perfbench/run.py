"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper|sweep|engine|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``). The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; progress and
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

clock = time.perf_counter_ns
START = clock()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(BENCH_DIR, ".state")

#: Set-ups per run; set-up time is their median.
SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("subjobs_per_s", "subjobs/s"),
    ("step_p50_us", "us"),
    ("step_p99_us", "us"),
)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "sweep", "engine", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def code_digest() -> str:
    """Digest of the program and benchmark sources: exact counts recorded
    under one digest must repeat under it."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_exact(workload: str, seed: int, record: dict) -> list[str]:
    """Compare this run's deterministic record (engine counters, serve
    counts, output digest) with the one stored by an earlier run of the
    same code and seed; store it if there is none."""
    path = os.path.join(STATE, "exact", f"{workload}-{seed}-{code_digest()}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle)
    return [
        f"{key}: {stored.get(key)!r} before, {record.get(key)!r} now"
        for key in sorted(set(stored) | set(record))
        if stored.get(key) != record.get(key)
    ]


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no program to benchmark: {SRC}/repro is missing")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    # Run hygiene: no workload disk cache (it would serve the adversary
    # from disk), and the numpy kernel backend.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ["REPRO_BACKEND"] = "numpy"
    sys.path.insert(0, SRC)

    from repro.core.kernels import get_backend
    from repro.workloads.cache import workload_cache_dir

    # Imported here so that set-up time includes the program's imports.
    import layers  # noqa: F401
    import workloads  # noqa: F401

    if workload_cache_dir() is not None:
        raise SystemExit("perfbench: the workload disk cache is enabled")
    backend = get_backend().name
    if backend != "numpy":
        raise SystemExit(f"perfbench: kernel backend is {backend}, not numpy")
    import_ns = (START, clock())

    from tracer import Tracer

    scratch = os.path.join(STATE, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tracer = Tracer()
    try:
        return run(args, tracer, scratch, import_ns, backend)
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, tracer, scratch: str, import_ns: tuple[int, int], backend: str) -> int:
    import layers
    from speed import Speed
    from workloads import WORKLOADS

    speed = Speed()
    workload = WORKLOADS[args.workload](args.seed, tracer, scratch)
    traced = bool(args.trace)
    if traced:
        layers.install(tracer)
        tracer.active = False

    passes, traced_passes, plain_passes, setup_runs = [], [], [], []
    # Timer probes would land inside traced spans, so a traced run probes
    # only between passes.
    with contextlib.nullcontext() if traced else speed.sampling():
        # Set-up is input construction plus warm-up; only construction is
        # traced, so warm-up calls do not count as work of a pass.
        for rep in range(SETUP_REPS):
            tracer.set_run(f"setup{rep}")
            start = clock()
            tracer.active = traced
            workload.setup()
            tracer.active = False
            workload.warm_up()
            setup_runs.append((start, clock()))

        if not traced and workload.name == "serve":
            workload.sample_steps()
        # Passes repeat while another one fits in --seconds; at least one
        # runs. The traced run alternates untraced and traced passes (at
        # least one each), so the tracing overhead is measured on the same
        # inputs in the same process.
        timed_start = clock()
        while True:
            record = traced and len(passes) % 2 == 1
            tracer.active = record
            if record:
                tracer.set_run(f"pass{len(passes)}")
            pass_start = clock()
            result = workload.run_pass(keep=not passes)
            tracer.active = False
            speed.sample()
            passes.append(result)
            (traced_passes if record else plain_passes).append(result)
            now = clock()
            if traced and not traced_passes:
                continue
            if (now - timed_start + now - pass_start) / 1e9 > args.seconds:
                break
        if not traced and workload.name == "serve":
            workload.restore_steps()

    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    faults = []
    for i, p in enumerate(passes[1:], start=1):
        if p.digest != first.digest:
            failed += p.attempted
            faults.append(f"pass {i} output differs from pass 0")
        if p.counts != first.counts:
            faults.append(f"pass {i} engine counters differ from pass 0")
    v_attempted, v_failed, messages = workload.verify()
    attempted += v_attempted
    failed += v_failed
    for message in messages:
        log(f"check failed: {message}")

    record = {"digest": first.digest, **first.counts}
    faults += check_exact(args.workload, args.seed, record)
    for fault in faults:
        log(f"BENCHMARK FAULT (not repeatable): {fault}")

    # Every time is scaled to the reference machine speed (speed.py); the
    # raw figures go to stderr.
    setup_s = (speed.scale(*import_ns)[1] + statistics.median(
        speed.scale(*interval)[1] for interval in setup_runs)) / 1e9
    raw_setup_s = ((import_ns[1] - import_ns[0]) + statistics.median(
        end - start for start, end in setup_runs)) / 1e9
    walls, raw_walls, latencies = [], [], []
    for p in passes:
        scaled = [speed.scale(*call) for call in p.calls]
        wall = sum(s for _, s in scaled)
        walls.append(wall / 1e9)
        raw_walls.append(sum(n for n, _ in scaled) / 1e9)
        if workload.STEP_SAMPLE == "call":
            latencies += [s / 1e3 for _, s in scaled]
        elif workload.STEP_SAMPLE == "pass":
            latencies.append(wall / p.counts["steps"] / 1e3)
        else:
            for call in p.calls:
                factor = speed.factor(*call)
                latencies += [speed.scale(*step)[0] * factor / 1e3
                              for step in p.steps if call[0] <= step[0] <= call[1]]
    rates = [p.subjobs / w for p, w in zip(passes, walls)]
    log(f"{args.workload} seed={args.seed} backend={backend}: raw setup "
        f"{raw_setup_s:.3f}s, {len(passes)} passes, raw pass wall "
        f"{min(raw_walls):.3f}..{max(raw_walls):.3f}s (median "
        f"{statistics.median(raw_walls):.3f}s), median speed factor "
        f"{speed.median_factor:.3f} from {len(speed.starts)} probes, "
        f"{len(latencies)} step samples, {attempted} operations, {failed} failed")

    if traced:
        metrics = layer_metrics(args, tracer, layers, speed, first,
                                traced_passes, plain_passes)
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_s": statistics.median(walls),
            "subjobs_per_s": statistics.median(rates),
            "step_p50_us": percentile(latencies, 50),
            "step_p99_us": percentile(latencies, 99),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    print(json.dumps({
        "correct": failed == 0 and not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(args, tracer, layers, speed, first, traced_passes, plain_passes):
    """The per-layer metrics of a traced run, per set-up plus one pass."""
    n = len(traced_passes)
    weights = {f"setup{r}": 1.0 / SETUP_REPS for r in range(SETUP_REPS)}
    pass_weights = {run_id: 1.0 / n for run_id in tracer.run_ids
                    if run_id.startswith("pass")}
    table = layers.SpanTable(tracer, {**weights, **pass_weights})
    pass_table = layers.SpanTable(tracer, pass_weights)

    def raw_wall(p):
        return sum(end - start for start, end in p.calls) / 1e9

    traced_wall = statistics.median(raw_wall(p) for p in traced_passes)
    plain_wall = statistics.median(raw_wall(p) for p in plain_passes)
    mean_traced = sum(raw_wall(p) for p in traced_passes) / n
    coverage = pass_table.self_total / mean_traced
    trace_info = {
        "trace.coverage": coverage,
        "trace.outside_s": mean_traced - pass_table.self_total,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_ratio": (traced_wall - plain_wall) / plain_wall,
    }
    values = layers.layer_values(table, first.counts, trace_info)
    log(f"traced {n} passes: span self time covers {coverage:.1%} of the "
        f"traced pass wall; the rest ({trace_info['trace.outside_s']:.4f}s "
        "per pass) is benchmark loop code between traced calls")
    top = sorted(((pass_table.self_s(name), name) for name in tracer.names),
                 reverse=True)[:8]
    log("largest self times per pass (raw): " + ", ".join(
        f"{name} {s:.3f}s ({s / mean_traced:.0%})" for s, name in top if s > 0))
    tracer.dump(os.path.join(STATE, "traces", f"{args.workload}-{args.seed}.npz"))
    # Times are scaled by the run's median speed factor. Counts are per
    # pass (or per set-up); rounding drops float noise from the averaging.
    scale = {"s": speed.median_factor, "ratio": 1.0}
    return {
        name: {"value": values[name] * scale[unit] if unit in scale
               else round(values[name], 1), "unit": unit}
        for name, unit in layers.catalog()
    }


if __name__ == "__main__":
    sys.exit(main())
