"""Benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload warp_tile --seed 1 --seconds 20 --trace 0

One driver process, one Ray session with ``num_cpus=1`` and a closed loop:
one pipeline pass in flight at a time, the next started when the previous
one (and its output check) is done, until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of BENCHMARK.json (0 for a layer the workload does not
run) and writes every span and parsed operator record to
``.bench_work/traces/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; ``attempted``
and ``failed`` count input rows (images or points), a failed pass
counting all of its rows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
SETUPS = 3  # sessions set up per run; setup_s is their median
PASS_TIMEOUT_S = 60.0
OBJECT_STORE_BYTES = 768 << 20
# The session counts as idle once its processes use under 15% of a core
# over a 0.2 s window (the raylet and GCS alone stay below that).
IDLE_WINDOW_S, IDLE_BUSY_CPU_S, IDLE_TIMEOUT_S = 0.2, 0.03, 5.0


def _process_age_s() -> float:
    """Seconds since this process started (from /proc, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


if not os.path.isdir(os.path.join(ROOT, "projcl_ray")):
    sys.exit(f"run.py: no projcl_ray package in {ROOT}; run from the repository root")

# Ray workers import projcl_ray from the root and inherit this environment.
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
os.environ["PROJCL_FASTCODEC_DIR"] = os.path.join(WORK, "fastcodec")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path[:0] = [ROOT, HERE]

import ray  # noqa: E402
import ray.data as rd  # noqa: E402

import procfs  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

IMPORTED_AT_S = _process_age_s()


def _ray_temp_dir() -> str | None:
    """Ray's session files go under the work directory when its socket
    paths (about 64 characters below the temp dir) fit the 107-byte
    AF_UNIX limit; otherwise Ray's default location is used."""
    path = os.path.join(WORK, "ray")
    return path if len(path) <= 40 else None


def start_ray() -> None:
    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES, _temp_dir=_ray_temp_dir())
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray() -> None:
    """Shut the session down and wait until every process it started has
    exited. Workers are reparented when the raylet goes, so they are listed
    before the shutdown. Some take ~30 s to notice on their own; after a
    grace period they get SIGTERM, then SIGKILL."""
    procs = procfs.descendants(os.getpid())
    ray.shutdown()
    for sig, grace in ((None, 2.0), (signal.SIGTERM, 2.0), (signal.SIGKILL, 10.0)):
        left = [p for p in procs if procfs.alive(p)]
        if sig is not None:
            print(f"{sig.name} to leftover Ray processes {[procfs.cmdline(p)[:40].strip() for p in left]}",
                  file=sys.stderr)
            for pid in left:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, sig)
        deadline = time.monotonic() + grace
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [p for p in left if procfs.alive(p)]
        if not left:
            return


class PassTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise PassTimeout(f"pass exceeded {PASS_TIMEOUT_S:.0f} s")


def run_pass(wl, inp: dict, k: int) -> tuple[float, float, str | None]:
    """One timed pass and its output check: (wall seconds, CPU seconds of
    this process and every process below it, failure or None). The check
    runs after the clocks stop."""
    out_dir = os.path.join(WORK, "out", f"pass-{k}")
    procs = [os.getpid()] + procfs.descendants(os.getpid())
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PASS_TIMEOUT_S)
    c0, t0 = procfs.cpu_s(procs), time.perf_counter()
    try:
        result = wl.run(inp["corpus"], out_dir)
        wall, cpu = time.perf_counter() - t0, procfs.cpu_s(procs) - c0
        signal.setitimer(signal.ITIMER_REAL, 0)
        wl.check(inp, result, out_dir)
        return wall, cpu, None
    except Exception as exc:  # a failed pass is counted, and the run goes on
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, procfs.cpu_s(procs) - c0, f"{type(exc).__name__}: {exc}"


def timed_passes(wl, inp: dict, seconds: float, on_pass=None) -> list[tuple[float, float, str | None]]:
    """Closed loop: passes back to back until ``seconds`` have elapsed (the
    last pass runs to completion)."""
    passes = []
    t_start = time.perf_counter()
    while True:
        wall, cpu, err = run_pass(wl, inp, len(passes))
        passes.append((wall, cpu, err))
        print(f"pass {len(passes)}: {wall:.3f} s wall, {cpu:.2f} s cpu, "
              f"{len(procfs.ray_workers(os.getpid()))} workers{' FAILED ' + err if err else ''}", file=sys.stderr)
        if on_pass:
            on_pass(wall, cpu, err)
        if time.perf_counter() - t_start >= seconds:
            return passes


def warm_up(wl, inp: dict) -> None:
    """One pass over the small warm-up input (spawns the worker, imports the
    program there, builds its cached per-worker state and makes Ray Data
    start its helper actors), then wait until the session is idle, so that
    actors still starting are not charged to the first timed pass."""
    out_dir = os.path.join(WORK, "out", "warm")
    wl.run(inp["warm"], out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    waited = procfs.wait_idle(os.getpid(), window_s=IDLE_WINDOW_S, busy_cpu_s=IDLE_BUSY_CPU_S,
                              timeout_s=IDLE_TIMEOUT_S)
    print(f"idle after {waited:.2f} s", file=sys.stderr)


def measure(wl, inp: dict, seconds: float, pre_s: float) -> tuple[dict, list]:
    setups = []
    for k in range(SETUPS):
        if k:
            stop_ray()
        t0 = time.perf_counter()
        start_ray()
        t1 = time.perf_counter()
        warm_up(wl, inp)
        setups.append(pre_s + time.perf_counter() - t0)
        print(f"setup {k + 1}: {setups[-1]:.3f} s (imports {pre_s:.3f}, ray {t1 - t0:.3f},"
              f" warm-up {time.perf_counter() - t1:.3f})", file=sys.stderr)
    with procfs.PeakRSS() as peak:
        passes = timed_passes(wl, inp, seconds)
    ok = [cpu for _, cpu, err in passes if err is None]
    metrics = {
        "items_per_cpu_s": (statistics.median(inp["rows"] / c for c in ok) if ok else 0.0, "1/cpu_s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak.peak_mb, "MB"),
    }
    return metrics, passes


def measure_traced(wl, inp: dict, seconds: float, seed: int) -> tuple[dict, list]:
    start_ray()
    warm_up(wl, inp)
    per_pass, operators = [], []
    with spans.capture_datasets() as seen:
        def collect(wall, cpu, err):
            ops_ = [o for ds in seen for o in spans.parse_stats(ds.stats())]
            operators.append(ops_)
            if err is None:
                per_pass.append({**spans.engine_split(ops_, wall), "ops.pass_cpu_s": cpu})
            seen.clear()

        passes = timed_passes(wl, inp, seconds, on_pass=collect)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]} if per_pass else {}
    tracer = spans.Tracer()
    try:
        metrics.update(wl.replay(inp, tracer, os.path.join(WORK, "out", "replay")))
    except CheckFailed as exc:  # counted like a failed pass
        passes.append((0.0, 0.0, f"replay: {exc}"))
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    with open(os.path.join(WORK, "traces", f"{wl.name}-s{seed}.json"), "w") as f:
        json.dump({"workload": wl.name, "seed": seed, "metrics": metrics, "operators_per_pass": operators,
                   "spans": tracer.dump()}, f)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer"]
    return {m["name"]: (metrics.get(m["name"], 0.0), m["unit"]) for m in declared}, passes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    shutil.rmtree(os.path.join(WORK, "out"), ignore_errors=True)
    t0 = time.perf_counter()
    inp = wl.inputs(WORK, args.seed)
    print(f"inputs ready in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    try:
        if args.trace:
            metrics, passes = measure_traced(wl, inp, args.seconds, args.seed)
        else:
            metrics, passes = measure(wl, inp, args.seconds, IMPORTED_AT_S)
    finally:
        stop_ray()
    failed = sum(1 for *_, err in passes if err)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes) * inp["rows"],
        "failed": failed * inp["rows"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
