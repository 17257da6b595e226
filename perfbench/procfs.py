"""Process-tree readings from ``/proc`` (psutil is not installed): the
processes below the driver, their CPU time, and the peak summed resident
memory of the driver and its Ray workers."""

from __future__ import annotations

import os
import threading
import time


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended while we looked
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def alive(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def descendants(root: int) -> list[int]:
    kids = _children()
    out, todo = [], list(kids.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def cpu_s(pids) -> float:
    """Σ user+system CPU seconds of ``pids`` so far (time the hypervisor
    stole from them is not included)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def wait_idle(root: int, *, window_s: float, busy_cpu_s: float, timeout_s: float) -> float:
    """Block until ``root`` and the processes below it use less than
    ``busy_cpu_s`` CPU-seconds over one ``window_s`` window, or until
    ``timeout_s``. Returns the seconds waited."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout_s:
        procs = [root] + descendants(root)
        before = cpu_s(procs)
        time.sleep(window_s)
        if cpu_s(procs) - before < busy_cpu_s:
            break
    return time.monotonic() - t0


def ray_workers(root: int) -> list[int]:
    """Ray worker processes below ``root``: descendants whose command line
    Ray has retitled ``ray::<task or actor>``."""
    return [pid for pid in descendants(root) if cmdline(pid).startswith("ray::")]


class PeakRSS:
    """Background sampler: every ``period`` seconds, sum VmRSS over this
    process and its Ray workers (the worker list is refreshed on each
    sample, so workers started mid-pass are counted) and keep the peak."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        total = rss_mb(me) + sum(rss_mb(p) for p in ray_workers(me))
        self.peak_mb = max(self.peak_mb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self) -> "PeakRSS":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
