"""Peak proportional set size of the sweep processes, sampled from /proc.

The sampler watches every descendant of the process that runs it: the sweep
process (the one calling `run_sweep`) and its pool workers. It keeps each
process's own peak PSS and reports their sum. PSS splits each shared page
among the processes mapping it, so pages the workers share with the sweep
process they were forked from count once. Summing per-process peaks, not
taking the peak of the sum, keeps the figure from depending on whether the
workers' dataset loads happen to overlap by a few hundred milliseconds; it
is what the processes need if their peaks coincide. The sampler only reads
/proc: the children lists, /proc/<pid>/statm and /proc/<pid>/smaps_rollup.

Reading smaps_rollup walks the process's page tables, which costs
milliseconds for a process holding gigabytes and slowed two full-scale
workers by 5-9% when done every 50 ms. PSS never exceeds RSS, and RSS is a
counter the kernel keeps, so a sample reads a process's PSS only when its
RSS is above its peak PSS so far: no sample that could raise a peak is
skipped.
"""

from __future__ import annotations

import os
import threading

INTERVAL_S = 0.05
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _children(pid: int) -> list[int]:
    kids = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except FileNotFoundError:
            pass
    return kids


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass  # the process ended between listing and reading
    return 0


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_KB
    except (FileNotFoundError, ProcessLookupError):
        return 0


def _descendants(root: int) -> list[int]:
    pids = []
    pending = _children(root)
    while pending:
        pid = pending.pop()
        pids.append(pid)
        pending.extend(_children(pid))
    return pids


class PssSampler:
    """Background thread summing the peak PSS of this process's descendants."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def peak_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0

    def _run(self) -> None:
        root = os.getpid()
        while True:
            for pid in _descendants(root):
                peak = self.peak_kb.get(pid, 0)
                if _rss_kb(pid) > peak:
                    self.peak_kb[pid] = max(peak, _pss_kb(pid))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
