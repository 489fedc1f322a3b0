"""Measurement helpers shared by the workloads: statistics, spans, the
open-loop schedule, process accounting and the run environment.

Nothing here imports ``repro``; :func:`use_repo` puts ``src/`` on the path
(and fails loudly where the program is absent, e.g. a directory holding
only the benchmark's own files).
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

# A percentile is reported only when at least this many samples lie beyond
# it (choosing-metrics §1), so p95 needs 200 samples.
TAIL_MIN_BEYOND = 10


def use_repo() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks/e2e: the program under test is missing ({SRC}/repro)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- statistics ------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 1``."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q)) - 1])


def tail_percentile(values: Sequence[float], q: float = 0.95) -> Optional[float]:
    """The ``q`` percentile, or None when fewer than ``TAIL_MIN_BEYOND``
    samples lie beyond it (p95 under 200 samples says nothing)."""
    if len(values) * (1.0 - q) < TAIL_MIN_BEYOND:
        return None
    return percentile(values, q)


def timed(fn: Callable[[], object]) -> float:
    """Wall seconds one call of ``fn`` takes."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- machine speed -----------------------------------------------------------------
#
# The box the benchmark runs on is a few cores of a shared host, and its
# speed moves by a quarter for seconds to minutes at a time: wall times of
# unchanged code read 0.6-1.2 s within one run, and whole sets of runs
# shift by 17 %.  No statistic of the wall times alone steadies that (see
# README, "Machine speed").  So a fixed piece of work — the kind the program
# spends its time on, 254-bit modular multiplication in the interpreter,
# calling nothing of the program — is timed right before each timed section,
# and the section's times are scaled to what they would read with that
# kernel at its nominal speed.

FIELD_MODULUS = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)
REFERENCE_MULS = 150_000
# What the kernel takes on the builder's box at its quicker speed.  Only a
# scale: it makes calibrated seconds read like wall seconds there.
REFERENCE_S = 0.055


def reference_kernel() -> float:
    """Wall seconds the fixed kernel takes right now."""
    x = y = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
    start = time.perf_counter()
    for _ in range(REFERENCE_MULS):
        y = y * x % FIELD_MODULUS
    return time.perf_counter() - start


def speed_factor() -> float:
    """What to multiply the next section's wall times by: below 1 while
    the machine is slower than nominal, above 1 while it is quicker."""
    return REFERENCE_S / reference_kernel()


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# -- spans -----------------------------------------------------------------------


class Tracer:
    """Per-request phase clock; with ``on`` it also keeps span records.

    ``span(name)`` always adds its duration to ``phases[name]`` (the
    end-to-end metrics need compile/prove/verify in both passes).  Only
    when ``on`` does it append ``{name, start, end, parent, request}`` to
    ``spans`` — kept in memory, written once at the end by the caller.
    """

    def __init__(self) -> None:
        self.on = False
        self.request: Optional[int] = None
        self.phases: Dict[str, float] = {}
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def begin_request(self, request: Optional[int], on: bool) -> None:
        self.request = request
        self.on = on
        self.phases = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = -1
        if self.on:
            index = len(self.spans)
            self.spans.append({
                "name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
            })
            self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.phases[name] = self.phases.get(name, 0.0) + (end - start)
            if index >= 0:
                self._stack.pop()
                self.spans[index]["start"] = start
                self.spans[index]["end"] = end

    def add(self, name: str, seconds: float) -> None:
        """Record a duration the program measured itself (``phase_sink=``,
        artifact wall times): a metric, not a span."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def residual_share(spans: Sequence[dict], root: str = "request") -> float:
    """1 - (time inside child spans / time inside ``root`` spans)."""
    own = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == root)
    if total <= 0:
        return 0.0
    return sum(o for s, o in zip(spans, own) if s["name"] == root) / total


# -- open loop -------------------------------------------------------------------


def due_times(start: float, rate: float, count: int) -> List[float]:
    """Fixed schedule: request ``i`` is due at ``start + i / rate``."""
    return [start + i / rate for i in range(count)]


def open_loop_latency(due: float, done: float) -> float:
    """Latency from the instant the request was *due*, so a stalled
    generator charges its stall to the requests it delayed."""
    return done - due


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


# -- processes and files ---------------------------------------------------------


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (Linux ``/proc`` walk)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parentheses.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [root], [root]
    while frontier:
        pid = frontier.pop()
        kids = [c for c, p in parents.items() if p == pid]
        tree.extend(kids)
        frontier.extend(kids)
    return tree


def vm_hwm_mib(pid: int) -> float:
    """High-water resident set of one process (``VmHWM``), in MiB."""
    try:
        for line in Path("/proc", str(pid), "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed on every exit path.

    Journals, artifact stores and port files go here; child processes get
    it as ``TMPDIR`` so nothing is written outside the checkout.
    """
    base = REPO / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only succeeds once no other run is using it


# -- environment -----------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository: then ``"unknown"``)."""
    head = REPO / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref:"):
            return (REPO / ".git" / text.split()[1]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def environment() -> Dict[str, object]:
    use_repo()
    import numpy
    from repro.field.backend import backend_name

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "field_backend": backend_name(),
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }
