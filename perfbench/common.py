"""Helpers every workload module shares: pinned environment, the timed
rep loop, the calibration loop, process accounting and fingerprints."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import random
import signal
import time
from collections import OrderedDict
from typing import Callable, Dict, List

__all__ = [
    "PINNED_ENV_PREFIX",
    "OUT_DIR",
    "Budget",
    "calibrate",
    "cpu_info",
    "cpu_seconds",
    "digest",
    "ensure_out_dir",
    "generate_requests",
    "peak_rss_mb",
    "pinned_env",
    "slowness",
    "Stopwatch",
    "sub_seed",
    "totals_row",
]

#: Every ``REPRO_*`` variable selects a lane, a worker count, a scale or
#: a checkpoint; the benchmark clears them all so each arm takes the
#: path its workload names (``REPRO_WORKERS``, ``REPRO_NO_KERNELS``,
#: ``REPRO_NO_NUMPY``, ``REPRO_PARALLEL_MIN_WORK``, ``REPRO_SCALE``, ...).
PINNED_ENV_PREFIX = "REPRO_"

#: Run artifacts (spans, telemetry exports, sockets), relative to the
#: checkout root the benchmark runs from.
OUT_DIR = ".perfbench_out"

#: Calibration workload: cache-like dict, LRU and heap work over a fixed
#: Pareto key sequence, about 20 ms on an unloaded 2-vCPU VM and up to
#: ~35 ms when that VM's vCPUs are slowed by other tenants.
CALIBRATION_KEYS = 20_000
#: Passes per calibration: the host can change speed within one pass.
CALIBRATION_PASSES = 3
#: Calibration time set-up figures are scaled to (see ``slowness``).
CALIBRATION_REFERENCE_S = 0.025
#: Seconds between speed samples inside a timed rep (see ``Stopwatch``).
SAMPLE_INTERVAL_S = 0.05
#: Time of one speed sample on an unloaded 2-vCPU VM: about 0.47 ms,
#: against 0.7-0.9 ms when other tenants slow the vCPU.
SAMPLE_REFERENCE_S = 0.0006


def pinned_env(seed: int) -> Dict[str, str]:
    """The environment every benchmark process runs under.

    ``REPRO_*`` knobs are removed, the in-tree sources come first on
    ``PYTHONPATH``, and string hashing is fixed per seed so a seed
    gives the same dict layouts on every run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(PINNED_ENV_PREFIX)}
    root = os.getcwd()
    paths = [os.path.join(root, "src"), root]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = str(seed % (2**32 - 1))
    return env


def sub_seed(seed: int, *parts: object) -> int:
    """A generator seed derived from the workload seed and a purpose."""
    text = json.dumps([seed, *[str(p) for p in parts]])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _calibration_keys() -> List[int]:
    rng = random.Random(2014)
    return [int(rng.paretovariate(0.8)) % 200_000 for _ in range(CALIBRATION_KEYS)]


_KEYS = _calibration_keys()


def calibrate() -> float:
    """Mean seconds per pass of a fixed cache-like workload that touches
    no program code.

    It does the kind of work a replay does (dict hits and misses, LRU
    moves, heap pushes and pops), so a slow window of the host slows it
    about as much as it slows the reps around it.
    """
    start = time.perf_counter()
    for _ in range(CALIBRATION_PASSES):
        lru: OrderedDict = OrderedDict()
        freq: Dict[int, int] = {}
        heap: list = []
        for i, key in enumerate(_KEYS):
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = i
                if len(lru) > 2500:
                    lru.popitem(last=False)
            count = freq.get(key, 0) + 1
            freq[key] = count
            heapq.heappush(heap, (count, i))
            if len(heap) > 2000:
                heapq.heappop(heap)
    return (time.perf_counter() - start) / CALIBRATION_PASSES


def slowness(*calibrations: float) -> float:
    """How much slower than the reference host the calibrations ran."""
    return sum(calibrations) / len(calibrations) / CALIBRATION_REFERENCE_S


_SAMPLE_KEYS = list(range(4096))
random.Random(5).shuffle(_SAMPLE_KEYS)
_SAMPLE_TABLE = {k: (k * 2654435761) & 0xFFFF for k in _SAMPLE_KEYS}


def _speed_sample() -> float:
    """Seconds for a fixed dict-and-integer loop that allocates no
    container, so it can run inside a signal handler without starting
    a garbage collection in the middle of the program's work."""
    start = time.perf_counter()
    acc = 0
    table = _SAMPLE_TABLE
    for key in _SAMPLE_KEYS:
        acc = (acc + table[key]) & 0xFFFF
    for key in _SAMPLE_KEYS:
        acc = (acc ^ table[key]) & 0xFFFF
    return time.perf_counter() - start


class Stopwatch:
    """Times one rep's timed region and samples the host's speed in it.

    On a shared VM a vCPU's speed moves by up to 1.7x for seconds to
    minutes at a time (other tenants), which is far more than any bound
    a benchmark can gate on, and it changes within a single rep.  So a
    ``SIGALRM`` timer interrupts the region every ``SAMPLE_INTERVAL_S``
    and times a fixed micro workload (~0.6 ms, benchmark code only).
    ``seconds`` is the region's wall time less the time spent sampling;
    ``slowness`` is the mean sample over ``SAMPLE_REFERENCE_S``.
    Workloads report times divided, and rates multiplied, by it: a
    program change moves the scaled figure exactly as it moves the raw
    one, while the host's state mostly cancels out.
    """

    def __enter__(self) -> "Stopwatch":
        self._samples: List[float] = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(_speed_sample())
        self._spent += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = end - self._start - self._spent
        samples = self._samples or [_speed_sample()]
        self.samples = len(self._samples)
        self.slowness = sum(samples) / len(samples) / SAMPLE_REFERENCE_S


def cpu_info() -> Dict[str, int]:
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: "int | str" = "self") -> float:
    """User plus system CPU time of a live process, in seconds."""
    with open(f"/proc/{pid}/stat") as stat:
        text = stat.read()
    # the command name (field 2) may hold spaces; fields resume after ')'
    fields = text[text.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def digest(obj: object) -> str:
    """A short stable hash of a JSON-serializable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Budget:
    """Alternates a workload's arms as equal reps until time runs out.

    A new round of arms starts only while the elapsed time plus the
    last round's duration stays within ``seconds``; at least
    ``min_rounds`` rounds always run.  Before each rep the previous
    rep's result is dropped and garbage is collected, so every rep
    starts from the same heap.

    The calibration workload runs before the first rep and after every
    rep, so a slow window of the host shows up next to the reps it
    slowed down.
    """

    def __init__(self, seconds: float, min_rounds: int = 2, max_rounds: int = 50) -> None:
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.max_rounds = max_rounds
        self.calibration: List[float] = []

    def run(self, arms: Dict[str, Callable[[], dict]]) -> Dict[str, List[dict]]:
        """Call each arm once per round; returns each arm's results."""
        out: Dict[str, List[dict]] = {name: [] for name in arms}
        start = time.perf_counter()
        last_round = 0.0
        rounds = 0
        while rounds < self.max_rounds and (
            rounds < self.min_rounds
            or time.perf_counter() - start + last_round <= self.seconds
        ):
            round_start = time.perf_counter()
            for name, arm in arms.items():
                gc.collect()
                out[name].append(arm())
                self.calibration.append(calibrate())
            last_round = time.perf_counter() - round_start
            rounds += 1
        return out


def generate_requests(generate, days: float, count: int):
    """The first ``count`` requests of the trace ``generate(days)`` makes.

    Trace length varies a lot between seeds (the popular videos' sizes
    are random), so every seed's trace is cut to the same length.  A
    trace that comes out short is generated again over more days.
    """
    while True:
        trace = generate(days)
        if len(trace) >= count:
            return trace[:count]
        days *= 1.25 * count / max(len(trace), 1)


def ensure_out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def totals_row(summary) -> list:
    """The exact integer counters of a ``TrafficSummary``."""
    return [
        summary.num_requests,
        summary.num_served,
        summary.requested_bytes,
        summary.requested_chunks,
        summary.egress_bytes,
        summary.ingress_bytes,
        summary.redirected_bytes,
        summary.filled_chunks,
        summary.redirected_chunks,
        summary.num_lost,
        summary.lost_bytes,
    ]
