"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload {sweep,fleet,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  It starts worker processes
(``perfbench/worker.py``) under a pinned environment, checks their
outputs, prints each metric by name with its median, quartiles and
unit, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run of the same workload and seed: an
untraced worker and a traced one each run one round of the arms; the
traced worker's spans give the per-layer metrics, the two must have
taken the same lanes and produced the same outputs, and the difference
between them is printed as the tracing overhead.

The exit code is 0 when every correctness gate passed, 1 when a gate
failed (the JSON line is still printed), and 2 when the benchmark could
not run at all (no sources to run, a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import gates  # noqa: E402
from perfbench.common import pinned_env  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.stats import summarize, valid_name, valid_unit  # noqa: E402

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

#: ``(name, unit)`` of every end-to-end metric, reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("replay_rps", "1/s"),
    ("probed_rps", "1/s"),
    ("faulted_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: whole-run wall-clock limit for all workers together
DEADLINE_S = 170.0
#: processes that only sample set-up time again, per workload
SETUP_SAMPLES = {"sweep": 1, "fleet": 2, "serve": 0}


class BenchError(Exception):
    """The benchmark could not produce figures (exit code 2)."""


def run_worker(workload: str, role: str, args, seconds: float, env, deadline: float) -> dict:
    """Run one worker to completion; returns its JSON result.

    The worker gets its own process group, so a timeout also stops any
    daemon it started.
    """
    argv = [
        sys.executable, WORKER, "--workload", workload, "--role", role,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--scale", args.scale, "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}/{role} worker timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}/{role} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def plan(workload: str, trace: int):
    if trace:
        return ["timed", "traced"]
    roles = ["timed"]
    if workload == "sweep":
        roles.append("reference")
    return roles + ["setup"] * SETUP_SAMPLES[workload]


def worker_seconds(args, role: str) -> float:
    """Measuring time of one worker: the whole ``--seconds`` for the
    timed worker; one round (0) for the trace-mode pair, except that a
    serve session's phases are sized by time, so each gets half."""
    if args.trace:
        return args.seconds / 2 if args.workload == "serve" else 0.0
    return args.seconds if role == "timed" else 0.0


def check(workload: str, results: dict, trace: int) -> dict:
    """Every correctness gate of the run: ``{gate: [failure, ...]}``."""
    failures = {}
    for role in ("timed", "traced") if trace else ("timed",):
        run = results[role]
        if workload == "sweep":
            reference = results["reference"]["reference"] if not trace else results["timed"]["cells"]["unprobed"][0]
            failures[f"{role}.sweep"] = gates.sweep_gate(run["cells"], reference, run["telemetry_violations"])
        elif workload == "fleet":
            failures[f"{role}.fleet"] = gates.fleet_gate(
                run["fingerprints"]["clean"], run["fingerprints"]["faulted"], run["requests_lost"]
            )
        else:
            session = run["session"]
            failures[f"{role}.serve"] = session["failures"] + gates.serve_gate(
                session["daemon_totals"], session["batch_totals"], session["watermark"], session["attempted"]
            )
    if trace:
        failures["lanes"] = gates.lanes_gate(same_run_view(workload, results["timed"]), same_run_view(workload, results["traced"]))
    return failures


def same_run_view(workload: str, run: dict) -> dict:
    """What an untraced and a traced run must agree on: lanes and outputs
    of the first round."""
    if workload == "serve":
        return {"totals": run["session"]["daemon_totals"], "watermark": run["session"]["watermark"]}
    view = {f"lane.{arm}": data["lanes"][0] for arm, data in run["arms"].items()}
    if workload == "sweep":
        view.update({f"cells.{arm}": cells[0] for arm, cells in run["cells"].items()})
    else:
        view.update({f"fingerprint.{arm}": fps[0] for arm, fps in run["fingerprints"].items()})
    return view


def failed_operations(workload: str, results: dict, failures: dict) -> int:
    """Operations that failed: every gate failure, plus (serve) every
    failed response beyond the examples the gate messages already hold."""
    failed = gates.count_failed(failures)
    if workload == "serve":
        for role in ("timed", "traced"):
            if role in results:
                session = results[role]["session"]
                failed += session["failed_responses"] - len(session["failures"])
    return failed


def operations(workload: str, results: dict, trace: int) -> int:
    """Operations attempted: replayed cells (sweep), replays (fleet) or
    request lines sent (serve)."""
    runs = [results["timed"]] + ([results["traced"]] if trace else [])
    total = 0
    for run in runs:
        if workload == "serve":
            total += run["session"]["attempted"]
        elif workload == "sweep":
            total += sum(len(cells) for rows in run["cells"].values() for cells in rows)
        else:
            total += sum(len(fps) for fps in run["fingerprints"].values())
    return total


def end_to_end(results: dict, roles) -> dict:
    """Per end-to-end metric, its samples from the untraced workers."""
    timed = results["timed"]
    samples = {"setup_s": [s for role in roles if role != "traced" for s in results[role]["setup_samples"]]}
    samples.update(timed["e2e"])
    for name, source in timed.get("aliases", {}).items():
        samples[name] = samples[source]
    return samples


def print_lanes(workload: str, run: dict, label: str) -> None:
    print(f"  {label}: cpu_count={run['cpu_count']} affinity={run['cpu_affinity']} import_s={run['import_s']:.3f}")
    for arm, data in run.get("arms", {}).items():
        lane = data["lanes"][0]
        print(f"    arm {arm}: {len(data['seconds'])} reps, lane {json.dumps(lane, sort_keys=True)}")
        print(f"      decisions/s as measured: {[round(v) for v in data['rps_raw']]}")
        print(f"      host slowness:           {[round(v, 3) for v in data['slowness']]}")
    if run.get("calibration_s"):
        cal = summarize(run["calibration_s"])
        print(
            f"    calibration workload: median {cal['median'] * 1e3:.2f} ms "
            f"[q1 {cal['q1'] * 1e3:.2f}, q3 {cal['q3'] * 1e3:.2f}] n={cal['n']}"
        )
    print(f"    set-up as measured (s): {[round(v, 4) for v in run['setup_raw']]}")
    if workload == "serve":
        session = run["session"]
        print(f"    open-loop p50 as measured: {session['open_p50_ms']:.4f} ms")
        print(f"    open-loop segment p50s (ms): {[round(v, 4) for v in session['open_segment_p50_ms']]}")
        print(f"    closed-loop segment decisions/s as measured: {[round(v) for v in session['closed_rps_raw']]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark (see module docstring).")
    parser.add_argument("--workload", choices=("sweep", "fleet", "serve"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "quick"), default="full",
        help="trace sizes: full (the benchmark) or quick (tests only)",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    compileall.compile_dir("src", quiet=2)
    compileall.compile_dir(os.path.dirname(WORKER), quiet=2)

    env = pinned_env(args.seed)
    roles = plan(args.workload, args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    results = {}
    try:
        for role in roles:
            seconds = worker_seconds(args, role)
            results[role] = run_worker(args.workload, role, args, seconds, env, started + DEADLINE_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = check(args.workload, results, args.trace)
    failed = failed_operations(args.workload, results, failures)
    attempted = operations(args.workload, results, args.trace)
    for role in ("timed", "traced"):
        if role in results:
            print_lanes(args.workload, results[role], role)

    samples = end_to_end(results, roles)
    aliases = results["timed"].get("aliases", {})
    e2e = {}
    for name, unit in END_TO_END:
        s = summarize(samples[name])
        e2e[name] = s["median"]
        note = f"  (= {aliases[name]}: this workload has no such arm)" if name in aliases else ""
        print(
            f"  {name:<16} {s['median']:>14.6g} {unit:<4} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}{note}"
        )

    if args.trace:
        traced = results["traced"]
        traced_samples = {"setup_s": traced["setup_samples"], **traced["e2e"]}
        for name, source in aliases.items():
            traced_samples[name] = traced_samples[source]
        print("  tracing overhead (median untraced -> median traced, same seed, one round each):")
        for name, unit in END_TO_END:
            before, after = e2e[name], summarize(traced_samples[name])["median"]
            print(f"    {name:<16} {before:.6g} -> {after:.6g} {unit} ({(after / before - 1) * 100:+.1f}%)")
        print(f"  spans: {traced['spans']} written to {traced['spans_file']}")
        metrics = {}
        for name, unit, _better in PER_LAYER:
            value = traced["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<34} {value:>14.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    bad = [(n, m["unit"]) for n, m in metrics.items() if not (valid_name(n) and valid_unit(m["unit"]))]
    if bad:
        print(f"perfbench: invalid metric names or units: {bad}", file=sys.stderr)
        return 2
    for gate, messages in failures.items():
        for message in messages:
            print(f"  FAILED {gate}: {message}")
    correct = failed == 0
    print(f"  correct={correct} attempted={attempted} failed={failed} wall_s={time.monotonic() - started:.1f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": min(failed, attempted), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # a SIGTERM unwinds like Ctrl-C, so the running worker's process
    # group (and any daemon in it) is killed and reaped before exit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
