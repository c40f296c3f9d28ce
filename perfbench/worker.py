"""One benchmark process: set up a workload, then play one role.

``python3 perfbench/worker.py --workload W --role R --seed N
--seconds S --spawned-at T`` prints a single JSON line with what it
measured.  ``perfbench/run.py`` starts these processes under a pinned
environment and turns their output into the benchmark's figures.

Roles:

* ``timed`` - set up, then alternate the workload's arms as equal reps
  for ``--seconds`` (tracing off);
* ``setup`` - set up and stop at the point the first timed request
  would be sent, to sample set-up time again;
* ``reference`` - set up, then compute the untimed correctness
  reference (``sweep`` only);
* ``traced`` - like ``timed``, one round, with spans recorded around
  the calls into each layer.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import calibrate, cpu_info, ensure_out_dir, slowness  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORKLOADS = ("sweep", "fleet", "serve")
ROLES = ("timed", "setup", "reference", "traced")
#: trace size presets: FULL is the benchmark; QUICK is for the tests
SCALES = ("full", "quick")


class Context:
    """What a workload module needs from the process running it."""

    def __init__(self, args: argparse.Namespace, tracer) -> None:
        self.role = args.role
        self.seed = args.seed
        self.seconds = args.seconds
        self.spawned_at = args.spawned_at
        self.min_rounds = 1 if args.role == "traced" or args.seconds <= 0 else 2
        self.tracer = tracer
        self.scale_name = args.scale
        self.scale = None  # resolved after the package import
        self.opening_calibration = calibrate()
        self.setup_raw = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def setup_done(self) -> float:
        """This process's set-up time: seconds from its spawn to now,
        less the opening calibration, divided by the host slowness the
        calibrations on either side of it measured (see
        ``common.Stopwatch`` for why figures are scaled)."""
        raw = time.monotonic() - self.spawned_at - self.opening_calibration
        self.setup_raw = raw
        return raw / slowness(self.opening_calibration, calibrate())

    def rep(self, fn, arm: str):
        """``fn`` as one rep: a root span per call when tracing."""
        if self.tracer is None:
            return fn

        def traced_rep():
            self.tracer.new_rep()
            with self.tracer.span("rep." + arm):
                return fn()

        return traced_rep

    def arm_summary(self, reps: dict, budget) -> dict:
        """Per arm and rep: wall seconds and decisions/s as measured
        (``*_raw``) and scaled by the rep's slowness."""
        arms = {}
        for arm, rows in reps.items():
            arms[arm] = {
                "rps_raw": [r["decisions"] / r["seconds"] for r in rows],
                "slowness": [r["slowness"] for r in rows],
                "seconds": [r["seconds"] / r["slowness"] for r in rows],
                "rps": [r["decisions"] / r["seconds"] * r["slowness"] for r in rows],
                "lanes": [r["lane"] for r in rows],
            }
        return {"arms": arms, "calibration_s": budget.calibration}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--role", choices=ROLES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scale", choices=SCALES, default="full")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.role == "traced" else None
    ctx = Context(args, tracer)
    start = time.perf_counter()
    with ctx.span("repro.import"):
        import repro  # noqa: F401
        from repro.experiments.common import FULL, QUICK

        module = importlib.import_module("perfbench." + args.workload)
    import_s = time.perf_counter() - start
    ctx.scale = FULL if args.scale == "full" else QUICK

    result = module.run(ctx)
    result.update(cpu_info())
    result["import_s"] = import_s
    result.setdefault("setup_raw", [ctx.setup_raw])
    if tracer is not None:
        from perfbench.layers import per_layer

        result["layers"] = per_layer(tracer.layer_times(), result.get("facts", {}))
        result["spans"] = len(tracer)
        path = os.path.join(ensure_out_dir(), f"spans-{args.workload}.bin")
        tracer.dump(path)
        result["spans_file"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
