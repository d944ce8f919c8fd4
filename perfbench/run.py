"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload scan-uniform --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from
``src/`` with every ``REPRO_*`` environment variable cleared and the
simulated backend pinned, so the environment cannot change what is
measured.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps each layer's entry point (see ``tracing.py``), prints the
per-layer metrics and writes the spans to ``.perfbench-out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A wrong answer not explained by a named fault (see README) ends the run
with ``"correct": false`` and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-uniform", "adaptive-sine", "durable-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    # One core for the whole run: client and server threads then hand
    # off on the same core every time instead of whichever is free.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import durable
    import served
    import tracing
    from common import CheckFailed

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    correct = True
    try:
        if args.workload == "scan-uniform":
            out = served.run_served(served.SCAN_UNIFORM, args.seed, args.seconds, tracer)
        elif args.workload == "adaptive-sine":
            out = served.run_served(served.ADAPTIVE_SINE, args.seed, args.seconds, tracer)
        else:
            out = durable.run_durable(args.seed, args.seconds, tracer, workdir)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        out = {"attempted": 1, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still works there

    metrics = out["metrics"]
    if correct and tracer is not None:
        tracer.uninstall()
        metrics = tracing.layer_metrics(
            tracer, reads=out["reads"], ops=out["ops"], run_seconds=out["run_seconds"]
        )
        metrics.update(out["layer"])
        tracer.write_chrome(
            ROOT / ".perfbench-out" / f"trace-{args.workload}-s{args.seed}.json"
        )
    if correct:
        print(f"fingerprint {out['fingerprint']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(out["attempted"]),
                "failed": int(out["failed"]),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
