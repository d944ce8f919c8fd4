"""Steadiness tooling: repeat runs, summarise spread, compare sets.

    python3 perfbench/steady.py runs --workload scan-uniform --seeds 1-10 --out a.json
    python3 perfbench/steady.py compare a.json b.json
    python3 perfbench/steady.py parity --workload adaptive-sine --seed 3

``runs`` starts one fresh process per run (``run.py`` untraced, with
the run length from ``BENCHMARK.json``), then prints, for each metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.
``compare`` checks a second set of runs against a first: each median
may be worse by at most the bound, and the share of failed operations
must be identical.  ``parity`` runs one seed untraced and traced and
requires the same ledger totals and answers from both (the
``fingerprint`` line), reporting the tracing overhead.

Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec()["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["fingerprint"] = next(
        (line.split()[1] for line in lines if line.startswith("fingerprint ")), None
    )
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(results: list[dict], bounds: dict[str, float]) -> None:
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print(f"  failed share: {', '.join(str(s) for s in sorted(shares))}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        if len(values) < 2:
            print(f"  {name:30s} {values[0]:12.4f} {unit}")
            continue
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"bound {bound:.2f}  {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(
            f"  {name:30s} median {median:12.4f} {unit:8s} "
            f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} {verdict}"
        )


def cmd_runs(args) -> None:
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in seeds(args.seeds):
        result = run_once(args.workload, seed, 0)
        results.append(result)
        print(
            f"{args.workload} seed {seed}: attempted {result['attempted']}, "
            f"failed {result['failed']}",
            flush=True,
        )
    print(f"{args.workload}: {len(results)} runs of {bench['run_seconds']}s")
    summarise(results, bounds)
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {}
        data[args.workload] = results
        out.write_text(json.dumps(data, indent=1))


def cmd_compare(args) -> None:
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    failures = 0
    for workload in sorted(set(first) & set(second)):
        a, b = first[workload], second[workload]
        share_a = {Fraction(r["failed"], r["attempted"]) for r in a}
        share_b = {Fraction(r["failed"], r["attempted"]) for r in b}
        if len(share_a | share_b) != 1:
            failures += 1
            print(f"{workload}: failed shares differ: {sorted(share_a)} vs {sorted(share_b)}")
        for name, m in metrics.items():
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spreads = []
            for values in (va, vb):
                q1, median, q3 = quartiles(values)
                spreads.append((q3 - q1) / median)
            ok = worse <= m["bound"] and (
                name == "setup_s" or max(spreads) <= m["bound"]
            )
            failures += not ok
            print(
                f"{workload:14s} {name:16s} {ma:12.4f} -> {mb:12.4f} "
                f"worse {worse:+7.3f} spreads {spreads[0]:.3f}/{spreads[1]:.3f} "
                f"bound {m['bound']:.2f} {'ok' if ok else 'FAIL'}"
            )
    print("all within bounds" if not failures else f"{failures} checks failed")
    if failures:
        raise SystemExit(1)


def cmd_parity(args) -> None:
    plain = run_once(args.workload, args.seed, 0)
    traced = run_once(args.workload, args.seed, 1)
    same = plain["fingerprint"] == traced["fingerprint"] and plain["fingerprint"]
    untraced = plain["metrics"]["ops_per_s"]["value"]
    with_trace = traced["metrics"]["trace.ops_per_s"]["value"]
    print(
        f"{args.workload} seed {args.seed}: fingerprints "
        f"{'identical' if same else 'DIFFER'} ({plain['fingerprint']} / {traced['fingerprint']}); "
        f"ops_per_s {untraced:.2f} untraced, {with_trace:.2f} traced "
        f"({(untraced - with_trace) / untraced:+.1%} overhead)"
    )
    if not same:
        raise SystemExit(1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runs = sub.add_parser("runs", help="repeat one workload over seeds")
    runs.add_argument("--workload", required=True)
    runs.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    runs.add_argument("--out", help="JSON file the runs are added to")
    runs.set_defaults(fn=cmd_runs)
    compare = sub.add_parser("compare", help="second set of runs against a first")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(fn=cmd_compare)
    parity = sub.add_parser("parity", help="traced and untraced run of one seed")
    parity.add_argument("--workload", required=True)
    parity.add_argument("--seed", type=int, default=1)
    parity.set_defaults(fn=cmd_parity)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
