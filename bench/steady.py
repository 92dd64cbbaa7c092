"""Steadiness check: two independent sets of benchmark runs of the same code.

    python3 bench/steady.py [--runs N] [--workload NAME ...]

Runs bench/run.py N times per set and workload, each run with its own
seed, alternating between the two sets.  For every end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles, the spread
(q3 - q1) / median, and the shift of the second set's median from the
first's, against the metric's bound.  It also checks that the share of
failed operations is the same in both sets and that each report digest
(keyed by the verb's argv) is the same in every run.

Exit code 0 when every spread (setup_s excepted) and every worsening shift
is within its bound, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(command: list, workload: str, seed: int, seconds: int) -> tuple:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    digests = {}
    for line in lines[:-1]:
        if line.startswith("digest "):
            _, digest, _, code, key = line.split(" ", 4)
            digests[key] = (digest, code)
    return json.loads(lines[-1]), digests


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        sets: list = [[], []]
        digests: dict = {}
        for i in range(args.runs):
            for s in (0, 1):
                seed = 1 + 2 * i + s
                result, seen = run_once(spec["command"], workload, seed, spec["run_seconds"])
                sets[s].append(result)
                for key, value in seen.items():
                    digests.setdefault(key, set()).add(value)
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        print(f"{workload}: {args.runs} runs per set, {spec['run_seconds']} s each")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for runs in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                stats.append((q1, med, q3, (q3 - q1) / med))
            worse = (stats[1][1] - stats[0][1]) / stats[0][1]
            if metric["better"] == "higher":
                worse = -worse
            pooled = quartiles([r["metrics"][name]["value"] for runs in sets for r in runs])
            pooled_spread = (pooled[2] - pooled[0]) / pooled[1]
            verdict = []
            if name != "setup_s" and max(s[3] for s in stats) > bound:
                verdict.append("SPREAD OVER BOUND")
            elif max(s[3] for s in stats) > bound / 3:
                verdict.append("spread over a third of the bound")
            if worse > bound:
                verdict.append("SHIFT OVER BOUND")
            ok &= not any(v.isupper() for v in verdict)
            print(
                f"  {name:12s} bound {bound:.2f}"
                + "".join(f" | set{k + 1} median {s[1]:.4f} q1 {s[0]:.4f} q3 {s[2]:.4f} spread {s[3]:.4f}"
                          for k, s in enumerate(stats))
                + f" | pooled spread {pooled_spread:.4f} | second worse by {worse:+.4f}"
                + (f"  [{'; '.join(verdict)}]" if verdict else "")
            )
        shares = [
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets
        ]
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            ok = False
            print(f"  FAILED SHARES DIFFER: {shares}")
        else:
            print(f"  failed/attempted: set1 {shares[0][0]}/{shares[0][1]}, set2 {shares[1][0]}/{shares[1][1]}")
        if not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print("  SOME RUN REPORTED correct=false")
        unstable = sorted(key for key, values in digests.items() if len(values) > 1)
        if unstable:
            ok = False
            print(f"  REPORTS DIFFER ACROSS RUNS: {unstable}")
        else:
            print(f"  {len(digests)} report digests identical in every run that made them")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
