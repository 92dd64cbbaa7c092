"""Benchmark of the prolong engine's CLI verbs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  One round is one fresh,
single-threaded Python process (bench/worker.py) that imports the engine
from ./src and runs the workload's verbs in order through
prolong.cli.main; rounds repeat, closed loop, until S seconds have passed.
The reports of the first round are checked against independent sympy
computations (bench/checks.py); every later round's reports must be
byte-identical to them apart from ``wall_ms``.

The last line of standard output is one JSON object: correct, attempted
and failed operations (one operation is one verb invocation), and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
each the median over the rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must finish well inside three minutes, checks included.
DEADLINE_S = 170.0


def report_digest(path: Path) -> str:
    """sha256 of a JSON report without its ``wall_ms`` line."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.lstrip().startswith(b'"wall_ms"'))
    return hashlib.sha256(kept).hexdigest()


def round_hash_seed(seed: int, k: int) -> int:
    """The PYTHONHASHSEED of round k: any run seed, negative or beyond 32
    bits, maps into the range Python accepts, [0, 2**32 - 1]."""
    return (seed * 1000 + k) % 2**32


def run_worker(verbs: list, reports: list, trace: bool, hash_seed: int, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH="",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    job = json.dumps({"verbs": verbs, "reports": reports, "trace": trace})
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=job, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    if not (ROOT / "src" / "prolong" / "cli.py").is_file():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    scratch = Path(".bench_out") / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        return measure(args, scratch, began)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path, began: float) -> int:
    verbs = WORKLOADS[args.workload](args.seed, scratch)
    argvs = [list(v.argv) for v in verbs]
    trace = bool(args.trace)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - began)

    # The first import in a fresh checkout compiles bytecode; it is not a
    # set-up sample.  Every round's import is one.
    run_worker([], [], False, round_hash_seed(args.seed, 0), remaining())

    # Whole rounds only: a round starts when the last one's duration still
    # fits in the run, so every run measures complete verb sequences.
    rounds: list = []
    round_s = 0.0
    start = time.perf_counter()
    while not rounds or (
        time.perf_counter() - start + round_s <= args.seconds and remaining() > round_s + 20.0
    ):
        k = len(rounds)
        t0 = time.perf_counter()
        reports = [str(scratch / f"round{k}-verb{j}.json") for j in range(len(verbs))]
        # Each round gets its own hash seed, so report determinism is tested
        # across set and dict orders, not only repeated.
        result = run_worker(argvs, reports, trace, round_hash_seed(args.seed, k), remaining())
        result["reports"] = reports
        rounds.append(result)
        round_s = time.perf_counter() - t0

    # A later round's report passes when it is byte-identical (wall_ms
    # aside) to a first-round report that passed its check, and fails with
    # it otherwise, so failed stays the same share of attempted however
    # many rounds a run makes.
    failed = 0
    digests: dict = {}
    first_failed: dict = {}
    for k, result in enumerate(rounds):
        for verb, outcome, path in zip(verbs, result["verbs"], result["reports"]):
            key = " ".join(verb.argv)
            problems = []
            if outcome["error"] or not Path(path).is_file():
                problems.append(outcome["error"] or f"no report (exit {outcome['exit']}): {outcome['output'][-500:]}")
            elif k == 0:
                report = json.loads(Path(path).read_text(encoding="utf-8"))
                try:
                    problems = verb.check(report, outcome["exit"])
                except Exception as exc:  # a report the check cannot read is wrong
                    problems = [f"check raised {exc!r}"]
                digests[key] = (report_digest(Path(path)), outcome["exit"])
            elif digests.get(key) != (report_digest(Path(path)), outcome["exit"]):
                problems.append("report differs from the checked first round")
            elif first_failed[key]:
                problems.append("same report as the first round, which failed its check")
            if k == 0:
                first_failed[key] = bool(problems)
            if problems:
                failed += 1
                print(f"FAILED round {k} {key}: {problems}", file=sys.stderr)
            Path(path).unlink(missing_ok=True)
    for key, (digest, code) in digests.items():
        print(f"digest {digest} exit {code} {key}")

    if trace:
        # Counts repeat exactly between rounds; median_low keeps them whole.
        metrics = {
            name: {
                "value": (statistics.median_low if unit == "count" else statistics.median)(
                    r["layers"][name] for r in rounds
                ),
                "unit": unit,
            }
            for name, unit in tracing.LAYER_METRICS
        }
    else:
        per_verb = [statistics.median(r["verbs"][j]["seconds"] for r in rounds) for j in range(len(verbs))]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "max_verb_s": {"value": max(per_verb), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(f"rounds {len(rounds)} seconds {time.perf_counter() - began:.1f}", file=sys.stderr)
    attempted = len(rounds) * len(verbs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
