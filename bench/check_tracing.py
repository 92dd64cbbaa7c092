"""Tracing completeness test and tracing overhead.

    python3 bench/check_tracing.py [--workload NAME ...]

First, in this process: install the layer wrappers and fail (exit 1) if
any wrapped function is still reachable unwrapped from any namespace, if
a public function of a layer module went unwrapped, or if a traced verb
records no span for a layer it must pass through.  The names that are
easy to miss are checked by name as well: the ``Scalar.__radd__`` and
``__rmul__`` aliases, ``we.express_in_basis`` and the jet functions
imported into ``conservation`` and ``su2``.

Then, per workload: three pairs of an untraced and a traced round, each
in a fresh process, printing the median of traced wall_s minus untraced
wall_s (the tracing overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import statistics
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from run import run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PAIRS = 3
SEED = 1


def completeness_problems() -> list:
    import prolong.cli  # noqa: F401  (loads every layer module)
    from prolong import coeff, conservation, linsolve, su2, we

    tracer = tracing.Tracer()
    bindings = tracing.install(tracer)
    wrappers = {id(b.wrapper) for b in bindings}
    problems = [f"{name} still bound in {holder}" for name, holder in tracing.missed_bindings(bindings)]

    for layer in tracing.LAYERS:
        module = sys.modules[f"prolong.{layer}"]
        for attr, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == module.__name__ and id(obj) not in wrappers):
                problems.append(f"{layer}.{attr} was never wrapped")

    named = {
        "coeff.Scalar.__radd__": vars(coeff.Scalar)["__radd__"],
        "coeff.Scalar.__rmul__": vars(coeff.Scalar)["__rmul__"],
        "we.express_in_basis": we.express_in_basis,
        "linsolve.express_in_basis": linsolve.express_in_basis,
        "conservation.total_derivative": conservation.total_derivative,
        "conservation.reduce_mod_evolution": conservation.reduce_mod_evolution,
        "conservation.is_total_x_derivative": conservation.is_total_x_derivative,
        "conservation.jet_order": conservation.jet_order,
        "su2.split_jet": su2.split_jet,
        "su2.jets.reduce_mod_evolution": su2.jets.reduce_mod_evolution,
        "su2.exp_atom": su2.exp_atom,
    }
    for label, obj in named.items():
        if id(obj) not in wrappers:
            problems.append(f"{label} is not a wrapper")
    if vars(coeff.Scalar)["__radd__"] is vars(coeff.Scalar)["__add__"]:
        problems.append("Scalar.__radd__ shares the __add__ wrapper; its calls would be misnamed")

    with contextlib.redirect_stdout(io.StringIO()):
        prolong.cli.main(["closure", "--fixture", "kdv_ideal"])
    seen = {span[0] for span in tracer.spans}
    for layer in ("coeff", "forms", "linsolve", "dsl", "we", "cli"):
        if layer not in seen:
            problems.append(f"closure --fixture kdv_ideal recorded no {layer} span")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    problems = completeness_problems()
    for problem in problems:
        print(f"INCOMPLETE: {problem}")
    print(f"completeness: {'FAILED' if problems else 'ok'}")

    scratch = ROOT / ".bench_out" / "check_tracing"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workload or list(WORKLOADS):
            verbs = WORKLOADS[workload](SEED, scratch)
            argvs = [list(v.argv) for v in verbs]
            reports = [str(scratch / f"verb{j}.json") for j in range(len(verbs))]
            plain, traced = [], []
            for pair in range(PAIRS):
                order = (False, True) if pair % 2 == 0 else (True, False)
                for trace in order:
                    wall_s = run_worker(argvs, reports, trace, SEED, 600)["wall_s"]
                    (traced if trace else plain).append(wall_s)
            overhead = statistics.median(t - p for t, p in zip(traced, plain))
            base = statistics.median(plain)
            print(f"{workload}: untraced wall_s {base:.3f}, traced {statistics.median(traced):.3f}, "
                  f"overhead {overhead:+.3f} s ({overhead / base:+.1%}), median of {PAIRS} pairs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
