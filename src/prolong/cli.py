"""Batch command line: run the verification verbs over bundled or
user-supplied model files and emit deterministic text/JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error,
3 an unexpected exception inside a verb (its traceback goes to stderr),
4 no check failed but one is beyond the engine: an ``unsupported`` item
names the equations that no evolution rule solves.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from . import conservation, dsl, su2, we
from .coeff import Scalar, substitute
from .forms import check_dd_zero
from .jets import EvolutionSystem, jet_order, solve_evolution, split_jet

SCHEMA_VERSION = 1

# Item statuses that fail a report; every other status but "unsupported" passes.
FAILING_STATUSES = frozenset({"failed", "degenerate"})
# the result line of a report, by exit code
RESULTS = {0: "ok", 1: "FAILED", 4: "UNSUPPORTED"}


class CliError(Exception):
    pass


def _fixture_path(name: str):
    base = resources.files("prolong").joinpath("fixtures")
    candidate = base.joinpath(f"{name}.eds")
    if not candidate.is_file():
        available = sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".eds"))
        raise CliError(f"unknown fixture {name!r}; available: {', '.join(available)}")
    return candidate


def _load_model(args) -> dsl.ModelFile:
    if getattr(args, "path", None):
        try:
            return dsl.parse_path(args.path)
        except FileNotFoundError as exc:
            raise CliError(str(exc)) from None
    if getattr(args, "fixture", None):
        text = _fixture_path(args.fixture).read_text(encoding="utf-8")
        return dsl.parse(text)
    raise CliError("give a model file path or --fixture NAME")


def _item(name: str, status: str, **extra) -> dict:
    return {"name": name, "status": status, **extra}


def _unsupported(leftovers) -> list:
    """The report of a check the engine cannot make on-shell: one
    ``unsupported`` item naming every nonzero equation that no evolution
    rule solves, or no item when there is none."""
    unsolved = [dsl.print_scalar(e) for e in leftovers if not e.is_zero]
    return [_item("evolution", "unsupported", unsolved=unsolved)] if unsolved else []


def _witness_payload(witness: we.MembershipWitness) -> dict:
    return {name: dsl.print_form(mult) for name, mult in witness.multipliers.items()}


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_verify_su2(args) -> tuple:
    sc = su2.build_su2_context()
    forms = su2.build_forms(sc)
    contexts = [("dd-zero", sc.ctx)]
    if getattr(args, "fixture", None) or getattr(args, "path", None):
        model = _load_model(args)
        if model.kind != "dga":
            raise CliError("verify-su2 fixture must declare a free DGA context")
        contexts.append(("dd-zero-fixture", model.ctx))
    items = []
    for label, ctx in contexts:
        report_dd = check_dd_zero(ctx)
        items.append(
            _item(
                label,
                "verified" if report_dd.ok else "failed",
                residual=[
                    f"{n}: {dsl.print_form(f)}"
                    for n, f in report_dd.residuals.items()
                    if not f.is_zero
                ],
            )
        )
    # a repeated --name runs once, where it was first given
    wanted = su2.IDENTITY_NAMES if args.all or not args.name else tuple(dict.fromkeys(args.name))
    for name in wanted:
        result = su2.verify_identity(sc, name, forms)
        status = "verified" if result.stated_ok else ("corrected" if result.corrected else "failed")
        payload = _item(
            name,
            status,
            residual=[dsl.print_form(f) for f in (*result.residuals, *result.reexpansions)
                      if not f.is_zero],
        )
        if result.note:
            payload["note"] = result.note
        if result.decomposition is not None:
            payload["decomposition"] = {
                "theta": [dsl.print_scalar(c) for c in result.decomposition.theta_coeffs],
                "multipliers": {
                    f"xi{i}": dsl.print_form(m)
                    for i, m in sorted(result.decomposition.multipliers.items())
                },
            }
        items.append(payload)
    return items, None


def _cmd_gauge(args) -> tuple:
    sc = su2.build_su2_context()
    families = {"upper": su2.q_upper, "diag": su2.q_diag}  # only a wanted family is built
    wanted = ("upper", "diag") if args.family == "both" else (args.family,)
    items = []
    for name in wanted:
        result = su2.gauge_transform(sc, families[name](sc))
        residual = [
            dsl.print_form(result.residual.entry(i, j))
            for i in range(2)
            for j in range(2)
            if not result.residual.entry(i, j).is_zero
        ]
        items.append(
            _item(name, "verified" if result.ok else "failed", residual=residual)
        )
    return items, None


def _pick(block: dict, what: str) -> tuple:
    """(name, entry) of the block entry whose name sorts first."""
    if not block:
        raise CliError(f"model file declares no {what} block")
    name = min(block)
    return name, block[name]


def _cmd_theta(args) -> tuple:
    _, spec = _pick(_load_model(args).akns, "spectral family")
    extraction = su2.extract_evolution(spec)
    comps = extraction.components
    items = [
        _item("minus", "computed", coefficient=dsl.print_scalar(comps.minus_coeff)),
        _item("plus", "computed", coefficient=dsl.print_scalar(comps.plus_coeff)),
        _item("third", "computed", coefficient=dsl.print_scalar(comps.third_coeff)),
    ]
    for leader, rhs in extraction.system.rules.items():
        items.append(
            _item(
                f"evolution-{split_jet(leader)[0]}",
                "extracted",
                rule=f"{leader} = {dsl.print_scalar(rhs)}",
            )
        )
    for k, c in enumerate(extraction.constraints):
        items.append(
            _item(
                f"constraint-{k}",
                "verified" if c.is_zero else "reported",
                expression=dsl.print_scalar(c),
            )
        )
    peak = max(jet_order(c, spec.deps) for c in comps.coeffs) if spec.deps else 0
    return items, peak


def _cmd_densities(args) -> tuple:
    _, spec = _pick(_load_model(args).akns, "spectral family")
    seq = conservation.recursion_densities(spec, args.order)
    items = []
    for n in range(1, args.order + 1):
        items.append(_item(f"W{n}", "computed", density=dsl.print_scalar(seq.w(n))))
    for n in range(1, args.order):
        residual = conservation.recursion_residual(seq, n)
        items.append(
            _item(
                f"recursion-{n}",
                "verified" if residual.is_zero else "failed",
                residual=dsl.print_scalar(residual),
            )
        )
    return items, seq.peak_jet_order


def _cmd_conserve(args) -> tuple:
    _, spec = _pick(_load_model(args).akns, "spectral family")
    extraction = su2.extract_evolution(spec)
    if unsupported := _unsupported(extraction.constraints):
        return unsupported, None
    pairs = conservation.conserved_pairs(spec, args.order)
    items = []
    peak = 0
    for pair in pairs:
        cert = conservation.verify_conservation(pair, extraction.system)
        peak = max(peak, cert.peak_jet_order)
        payload = _item(
            f"n={pair.n}",
            "certified" if cert.ok else "failed",
            density=dsl.print_scalar(pair.density),
            current=dsl.print_scalar(pair.current),
            jet_order=cert.peak_jet_order,
            eta_trace=[list(t) for t in pair.eta_trace],
        )
        if not cert.ok:
            payload["witness"] = {
                var: dsl.print_scalar(w) for var, w in cert.witnesses.items()
            }
        items.append(payload)
    return items, peak


def _cmd_closure(args) -> tuple:
    _, ideal = _pick(_load_model(args).ideals, "ideal")
    result = we.closure_check(ideal)
    items = []
    for name, witness in result.witnesses.items():
        if witness is None:
            d_form = result.failures[name]
            items.append(_item(name, "failed", residual=dsl.print_form(d_form)))
        else:
            items.append(_item(name, "closed", witness=_witness_payload(witness)))
    return items, None


def _beta_scalar(text: str) -> Scalar:
    try:
        num, _, den = text.partition("/")
        return Scalar.rational(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--beta wants an integer or rational, got {text!r}") from None


def _at_beta(args):
    """The map putting ``--beta`` for beta in a scalar, or None without
    ``--beta``.  A value that makes a denominator vanish is a usage error."""
    if args.beta is None:
        return None
    images = {"beta": _beta_scalar(args.beta)}

    def at_beta(c: Scalar) -> Scalar:
        try:
            return substitute(c, images)
        except ZeroDivisionError as exc:
            raise CliError(f"--beta {args.beta}: {exc}") from None

    return at_beta


def _cmd_section(args) -> tuple:
    model = _load_model(args)
    name, ideal = _pick(model.ideals, "ideal")
    result = we.section(ideal, model.sections.get(name, ()))
    at_beta = _at_beta(args)
    items = []
    for name, raw in result.raw.items():
        items.append(_item(f"raw-{name}", "sectioned", equation=dsl.print_scalar(raw)))
    for var, replacement in result.eliminations.rules.items():
        items.append(
            _item(f"eliminate-{var}", "applied", rule=f"{var} -> {dsl.print_scalar(replacement)}")
        )
    for k, eq in enumerate(result.reduced):
        final = at_beta(eq) if at_beta else eq
        label = we.named_equation(final)
        payload = _item(f"equation-{k}", "presented", equation=dsl.print_scalar(final))
        if label:
            payload["label"] = label
        items.append(payload)
    return items, None


def _cmd_prolong(args) -> tuple:
    model = _load_model(args)
    _, ideal = _pick(model.ideals, "ideal")
    _, conn = _pick(model.connections, "connection")
    at_beta = _at_beta(args)
    if at_beta:
        ideal = we.ExteriorIdeal(ideal.ctx, {
            n: g.map_coefficients(at_beta)
            for n, g in ideal.generators.items()})
    closure = we.closure_check(ideal)
    if not closure.ok:
        raise CliError("ideal is not closed; prolongation condition undefined")
    result = we.prolongation_residual(conn, ideal)
    items = []
    for (i, j), witness in result.witnesses.items():
        if witness is None:
            z = result.residuals[i, j]
            items.append(
                _item(f"entry-{i}{j}", "failed", residual=dsl.print_form(z))
            )
        else:
            items.append(
                _item(f"entry-{i}{j}", "verified", multipliers=_witness_payload(witness))
            )
    return items, None


def _zero_curvature_item(raw: tuple, system: EvolutionSystem) -> dict:
    """Each nonzero entry of the reduced curvature, named by its place."""
    residual = [
        f"entry-{i}{j}: {dsl.print_scalar(c)}"
        for i, row in enumerate(we.zero_curvature_residual(raw, system))
        for j, c in enumerate(row)
        if not c.is_zero
    ]
    return _item("zero-curvature", "failed" if residual else "verified", residual=residual)


def _cmd_laxcheck(args) -> tuple:
    model = _load_model(args)
    if model.akns:
        _, spec = _pick(model.akns, "spectral family")
        extraction = su2.extract_evolution(spec)
        if unsupported := _unsupported(extraction.constraints):
            return unsupported, None
        comps = extraction.components
        raw = we.curvature_matrix(spec.connection, spec.deps)
        items = [_zero_curvature_item(raw, extraction.system)]
        agreement = (
            (raw[0][0] - comps.third_coeff).is_zero
            and (raw[0][1] - comps.minus_coeff).is_zero
            and (raw[1][0] - comps.plus_coeff).is_zero
            and (raw[1][1] + comps.third_coeff).is_zero
        )
        items.append(_item("curvature-agreement", "verified" if agreement else "failed"))
    elif model.ideals and model.connections:
        name, ideal = _pick(model.ideals, "ideal")
        sec = we.section(ideal, model.sections.get(name, ()))
        evolution, leftovers = solve_evolution(sec.reduced, sec.eliminations.deps)
        if unsupported := _unsupported(leftovers):
            return unsupported, None
        _, conn = _pick(model.connections, "connection")
        # the curvature over every chart variable, reduced modulo the
        # section's eliminations and the sectioned equation at once
        system = EvolutionSystem(
            (*sec.eliminations.rules.items(), *evolution.rules.items()), sec.eliminations.deps)
        items = [_zero_curvature_item(we.curvature_matrix(conn, system.deps), system)]
    else:
        raise CliError("laxcheck needs either a spectral family or ideal+connection")
    return items, None


def _cmd_surface(args) -> tuple:
    _, spec = _pick(_load_model(args).akns, "spectral family")
    extraction = su2.extract_evolution(spec)
    if unsupported := _unsupported(extraction.constraints):
        return unsupported, None
    data = su2.surface_data(*extraction.components.w, extraction.system)
    if data.degenerate:
        return [_item("curvature", "degenerate")], None
    items = [_item("curvature", "computed", value=dsl.print_scalar(data.curvature))]
    for k, residual in enumerate(data.residuals, 1):
        # the third residual checks the curvature itself; the first two are reported
        missed = "failed" if k == 3 else "reported"
        items.append(
            _item(
                f"structure-{k}",
                "verified" if residual.is_zero else missed,
                residual=dsl.print_scalar(residual),
            )
        )
    return items, None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _model_flags(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("path", nargs="?", help="model file (.eds)")
    parser.add_argument("--fixture", help="bundled fixture name")
    parser.add_argument("--json", dest="json_path", help="write a JSON report here")
    return parser


def _su2_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--all", action="store_true", help="run every identity (default)")
    parser.add_argument("--name", action="append", choices=su2.IDENTITY_NAMES)
    _model_flags(parser)


def _gauge_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--family", choices=("upper", "diag", "both"), default="both")
    parser.add_argument("--json", dest="json_path")


def _order_flags(parser: argparse.ArgumentParser):
    _model_flags(parser).add_argument("--order", type=int, default=5)


def _beta_flags(parser: argparse.ArgumentParser):
    _model_flags(parser).add_argument("--beta")


# verb -> (handler, add_parser's keywords, the function that adds its flags)
VERBS = {
    "verify-su2": (_cmd_verify_su2, {"help": "verify the su(2) identity suite"}, _su2_flags),
    "gauge": (_cmd_gauge, {"help": "gauge covariance of the curvature"}, _gauge_flags),
    "theta": (_cmd_theta, {}, _model_flags),
    "densities": (_cmd_densities, {}, _order_flags),
    "conserve": (_cmd_conserve, {}, _order_flags),
    "closure": (_cmd_closure, {}, _model_flags),
    "section": (_cmd_section, {}, _beta_flags),
    "prolong": (_cmd_prolong, {}, _beta_flags),
    "laxcheck": (_cmd_laxcheck, {}, _model_flags),
    "surface": (_cmd_surface, {}, _model_flags),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of verb alone when it names one; the
    usage line lists every verb either way."""
    parser = argparse.ArgumentParser(prog="prolong",
                                     description="exact verification of prolongation structures")
    # with every verb added, argparse writes the list and names the argument "command" in errors
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(VERBS) if verb in VERBS else None)
    for name in [verb] if verb in VERBS else VERBS:
        _, keywords, add_flags = VERBS[name]
        add_flags(sub.add_parser(name, **keywords))
    return parser


def _render_text(report: dict, result: str) -> str:
    lines = [f"prolong {' '.join(report['command'])}"]
    width = max((len(item["status"]) for item in report["items"]), default=0)
    for item in report["items"]:
        detail = {
            k: v
            for k, v in item.items()
            if k not in ("name", "status") and v not in (None, [], {})
        }
        suffix = f"  {json.dumps(detail, sort_keys=True)}" if detail else ""
        lines.append(f"  [{item['status']:>{width}}] {item['name']}{suffix}")
    lines.append(f"result: {result}")
    return "\n".join(lines)


def _command(args) -> list:
    """The verb and every argument that selects the input or the check, in
    a fixed order; where the report is written (``--json``) is left out."""
    out = [args.command]
    if getattr(args, "path", None):
        out.append(args.path)
    for flag in ("fixture", "beta", "order"):
        value = getattr(args, flag, None)
        if value is not None:
            out += [f"--{flag}", str(value)]
    for name in getattr(args, "name", None) or ():
        out += ["--name", name]
    if getattr(args, "all", False):
        out.append("--all")
    if getattr(args, "family", None):
        out += ["--family", args.family]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    started = time.perf_counter()
    try:
        items, peak = VERBS[args.command][0](args)
    except (CliError, dsl.DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an engine fault, never a failed check
        import traceback  # only here: it is not worth its import time on every run

        traceback.print_exc()
        return 3
    statuses = {item["status"] for item in items}
    code = 1 if statuses & FAILING_STATUSES else 4 if "unsupported" in statuses else 0
    report = {
        "schema": SCHEMA_VERSION,
        "command": _command(args),
        "items": items,
        "ok": code == 0,
        "peak_jet_order": peak,
        "wall_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    print(_render_text(report, RESULTS[code]))
    if getattr(args, "json_path", None):
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
