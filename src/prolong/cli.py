"""Batch command line: run the verification verbs over bundled or
user-supplied model files and emit deterministic text/JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

import sympy as sp

from . import conservation, dsl, su2, we
from .coeff import ETA, Scalar
from .forms import check_dd_zero
from .jets import EvolutionSystem, jet_order

SCHEMA_VERSION = 1


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
    out = {"name": name, "status": status}
    out.update(extra)
    return out


def _witness_payload(witness: we.MembershipWitness | None) -> dict | None:
    if witness is None:
        return None
    return {
        name: dsl.print_form(mult)
        for name, mult in zip(witness.ideal.names, witness.multipliers)
    }


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_verify_su2(args) -> tuple:
    sc = su2.build_su2_context()
    forms = su2.build_forms(sc)
    items = []
    report_dd = check_dd_zero(sc.ctx)
    items.append(
        _item(
            "dd-zero",
            "verified" if report_dd.ok else "failed",
            residual=[f"{n}: {dsl.print_form(f)}" for n, f in report_dd.nonzero()],
        )
    )
    if getattr(args, "fixture", None) or getattr(args, "path", None):
        model = _load_model(args)
        if model.ctx is None or model.kind != "dga":
            raise CliError("verify-su2 fixture must declare a free DGA context")
        fixture_dd = check_dd_zero(model.ctx)
        items.append(
            _item(
                "dd-zero-fixture",
                "verified" if fixture_dd.ok else "failed",
                residual=[f"{n}: {dsl.print_form(f)}" for n, f in fixture_dd.nonzero()],
            )
        )
    wanted = su2.IDENTITY_NAMES if args.all or not args.name else tuple(args.name)
    for name in wanted:
        result = su2.verify_identity(sc, name, forms)
        status = "verified" if result.stated_ok else ("corrected" if result.corrected else "failed")
        payload = _item(
            name,
            status,
            residual=[dsl.print_form(f) for f in result.residuals if not f.is_zero],
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
    ok = all(item["status"] in ("verified", "corrected") for item in items)
    return items, ok, None


def _cmd_gauge(args) -> tuple:
    sc = su2.build_su2_context()
    families = {
        "upper": su2.q_upper(sc),
        "diag": su2.q_diag(sc),
    }
    wanted = ("upper", "diag") if args.family == "both" else (args.family,)
    items = []
    for name in wanted:
        result = su2.gauge_transform(sc, families[name])
        residual = [
            dsl.print_form(result.residual.entry(i, j))
            for i in range(2)
            for j in range(2)
            if not result.residual.entry(i, j).is_zero
        ]
        items.append(
            _item(name, "verified" if result.ok else "failed", residual=residual)
        )
    return items, all(i["status"] == "verified" for i in items), None


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
    for var, _ in extraction.system.rules:
        items.append(
            _item(
                f"evolution-{var}",
                "extracted",
                rule=f"{var}_t = {dsl.print_scalar(extraction.system.rhs(var))}",
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
    return items, True, peak


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
    ok = all(i["status"] in ("computed", "verified") for i in items)
    return items, ok, seq.peak_jet_order


def _cmd_conserve(args) -> tuple:
    _, spec = _pick(_load_model(args).akns, "spectral family")
    extraction = su2.extract_evolution(spec)
    if not extraction.consistent:
        raise CliError("family has nonvanishing constraints; cannot reduce on-shell")
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
                var: dsl.print_scalar(w) for var, w in cert.witnesses
            }
        items.append(payload)
    return items, all(i["status"] == "certified" for i in items), peak


def _cmd_closure(args) -> tuple:
    _, ideal = _pick(_load_model(args).ideals, "ideal")
    result = we.closure_check(ideal)
    items = []
    for name, witness in result.witnesses:
        if witness is None:
            d_form = dict(result.failures)[name]
            items.append(_item(name, "failed", residual=dsl.print_form(d_form)))
        else:
            items.append(_item(name, "closed", witness=_witness_payload(witness)))
    return items, result.ok, None


def _beta_scalar(text: str) -> Scalar:
    try:
        num, _, den = text.partition("/")
        return Scalar(sp.Rational(int(num), int(den) if den else 1))
    except (ValueError, TypeError):
        raise CliError(f"--beta wants an integer or rational, got {text!r}") from None


def _cmd_section(args) -> tuple:
    model = _load_model(args)
    name, ideal = _pick(model.ideals, "ideal")
    result = we.section(ideal, model.sections.get(name, ()))
    subs = {}
    if args.beta is not None:
        subs[sp.Symbol("beta")] = _beta_scalar(args.beta)
    items = []
    for name, raw in zip(result.names, result.raw):
        items.append(_item(f"raw-{name}", "sectioned", equation=dsl.print_scalar(raw)))
    for var, replacement in result.eliminations:
        items.append(
            _item(f"eliminate-{var}", "applied", rule=f"{var} -> {dsl.print_scalar(replacement)}")
        )
    for k, eq in enumerate(result.reduced):
        final = eq.subs(subs) if subs else eq
        label = we.named_equation(final)
        payload = _item(f"equation-{k}", "presented", equation=dsl.print_scalar(final))
        if label:
            payload["label"] = label
        items.append(payload)
    return items, True, None


def _cmd_prolong(args) -> tuple:
    model = _load_model(args)
    _, ideal = _pick(model.ideals, "ideal")
    _, conn = _pick(model.connections, "connection")
    if args.beta is not None:
        beta_val = _beta_scalar(args.beta)
        substitution = {sp.Symbol("beta"): beta_val}
        ideal = we.ExteriorIdeal(
            ctx=ideal.ctx,
            names=ideal.names,
            generators=tuple(g.map_coefficients(lambda c: c.subs(substitution)) for g in ideal.generators),
            coordinates=ideal.coordinates,
            parameters=ideal.parameters,
        )
    closure = we.closure_check(ideal)
    if not closure.ok:
        raise CliError("ideal is not closed; prolongation condition undefined")
    result = we.prolongation_residual(conn, ideal)
    items = []
    for i, j, witness, z in result.entries:
        if witness is None:
            items.append(
                _item(f"entry-{i}{j}", "failed", residual=dsl.print_form(z))
            )
        else:
            items.append(
                _item(f"entry-{i}{j}", "verified", multipliers=_witness_payload(witness))
            )
    return items, result.ok, None


def _akns_connection(spec: su2.AKNSSpec) -> we.ConnectionData:
    """Read the linear pair off the family: dt side [[A, B], [C, -A]],
    dx side [[eta, q], [r, -eta]]."""
    eta = Scalar(ETA)
    return we.ConnectionData(
        F=((spec.A, spec.B), (spec.C, -spec.A)),
        G=((eta, spec.q), (spec.r, -eta)),
    )


def _zero_curvature_item(conn: we.ConnectionData, system: EvolutionSystem) -> dict:
    residual = we.zero_curvature_residual(conn, system)
    flat = [c for row in residual for c in row]
    return _item(
        "zero-curvature",
        "verified" if all(c.is_zero for c in flat) else "failed",
        residual=[dsl.print_scalar(c) for c in flat if not c.is_zero],
    )


def _cmd_laxcheck(args) -> tuple:
    model = _load_model(args)
    if model.akns:
        _, spec = _pick(model.akns, "spectral family")
        conn = _akns_connection(spec)
        extraction = su2.extract_evolution(spec)
        comps = extraction.components
        items = [_zero_curvature_item(conn, extraction.system)]
        raw = we.curvature_matrix(conn, spec.deps)
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
        sys = we.extract_section_evolution(sec)
        _, conn = _pick(model.connections, "connection")
        jet_conn = conn.map_entries(
            lambda c: we.apply_eliminations(c, sec.eliminations, sys.deps)
        )
        items = [_zero_curvature_item(jet_conn, sys)]
    else:
        raise CliError("laxcheck needs either a spectral family or ideal+connection")
    return items, all(i["status"] == "verified" for i in items), None


def _cmd_surface(args) -> tuple:
    _, spec = _pick(_load_model(args).akns, "spectral family")
    data = su2.surface_from_spec(spec)
    if data.degenerate:
        items = [_item("curvature", "degenerate")]
        return items, False, None
    items = [
        _item("curvature", "computed", value=dsl.print_scalar(data.curvature)),
        _item(
            "structure-1",
            "verified" if data.residuals[0].is_zero else "reported",
            residual=dsl.print_scalar(data.residuals[0]),
        ),
        _item(
            "structure-2",
            "verified" if data.residuals[1].is_zero else "reported",
            residual=dsl.print_scalar(data.residuals[1]),
        ),
        _item(
            "structure-3",
            "verified" if data.residuals[2].is_zero else "failed",
            residual=dsl.print_scalar(data.residuals[2]),
        ),
    ]
    ok = items[3]["status"] == "verified"
    return items, ok, None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _add_model_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("path", nargs="?", help="model file (.eds)")
    parser.add_argument("--fixture", help="bundled fixture name")
    parser.add_argument("--json", dest="json_path", help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolong",
        description="exact verification of prolongation structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-su2", help="verify the su(2) identity suite")
    p.add_argument("--all", action="store_true", help="run every identity (default)")
    p.add_argument("--name", action="append", choices=su2.IDENTITY_NAMES)
    _add_model_arguments(p)
    p.set_defaults(func=_cmd_verify_su2)

    p = sub.add_parser("gauge", help="gauge covariance of the curvature")
    p.add_argument("--family", choices=("upper", "diag", "both"), default="both")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=_cmd_gauge)

    for name, func, extra in (
        ("theta", _cmd_theta, ()),
        ("densities", _cmd_densities, ("order",)),
        ("conserve", _cmd_conserve, ("order",)),
        ("closure", _cmd_closure, ()),
        ("section", _cmd_section, ("beta",)),
        ("prolong", _cmd_prolong, ("beta",)),
        ("laxcheck", _cmd_laxcheck, ()),
        ("surface", _cmd_surface, ()),
    ):
        p = sub.add_parser(name)
        _add_model_arguments(p)
        if "order" in extra:
            p.add_argument("--order", type=int, default=5)
        if "beta" in extra:
            p.add_argument("--beta")
        p.set_defaults(func=func)
    return parser


def _render_text(report: dict) -> str:
    lines = [f"prolong {' '.join(report['command'])}"]
    for item in report["items"]:
        detail = {
            k: v
            for k, v in item.items()
            if k not in ("name", "status") and v not in (None, [], {})
        }
        suffix = f"  {json.dumps(detail, sort_keys=True)}" if detail else ""
        lines.append(f"  [{item['status']:>9}] {item['name']}{suffix}")
    lines.append("result: " + ("ok" if report["ok"] else "FAILED"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        items, ok, peak = args.func(args)
    except (CliError, dsl.DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA_VERSION,
        "command": _command(args),
        "items": items,
        "ok": ok,
        "peak_jet_order": peak,
        "wall_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    print(_render_text(report))
    if getattr(args, "json_path", None):
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
