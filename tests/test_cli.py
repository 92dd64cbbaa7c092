"""Command line: exit codes, report schema, determinism."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from prolong import cli, su2
from prolong.cli import main
from prolong.coeff import exp_atom, sym
from prolong.dsl import parse

from conftest import fixture_text


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_su2_all(capsys):
    code, out, _ = run(["verify-su2", "--all"], capsys)
    assert code == 0
    assert "result: ok" in out
    assert "[corrected] xi4" in out


def test_verify_su2_single_identity(capsys):
    code, out, _ = run(["verify-su2", "--name", "bianchi"], capsys)
    assert code == 0
    assert "bianchi" in out


def test_verify_su2_runs_a_repeated_name_once(tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["verify-su2", "--name", "xi3", "--name", "xi1", "--name", "xi3", "--json", str(report)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    items = json.loads(report.read_text(encoding="utf-8"))["items"]
    assert [item["name"] for item in items] == ["dd-zero", "xi3", "xi1"]


def test_verify_su2_with_fixture(capsys):
    code, out, _ = run(["verify-su2", "--fixture", "su2_dga"], capsys)
    assert code == 0
    assert "dd-zero-fixture" in out


def test_spectral_verbs_compute_the_curvature_once(monkeypatch, capsys):
    from prolong import su2, we

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module, name in ((su2, "theta_components"), (su2, "akns_forms"),
                         (we, "curvature_matrix")):
        monkeypatch.setattr(module, name, counted(module, name))
    for verb, matrix in (("theta", []), ("laxcheck", ["curvature_matrix"]), ("surface", [])):
        calls.clear()
        run([verb, "--fixture", "kdv"], capsys)
        assert calls == ["theta_components", "akns_forms", *matrix], verb


def test_gauge(capsys):
    code, out, _ = run(["gauge"], capsys)
    assert code == 0


def test_theta_kdv(capsys):
    code, out, _ = run(["theta", "--fixture", "kdv"], capsys)
    assert code == 0
    assert "q_t = -6*q*q_x - q_xxx" in out


def test_densities(capsys):
    code, out, _ = run(["densities", "--fixture", "kdv", "--order", "4"], capsys)
    assert code == 0


def test_conserve_reports_the_seed_defect(capsys):
    # the fifth density fails its certificate, so the verb exits 1 with the
    # witness in the report
    code, out, _ = run(["conserve", "--fixture", "kdv", "--order", "5"], capsys)
    assert code == 1
    assert "n=5" in out and "witness" in out


def test_conserve_clean_through_four(capsys):
    code, _, _ = run(["conserve", "--fixture", "kdv", "--order", "4"], capsys)
    assert code == 0


@pytest.mark.parametrize("order", ["0", "-1"])
def test_conserve_without_a_density_is_a_usage_error(order, capsys):
    code, out, err = run(["conserve", "--fixture", "kdv", "--order", order], capsys)
    assert code == 2
    assert out == ""
    assert "order must be at least 1" in err


def test_closure(capsys):
    code, out, _ = run(["closure", "--fixture", "ch"], capsys)
    assert code == 0
    assert out.count("closed") == 3


def test_closure_corrupted_fixture(tmp_path, capsys):
    # drop the second generator: d(xi1) leaves the span of the remaining two
    text = fixture_text("ch")
    lines = [l for l in text.splitlines() if not l.strip().startswith("xi2")]
    bad = tmp_path / "broken.eds"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(["closure", str(bad)], capsys)
    assert code == 1
    assert "failed" in out


def test_section_labels(capsys):
    code, out, _ = run(["section", "--fixture", "ch", "--beta", "2"], capsys)
    assert code == 0
    assert "Camassa-Holm" in out
    code, out, _ = run(["section", "--fixture", "ch", "--beta", "3"], capsys)
    assert code == 0
    assert "Degasperis-Procesi" in out


def test_prolong_member(capsys):
    code, out, _ = run(["prolong", "--fixture", "ch", "--beta", "2"], capsys)
    assert code == 0


def test_prolong_off_member_fails(capsys):
    code, out, _ = run(["prolong", "--fixture", "ch", "--beta", "5"], capsys)
    assert code == 1


def test_prolong_needs_the_coordinates_x_and_t(tmp_path, capsys):
    model = tmp_path / "ab.eds"
    model.write_text(
        "chart a b u\nideal e {\n  xi = du^db - u*da^db\n}\n"
        "connection c {\n  F = [[u]]\n  G = [[0]]\n}\n",
        encoding="utf-8",
    )
    code, out, err = run(["prolong", str(model)], capsys)
    assert code == 2 and out == ""
    assert "prolong needs the coordinates x and t" in err
    # positive control: closure takes any chart
    code, out, err = run(["closure", str(model)], capsys)
    assert code == 0, err


@pytest.mark.parametrize("var", ["x", "t"])
def test_section_refuses_to_eliminate_x_or_t(var, tmp_path, capsys):
    text = fixture_text("ch").replace("  q -> p_x\n", f"  q -> p_x\n  {var} -> u_x\n")
    model = tmp_path / "ch.eds"
    model.write_text(text, encoding="utf-8")
    code, out, err = run(["section", str(model), "--beta", "2"], capsys)
    assert code == 2 and out == ""
    assert f"line 16, column 3: section ch: {var} is an independent coordinate" in err


@pytest.mark.parametrize("verb", ["section", "prolong"])
def test_beta_with_zero_denominator_is_a_usage_error(verb, capsys):
    code, out, err = run([verb, "--fixture", "ch", "--beta", "3/0"], capsys)
    assert code == 2
    assert "--beta wants an integer or rational, got '3/0'" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("verb", ["section", "prolong"])
def test_beta_that_zeroes_a_model_denominator_is_a_usage_error(verb, tmp_path, capsys):
    text = fixture_text("ch").replace("xi2 = dp^dt - q*dx^dt", "xi2 = dp^dt - (q/beta)*dx^dt")
    assert "(q/beta)" in text
    model = tmp_path / "ch-over-beta.eds"
    model.write_text(text, encoding="utf-8")
    code, out, err = run([verb, str(model), "--beta", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --beta 0: ") and "denominator" in err
    assert "Traceback" not in err
    # positive control: a beta that keeps every denominator runs the check
    code, out, err = run([verb, str(model), "--beta", "2"], capsys)
    assert code in (0, 1) and out and err == ""


def test_an_exception_inside_a_verb_exits_3_with_its_traceback(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(su2, "gauge_transform", broken)
    code, out, err = run(["gauge"], capsys)
    assert code == 3 and out == ""
    assert "Traceback" in err and "RuntimeError: engine fault" in err


def test_exponential_atom_after_a_finer_one_closes(tmp_path, capsys):
    # exp(zfine/3) and exp(zfine) are powers of the one atom exp(zfine)
    model = tmp_path / "fine-first.eds"
    model.write_text("chart x zfine\nideal e {\n  a = exp(zfine/3)*dx + exp(zfine)*dzfine\n}\n")
    code, out, _ = run(["closure", str(model)], capsys)
    assert code == 0
    # the witness is -exp(-2*zfine/3)/3 times dx
    text = "-1/(3*exp(2*zfine/3))"
    assert f"({text})*dx" in out
    witness = parse(f"chart x zfine\nlet w = {text}\n").lets["w"]
    assert witness == -exp_atom(-2 * sym("zfine") / 3) / 3


# Reads a model whose lets exp(y) and exp(y/3) come in the order given on
# the command line and prints them, then runs closure on the zfine ideal
# with its two terms in that order.
_IN_ORDER = """
import sys
from pathlib import Path

from prolong import su2
from prolong.cli import main
from prolong.dsl import parse, print_scalar

order, path = sys.argv[1], Path(sys.argv[2])
lets = ["let a = exp(y)", "let b = exp(y/3)"]
terms = ["exp(zfine/3)*dx", "exp(zfine)*dzfine"]
if order == "reverse":
    lets, terms = lets[::-1], terms[::-1]
model = parse("scalars y\\n" + "\\n".join(lets) + "\\n")
print(print_scalar(model.lets["a"]), print_scalar(model.lets["b"]))
path.write_text("chart x zfine\\nideal e {\\n  a = " + " + ".join(terms) + "\\n}\\n")
print("exit", main(["closure", str(path)]))
"""


def test_exponentials_do_not_depend_on_statement_order_in_a_fresh_process(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    printed = []
    for order in ("forward", "reverse"):
        result = subprocess.run([sys.executable, "-c", _IN_ORDER, order, str(tmp_path / "zfine.eds")],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout)
    assert printed[0] == printed[1]
    lines = printed[0].splitlines()
    assert lines[0] == "exp(y) exp(y/3)"
    assert '{"witness": {"a": "(-1/(3*exp(2*zfine/3)))*dx"}}' in printed[0]
    assert lines[-1] == "exit 0"


def test_laxcheck_akns(capsys):
    code, out, _ = run(["laxcheck", "--fixture", "kdv"], capsys)
    assert code == 0
    assert "curvature-agreement" in out


@pytest.mark.parametrize("verb", ["laxcheck", "surface", "conserve"])
def test_a_family_without_rules_is_unsupported(verb, tmp_path, capsys):
    # the generic family's curvature solves for q_t and r_t only with eta on
    # the right side, so the engine cannot reduce on-shell: exit 4, not 2
    report = tmp_path / "report.json"
    code, out, err = run([verb, "--fixture", "akns_generic", "--json", str(report)], capsys)
    assert code == 4 and err == ""
    assert out.endswith("result: UNSUPPORTED\n")
    [item] = json.loads(report.read_text())["items"]
    assert item == {"name": "evolution", "status": "unsupported", "unsolved": [
        "2*q*A - 2*B*eta + B_x - q_t", "-2*r*A + 2*C*eta + C_x - r_t", "-q*C + r*B + A_x"]}
    assert json.loads(report.read_text())["ok"] is False


def _handle_gauge_with(monkeypatch, handler):
    """Make handler the gauge verb's handler in the verb table."""
    monkeypatch.setitem(cli.VERBS, "gauge", (handler, *cli.VERBS["gauge"][1:]))


def test_a_failed_check_beside_an_unsupported_one_exits_1(monkeypatch, capsys):
    def both(args):
        return [cli._item("a", "failed"), cli._item("b", "unsupported")], None

    _handle_gauge_with(monkeypatch, both)
    code, out, _ = run(["gauge"], capsys)
    assert code == 1 and out.endswith("result: FAILED\n")


def test_every_status_bracket_lines_up(monkeypatch, capsys):
    def both(args):
        return [cli._item("a", "verified"), cli._item("b", "unsupported")], None

    _handle_gauge_with(monkeypatch, both)
    _, out, _ = run(["gauge"], capsys)
    verified, unsupported = out.splitlines()[1:3]
    assert verified == "  [   verified] a" and unsupported == "  [unsupported] b"


def test_laxcheck_ideal(capsys):
    code, out, _ = run(["laxcheck", "--fixture", "kdv_ideal"], capsys)
    assert code == 0


@pytest.mark.parametrize("beta, code, residual", [
    ("2", 0, []), ("3", 1, ["entry-10: u*lam*u_x - lam*u_x*u_xx"])])
def test_laxcheck_on_a_peakon_member(beta, code, residual, tmp_path, capsys):
    # the ch connection is the Camassa-Holm member's: it passes at beta = 2,
    # and at beta = 3 the one nonzero entry is named
    text = fixture_text("ch").replace("params beta lam", "params lam").replace("beta", beta)
    model, report = tmp_path / f"ch-{beta}.eds", tmp_path / "report.json"
    model.write_text(text, encoding="utf-8")
    got, out, err = run(["laxcheck", str(model), "--json", str(report)], capsys)
    assert (got, err) == (code, "")
    [item] = json.loads(report.read_text())["items"]
    assert item == {"name": "zero-curvature", "status": "failed" if code else "verified",
                    "residual": residual}


_FLAT = "connection flat {\n  F = [[0]]\n  G = [[0]]\n}\n"


@pytest.mark.parametrize("model, unsolved", [
    # the sectioned equation's slope -q holds the field q: no rule divides by it
    ("chart x t u p q\nideal slope {\n  xi1 = du^dt - p*dx^dt\n  xi2 = q*du^dx + dp^dt\n}\n"
     "section slope {\n  p -> u_x\n}\n", "-q*u_t + u_xx"),
    # the leader v_t has u_t beside it, a t-derivative of another field
    ("chart x t u v\nideal two {\n  xi1 = du^dx + dv^dx - u*dx^dt\n}\n", "-u - u_t - v_t"),
], ids=["slope-holds-a-field", "t-derivatives-of-two-fields"])
def test_laxcheck_on_a_section_without_a_rule_is_unsupported(model, unsolved, tmp_path, capsys):
    path, report = tmp_path / "model.eds", tmp_path / "report.json"
    path.write_text(model + _FLAT, encoding="utf-8")
    code, out, err = run(["laxcheck", str(path), "--json", str(report)], capsys)
    assert (code, err) == (4, "") and out.endswith("result: UNSUPPORTED\n")
    [item] = json.loads(report.read_text())["items"]
    assert item == {"name": "evolution", "status": "unsupported", "unsolved": [unsolved]}


def test_surface(capsys):
    code, out, _ = run(["surface", "--fixture", "kdv"], capsys)
    assert code == 0
    assert '"value": "i"' in out


def test_missing_fixture_is_usage_error(capsys):
    code, _, err = run(["closure", "--fixture", "nope"], capsys)
    assert code == 2
    assert "unknown fixture" in err


def test_missing_model_is_usage_error(capsys):
    code, _, err = run(["closure"], capsys)
    assert code == 2


def test_parse_error_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.eds"
    bad.write_text("chart x t u\nform a = dx ^\n", encoding="utf-8")
    code, _, err = run(["closure", str(bad)], capsys)
    assert code == 2


def test_a_model_that_declares_i_is_usage_error(tmp_path, capsys):
    # undeclared, i is the imaginary unit, and d(du^dt - i*dx^dt) = 0 closes
    ideal = "ideal a {\n  xi1 = du^dt - i*dx^dt\n}\n"
    for chart, exit_code in (("chart x t u", 0), ("chart x t u i", 2)):
        model = tmp_path / "unit.eds"
        model.write_text(f"{chart}\n{ideal}", encoding="utf-8")
        code, _, err = run(["closure", str(model)], capsys)
        assert code == exit_code, err
    assert "line 1, column 13: i is the imaginary unit" in err


def test_a_name_declared_twice_is_usage_error(tmp_path, capsys):
    ideal = "ideal a {\n  xi1 = du^dt\n}\n"
    for declared, exit_code in (("chart x t u\nparams v", 0), ("chart x t u\nparams u", 2)):
        model = tmp_path / "twice.eds"
        model.write_text(f"{declared}\n{ideal}", encoding="utf-8")
        code, _, err = run(["closure", str(model)], capsys)
        assert code == exit_code, err
    assert "line 2, column 1: 'u' is declared twice" in err


@pytest.mark.parametrize("a_text", ("1/(eta + 1)", "exp(eta)"))
def test_family_not_laurent_in_eta_is_usage_error(a_text, tmp_path, capsys):
    bad = tmp_path / "not_laurent.eds"
    text = fixture_text("kdv").replace("A = -4*eta**3 - 2*q*eta - q_x", f"A = {a_text}")
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(["theta", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert "eta" in err


def test_json_report_schema_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["theta", "--fixture", "kdv", "--json", str(out_a)]) == 0
    capsys.readouterr()
    assert main(["theta", "--fixture", "kdv", "--json", str(out_b)]) == 0
    capsys.readouterr()
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["schema"] == 1
    assert "items" in a and "ok" in a
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert a == b


def test_report_command_names_the_input_and_the_check(tmp_path, capsys):
    commands = []
    for beta in ("4/9", "16/9"):
        report = tmp_path / "report.json"
        main(["prolong", "--fixture", "ch", "--beta", beta, "--json", str(report)])
        capsys.readouterr()
        commands.append(json.loads(report.read_text())["command"])
    assert commands[0] != commands[1]
    assert commands[0] == ["prolong", "--fixture", "ch", "--beta", "4/9"]


# ---------------------------------------------------------------------------
# the parser: a run builds its own verb's subparser only
# ---------------------------------------------------------------------------


_USAGE_CASES = [[], ["-h"], ["--help"], *([verb, "-h"] for verb in cli.VERBS), ["bogus"],
                ["closure", "--bogus"], ["conserve", "--fixture", "kdv", "--order", "x"]]


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of parse(argv), which argparse ends."""
    with pytest.raises(SystemExit) as ended:
        parse(argv)
    captured = capsys.readouterr()
    return ended.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _USAGE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_help_and_errors_are_those_of_the_parser_of_every_verb(argv, capsys):
    every = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert _parse_outcome(main, argv, capsys) == every
    code, out, err = every
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))


def _counted(monkeypatch, cls, name) -> list:
    """Patch cls.name to record each call in the returned list."""
    calls, original = [], getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_a_run_adds_only_its_own_verb(monkeypatch, capsys):
    added = _counted(monkeypatch, argparse._SubParsersAction, "add_parser")
    assert main(["closure", "--fixture", "ch"]) == 0
    assert added == [("closure",)]
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser(monkeypatch):
    built = _counted(monkeypatch, argparse.ArgumentParser, "__init__")
    importlib.reload(cli)
    assert built == []


def test_every_run_builds_its_own_parser(monkeypatch, capsys):
    # the top-level parser and the verb's, on each call: nothing is kept
    # from one call to the next
    built = _counted(monkeypatch, argparse.ArgumentParser, "__init__")
    counts = []
    for _ in range(2):
        before = len(built)
        assert main(["gauge", "--family", "upper"]) == 0
        counts.append(len(built) - before)
    assert counts == [2, 2]
    capsys.readouterr()


def test_the_readme_lists_the_verbs_of_the_verb_table_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| verb ", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^\| `([^`]+)`", table, re.M) == list(cli.VERBS)
