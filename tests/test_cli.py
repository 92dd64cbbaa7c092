"""Command line: exit codes, report schema, determinism."""

from __future__ import annotations

import json

import pytest

from prolong.cli import main

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


def test_verify_su2_with_fixture(capsys):
    code, out, _ = run(["verify-su2", "--fixture", "su2_dga"], capsys)
    assert code == 0
    assert "dd-zero-fixture" in out


def test_spectral_verbs_compute_the_curvature_once(monkeypatch, capsys):
    from prolong import su2

    calls = []

    def counted(name):
        original = getattr(su2, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("theta_components", "akns_forms"):
        monkeypatch.setattr(su2, name, counted(name))
    for verb in ("theta", "laxcheck", "surface"):
        calls.clear()
        run([verb, "--fixture", "kdv"], capsys)
        assert calls == ["theta_components", "akns_forms"], verb


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


def test_laxcheck_akns(capsys):
    code, out, _ = run(["laxcheck", "--fixture", "kdv"], capsys)
    assert code == 0
    assert "curvature-agreement" in out


def test_laxcheck_ideal(capsys):
    code, out, _ = run(["laxcheck", "--fixture", "kdv_ideal"], capsys)
    assert code == 0


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
