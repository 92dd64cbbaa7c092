"""Independent checks of the engine's reports, in plain sympy.

Nothing here imports prolong.  Each check recomputes what a verb claims
from the model's inputs, written out by hand below from the bundled
fixtures and the paper, with sympy ``Function`` jets, sympy's own
``euler_equations`` and a small exterior algebra over a coordinate chart.
No check compares against a stored copy of an earlier report.

Every check takes (report, exit code) and returns a list of problems;
an empty list means the report is right.
"""

from __future__ import annotations

import re
from fractions import Fraction

import sympy as sp
from sympy.calculus.euler import euler_equations
from sympy.parsing.sympy_parser import parse_expr

X, T = sp.symbols("x t")
ETA, BETA, LAM = sp.symbols("eta beta lam")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_JET = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:_(x*)(t*))?$")


# ---------------------------------------------------------------------------
# reading printed scalars and forms
# ---------------------------------------------------------------------------


def _parse(text: str, names: dict | None = None) -> sp.Expr:
    local = {name: sp.Symbol(name) for name in _IDENT.findall(text)}
    local["i"] = sp.I
    local["exp"] = sp.exp
    if names:
        local.update(names)
    return parse_expr(text, local_dict=local)


def field(name: str) -> sp.Expr:
    return sp.Function(name)(X, T)


def jets(expr: sp.Expr, fields) -> sp.Expr:
    """Replace jet symbols such as ``q_xx`` or ``u_xt`` by derivatives of
    the field functions q(x, t), u(x, t)."""
    mapping = {}
    for s in expr.free_symbols:
        m = _JET.match(s.name)
        if m and m.group(1) in fields:
            nx, nt = len(m.group(2) or ""), len(m.group(3) or "")
            value = field(m.group(1))
            if nx:
                value = value.diff(X, nx)
            if nt:
                value = value.diff(T, nt)
            mapping[s] = value
    return expr.xreplace(mapping)


def scalar(text: str, fields=()) -> sp.Expr:
    return jets(_parse(text), fields)


def is_zero(e) -> bool:
    return sp.cancel(sp.expand(e)) == 0


def on_shell(e: sp.Expr, rules: dict) -> sp.Expr:
    """Eliminate every t-derivative of a field with an evolution rule
    (name -> right side free of t-derivatives)."""
    while True:
        mapping = {}
        for d in e.atoms(sp.Derivative):
            name = d.expr.func.__name__
            counts = dict(d.variable_count)
            if name in rules and counts.get(T, 0):
                value = rules[name]
                if counts.get(X, 0):
                    value = value.diff(X, counts[X])
                if counts[T] > 1:
                    value = value.diff(T, counts[T] - 1)
                mapping[d] = value
        if not mapping:
            return e
        e = e.xreplace(mapping)


# -- exterior forms over a coordinate chart ------------------------------------

CHART = ("x", "t", "u", "p", "q")
_CHART_SYMBOLS = tuple(sp.Symbol(c) for c in CHART)
_DIFFERENTIALS = tuple(sp.Symbol(f"d{c}", commutative=False) for c in CHART)


def _sorted_sign(indices: list) -> tuple:
    """(sign, sorted tuple) of a wedge of one-forms, or (0, ()) if repeated."""
    items = list(indices)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    if len(set(items)) != len(items):
        return 0, ()
    return sign, tuple(items)


def _add_term(out: dict, key: tuple, value) -> None:
    out[key] = out.get(key, 0) + value


def form(text: str, names: dict | None = None) -> dict:
    """A printed chart form ``coef*du^dt + ...`` as {index tuple: coefficient}."""
    local = {f"d{c}": s for c, s in zip(CHART, _DIFFERENTIALS)}
    if names:
        local.update(names)
    expr = sp.expand(_parse(text.replace("^", "*"), local))
    out: dict = {}
    for term in sp.Add.make_args(expr):
        commuting, ordered = term.args_cnc()
        sign, key = _sorted_sign([_DIFFERENTIALS.index(g) for g in ordered])
        if sign:
            _add_term(out, key, sign * sp.Mul(*commuting))
    return out


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            sign, key = _sorted_sign(list(ka + kb))
            if sign:
                _add_term(out, key, sign * ca * cb)
    return out


def d(a: dict) -> dict:
    out: dict = {}
    for key, coeff in a.items():
        for idx, s in enumerate(_CHART_SYMBOLS):
            sign, full = _sorted_sign([idx, *key])
            if sign:
                _add_term(out, full, sign * sp.diff(coeff, s))
    return out


def plus(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        _add_term(out, key, value)
    return out


def scaled(a: dict, c) -> dict:
    return {key: c * value for key, value in a.items()}


def forms_equal(a: dict, b: dict) -> bool:
    return all(is_zero(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b))


# ---------------------------------------------------------------------------
# model inputs, copied by hand from the bundled fixtures
# ---------------------------------------------------------------------------

_q = field("q")
KDV_SPEC = {
    "fields": ("q",),
    "r": sp.Integer(-1),
    "q": _q,
    "A": -4 * ETA**3 - 2 * _q * ETA - _q.diff(X),
    "B": -4 * _q * ETA**2 - 2 * _q.diff(X) * ETA - _q.diff(X, 2) - 2 * _q**2,
    "C": 4 * ETA**2 + 2 * _q,
}
GENERIC_SPEC = {
    "fields": ("q", "r", "A", "B", "C"),
    **{name: field(name) for name in ("q", "r", "A", "B", "C")},
}
SPECS = {"kdv": KDV_SPEC, "akns_generic": GENERIC_SPEC}

# The KdV equation the kdv family is built for (paper: q_t = -q_xxx - 6 q q_x).
KDV_RHS = -6 * _q * _q.diff(X) - _q.diff(X, 3)

IDEALS = {
    "ch": {
        "xi1": "du^dt - p*dx^dt",
        "xi2": "dp^dt - q*dx^dt",
        "xi3": "-du^dx + dq^dx + u*du^dt - u*dq^dt + beta*(u - q)*du^dt",
    },
    "kdv_ideal": {
        "xi1": "du^dt - p*dx^dt",
        "xi2": "dp^dt - q*dx^dt",
        "xi3": "-du^dx + dq^dt + 6*u*p*dx^dt",
    },
}

_u, _p, _qq = sp.symbols("u p q")
CONNECTIONS = {
    "ch": {
        "F": sp.Matrix(
            [
                [_p / 2, 1 / (2 * LAM) - _u],
                [_qq / 2 + (1 / (2 * LAM) - _u) * (sp.Rational(1, 4) + LAM * (_u - _qq)), -_p / 2],
            ]
        ),
        "G": sp.Matrix([[0, 1], [sp.Rational(1, 4) + LAM * (_u - _qq), 0]]),
    },
    "kdv_ideal": {
        "F": sp.Matrix([[_p, 4 * LAM - 2 * _u], [_qq - (4 * LAM - 2 * _u) * (LAM + _u), -_p]]),
        "G": sp.Matrix([[0, 1], [-LAM - _u, 0]]),
    },
}


def peakon(beta) -> sp.Expr:
    """m_t + u m_x + beta m u_x with m = u - u_xx (Camassa-Holm at beta = 2,
    Degasperis-Procesi at beta = 3)."""
    u = field("u")
    m = u - u.diff(X, 2)
    return m.diff(T) + u * m.diff(X) + beta * m * u.diff(X)


KDV_SECTION = field("u").diff(T) + 6 * field("u") * field("u").diff(X) + field("u").diff(X, 3)
NAMED_MEMBERS = {2: "Camassa-Holm", 3: "Degasperis-Procesi"}


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _items(report: dict) -> dict:
    return {item["name"]: item for item in report["items"]}


def _envelope(report: dict, code, expect_ok: bool) -> list:
    problems = []
    if report.get("schema") != 1:
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("ok") is not expect_ok:
        problems.append(f"ok is {report.get('ok')!r}, expected {expect_ok}")
    if code != (0 if expect_ok else 1):
        problems.append(f"exit code {code!r}, expected {0 if expect_ok else 1}")
    return problems


def _status(items: dict, name: str, expected: str) -> list:
    got = items.get(name, {}).get("status")
    return [] if got == expected else [f"{name}: status {got!r}, expected {expected!r}"]


def _spectral_matrices(spec: dict):
    F = sp.Matrix([[spec["A"], spec["B"]], [spec["C"], -spec["A"]]])
    G = sp.Matrix([[ETA, spec["q"]], [spec["r"], -ETA]])
    return F, G


def zero_curvature(F: sp.Matrix, G: sp.Matrix) -> sp.Matrix:
    """D_x F - D_t G + [F, G] for the linear pair y_t = F y, y_x = G y."""
    return F.diff(X) - G.diff(T) + F * G - G * F


def _one_forms(spec: dict):
    """(dx, dt) components of w1, w2, w3 with w1 + i w2 = r dx + C dt,
    w1 - i w2 = q dx + B dt, w3 = eta dx + A dt."""
    plus_ = (spec["r"], spec["C"])
    minus_ = (spec["q"], spec["B"])
    w1 = tuple((a + b) / 2 for a, b in zip(plus_, minus_))
    w2 = tuple((a - b) / (2 * sp.I) for a, b in zip(plus_, minus_))
    w3 = (ETA, spec["A"])
    return w1, w2, w3


def _d2(w) -> sp.Expr:
    """dx^dt coefficient of d(a dx + b dt)."""
    return w[1].diff(X) - w[0].diff(T)


def _wedge2(a, b) -> sp.Expr:
    return a[0] * b[1] - a[1] * b[0]


def densities(spec: dict, order: int) -> list:
    """W_1 = r, 2 W_{n+1} = -(D_x W_n + q sum_{k=1}^{n-1} W_{n-k} W_k)."""
    w = [spec["r"]]
    for n in range(1, order):
        quad = sum((w[n - k - 1] * w[k - 1] for k in range(1, n)), sp.Integer(0))
        w.append(sp.expand(-(w[n - 1].diff(X) + spec["q"] * quad) / 2))
    return w


# ---------------------------------------------------------------------------
# per-verb checks
# ---------------------------------------------------------------------------


def check_theta(fixture: str):
    spec = SPECS[fixture]
    fields = spec["fields"]

    def check(report, code):
        problems = _envelope(report, code, True)
        items = _items(report)
        F, G = _spectral_matrices(spec)
        Z = zero_curvature(F, G)
        expected = {"minus": Z[0, 1], "plus": Z[1, 0], "third": Z[0, 0]}
        if not is_zero(Z[1, 1] + Z[0, 0]):
            problems.append("curvature is not traceless")
        for name, value in expected.items():
            got = scalar(items[name]["coefficient"], fields)
            if not is_zero(got - value):
                problems.append(f"{name}: {items[name]['coefficient']} != {value}")
        rules = [n for n in items if n.startswith("evolution-")]
        constraints = [items[n] for n in sorted(items) if n.startswith("constraint-")]
        if fixture == "kdv":
            rule = items.get("evolution-q", {}).get("rule", "")
            lhs, _, rhs = rule.partition(" = ")
            if lhs != "q_t" or not is_zero(scalar(rhs, fields) - KDV_RHS):
                problems.append(f"kdv extraction {rule!r}")
            # The extracted rule solves the minus component.
            if not is_zero(on_shell(Z[0, 1], {"q": KDV_RHS})):
                problems.append("minus component does not vanish on the extracted rule")
            if rules != ["evolution-q"] or len(constraints) != 2:
                problems.append(f"kdv: rules {rules}, {len(constraints)} constraints")
            for c in constraints:
                if c["status"] != "verified" or not is_zero(scalar(c["expression"], fields)):
                    problems.append(f"kdv constraint {c}")
        else:
            # Solving minus or plus for q_t or r_t leaves eta on the right,
            # and third has no t-derivative, so all three stay constraints.
            if rules or len(constraints) != 3:
                problems.append(f"generic: rules {rules}, {len(constraints)} constraints")
            for c, value in zip(constraints, expected.values()):
                if c["status"] != "reported" or not is_zero(scalar(c["expression"], fields) - value):
                    problems.append(f"generic constraint {c}")
        return problems

    return check


def check_densities(fixture: str, order: int):
    spec = SPECS[fixture]

    def check(report, code):
        problems = _envelope(report, code, True)
        items = _items(report)
        for n, w in enumerate(densities(spec, order), start=1):
            got = scalar(items[f"W{n}"]["density"], spec["fields"])
            if not is_zero(got - w):
                problems.append(f"W{n}: {items[f'W{n}']['density']}")
        for n in range(1, order):
            item = items.get(f"recursion-{n}", {})
            if item.get("status") != "verified" or item.get("residual") != "0":
                problems.append(f"recursion-{n}: {item}")
        return problems

    return check


def check_conserve(fixture: str, order: int):
    spec = SPECS[fixture]
    fields = spec["fields"]
    rules = {"q": KDV_RHS}
    q = spec["q"]
    w = densities(spec, order + 2)
    b_poly = sp.Poly(spec["B"], ETA)

    def check(report, code):
        items = _items(report)
        problems = []
        all_certified = True
        for n in range(1, order + 1):
            item = items.get(f"n={n}")
            if item is None:
                problems.append(f"n={n} missing")
                continue
            density = scalar(item["density"], fields)
            current = scalar(item["current"], fields)
            # The pair itself: q*W_n and the eta^-n coefficient of A + B*sum W_m eta^-m.
            want_current = sp.expand(spec["A"] * ETA**n).coeff(ETA, 0) + sum(
                (c * w[n + j - 1] for (j,), c in b_poly.terms() if n + j >= 1), sp.Integer(0)
            )
            if not is_zero(density - q * w[n - 1]):
                problems.append(f"n={n}: density {item['density']}")
            if not is_zero(current - want_current):
                problems.append(f"n={n}: current {item['current']}")
            residual = sp.expand(on_shell(density.diff(T), rules) - current.diff(X))
            # euler_equations drops an equation that reads 0 = 0.
            equations = euler_equations(residual, [q], [X, T])
            variational = sp.expand(equations[0].lhs) if equations else sp.Integer(0)
            certified = variational == 0
            all_certified &= certified
            if item["status"] != ("certified" if certified else "failed"):
                problems.append(f"n={n}: status {item['status']}, Euler-Lagrange {variational}")
            if not certified:
                witness = item.get("witness", {}).get("q")
                if witness is None or not is_zero(scalar(witness, fields) - variational):
                    problems.append(f"n={n}: witness {witness} != {variational}")
        return _envelope(report, code, all_certified) + problems

    return check


def check_laxcheck_spectral(fixture: str):
    spec = SPECS[fixture]

    def check(report, code):
        problems = _envelope(report, code, True)
        items = _items(report)
        Z = zero_curvature(*_spectral_matrices(spec))
        if not all(is_zero(on_shell(z, {"q": KDV_RHS})) for z in Z):
            problems.append("zero curvature does not hold on-shell")
        problems += _status(items, "zero-curvature", "verified")
        problems += _status(items, "curvature-agreement", "verified")
        if items["zero-curvature"].get("residual"):
            problems.append("zero-curvature lists residuals")
        return problems

    return check


def check_laxcheck_chart(fixture: str):
    def check(report, code):
        problems = _envelope(report, code, True)
        u = field("u")
        on_section = {_u: u, _p: u.diff(X), _qq: u.diff(X, 2)}
        conn = CONNECTIONS[fixture]
        F, G = conn["F"].xreplace(on_section), conn["G"].xreplace(on_section)
        Z = zero_curvature(F, G)
        rhs = u.diff(T) - KDV_SECTION
        if not all(is_zero(on_shell(z, {"u": rhs})) for z in Z):
            problems.append("zero curvature does not hold on KdV")
        problems += _status(_items(report), "zero-curvature", "verified")
        return problems

    return check


def check_surface(fixture: str):
    spec = SPECS[fixture]
    fields = spec["fields"]

    def check(report, code):
        problems = _envelope(report, code, True)
        items = _items(report)
        w1, w2, w3 = _one_forms(spec)
        alpha1 = tuple(a + b for a, b in zip(w2, w3))
        alpha2 = tuple(-2 * a for a in w1)
        omega = tuple(a - b for a, b in zip(w2, w3))
        shell = {"q": KDV_RHS}
        area = on_shell(_wedge2(alpha1, alpha2), shell)
        curvature = sp.cancel(-on_shell(_d2(omega), shell) / area)
        got = scalar(items["curvature"]["value"], fields)
        if items["curvature"]["status"] != "computed" or not is_zero(got - curvature):
            problems.append(f"curvature {items['curvature']} != {curvature}")
        res1 = on_shell(_d2(alpha1) - _wedge2(omega, alpha2), shell)
        res2 = on_shell(_d2(alpha2) + _wedge2(omega, alpha1), shell)
        for name, value in (("structure-1", res1), ("structure-2", res2)):
            item = items[name]
            want = "verified" if is_zero(value) else "reported"
            if item["status"] != want or not is_zero(scalar(item["residual"], fields) - value):
                problems.append(f"{name}: {item}")
        problems += _status(items, "structure-3", "verified")
        return problems

    return check


def check_su2(report, code):
    """Known verdicts of the su(2) identity suite (paper and README)."""
    problems = _envelope(report, code, True)
    items = _items(report)
    verified = ["dd-zero", "dd-zero-fixture", "xi1", "xi2", "xi-matrix", "xi3",
                "xi5", "xi6", "xi7", "xi8", "bianchi"]
    for name in verified:
        problems += _status(items, name, "verified")
    problems += _status(items, "xi4", "corrected")
    xi4 = items.get("xi4", {})
    theta = xi4.get("decomposition", {}).get("theta", [])
    if len(theta) != 3 or not is_zero(_parse(theta[2]) - _parse("-2*y1/y2")):
        problems.append(f"xi4 th3 coefficient {theta}")
    if xi4.get("residual") != ["(-2*y1/y2)*th3"]:
        problems.append(f"xi4 residual {xi4.get('residual')}")
    if len(items) != len(verified) + 1:
        problems.append(f"{len(items)} items")
    return problems


def check_gauge(report, code):
    items = _items(report)
    return (
        _envelope(report, code, True)
        + _status(items, "upper", "verified")
        + _status(items, "diag", "verified")
    )


def _ideal(fixture: str, beta, names=None) -> dict:
    gens = IDEALS[fixture]
    chosen = names or list(gens)
    return {n: form(gens[n], {"beta": beta}) for n in chosen}


def check_closure(fixture: str, kept=None):
    """Every witness must rebuild d(xi) from the kept generators; a failed
    generator must print d(xi).  The full ideals close; dropping xi2 or
    xi3 from ch leaves one that does not."""
    expect_closed = kept is None

    def check(report, code):
        problems = _envelope(report, code, expect_closed)
        ideal = _ideal(fixture, BETA, kept)
        items = _items(report)
        if sorted(items) != sorted(ideal):
            problems.append(f"items {sorted(items)}")
            return problems
        for name, gen in ideal.items():
            item = items[name]
            target = d(gen)
            if item["status"] == "closed":
                total: dict = {}
                for other, text in item["witness"].items():
                    total = plus(total, wedge(form(text, {"beta": BETA}), ideal[other]))
                if not forms_equal(total, target):
                    problems.append(f"{name}: witness does not rebuild d({name})")
            elif item["status"] == "failed":
                if not forms_equal(form(item["residual"], {"beta": BETA}), target):
                    problems.append(f"{name}: residual is not d({name})")
            else:
                problems.append(f"{name}: status {item['status']}")
        return problems

    return check


def _beta_value(beta: str | None):
    if beta is None:
        return BETA
    value = Fraction(beta)
    return sp.Rational(value.numerator, value.denominator)


def check_section(fixture: str, beta: str | None):
    b = _beta_value(beta)

    def check(report, code):
        problems = _envelope(report, code, True)
        items = _items(report)
        ideal = _ideal(fixture, BETA)
        u, p, q = field("u"), field("p"), field("q")
        pull = {_u: u, _p: p, _qq: q}
        # Pull each generator back to the graph (x, t, u(x,t), p(x,t), q(x,t)).
        differentials = {0: (1, 0), 1: (0, 1)}
        for k, f in enumerate((u, p, q), start=2):
            differentials[k] = (f.diff(X), f.diff(T))
        for name, gen in ideal.items():
            raw = 0
            for (i, j), coeff in gen.items():
                di, dj = differentials[i], differentials[j]
                raw += coeff.xreplace(pull) * (di[0] * dj[1] - di[1] * dj[0])
            got = scalar(items[f"raw-{name}"]["equation"], ("u", "p", "q"))
            if not is_zero(got - raw):
                problems.append(f"raw-{name}: {items[f'raw-{name}']['equation']} != {raw}")
        for var, rule in (("p", "p -> u_x"), ("q", "q -> u_xx")):
            if items.get(f"eliminate-{var}", {}).get("rule") != rule:
                problems.append(f"eliminate-{var}: {items.get(f'eliminate-{var}')}")
        target = peakon(b) if fixture == "ch" else KDV_SECTION
        equations = [items[n] for n in sorted(items) if n.startswith("equation-")]
        if len(equations) != 1:
            problems.append(f"{len(equations)} equations")
        for item in equations:
            ratio = sp.cancel(scalar(item["equation"], ("u",)) / target)
            if ratio == 0 or ratio.free_symbols or ratio.atoms(sp.Function):
                problems.append(f"{item['name']}: {item['equation']} is not a multiple of {target}")
            label = NAMED_MEMBERS.get(b) if fixture == "ch" else None
            if item.get("label") != label:
                problems.append(f"{item['name']}: label {item.get('label')!r}, expected {label!r}")
        return problems

    return check


def check_prolong(fixture: str, beta: str | None):
    """Recompute each entry's two-form dF_ij/dc dc^dt + dG_ij/dc dc^dx +
    [F,G]_ij dx^dt and check the witness or the printed residual.  The ch
    connection is the beta = 2 one, so only beta = 2 verifies; the KdV
    connection verifies."""
    b = _beta_value(beta)
    expect_ok = fixture == "kdv_ideal" or b == 2

    def check(report, code):
        problems = _envelope(report, code, expect_ok)
        items = _items(report)
        ideal = _ideal(fixture, b)
        conn = CONNECTIONS[fixture]
        F, G = conn["F"], conn["G"]
        comm = F * G - G * F
        dx, dt = {(0,): 1}, {(1,): 1}
        for i in range(2):
            for j in range(2):
                z = scaled(wedge(dx, dt), comm[i, j])
                for idx, s in enumerate(_CHART_SYMBOLS):
                    dc = {(idx,): 1}
                    z = plus(z, scaled(wedge(dc, dt), F[i, j].diff(s)))
                    z = plus(z, scaled(wedge(dc, dx), G[i, j].diff(s)))
                item = items.get(f"entry-{i}{j}", {})
                if item.get("status") == "verified":
                    total: dict = {}
                    for name, text in item["multipliers"].items():
                        total = plus(total, scaled(ideal[name], _parse(text, {"beta": b})))
                    if not forms_equal(total, z):
                        problems.append(f"entry-{i}{j}: multipliers do not rebuild the two-form")
                elif item.get("status") == "failed":
                    if not forms_equal(form(item["residual"], {"beta": b}), z):
                        problems.append(f"entry-{i}{j}: residual is not the two-form")
                else:
                    problems.append(f"entry-{i}{j}: {item}")
        return problems

    return check
