"""Exterior algebra: wedge, rule-driven differential, Pauli matrices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from prolong.coeff import I, ONE, Scalar, exp_atom, sym
from prolong.forms import (
    ContextError,
    DerivationContext,
    Form,
    Generator,
    MatrixForm,
    check_dd_zero,
    build_jet_context,
    epsilon,
    pauli_compose,
    pauli_decompose,
)
from prolong import jets
from prolong.jets import jet
from prolong.su2 import build_su2_context


@pytest.fixture(scope="module")
def chart():
    return DerivationContext(scalars=("x", "t", "u", "p", "q"))


def test_levi_civita_table():
    assert epsilon(1, 2, 3) == 1
    assert epsilon(2, 1, 3) == -1
    assert epsilon(1, 1, 2) == 0


def test_wedge_antisymmetry(chart):
    dx, dt = chart.gen("dx"), chart.gen("dt")
    assert dx.wedge(dx).is_zero
    assert dx.wedge(dt) == -(dt.wedge(dx))


def test_wedge_bilinearity(chart):
    dx, dt = chart.gen("dx"), chart.gen("dt")
    q, b = sym("q"), sym("b")
    got = (dx * q).wedge(dt * b)
    assert got == dx.wedge(dt) * (q * b)


def test_scalar_times_form_defers_to_the_form(chart):
    u, du = sym("u"), chart.gen("du")
    assert u * du == du * u
    with pytest.raises(TypeError):
        u + du


def test_coordinate_differential(chart):
    dx, dt, dp = chart.gen("dx"), chart.gen("dt"), chart.gen("dp")
    p = sym("p")
    form = dx.wedge(dt) * p
    assert form.d() == dp.wedge(dx).wedge(dt)


def test_dd_zero_on_coordinates(chart):
    assert check_dd_zero(chart).ok


def test_free_dga_rule(sc):
    w1, w2, w3 = sc.w
    th1 = sc.th[0]
    assert w1.d() == th1 + w2.wedge(w3) * (2 * I)
    assert w3.d().d().is_zero


def test_dd_zero_su2(sc):
    assert check_dd_zero(sc.ctx).ok


def test_dd_zero_corrupted_rule():
    declared = dict(one_forms=("w1", "w2", "w3"), two_forms=("th1", "th2", "th3"))
    bare = DerivationContext(**declared)
    w = [bare.gen(f"w{l}") for l in (1, 2, 3)]
    th = [bare.gen(f"th{l}") for l in (1, 2, 3)]
    ctx = DerivationContext(**declared, rules={
        "w1": th[0],  # structure term dropped
        "w2": th[1] - w[0].wedge(w[2]) * (2 * I),
        "w3": th[2] + w[0].wedge(w[1]) * (2 * I),
        "th1": w[1].wedge(th[2]) * (2 * I) - w[2].wedge(th[1]) * (2 * I),
        "th2": w[2].wedge(th[0]) * (2 * I) - w[0].wedge(th[2]) * (2 * I),
        "th3": w[0].wedge(th[1]) * (2 * I) - w[1].wedge(th[0]) * (2 * I)})
    report = check_dd_zero(ctx)
    assert not report.ok
    assert not report.residuals["w1"].is_zero


@pytest.mark.parametrize(
    "declared",
    [
        {"scalars": ("x", "x")},
        {"one_forms": ("w1",), "two_forms": ("w1",)},
        {"scalars": ("y",), "one_forms": ("dy",)},
        {"scalars": ("x", "t"), "params": ("x",)},
        {"scalars": ("x", "t"), "jet_fields": ("t",)},
    ],
    ids=["scalar", "oneform-and-twoform", "differential", "param", "jet-field"],
)
def test_a_name_declared_twice_is_refused(declared):
    with pytest.raises(ContextError, match="is declared twice"):
        DerivationContext(**declared)


def test_jet_fields_need_the_scalars_x_and_t():
    for scalars in ((), ("x",), ("a", "b")):
        with pytest.raises(ContextError, match="jet fields need the scalars x and t"):
            DerivationContext(scalars=scalars, jet_fields=("q",))
    ctx = DerivationContext(scalars=("x", "t"), jet_fields=("q",))
    assert [g.name for g in ctx.generators] == ["dx", "dt"]


def test_generators_are_one_forms_then_differentials_then_two_forms():
    ctx = DerivationContext(one_forms=("w",), scalars=("y",), params=("c",), two_forms=("th",))
    assert ctx.generators == (Generator("w", 1), Generator("dy", 1), Generator("th", 2))


def test_a_rule_applies_only_to_a_declared_one_form_or_two_form():
    chart = dict(scalars=("x", "t", "u"))
    bare = DerivationContext(**chart)
    with pytest.raises(ContextError, match="not 'du'"):
        DerivationContext(**chart, rules={"du": bare.gen("dx").wedge(bare.gen("dt"))})
    declared = dict(one_forms=("w",), scalars=("y",), two_forms=("th",))
    bare = DerivationContext(**declared)
    free = DerivationContext(**declared, rules={"w": bare.gen("th")})
    with pytest.raises(ContextError, match="not 'dy'"):
        DerivationContext(**declared, rules={"dy": bare.gen("th")})
    assert free.gen("w").d() == free.gen("th")
    assert free.rules["w"].ctx is free and free.declared["scalars"] == ("y",)


def test_a_rule_of_the_wrong_degree_or_over_other_generators_is_refused():
    declared = dict(one_forms=("w",), scalars=("y",), two_forms=("th",))
    bare = DerivationContext(**declared)
    with pytest.raises(ContextError, match="rule for w must have degree 2"):
        DerivationContext(**declared, rules={"w": bare.gen("dy")})
    with pytest.raises(ContextError, match="rule for th must have degree 3"):
        DerivationContext(**declared, rules={"th": bare.gen("w").wedge(bare.gen("dy"))})
    # other names, one more generator, th a one-form: each a degree-2 form
    others = (DerivationContext(one_forms=("w",), scalars=("z",), two_forms=("th",)).gen("th"),
              DerivationContext(one_forms=("w",), scalars=("y",), two_forms=("th", "ph")).gen("th"),
              DerivationContext(one_forms=("w", "dy", "th")).monomial((0, 2)))
    for other in others:
        with pytest.raises(ContextError, match="rule for w is over other generators"):
            DerivationContext(**declared, rules={"w": other})
    # negative control: the same layout, even declared otherwise, is accepted, and
    # a zero rule, which prints as 0 and reads back of degree 0, takes the rule's degree
    DerivationContext(**declared, rules={"w": bare.gen("th")})
    assert DerivationContext(**declared, rules={"w": bare.zero(0)}).rules["w"].degree == 2
    DerivationContext(**declared, rules={"w": DerivationContext(one_forms=("w", "dy"),
                                                                two_forms=("th",)).gen("th")})


def test_a_context_is_complete_once_built_and_immutable():
    ctx = DerivationContext(scalars=("x", "t"))
    assert not hasattr(ctx, "set_rule") and not hasattr(ctx, "freeze")
    for name in ("anything", "declared", "rules", "_rules", "_signature"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, None)
    for name in ("declared", "_index"):
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    with pytest.raises(TypeError):
        ctx.declared["scalars"] = ("x",)
    signature = ctx.signature
    assert ctx.signature is signature
    assert ctx.signature == DerivationContext(scalars=("x", "t")).signature


def test_matrix_wedge_pauli_product(sc):
    # product of the connection matrix with itself only keeps the
    # antisymmetric structure part: i eps_{mnl} w_m^w_n on component l
    omega = sc.omega_matrix()
    square = omega.wedge(omega)
    comps = pauli_decompose(square)
    for l in (1, 2, 3):
        expected = sc.ctx.zero(2)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                e = epsilon(m, n, l)
                if e:
                    expected = expected + sc.w[m - 1].wedge(sc.w[n - 1]) * (I * e)
        assert comps[l - 1] == expected


def test_flat_connection_curvature_vanishes(chart):
    zero = chart.zero(1)
    omega = MatrixForm(((zero, zero), (zero, zero)))
    theta = omega.d() - omega.wedge(omega)
    assert theta.is_zero


def test_pauli_layout(sc):
    omega = sc.omega_matrix()
    assert omega.entry(0, 0) == sc.w[2]
    assert omega.entry(0, 1) == sc.w[0] - sc.w[1] * I
    assert omega.entry(1, 0) == sc.w[0] + sc.w[1] * I
    assert omega.entry(1, 1) == -sc.w[2]
    assert pauli_decompose(omega) == (sc.w[0], sc.w[1], sc.w[2])


def test_pauli_zero_matrix(sc):
    zero = sc.ctx.zero(1)
    comps = pauli_decompose(MatrixForm(((zero, zero), (zero, zero))))
    assert all(c.is_zero for c in comps)


# A one-form recipe: 1-3 terms, each a generator times an integer in
# -3..3, or times that integer and y1 or y2.
_ONE_FORMS = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from((None, 1, 2)),
              st.sampled_from(("w1", "w2", "w3", "dy1", "dy2", "dy5"))),
    min_size=1, max_size=3,
)


def _one_form(sc, recipe) -> Form:
    out = sc.ctx.zero(1)
    for c, y, gen in recipe:
        out = out + sc.ctx.gen(gen) * (Scalar(c) if y is None else c * sc.y[y])
    return out


@settings(max_examples=40)
@given(st.lists(_ONE_FORMS, min_size=3, max_size=3))
def test_pauli_compose_decompose_random(sc, recipes):
    forms = [_one_form(sc, recipe) for recipe in recipes]
    m = pauli_compose(*forms)
    assert m.is_traceless
    back = pauli_decompose(m)
    assert back == tuple(forms)
    assert pauli_compose(*back).entry(0, 1) == m.entry(0, 1)


def test_matrix_form_refuses_a_non_square_matrix(sc):
    zero = sc.ctx.zero(1)
    with pytest.raises(ContextError, match="square"):
        MatrixForm(((zero, zero),))
    with pytest.raises(ContextError, match="square"):
        MatrixForm(((zero, zero), (zero,)))


def test_pauli_refuses_a_3x3_matrix(sc):
    zero = sc.ctx.zero(1)
    m = MatrixForm(tuple((zero, zero, zero) for _ in range(3)))
    assert m.size == 3
    with pytest.raises(ContextError, match="2x2"):
        pauli_decompose(m)


def test_pauli_rejects_trace(sc):
    one = sc.ctx.scalar_form(1)
    zero = sc.ctx.zero(0)
    with pytest.raises(ContextError):
        pauli_decompose(MatrixForm(((one, zero), (zero, one))))


@settings(max_examples=60)
@given(_ONE_FORMS, _ONE_FORMS)
def test_graded_leibniz_randomized(sc, left, right):
    a, b = _one_form(sc, left), _one_form(sc, right)
    lhs = a.wedge(b).d()
    rhs = a.d().wedge(b) - a.wedge(b.d())
    assert lhs == rhs


@settings(max_examples=40)
@given(_ONE_FORMS)
def test_dd_zero_randomized(sc, recipe):
    assert _one_form(sc, recipe).d().d().is_zero


def test_substitute_generators(sc):
    w1, w2, w3 = sc.w
    swapped = w1.wedge(w2).substitute_generators({"w2": w3})
    assert swapped == w1.wedge(w3)


def test_substitute_generators_into_another_context(chart):
    line = DerivationContext(scalars=("s",))
    ds = line.gen("ds")
    images = {name: ds * k for k, name in enumerate(("dx", "dt", "du", "dp", "dq"), 1)}
    form = chart.gen("dx") * sym("u") + chart.gen("dq")
    assert form.substitute_generators(images) == ds * (sym("u") + 5)
    # in another context every generator needs an image
    del images["dq"]
    with pytest.raises(ContextError):
        form.substitute_generators(images)


def test_equal_forms_hash_equal():
    # two contexts built alike give equal forms, which must collapse in a set
    a, b = build_su2_context(), build_su2_context()
    assert a.ctx is not b.ctx
    assert a.w[0].wedge(a.w[1]) == b.w[0].wedge(b.w[1])
    assert len({a.w[0].wedge(a.w[1]), b.w[0].wedge(b.w[1])}) == 1
    # the zero forms of every degree are equal
    assert a.ctx.zero(1) == a.ctx.zero(2)
    assert hash(a.ctx.zero(1)) == hash(a.ctx.zero(2))


@pytest.fixture(scope="module")
def alike():
    """A second su(2) context, built like the session's."""
    return build_su2_context()


@settings(max_examples=60)
@given(_ONE_FORMS, _ONE_FORMS)
def test_equal_forms_hash_equal_randomized(sc, alike, left, right):
    a, b = _one_form(sc, left), _one_form(sc, right)
    # each pair is one form built two ways: terms in another order, in an
    # alike context, or a zero form of another degree
    equal = [(a + b, b + a), (a.wedge(b), -(b.wedge(a))),
             (a, _one_form(alike, left[::-1])), (a - a, sc.ctx.zero(2))]
    for f, g in equal:
        assert f == g and hash(f) == hash(g)
    if a == b:
        assert hash(a) == hash(b)


def test_forms_refuse_assignment_and_deletion(sc):
    form, matrix = sc.w[0], pauli_compose(*sc.w)
    for value, field in ((form, "terms"), (form, "degree"), (form, "ctx"), (matrix, "entries")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        form.label = "w1"
    assert form == sc.ctx.gen("w1") and matrix == pauli_compose(*sc.w)


def test_a_record_takes_each_field_once_by_position_or_keyword():
    g = Generator("dx", 1)
    assert g == Generator(name="dx", degree=1) == Generator("dx", degree=1) != Generator("dx", 2)
    assert hash(g) == hash(Generator("dx", 1)) and repr(g) == "Generator(name='dx', degree=1)"
    for args, named in ((("dx",), {}), (("dx", 1, 2), {}), (("dx", 1), {"name": "dt"}),
                        (("dx",), {"label": 1})):
        with pytest.raises(TypeError, match="takes the fields name, degree"):
            Generator(*args, **named)


def test_form_degree_mismatch_rejected(sc):
    with pytest.raises(ContextError):
        sc.w[0] + sc.th[0]


def test_high_degree_wedge_collapses(chart):
    # more factors than one-form generators gives the zero form
    gens = [chart.gen(n) for n in ("dx", "dt", "du", "dp", "dq")]
    top = gens[0]
    for g in gens[1:]:
        top = top.wedge(g)
    assert not top.is_zero
    assert top.wedge(gens[0]).is_zero


_SU2 = build_su2_context()
_CHART = DerivationContext(scalars=("x", "t", "u", "p", "q"), two_forms=("Th",))
# (context, coefficient factors), an integer in -2..2 times one of them
_SETTINGS = [
    (_SU2.ctx, (ONE, I, _SU2.y[1], _SU2.y3, _SU2.e5, 1 / (_SU2.y[1] + _SU2.y[2]))),
    (_CHART, (ONE, I, sym("u"), sym("p") * sym("q"), exp_atom(sym("u")), 1 / (sym("u") + sym("x")))),
]


@st.composite
def _forms(draw, ctx, factors, degree=None):
    """A Form of ctx through the checking constructor: up to four unsorted
    monomials of 0-3 generators, those of the form's degree kept."""
    degrees = [g.degree for g in ctx.generators]
    monomials = draw(st.lists(st.lists(st.integers(0, len(degrees) - 1), max_size=3).map(tuple),
                              max_size=4))
    if degree is None:
        degree = sum(degrees[i] for i in monomials[0]) if monomials else draw(st.integers(0, 2))
    coefficients = st.builds(lambda k, c: k * c, st.integers(-2, 2), st.sampled_from(factors))
    return Form(ctx, degree, {m: draw(coefficients) for m in monomials
                              if sum(degrees[i] for i in m) == degree})


def _assert_canonical(f: Form) -> None:
    """f is what the checking constructor makes of its own terms, with its
    keys in the same order, and it stores no zero."""
    rebuilt = Form(f.ctx, f.degree, dict(f.terms))
    assert f == rebuilt and list(f.terms) == list(rebuilt.terms)
    assert not any(c.is_zero for c in f.terms.values())


@pytest.mark.parametrize("ctx, factors", _SETTINGS, ids=["su2", "chart"])
@settings(max_examples=100)
@given(data=st.data())
def test_form_operations_build_canonical_forms(ctx, factors, data):
    a, b = data.draw(_forms(ctx, factors)), data.draw(_forms(ctx, factors))
    k = data.draw(st.integers(-2, 2))
    # a form of a's degree that cancels a in part, wholly, or not at all
    alike = a * k + data.draw(_forms(ctx, factors, a.degree))
    c = k * data.draw(st.sampled_from(factors))
    results = [a + alike, a - alike, -a, a - a, a + (-a), (a + alike) - a, a * c, c * a, a * 0,
               a.wedge(b), a * b, a.map_coefficients(lambda v: v * v - 1), a.d()]
    for f in results:
        _assert_canonical(f)
    assert (a + alike) - a == alike and (a - a).is_zero


def test_d_skips_the_directions_already_in_a_monomial(monkeypatch, chart):
    seen = []
    total, diff = jets.total_derivative, Scalar.diff
    monkeypatch.setattr(jets, "total_derivative",
                        lambda c, to, deps: seen.append(to) or total(c, to, deps))
    monkeypatch.setattr(Scalar, "diff", lambda c, name: seen.append(name) or diff(c, name))
    jet_ctx = build_jet_context(("u",))
    dt_dx = jet_ctx.gen("dt").wedge(jet_ctx.gen("dx"))
    assert (jet_ctx.gen("dx") * sym(jet("u", 2))).d() == dt_dx * sym(jet("u", 2, 1))
    assert seen == ["t"]
    seen.clear()
    u, x, p = sym("u"), sym("x"), sym("p")
    dx, du, dp = chart.gen("dx"), chart.gen("du"), chart.gen("dp")
    assert (dx.wedge(du) * (u * x * p)).d() == dp.wedge(dx).wedge(du) * (u * x)
    assert seen == ["t", "p", "q"]


def test_d_on_the_free_dga_skips_the_direction_already_in_a_monomial(monkeypatch, sc):
    seen = []
    diff = Scalar.diff
    monkeypatch.setattr(Scalar, "diff", lambda c, name: seen.append(name) or diff(c, name))
    assert (sc.dy[1] * sc.y[1]).d().is_zero
    # every scalar direction but y1, whose dy1 is already in the monomial
    assert seen == ["y2", "y5", "y6", "y7", "y8", "f", "g"]


def test_operations_on_canonical_forms_skip_the_checking_constructor(monkeypatch, sc, chart):
    a = sc.w[0] * sc.y[1] + sc.w[1] * sc.e5
    b = sc.w[2] * sc.y3 - sc.w[0]
    # d on a chart and on jets, each with a term whose own directions are in its monomial
    dx, dt, du, dp = (chart.gen(name) for name in ("dx", "dt", "du", "dp"))
    u, x, p = sym("u"), sym("x"), sym("p")
    on_chart = dx.wedge(du) * (u * x * p) + dt.wedge(du) * p
    jet_ctx = build_jet_context(("u",))
    u_x, u_xx, u_xxt = (sym(jet("u", 1)), sym(jet("u", 2)), sym(jet("u", 2, 1)))
    on_jets = jet_ctx.gen("dx") * u_xx + jet_ctx.gen("dt") * u_x
    checked = []
    init = Form.__init__
    monkeypatch.setattr(Form, "__init__", lambda *args: checked.append(args) or init(*args))
    for f in (a + b, a - b, -a, a * sc.y[2], sc.y[2] * a, a.wedge(b), a * b,
              a.map_coefficients(lambda v: v * 2), a.d(), on_chart.d(), on_jets.d()):
        assert not f.is_zero
    assert checked == []
    assert on_chart.d() == dp.wedge(dx).wedge(du) * (u * x) + dp.wedge(dt).wedge(du)
    assert on_jets.d() == jet_ctx.gen("dx").wedge(jet_ctx.gen("dt")) * (u_xx - u_xxt)


def test_closure_and_a_ring_decomposition_skip_the_checking_constructor(
        monkeypatch, sc, su2_forms, ch_ideal):
    from prolong.su2 import verify_identity
    from prolong.we import closure_check

    checked = []
    init = Form.__init__
    monkeypatch.setattr(Form, "__init__", lambda *args: checked.append(args) or init(*args))
    assert closure_check(ch_ideal).ok
    assert verify_identity(sc, "xi3", su2_forms).stated_ok
    assert checked == []


def test_monomial_sorts_its_generators_with_their_sign(chart):
    dx, dt, du = (chart.gen(name) for name in ("dx", "dt", "du"))
    index = chart.index_of
    assert chart.monomial((index("du"), index("dx")), sym("u")) == dx.wedge(du) * -sym("u")
    assert chart.monomial((index("dx"), index("dt"), index("dx"))).is_zero
    assert chart.monomial(()) == chart.scalar_form(1)
    assert chart.monomial((index("dt"),)) == dt
