"""Graded exterior algebra over a declared generator set.

A DerivationContext declares, in its constructor, degree-0 symbols (with
their differentials), free degree-1/degree-2 generators and their rules.  The
same machinery drives both coordinate charts (d of a coefficient is its
partial or total derivative times the coordinate differentials) and free
differential graded algebras (abstract generators with prescribed rules).

Forms are homogeneous: a canonical map from sorted wedge monomials of
generators to scalar coefficients.  Odd-degree generators anticommute and
square to zero; even-degree generators commute with everything.  Every
operation, ``d`` included, builds from canonical terms without the
checking ``Form(...)``; d of a scalar v is ``ctx.scalar_form(v).d()``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .coeff import I, Scalar, ZERO, ONE
from . import jets
from .record import Record

__all__ = [
    "LEVI_CIVITA",
    "epsilon",
    "Generator",
    "DerivationContext",
    "Form",
    "MatrixForm",
    "DdReport",
    "check_dd_zero",
    "pauli_decompose",
    "pauli_compose",
    "plus_minus",
    "build_jet_context",
]

# Totally antisymmetric structure constants of su(2), 1-indexed.
LEVI_CIVITA = {
    (1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
    (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1,
}


def epsilon(l: int, m: int, n: int) -> int:
    return LEVI_CIVITA.get((l, m, n), 0)


class Generator(Record):
    __slots__ = ("name", "degree")


class ContextError(ValueError):
    pass


class DerivationContext:
    """Generators and their differential rules, declared in one call.

    The constructor declares every name once: scalars are degree-0 symbols,
    each with the degree-1 differential d<name>; parameters are constants;
    jet fields make coefficients jet expressions over the scalars x and t,
    so d of a coefficient is D_x dx + D_t dt with total derivatives.  The
    generators are the one-forms, the scalars' differentials and the
    two-forms, in that order.  ``rules`` gives a declared one-form or
    two-form its differential: a form of one degree higher over a context
    with the same generators.  The context is complete when its constructor
    returns and immutable: ``declared`` maps each declaring argument to its
    names, ``rules`` each rule's target to its form over this context.
    """

    # _signature caches the signature once asked for
    __slots__ = ("declared", "rules", "_names", "_degrees", "_index", "_scalars", "_directions",
                 "_rules", "_signature")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, one_forms=(), scalars=(), params=(), two_forms=(), jet_fields=(), rules=()):
        names = (*one_forms, *(f"d{name}" for name in scalars), *two_forms)  # by index
        seen: set = set()
        for name in (*scalars, *params, *jet_fields, *names):
            if name in seen:
                raise ContextError(f"{name!r} is declared twice")
            seen.add(name)
        if jet_fields and not {"x", "t"} <= set(scalars):
            raise ContextError("jet fields need the scalars x and t")
        degrees = (1,) * (len(names) - len(two_forms)) + (2,) * len(two_forms)  # by index
        index = {name: i for i, name in enumerate(names)}
        by_index: list = [None] * len(names)  # each generator's rule Form, by index
        rehomed: dict = {}  # each rule's Form over this context, by target
        for name, form in dict(rules).items():
            if name not in one_forms and name not in two_forms:
                raise ContextError(f"rules apply to declared one-forms and two-forms, not {name!r}")
            idx = index[name]
            degree = degrees[idx] + 1
            if form.degree != degree and not form.is_zero:  # a zero form has every degree
                raise ContextError(f"rule for {name} must have degree {degree}")
            if form.ctx._names != names or form.ctx._degrees != degrees:
                raise ContextError(f"rule for {name} is over other generators")
            by_index[idx] = rehomed[name] = _form(self, degree, form.terms)
        scalar_pairs = tuple((name, index[f"d{name}"]) for name in scalars)
        fields = {
            "declared": MappingProxyType({
                "one_forms": tuple(one_forms), "scalars": tuple(scalars), "params": tuple(params),
                "two_forms": tuple(two_forms), "jet_fields": tuple(jet_fields)}),
            "rules": MappingProxyType(rehomed),
            "_names": names, "_degrees": degrees, "_index": index, "_rules": tuple(by_index),
            "_scalars": scalar_pairs,  # (name, index of d<name>) for each scalar
            # the scalars that d of a coefficient differentiates along, as _scalars
            "_directions": tuple(p for p in scalar_pairs if not jet_fields or p[0] in ("x", "t")),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def signature(self) -> tuple:
        """Structural identity: two contexts with equal signatures carry the
        same generators, scalars, and rule table, so their forms commute."""
        signature = getattr(self, "_signature", None)
        if signature is None:
            rules = tuple(None if form is None else tuple(form.terms.items())
                          for form in self._rules)
            signature = (self._names, self._degrees, self._scalars, self.declared["jet_fields"],
                         rules)
            object.__setattr__(self, "_signature", signature)
        return signature

    # -- inspection ------------------------------------------------------------

    @property
    def generators(self) -> tuple:
        return tuple(map(Generator, self._names, self._degrees))

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"unknown generator {name!r}") from None

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    def one_form_indices(self) -> tuple:
        return tuple(i for i, degree in enumerate(self._degrees) if degree == 1)

    # -- form construction -------------------------------------------------------

    def zero(self, degree: int) -> "Form":
        return _form(self, degree, {})

    def scalar_form(self, value) -> "Form":
        return _form(self, 0, {(): Scalar(value)})

    def gen(self, name: str) -> "Form":
        idx = self.index_of(name)
        return _form(self, self._degrees[idx], {(idx,): ONE})

    def monomial(self, mono: tuple, coeff: Scalar = ONE) -> "Form":
        """coeff times the wedge of the generators with the indices mono,
        taken in that order."""
        terms: dict = {}
        _add_term(terms, self._degrees, mono, coeff)
        return _form(self, sum(self._degrees[i] for i in mono), terms)


def _accumulate(terms: dict, key, coeff: Scalar) -> None:
    """Add coeff under key.  Scalars are canonical by construction, so a
    coefficient is only moved unless another already sits under its key."""
    if key in terms:
        terms[key] = terms[key] + coeff
    else:
        terms[key] = coeff


def _sorted_monomial(degrees: Sequence[int], mono: tuple) -> tuple | None:
    """Canonically sort a generator-index tuple.

    Returns (sign, sorted tuple) or None when the monomial vanishes
    (a repeated odd-degree generator).  Adjacent swaps contribute
    (-1)**(deg_a * deg_b).
    """
    items = list(mono)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            da, db = degrees[items[j - 1]], degrees[items[j]]
            sign *= (-1) ** (da * db)
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b and degrees[a] % 2 == 1:
            return None
    return (sign, tuple(items))


def _add_term(terms: dict, degrees: Sequence[int], mono: tuple, coeff: Scalar) -> None:
    """Add coeff times the monomial mono, sorted with its sign; a
    vanishing monomial adds nothing."""
    packed = _sorted_monomial(degrees, mono)
    if packed is not None:
        sign, key = packed
        _accumulate(terms, key, coeff if sign == 1 else -coeff)


def _form(ctx: DerivationContext, degree: int, terms: dict, form: "Form" = None) -> "Form":
    """The Form of terms whose keys are sorted, of the degree and each held
    once: zeros dropped, keys ordered.  Form operations and zero, gen and
    scalar_form build here; the checking ``Form(...)`` fills itself in here."""
    form = object.__new__(Form) if form is None else form
    object.__setattr__(form, "ctx", ctx)
    object.__setattr__(form, "degree", degree)
    object.__setattr__(form, "terms", {k: c for k, c in sorted(terms.items()) if not c.is_zero})
    return form


class Form(Record):
    """Homogeneous exterior form: monomial -> coefficient, canonical."""

    __slots__ = ("ctx", "degree", "terms")  # terms: sorted monomial -> nonzero Scalar

    def __init__(self, ctx: DerivationContext, degree: int, terms: Mapping[tuple, Scalar]):
        degrees = ctx._degrees
        cleaned: dict = {}
        for mono, coeff in terms.items():
            coeff = Scalar(coeff)
            if coeff.is_zero:
                continue
            total = sum(degrees[i] for i in mono)
            if total != degree:
                raise ContextError(
                    f"monomial {mono} has degree {total}, form declared degree {degree}"
                )
            _add_term(cleaned, degrees, mono, coeff)
        _form(ctx, degree, cleaned, self)

    # -- linear structure -----------------------------------------------------

    def _require_same(self, other: "Form"):
        if self.ctx is not other.ctx and self.ctx.signature != other.ctx.signature:
            raise ContextError("forms belong to different contexts")

    def __add__(self, other: "Form") -> "Form":
        self._require_same(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ContextError("cannot add forms of different degree")
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(out, mono, coeff)
        return _form(self.ctx, self.degree, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return _form(self.ctx, self.degree, {m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar) -> "Form":
        if isinstance(scalar, Form):
            return self.wedge(scalar)
        c = Scalar(scalar)
        return _form(self.ctx, self.degree, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        self._require_same(other)
        degrees = self.ctx._degrees
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # sorting here lets a vanishing monomial skip its coefficient product
                packed = _sorted_monomial(degrees, m1 + m2)
                if packed is None:
                    continue
                sign, key = packed
                value = c1 * c2
                _accumulate(out, key, value if sign == 1 else -value)
        return _form(self.ctx, self.degree + other.degree, out)

    # -- differential -----------------------------------------------------------

    def d(self) -> "Form":
        """Graded Leibniz rule in one pass: d(c m) = dc ^ m + c dm, where d
        of the monomial m replaces each generator by its rule, with the sign
        of the degree before it.  Each term is sorted with its sign as it
        is added, so the result builds from canonical terms."""
        ctx = self.ctx
        degrees, rules, deps = ctx._degrees, ctx._rules, ctx.declared["jet_fields"]
        out: dict = {}
        for mono, coeff in self.terms.items():
            for name, idx in ctx._directions:
                if idx not in mono:  # else its wedge with mono vanishes
                    part = jets.total_derivative(coeff, name, deps) if deps else coeff.diff(name)
                    if not part.is_zero:
                        _add_term(out, degrees, (idx,) + mono, part)
            prefix_deg = 0
            for j, gen_idx in enumerate(mono):
                rule = rules[gen_idx]
                if rule is not None:
                    sign_coeff = coeff if prefix_deg % 2 == 0 else -coeff
                    for rule_mono, rule_coeff in rule.terms.items():
                        key = mono[:j] + rule_mono + mono[j + 1:]
                        _add_term(out, degrees, key, rule_coeff * sign_coeff)
                prefix_deg += degrees[gen_idx]
        return _form(ctx, self.degree + 1, out)

    # -- structure -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, *names: str) -> Scalar:
        mono = tuple(self.ctx.index_of(n) for n in names)
        packed = _sorted_monomial(self.ctx._degrees, mono)
        if packed is None:
            return ZERO
        sign, key = packed
        value = self.terms.get(key, ZERO)
        return value if sign == 1 else -value

    def as_scalar(self) -> Scalar:
        if self.degree != 0:
            raise ContextError("only degree-0 forms convert to scalars")
        return self.terms.get((), ZERO)

    def map_coefficients(self, fn: Callable[[Scalar], Scalar]) -> "Form":
        return _form(self.ctx, self.degree, {m: Scalar(fn(c)) for m, c in self.terms.items()})

    def substitute_generators(self, mapping: Mapping[str, "Form"]) -> "Form":
        """Pull back along generator name -> form of the same degree.

        The images may live in another context; then every generator must
        be mapped.  Unmapped generators of this context map to themselves.
        """
        for name in mapping:
            self.ctx.index_of(name)  # raises on a name outside this context
        target = next(iter(mapping.values())).ctx if mapping else self.ctx
        images = []
        for name, degree in zip(self.ctx._names, self.ctx._degrees):
            image = mapping.get(name)
            if image is None:
                if target is not self.ctx:
                    raise ContextError(f"no image for generator {name} in the target context")
                image = self.ctx.gen(name)
            elif image.degree != degree:
                raise ContextError(f"replacement for {name} has wrong degree")
            images.append(image)
        out: dict = {}
        for mono, coeff in self.terms.items():
            piece = target.scalar_form(coeff)
            for gen_idx in mono:
                piece = piece.wedge(images[gen_idx])
            for key, value in piece.terms.items():
                _accumulate(out, key, value)
        return _form(target, self.degree, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx.signature != other.ctx.signature:
            return False
        # Stored coefficients are nonzero, so equal forms share their
        # monomials (a monomial fixes the degree) and every zero form is
        # equal to every other; coefficients compare as Scalars.
        return self.terms == other.terms

    def __hash__(self):
        # Equal forms have the same nonzero monomials (and every zero form
        # has none), whatever their contexts' identity or declared degree.
        return hash(tuple(self.terms))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        out = ""
        for mono, coeff in self.terms.items():
            if mono:
                part = _coeff_prefix(coeff) + "^".join(self.ctx.name_of(i) for i in mono)
            else:
                part = str(coeff)
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return f"-{out[3:]}" if out.startswith(" - ") else out[3:]

    def __repr__(self) -> str:
        return f"Form<{self.degree}>({self})"


def _coeff_prefix(coeff: Scalar) -> str:
    """coeff as the factor in front of a wedge monomial."""
    text = str(coeff)
    if text == "1":
        return ""
    if text == "-1":
        return "-"
    if "+" in text[1:] or "-" in text[1:] or "/" in text or " " in text:
        text = f"({text})"
    return f"{text}*"


class MatrixForm(Record):
    """Square n x n matrix of forms of equal degree."""

    __slots__ = ("entries",)  # rows of Forms

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ContextError("a matrix of forms must be square")
        degs = {f.degree for row in rows for f in row if not f.is_zero}
        if len(degs) > 1:
            raise ContextError("matrix entries must share one degree")
        super().__init__(rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Form:
        return self.entries[i][j]

    def _require_size(self, other: "MatrixForm"):
        if other.size != self.size:
            raise ContextError("matrices of forms differ in size")

    def wedge(self, other: "MatrixForm") -> "MatrixForm":
        self._require_size(other)
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.entry(i, 0).wedge(other.entry(0, j))
                for k in range(1, n):
                    acc = acc + self.entry(i, k).wedge(other.entry(k, j))
                row.append(acc)
            rows.append(tuple(row))
        return MatrixForm(tuple(rows))

    def d(self) -> "MatrixForm":
        return MatrixForm(tuple(tuple(f.d() for f in row) for row in self.entries))

    def curvature(self) -> "MatrixForm":
        """d(Omega) - Omega ^ Omega, the zero-curvature form of a connection."""
        return self.d() - self.wedge(self)

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        self._require_size(other)
        n = self.size
        return MatrixForm(
            tuple(
                tuple(self.entry(i, j) + other.entry(i, j) for j in range(n))
                for i in range(n)
            )
        )

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        return self + (-other)

    def __neg__(self) -> "MatrixForm":
        return MatrixForm(tuple(tuple(-f for f in row) for row in self.entries))

    @property
    def trace(self) -> Form:
        acc = self.entry(0, 0)
        for i in range(1, self.size):
            acc = acc + self.entry(i, i)
        return acc

    @property
    def is_traceless(self) -> bool:
        return self.trace.is_zero

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for row in self.entries for f in row)


def pauli_decompose(m: MatrixForm) -> tuple:
    """Components along the Pauli basis; requires a traceless 2x2 matrix."""
    if m.size != 2:
        raise ContextError("pauli decomposition needs a 2x2 matrix")
    if not m.is_traceless:
        raise ContextError("pauli decomposition needs a traceless matrix")
    half = Scalar.rational(1, 2)
    f1 = (m.entry(0, 1) + m.entry(1, 0)) * half
    f2 = (m.entry(1, 0) - m.entry(0, 1)) * (half / I)
    f3 = m.entry(0, 0)
    return (f1, f2, f3)


def pauli_compose(f1: Form, f2: Form, f3: Form) -> MatrixForm:
    plus, minus = plus_minus(f1, f2)
    return MatrixForm(((f3, minus), (plus, -f3)))


def plus_minus(a, b) -> tuple:
    """(a + i b, a - i b), of two forms or two scalars."""
    ib = b * I
    return (a + ib, a - ib)


def build_jet_context(deps: Sequence[str]) -> DerivationContext:
    return DerivationContext(scalars=("x", "t"), jet_fields=deps)


class DdReport(Record):
    __slots__ = ("residuals",)  # generator name -> d(d(generator)), in generator order

    @property
    def ok(self) -> bool:
        return all(f.is_zero for f in self.residuals.values())


def check_dd_zero(ctx: DerivationContext) -> DdReport:
    """d(d(g)) for every generator; consistency certificate of the rules."""
    return DdReport({g.name: ctx.gen(g.name).d().d() for g in ctx.generators})
