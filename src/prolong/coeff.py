"""Exact scalar arithmetic.

Scalars are rational functions of declared symbols over the Gaussian
rationals, optionally containing exponential atoms exp(s) of degree-0
symbols.  No floating point enters anywhere.

A Scalar stores a canonical pair ``num/den`` of sparse polynomials over
the Gaussian integers ``ZZ_I`` (``sympy.polys.rings``): the two share no
factor, not even a Gaussian-integer content, and the leading coefficient
of ``den`` lies in the first quadrant (its canonical unit), the leading
term taken in lex order over the generators sorted by their text with the
key sympy's polynomial constructors sort generators by (``_sort_gens``).
A generator's text is a symbol's name, or ``exp(<exponent>)`` for an
atom, computed once when the generator is registered.  The pair is
unique, so equality compares the stored pairs.  When ``den`` is a single
term, which is every symbolic denominator the bundled workloads produce,
reducing needs no polynomial gcd: dividing out the minimum exponent of
each variable and the content gcd suffices.  Any other ``den`` goes
through ``cofactors``.

Each exponential atom is a ring generator ``E`` standing for exp(b) with
dE/dz = E * db/dz.  exp(s) splits into one factor per term of s, each an
integer power of an atom whose exponent b has primitive, sign-normalised
coefficients, so exp(-y5) is the monomial denominator 1/E and exp(y5)
and exp(2*y5) share one generator.  The ring names an atom by a
placeholder symbol named by its text; only ``.expr`` maps it back to
sympy's exp(b).

All Scalars live in one process-wide polynomial ring, not one per
context, because values cross contexts (generator pullbacks, jet
substitutions, parameter bindings).  It starts with no generators and
grows as symbols and atoms appear (jet symbols such as ``u_xxxxx`` appear
while a verb runs); a generator keeps its index, so a value built in an
older ring lifts to the current one by padding its exponents.

A Scalar prints its stored pair itself, with exact comparisons only:
``str`` writes the terms of ``num``, then of ``den``, in descending lex
order over the generator order that fixes the canonical unit, each a
Gaussian-integer coefficient ``a``, ``b*i`` or ``(a + b*i)`` times the
generators' texts, as ``num/den`` with parentheses only where a sum or a
product needs them (see the printing section).  The model reader reads
the text back to the same Scalar.  Reports, error messages and ``repr``
all use that one text.  ``.expr``, the sympy expression num/den, and
``Scalar(expr)``, which converts an expression once, are the boundary to
sympy: no engine code reads ``.expr``; tests and callers outside the
engine do.

Scalar is the one scalar type: a spectral-family coefficient is a Scalar
too, and :func:`eta_coefficients` reads it as a Laurent polynomial in the
spectral parameter eta.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Union

import sympy as sp
from sympy.polys.domains import ZZ, ZZ_I
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

__all__ = [
    "Scalar",
    "LaurentError",
    "eta_coefficients",
    "ETA",
    "I",
    "ZERO",
    "ONE",
    "sym",
    "exp_atom",
    "substitute",
]

ETA = sp.Symbol("eta")

ScalarLike = Union["Scalar", int, sp.Expr]

_BAD_ATOMS = (sp.zoo, sp.nan, sp.oo, -sp.oo)
_UNIT = ZZ_I.one


class _Ring:
    """The one polynomial ring over ZZ_I that every Scalar lives in.

    Generators are only ever appended, so an index never changes and an
    element of an older ring lifts by padding its exponent vectors.  The
    ring keeps spare placeholder generators and is rebuilt only when they
    run out, doubling its size, since building a ring costs milliseconds.
    """

    def __init__(self):
        self.symbols: list = []  # Symbols and atom placeholders, by index
        self.index: dict = {}
        self.exponents: dict = {}  # generator index -> exponent b of exp(b)
        self.atoms: dict = {}  # primitive exponent -> (denominator, index)
        self.ring = PolyRing((), ZZ_I, lex)
        self.small: dict = {}  # (generator indices, real?) -> ring for gcds
        self._lex = None

    def grow(self, symbols) -> None:
        fresh = [s for s in dict.fromkeys(symbols) if s not in self.index]
        if not fresh:
            return
        for s in fresh:
            self.index[s] = len(self.symbols)
            self.symbols.append(s)
        self._lex = None
        size = len(self.symbols)
        if size > self.ring.ngens:
            spare = tuple(sp.Dummy() for _ in range(max(16, 2 * size) - size))
            self.ring = PolyRing(tuple(self.symbols) + spare, ZZ_I, lex)

    def as_expr(self, poly: PolyElement) -> sp.Expr:
        """poly as an expression in the generators' own symbols, each atom
        that occurs as sympy's exp(b) (the ring still names generators
        added after it was built by spare placeholders)."""
        gens = [*self.symbols[:poly.ring.ngens], *poly.ring.symbols[len(self.symbols):]]
        for i in _used(poly):
            if i in self.exponents:
                gens[i] = sp.exp(self.exponents[i].expr)
        return poly.as_expr(*gens)

    def lex_order(self) -> list:
        """Generator indices in the order sympy's polynomial constructors
        sort generators with these texts; texts that key alike (y1 and
        y01) go in text order, so no order depends on registration."""
        if self._lex is None:
            texts = [s.name for s in self.symbols]
            slots: dict = {}
            for i, text in enumerate(texts):
                slots.setdefault(text, []).append(i)
            self._lex = [slots[text].pop(0) for text in _sort_gens(sorted(texts))]
        return self._lex


_CORE = _Ring()


def _lift(poly: PolyElement) -> PolyElement:
    ring = _CORE.ring
    if poly.ring is ring:
        return poly
    pad = (0,) * (ring.ngens - poly.ring.ngens)
    out = ring.zero
    for monom, coeff in poly.items():
        out[monom + pad] = coeff
    return out


def _is_one(poly: PolyElement) -> bool:
    return len(poly) == 1 and poly.get(poly.ring.zero_monom) == _UNIT


def _constant(poly: PolyElement):
    """The ground coefficient of a constant polynomial, else None."""
    if len(poly) == 1:
        return poly.get(poly.ring.zero_monom)
    return None


def _is_unit(c) -> bool:
    return c.x * c.x + c.y * c.y == 1


def _gcd(a, b):
    """Gaussian-integer gcd, by the integer gcd when both are real."""
    if not a.y and not b.y:
        return ZZ_I(gcd(int(a.x), int(b.x)))
    return ZZ_I.gcd(a, b)


def _exquo(a, b):
    if not b.y:
        return ZZ_I(a.x // b.x, a.y // b.x)
    return ZZ_I.exquo(a, b)


def _lex_order(ring: PolyRing) -> list:
    """The generator indices of ring, greatest first in lex order: the
    order that fixes the canonical unit and the printed order."""
    return [k for k in _CORE.lex_order() if k < ring.ngens]


def _leading_coeff(den: PolyElement):
    if len(den) == 1:
        return next(iter(den.values()))
    order = _lex_order(den.ring)
    return den[max(den, key=lambda m: [m[k] for k in order])]


def _normal_unit(num: PolyElement, den: PolyElement) -> tuple:
    unit = ZZ_I.canonical_unit(_leading_coeff(den))
    if unit == _UNIT:
        return num, den
    return num.mul_ground(unit), den.mul_ground(unit)


def _reduce(num: PolyElement, den: PolyElement) -> "Scalar":
    """The canonical Scalar of num/den (same ring, den nonzero)."""
    if not den:
        raise ZeroDivisionError("division by a scalar that normalizes to zero")
    ring = den.ring
    if not num:
        return _make(num, ring.one)
    if len(den) == 1:
        [(dm, dc)] = den.items()
        common = dm
        if any(dm):
            monomial_gcd = ring.monomial_gcd
            for m in num:
                common = monomial_gcd(common, m)
                if not any(common):
                    break
        content = dc
        if not _is_unit(dc):
            for c in num.values():
                content = _gcd(content, c)
                if _is_unit(content):
                    break
        if any(common) or not _is_unit(content):
            ldiv = ring.monomial_ldiv
            num = num.new([(ldiv(m, common), _exquo(c, content)) for m, c in num.items()])
            den = den.new([(ldiv(dm, common), _exquo(dc, content))])
    else:
        num, den = _cofactors(num, den)
    return _make(*_normal_unit(num, den))


def _cofactors(num: PolyElement, den: PolyElement) -> tuple:
    """num and den divided by their gcd.

    sympy's gcd is dense in every generator of the ring and slow over
    ZZ_I, so it runs in a ring of only the generators that occur, over ZZ
    when no coefficient has an imaginary part.
    """
    used = tuple(_used(num, den))
    real = all(not c.y for poly in (num, den) for c in poly.values())
    key = (used, real)
    small = _CORE.small.get(key)
    if small is None:
        small = PolyRing(tuple(_CORE.symbols[i] for i in used), ZZ if real else ZZ_I, lex)
        _CORE.small[key] = small

    def down(poly: PolyElement) -> PolyElement:
        return small.from_dict(
            {tuple(m[i] for i in used): (c.x if real else c) for m, c in poly.items()}
        )

    ring = num.ring

    def up(poly: PolyElement) -> PolyElement:
        out = ring.zero
        for m, c in poly.items():
            full = [0] * ring.ngens
            for i, e in zip(used, m):
                full[i] = e
            out[tuple(full)] = ZZ_I(c) if real else c
        return out

    _, p, q = down(num).cofactors(down(den))
    return up(p), up(q)


def _make(num: PolyElement, den: PolyElement) -> "Scalar":
    s = object.__new__(Scalar)
    object.__setattr__(s, "num", num)
    object.__setattr__(s, "den", den)
    return s


def _ground(value) -> PolyElement:
    return _CORE.ring.ground_new(ZZ_I.convert(value))


def _unit_of(s: "Scalar"):
    """The ground unit s equals (1, -1, i or -i), else None."""
    if _is_one(s.den):
        c = _constant(s.num)
        if c is not None and _is_unit(c):
            return c
    return None


@dataclass(frozen=True, eq=False, repr=False)
class Scalar:
    """Immutable exact coefficient, stored as a canonical pair num/den.

    ``Scalar(expr)`` converts a sympy expression (or an int, or a Scalar)
    once; arithmetic stays on the stored pair.
    """

    value: InitVar[ScalarLike]
    num: PolyElement = field(init=False)
    den: PolyElement = field(init=False)

    def __post_init__(self, value):
        num, den = _convert(value)
        canon = _reduce(num, den)
        object.__setattr__(self, "num", canon.num)
        object.__setattr__(self, "den", canon.den)

    # -- construction -----------------------------------------------------

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return _make(_ground(value), _CORE.ring.one)
        return Scalar(sp.sympify(value))

    @staticmethod
    def rational(p: int, q: int = 1) -> "Scalar":
        return _reduce(_ground(p), _ground(q))

    def _lifted(self) -> tuple:
        """(num, den) over the current ring; the lift is kept, since it
        stands for the same value."""
        num = self.num
        if num.ring is not _CORE.ring:
            num, den = _lift(num), _lift(self.den)
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
        return num, self.den

    def _pair(self, other: "Scalar") -> tuple:
        if self.num.ring is other.num.ring:
            return self.num, self.den, other.num, other.den
        return self._lifted() + other._lifted()

    # -- ring operations ---------------------------------------------------

    def _add(self, other: "Scalar", sign: int) -> "Scalar":
        a, b, c, d = self._pair(other)
        if sign < 0:
            c = -c
        # a/b + c stays coprime to b, so only a shared or a product
        # denominator needs reducing
        if _is_one(d):
            return _make(a + c * b if not _is_one(b) else a + c, b)
        if _is_one(b):
            return _make(a * d + c, d)
        if b == d:
            return _reduce(a + c, b)
        return _reduce(a * d + c * b, b * d)

    def __add__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._add(Scalar.of(other), 1)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._add(Scalar.of(other), -1)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return Scalar.of(other)._add(self, -1)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        other = Scalar.of(other)
        a, b, c, d = self._pair(other)
        for unit, num, den in ((_unit_of(other), a, b), (_unit_of(self), c, d)):
            if unit is not None:
                # a product by 1, -1, i or -i keeps the pair canonical
                return _make(num.mul_ground(unit) if unit != _UNIT else num, den)
        if _is_one(b) and _is_one(d):
            return _make(a * c, b)
        return _reduce(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        divisor = Scalar.of(other)
        if divisor.is_zero:
            raise ZeroDivisionError("division by a scalar that normalizes to zero")
        a, b, c, d = self._pair(divisor)
        return _reduce(a * d, b * c)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n < 0 and self.is_zero:
            raise ZeroDivisionError("negative power of zero scalar")
        if n == 0:
            return ONE
        num, den = (self.num, self.den) if n >= 0 else (self.den, self.num)
        return _make(*_normal_unit(num ** abs(n), den ** abs(n)))

    def __neg__(self) -> "Scalar":
        return _make(-self.num, self.den)

    # -- structure ----------------------------------------------------------

    @property
    def expr(self) -> sp.Expr:
        """The sympy expression num/den, converted once on first use."""
        expr = self.__dict__.get("_expr")
        if expr is None:
            expr = _CORE.as_expr(self.num)
            if not _is_one(self.den):
                expr = expr / _CORE.as_expr(self.den)
                if _constant(self.den) is not None and _constant(self.num) is not None:
                    expr = expr.expand()  # a Gaussian rational, as a + b*I
            object.__setattr__(self, "_expr", expr)
        return expr

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def denominator(self) -> "Scalar":
        """The stored denominator, as a polynomial Scalar."""
        return _make(self.den, self.den.ring.one)

    def free_symbols(self) -> set:
        return set(self._symbols())

    def _symbols(self) -> frozenset:
        found = self.__dict__.get("_free")
        if found is None:
            found = set()
            for i in _used(self.num, self.den):
                atom = _CORE.exponents.get(i)
                found |= atom._symbols() if atom is not None else {_CORE.symbols[i]}
            found = frozenset(found)
            object.__setattr__(self, "_free", found)
        return found

    def diff(self, symbol: sp.Symbol) -> "Scalar":
        """Partial derivative: the quotient rule on the stored pair, and the
        chain rule dE/dz = E * db/dz through every exponential atom."""
        index = _CORE.index.get(symbol)
        if index is None or symbol not in self._symbols():
            return ZERO
        num, den = self._lifted()
        ring = num.ring
        chain = [
            (i, dexp) for i in _used(num, den) if i in _CORE.exponents
            and not (dexp := _CORE.exponents[i].diff(symbol)).is_zero
        ]
        if not chain:
            dnum = num.diff(index)
            if _is_one(den):
                return _make(dnum, den)
            return _reduce(dnum * den - num * den.diff(index), den * den)

        def derivative(poly: PolyElement) -> Scalar:
            out = _make(poly.diff(index), ring.one)
            for i, dexp in chain:
                out = out + _make(poly.diff(i) * ring.gens[i], ring.one) * dexp
            return out

        p, q = _make(num, ring.one), _make(den, ring.one)
        return (derivative(num) * q - p * derivative(den)) / (q * q)

    def subs(self, mapping: Mapping[sp.Symbol, ScalarLike]) -> "Scalar":
        return substitute(self, mapping)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        a, b, c, d = self._pair(Scalar.of(other))
        return a == c and b == d

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((_stripped(self.num), _stripped(self.den)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return "0" if self.is_zero else _print(self.num, self.den)


# What Scalar arithmetic accepts; for anything else (a Form, say) the
# operators return NotImplemented, so Python tries the other operand.
_OPERANDS = (Scalar, int, sp.Expr)


def _stripped(poly: PolyElement) -> frozenset:
    """The terms of poly with trailing zero exponents dropped: the same in
    every ring poly lifts to, so hashes agree across ring growth."""
    out = []
    for monom, coeff in poly.items():
        k = len(monom)
        while k and not monom[k - 1]:
            k -= 1
        out.append((monom[:k], coeff))
    return frozenset(out)


def _used(*polys: PolyElement) -> list:
    """Indices of the generators that occur in any of polys."""
    ring = polys[0].ring
    if not ring.ngens:
        return []
    span = ring.zero_monom
    for poly in polys:
        for monom in poly:
            span = ring.monomial_lcm(span, monom)
    return [i for i, e in enumerate(span) if e]


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
I = _make(_CORE.ring.ground_new(ZZ_I(0, 1)), _CORE.ring.one)


def _accumulate(terms: dict, key, coeff: Scalar) -> None:
    """Add coeff under key.  Scalars are canonical by construction, so a
    coefficient is only moved unless another already sits under its key."""
    if key in terms:
        terms[key] = terms[key] + coeff
    else:
        terms[key] = coeff


def sym(name: str) -> Scalar:
    return Scalar(sp.Symbol(name))


def _convert(value) -> tuple:
    """(num, den) of an expression over the current ring, not yet reduced."""
    if isinstance(value, Scalar):
        return value._lifted()
    expr = sp.sympify(value)
    if expr.is_Symbol:
        _CORE.grow([expr])
        return _CORE.ring.gens[_CORE.index[expr]], _CORE.ring.one
    if expr.has(*_BAD_ATOMS):
        raise ZeroDivisionError(f"scalar normalizes to an undefined value: {expr}")
    # Register every atom and symbol first, so one ring serves the walk.
    atoms = {a: exp_atom(Scalar(a.args[0])) for a in expr.atoms(sp.exp)}
    if expr.has(sp.E):  # sympy evaluates exp(1) to E, which is no exp
        atoms[sp.E] = exp_atom(1)
    _CORE.grow(sorted(expr.free_symbols, key=lambda s: s.name))
    atoms = {a: s._lifted() for a, s in atoms.items()}
    ring = _CORE.ring
    one = ring.one

    def walk(e) -> tuple:
        if e.is_Symbol:
            return ring.gens[_CORE.index[e]], one
        if e.is_Integer:
            return _ground(int(e)), one
        if e.is_Rational:
            return _ground(e.p), _ground(e.q)
        if e is sp.I:
            return ring.ground_new(ZZ_I(0, 1)), one
        if e in atoms:
            return atoms[e]
        if e.is_Add:
            num, den = ring.zero, one
            for arg in e.args:
                n, d = walk(arg)
                if d == den:
                    num = num + n
                else:
                    num, den = num * d + n * den, den * d
            return num, den
        if e.is_Mul:
            num, den = one, one
            for arg in e.args:
                n, d = walk(arg)
                num, den = num * n, den * d
            return num, den
        if e.is_Pow and e.exp.is_Integer:
            n, d = walk(e.base)
            k = int(e.exp)
            if k < 0:
                if not n:
                    raise ZeroDivisionError(f"scalar normalizes to an undefined value: {expr}")
                n, d, k = d, n, -k
            return n**k, d**k
        raise ValueError(f"not an exact rational scalar: {expr}")

    return walk(expr)


def exp_atom(s: ScalarLike) -> Scalar:
    """Exponential exp(s), as a product of integer powers of atoms.

    Each term t of s gives one factor: t = (a/b) * p with p's coefficients
    primitive and sign-normalised, and exp(t) = E**a for the atom E =
    exp(p/b).  Once exp(p/b) is registered, exp(p/c) with c dividing b is
    the power E**(b/c) (exp(y) after exp(y/3) is E**3).  Any other c is
    refused, since its relation to E is not polynomial: exp(y/3) after
    exp(y), or exp(y/3) after exp(y/2).
    """
    s = Scalar.of(s)
    num, den = s._lifted()
    out = ONE
    for monom, coeff in list(num.items()):
        term = _reduce(num.new([(monom, coeff)]), den)
        [(tm, tc)] = term.num.items()
        top = gcd(int(tc.x), int(tc.y))
        if tc.x < 0 or (tc.x == 0 and tc.y < 0):
            top = -top
        bottom = 0
        for c in term.den.values():
            bottom = gcd(bottom, int(c.x), int(c.y))
        power = Fraction(top, bottom)
        direction = _make(
            term.num.new([(tm, _exquo(tc, ZZ_I(top)))]),
            term.den.new([(m, _exquo(c, ZZ_I(bottom))) for m, c in term.den.items()]),
        )
        out = out * _atom(direction, power.denominator) ** power.numerator
    return out


def _atom(direction: Scalar, denominator: int) -> Scalar:
    """exp(direction/denominator) as a power of the one atom registered for
    direction, registering it on first use."""
    known = _CORE.atoms.get(direction)
    if known is None:
        exponent = direction / Scalar.rational(denominator)
        # a Dummy, so the atom is never the generator of a Symbol of that name
        symbol = sp.Dummy(f"exp({exponent})")
        _CORE.grow([symbol])
        index = _CORE.index[symbol]
        _CORE.exponents[index] = exponent
        _CORE.atoms[direction] = known = (denominator, index)
    if known[0] % denominator:
        wanted = direction / Scalar.rational(denominator)
        raise ValueError(
            f"exponential atoms {_CORE.symbols[known[1]].name} and exp({wanted}) "
            "differ by a non-integer factor"
        )
    ring = _CORE.ring
    return _make(ring.gens[known[1]] ** (known[0] // denominator), ring.one)


def substitute(e: ScalarLike, bindings: Mapping[sp.Symbol, ScalarLike]) -> Scalar:
    """Simultaneous substitution on the stored pair.

    All bindings are applied in one pass, so swaps and rescalings like
    r -> lam*r are well defined; nothing is re-substituted afterwards.
    An exponential atom whose exponent holds a bound symbol becomes the
    exponential of the substituted exponent.
    """
    e = Scalar.of(e)
    num, den = e._lifted()
    images = {}
    for i in _used(num, den):
        atom = _CORE.exponents.get(i)
        if atom is None:
            if _CORE.symbols[i] in bindings:
                images[i] = Scalar.of(bindings[_CORE.symbols[i]])
        elif not atom._symbols().isdisjoint(bindings):
            images[i] = exp_atom(substitute(atom, bindings))
    if not images:
        return e
    top, bottom = _evaluate(num, images), _evaluate(den, images)
    if bottom.is_zero:
        raise ZeroDivisionError(f"substitution makes the denominator of {e} vanish")
    return top / bottom


def _evaluate(poly: PolyElement, images: dict) -> Scalar:
    """poly with generator i replaced by images[i], every other kept."""
    ring = _CORE.ring
    poly = _lift(poly)
    bound = sorted(images)
    groups: dict = {}
    for monom, coeff in poly.items():
        key = tuple(monom[i] for i in bound)
        rest = list(monom)
        for i in bound:
            rest[i] = 0
        group = groups.get(key)
        if group is None:
            group = groups[key] = ring.zero
        group[tuple(rest)] = coeff
    powers: dict = {}
    out = ZERO
    for key, rest in groups.items():
        term = _make(rest, ring.one)
        for i, k in zip(bound, key):
            if k:
                if (i, k) not in powers:
                    powers[(i, k)] = images[i] ** k
                term = term * powers[(i, k)]
        out = out + term
    return out


class LaurentError(ValueError):
    """Raised when an expression is not a Laurent polynomial in eta."""


def eta_coefficients(e: ScalarLike) -> dict:
    """{n: coefficient of eta**n} of a Laurent polynomial in eta, in
    ascending order of n.

    The coefficients are nonzero eta-free Scalars; zero gives {}.  The
    denominator must be a monomial in eta times an eta-free part.
    """
    e = Scalar.of(e)
    if e.is_zero:
        return {}
    num, den = e._lifted()
    used = _used(num, den)
    for i in used:
        atom = _CORE.exponents.get(i)
        if atom is not None and ETA in atom._symbols():
            raise LaurentError(f"not a Laurent polynomial in eta: {e}")
    k = _CORE.index.get(ETA)
    if k not in used:
        return {0: e}
    shifts = {m[k] for m in den}
    if len(shifts) != 1:
        raise LaurentError(f"denominator is not a monomial in eta: {e.denominator}")
    [shift] = shifts

    def drop(poly: PolyElement) -> PolyElement:
        return poly.new([(m[:k] + (0,) + m[k + 1:], c) for m, c in poly.items()])

    rest = drop(den)
    parts: dict = {}
    for m, c in num.items():
        parts.setdefault(m[k], []).append((m, c))
    return {n - shift: _reduce(drop(num.new(parts[n])), rest) for n in sorted(parts)}


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _print(num: PolyElement, den: PolyElement) -> str:
    """The text num/den, parenthesising a sum, or a product below the bar."""
    top = _terms(num)
    text = _sum(top)
    if _is_one(den):
        return text
    bottom = _terms(den)
    if len(top) > 1:
        text = f"({text})"
    below = _sum(bottom)
    if len(bottom) > 1 or len(bottom[0][1]) > 1:
        below = f"({below})"
    return f"{text}/{below}"


def _sum(terms: list) -> str:
    out = "".join(f" {'-' if negative else '+'} {'*'.join(factors) or '1'}"
                  for negative, factors in terms)
    return ("-" if terms[0][0] else "") + out[3:]


def _terms(poly: PolyElement) -> list:
    """The terms of poly as (negative?, factor texts), in descending lex
    order; a constant a + b*i is the two terms a and b*i."""
    order = _lex_order(poly.ring)
    out = []
    for monom in sorted(poly, key=lambda m: [m[k] for k in order], reverse=True):
        c = poly[monom]
        gens = [_CORE.symbols[k].name + (f"**{monom[k]}" if monom[k] > 1 else "")
                for k in order if monom[k]]
        parts = [(c.x, 0), (0, c.y)] if not gens and c.x and c.y else [(c.x, c.y)]
        for a, b in parts:
            negative, factors = _coefficient(a, b)
            out.append((negative, factors + gens))
    return out


def _coefficient(a, b) -> tuple:
    """(negative?, factor texts) of the Gaussian integer a + b*i, not zero;
    a factor 1 is left out."""
    negative = a < 0 or (not a and b < 0)
    if negative:
        a, b = -a, -b
    imaginary = ["i"] if abs(b) == 1 else [str(abs(b)), "i"]
    if not b:
        return negative, [] if a == 1 else [str(a)]
    if not a:
        return negative, imaginary
    return negative, [f"({a} {'+' if b > 0 else '-'} {'*'.join(imaginary)})"]
