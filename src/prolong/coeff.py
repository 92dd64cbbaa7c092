"""Exact scalar arithmetic.

Scalars are rational functions of declared symbols over the Gaussian
rationals, optionally containing exponential atoms exp(s) of degree-0
symbols.  No floating point enters anywhere.

A generator is its text: a symbol's name, an identifier other than
``i`` (the imaginary unit's text), or ``exp(<exponent>)`` for an atom, so
no symbol shares an atom's text or the unit's.  A
Scalar stores a canonical pair ``num/den`` of sparse polynomials, each a
dict ``{monomial: coefficient}`` of nonzero Gaussian integers (immutable
``(x, y)`` pairs standing for x + y*i), a monomial being the sorted tuple
of the ``(generator, exponent)`` pairs it holds, a symbol's exponent a
positive int and an atom's a positive rational.  The two share no
factor, not even a Gaussian-integer content, and the leading coefficient
of ``den`` lies in the first quadrant (its canonical unit), the leading
term taken in lex order over the generators ranked by their text, with
the key sympy's polynomial constructors sort generators by: first the
text without its trailing digits (the single letters x, y, z, then p to
w, then a to o, then any other text in text order), then the
trailing-digit index (``y2`` before ``y10``), then the whole text
(``y1`` before ``y01``).  The pair is unique, so equality compares the
stored pairs.  When ``den`` is a single term, as nearly every
denominator the bundled workloads produce is, reducing needs no
polynomial gcd: dividing out the minimum exponent of each variable and
the content gcd suffices.  Any other ``den`` goes through a polynomial
gcd on dense exponent vectors: the heuristic gcd of Char, Geddes and
Gonnet (1989) over the Gaussian integers, or, when it fails, the
subresultant polynomial remainder sequence (Brown and Traub 1971),
recursive in the variables.

There is one exponential atom E = exp(p) for each direction p, an
exponent whose coefficients are primitive and sign-normalised, and
dE/dz = E * dp/dz.  exp(s) splits into one factor per term of s, each
term r*p with r rational giving the power E**r, so exp(-y5) is the
monomial denominator 1/E, and exp(y5), exp(2*y5) and exp(y5/3) are
powers of one generator, whatever order they appear in.  The polynomial
gcd reads an atom's powers as the integer powers of E**(1/L), L the lcm
of their denominators; substituting F**L for E maps gcds to gcds, so
that is exact.

Every derivative is the one derivation :func:`derive`, given the image
of each symbol, a polynomial.  On the stored pair it takes n/d to
(D(n)*d - n*D(d))/d**2 with one reduction, or to D(n)/d when D(d) is 0;
the power E**r of an atom exp(p) gives r * E**r * D(p), over the product
of the denominators of the D(p), and when d and that product are 1, D(n)
needs no reduction.  ``Scalar.diff`` takes its symbol to 1, a total
derivative of :mod:`prolong.jets` each jet symbol to the next.

The one table maps an atom's text to its exponent p.  It caches a pure
function of its key, since ``str`` is injective on canonical Scalars, so
no value or order depends on what it holds.  The generator order is the
sort key of each text, which ends with the text itself, so no two texts
tie.

A Scalar prints its stored pair itself, with exact comparisons only:
``str`` writes the terms of ``num``, then of ``den``, in descending lex
order over the generator order that fixes the canonical unit, each a
Gaussian-integer coefficient ``a``, ``b*i`` or ``(a + b*i)`` times the
generators' texts (the power E**r of the atom exp(p) as ``exp(p)**r``
for an integer r, else as ``exp(<r*p>)``), as ``num/den`` with
parentheses only where a sum or a product needs them (see the printing
section).  The model reader reads the text back to the same Scalar.
Reports, error messages and ``repr`` all use that one text.

Scalar is the one scalar type: a spectral-family coefficient is a Scalar
too, and :func:`eta_coefficients` reads it as a Laurent polynomial in the
spectral parameter eta.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add
from typing import Mapping, Union

from .record import Record

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
    "derive",
    "substitute",
    "is_constant_multiple",
]

ETA = "eta"

ScalarLike = Union["Scalar", int]


class _Gaussian(namedtuple("_Gaussian", "x y")):
    """The Gaussian integer x + y*i, x and y Python ints.  A tuple, so it
    is immutable and hashes and compares by value; only the ring
    operations are its own."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self[0] or self[1])

    def __neg__(self) -> "_Gaussian":
        return _new(_Gaussian, (-self[0], -self[1]))

    def __add__(self, other: "_Gaussian") -> "_Gaussian":
        return _new(_Gaussian, (self[0] + other[0], self[1] + other[1]))

    def __sub__(self, other: "_Gaussian") -> "_Gaussian":
        return _new(_Gaussian, (self[0] - other[0], self[1] - other[1]))

    def __mul__(self, other: "_Gaussian") -> "_Gaussian":
        a, b = self
        c, d = other
        return _new(_Gaussian, (a * c - b * d, a * d + b * c))

    __rmul__ = __mul__  # an int times a Gaussian raises instead of repeating the tuple

    def __pow__(self, k: int) -> "_Gaussian":
        if k < 2:
            return self if k else _UNIT
        half = self ** (k // 2)  # by squaring, so a large k costs about log(k) products
        return half * half * self if k & 1 else half * half


_new = tuple.__new__
_UNIT = _Gaussian(1, 0)
_ONE = {(): _UNIT}  # the polynomial 1

# The rank of a one-letter text in sympy's generator order; any other text
# ranks after them.
_LETTERS = {letter: k for k, letter in enumerate("xyzpqrstuvwabcdefghijklmno")}
_INDEXED = re.compile(r"(.*?)(\d*)")


def _generator_key(text: str) -> tuple:
    """The key sympy's ``_sort_gens`` sorts a generator of this text by,
    then the text itself."""
    name, index = _INDEXED.fullmatch(text).groups()
    return _LETTERS.get(name, len(_LETTERS)), name, int(index or 0), text


# atom text -> its exponent p, the direction of the atom exp(p)
_EXPONENTS: dict = {}


# -- sparse polynomials ------------------------------------------------------


def _ground(value: int) -> dict:
    return {(): _Gaussian(int(value), 0)} if value else {}


def _is_one(poly: dict) -> bool:
    return poly == _ONE


def _used(*polys: dict) -> set:
    """The generators that occur in any of polys."""
    return {g for poly in polys for monom in poly for g, _ in monom}


def _scaled(poly: dict, c) -> dict:
    return {m: a * c for m, a in poly.items()}


def _negated(poly: dict) -> dict:
    return {m: -c for m, c in poly.items()}


def _plus(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        total = out.get(m)
        if total is None:
            out[m] = c
        elif total + c:
            out[m] = total + c
        else:
            del out[m]
    return out


def _monomial_product(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    exponents = dict(a)
    for g, e in b:
        exponents[g] = exponents.get(g, 0) + e
    return tuple(sorted(exponents.items()))


def _times(p: dict, q: dict, product=_monomial_product) -> dict:
    out: dict = {}
    for m, a in p.items():
        for n, b in q.items():
            k = product(m, n)
            out[k] = out[k] + a * b if k in out else a * b
    return {m: c for m, c in out.items() if c}


def _power(poly: dict, k: int) -> dict:
    if len(poly) == 1:
        [(m, c)] = poly.items()
        return {tuple((g, e * k) for g, e in m): c**k}
    out = _ONE
    for _ in range(k):
        out = _times(out, poly)
    return out


def _derivative(poly: dict, images: dict) -> dict:
    """D(poly), D the derivation taking symbol g to the polynomial images[g]."""
    out: dict = {}
    for m, c in poly.items():
        for k, (g, e) in enumerate(m):
            image = images.get(g)
            if image is not None:
                rest = m[:k] + (((g, e - 1),) if e > 1 else ()) + m[k + 1:]
                for n, d in image.num.items():
                    key, value = _monomial_product(rest, n), _Gaussian(c.x * e, c.y * e) * d
                    out[key] = out[key] + value if key in out else value
    return {m: c for m, c in out.items() if c}


def _quotient(monom: tuple, divisor: tuple) -> tuple:
    """monom divided by a monomial that divides it."""
    less = dict(divisor)
    return tuple((g, e - less.get(g, 0)) for g, e in monom if e != less.get(g, 0))


def _order(*polys: dict) -> list:
    """The generators of polys, greatest first in lex order: the order
    that fixes the canonical unit and the printed order."""
    return sorted(_used(*polys), key=_generator_key)


def _exponents(monom: tuple, gens: list) -> list:
    """The exponent of each of gens in monom."""
    held = dict(monom)
    return [held.get(g, 0) for g in gens]


# -- canonical pairs ---------------------------------------------------------


def _is_unit(c) -> bool:
    return c.x * c.x + c.y * c.y == 1


def _gcd(a, b):
    """Gaussian-integer gcd, up to a unit: Euclid's algorithm with the
    nearest quotient, or the integer gcd when both are real."""
    if not a.y and not b.y:
        return _Gaussian(gcd(a.x, b.x), 0)
    while b:
        norm = b.x * b.x + b.y * b.y
        x, y = a * _Gaussian(b.x, -b.y)
        a, b = b, a - b * _Gaussian((2 * x + norm) // (2 * norm), (2 * y + norm) // (2 * norm))
    return a


def _gcd_of(values, c=_Gaussian(0, 0)):
    """The gcd of c and values, up to a unit, folded until it is a unit."""
    for v in values:
        if _is_unit(c):
            break
        c = _gcd(c, v)
    return c


def _exquo(a, b):
    """a/b when the Gaussian integer b divides a, else None."""
    if b.y:
        norm = b.x * b.x + b.y * b.y
        a, b = a * _Gaussian(b.x, -b.y), _Gaussian(norm, 0)
    (x, r), (y, s) = divmod(a.x, b.x), divmod(a.y, b.x)
    return None if r or s else _new(_Gaussian, (x, y))


def _canonical_unit(c):
    """The unit u that puts u*c in the first quadrant: x > 0 and y >= 0."""
    x, y = c
    if y > 0:
        return _UNIT if x > 0 else _Gaussian(0, -1)
    if y < 0:
        return _Gaussian(-1, 0) if x < 0 else _Gaussian(0, 1)
    return _UNIT if x >= 0 else _Gaussian(-1, 0)


def _leading_coeff(den: dict):
    if len(den) == 1:
        return next(iter(den.values()))
    order = _order(den)
    return den[max(den, key=lambda m: _exponents(m, order))]


def _normal_unit(num: dict, den: dict) -> tuple:
    unit = _canonical_unit(_leading_coeff(den))
    if unit == _UNIT:
        return num, den
    return _scaled(num, unit), _scaled(den, unit)


def _reduce(num: dict, den: dict) -> "Scalar":
    """The canonical Scalar of num/den (den nonzero)."""
    if not den:
        raise ZeroDivisionError("division by a scalar that normalizes to zero")
    if not num:
        return _make(num, _ONE)
    if len(den) == 1:
        [(dm, dc)] = den.items()
        common = dm
        for m in num:
            if not common:
                break
            held = dict(m)
            common = tuple((g, min(e, held[g])) for g, e in common if g in held)
        content = _gcd_of(num.values(), dc)
        if common or not _is_unit(content):
            num = {_quotient(m, common): _exquo(c, content) for m, c in num.items()}
            den = {_quotient(dm, common): _exquo(dc, content)}
    else:
        num, den = _cofactors(num, den)
    return _make(*_normal_unit(num, den))


# -- polynomial gcd ----------------------------------------------------------
#
# On dense polynomials: dicts {exponent vector: coefficient}, every vector
# over one list of generators, so tuple order is lex order.


def _cofactors(num: dict, den: dict) -> tuple:
    """num and den divided by their gcd, up to a unit (den has more than
    one term): the heuristic gcd, or the subresultant remainder sequence
    when the heuristic fails."""
    gens = sorted(_used(num, den))
    # an atom's rational powers as the integer powers of E**(1/L), L the
    # lcm of their denominators
    scales = [lcm(*{e.denominator for m in (*num, *den) for h, e in m if h == x}) for x in gens]

    def dense(poly: dict) -> dict:
        return {tuple(int(e * L) for e, L in zip(_exponents(m, gens), scales)): c
                for m, c in poly.items()}

    def sparse(poly: dict) -> dict:
        return {tuple((x, e // L if e % L == 0 else Fraction(e, L))
                      for x, e, L in zip(gens, m, scales) if e): c for m, c in poly.items()}

    f, g = dense(num), dense(den)
    found = _heugcd(f, g)
    if found is None:
        h = _prs_gcd(f, g)
        found = h, _poly_quotient(f, h), _poly_quotient(g, h)
    return sparse(found[1]), sparse(found[2])


def _add_exponents(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _poly_quotient(f: dict, h: dict) -> dict | None:
    """f/h when h divides f, else None, by division in lex order.  A
    quotient term whose degree in some variable exceeds f's less h's
    shows that h does not divide f."""
    lead = max(h)
    room = [a - b for a, b in zip(_degrees(f), _degrees(h))]
    rest, out = dict(f), {}
    while rest:
        top = max(rest)
        m = tuple(a - b for a, b in zip(top, lead))
        c = all(0 <= e <= r for e, r in zip(m, room)) and _exquo(rest[top], h[lead])
        if not c:
            return None
        out[m] = c
        for n, b in h.items():  # rest -= c x^m h, in place
            k, cb = _add_exponents(m, n), c * b
            if k not in rest:
                rest[k] = -cb
            elif left := rest[k] - cb:
                rest[k] = left
            else:
                del rest[k]
    return out


def _degrees(f: dict) -> list:
    """f's degree in each variable."""
    return [max(column) for column in zip(*f)]


def _heugcd(f: dict, g: dict):
    """(h, f/h, g/h) for h a gcd of the nonzero polynomials f and g over
    the Gaussian integers, or None when the heuristic fails.

    GCDHEU (Char, Geddes and Gonnet 1989): with the shared content out, set
    the first variable to an integer X, take the gcd G of the images
    recursively, and read the balanced base-X digits of G's real and
    imaginary parts back as P, so P(X) = G.  The first candidate to divide f
    and g is kept: P over its content c, then f and g over the polynomials
    read back from f(X)/G and g(X)/G (c = 1).  Six growing points X are
    tried.

    Why it is a gcd.  Let F be f's leading coefficient in the later
    variables (lex), a polynomial in the first, and R an integer at least
    the largest modulus of F's coefficients over its leading one's, so F's
    roots have modulus below 1 + R (Cauchy); f is the one of f and g with
    the smaller R, and X >= 4*R + 4.  A gcd d of f and g is primitive,
    their shared content being out, and h divides it: d = h*k.  d(X)
    divides G = c*h(X), so k(X) divides c: a constant, with |k(X)| <= |c|
    <= X/sqrt(2), as c divides a digit, whose parts are at most X/2.  A
    later variable in k would make its leading coefficient in them, a
    divisor of F, vanish at X, as k(X) is constant; but X > 1 + R.  So k
    divides F, and if it is not constant, |k(X)| >= prod |X - a| over its
    roots a, each factor above X - 1 - R >= 3*X/4 > X/sqrt(2).  So k is a
    constant, a unit as d is primitive.  Only moduli enter, so this holds
    over Z and Z[i] alike; where c = 1 it needs only |k(X)| = 1.
    """
    common = _gcd_of((*f.values(), *g.values()))
    f = {m: _exquo(c, common) for m, c in f.items()}
    g = {m: _exquo(c, common) for m, c in g.items()}
    if not next(iter(f)):  # no variable left: the content is the gcd
        return {(): common}, f, g

    def root_bound(p: dict) -> int:
        """R for p, by |x| + |y| >= |x + y*i| >= max(|x|, |y|)."""
        top = max(m[1:] for m in p)
        part = [c for m, c in sorted(p.items()) if m[1:] == top]  # the leading coefficient last
        return max(abs(c.x) + abs(c.y) for c in part) // max(abs(part[-1].x), abs(part[-1].y)) + 1

    bound = 2 * min(max(abs(c.x) + abs(c.y) for c in p.values()) for p in (f, g)) + 29
    x = max(min(bound, 99 * isqrt(bound)), 4 * min(root_bound(f), root_bound(g)) + 4)

    def divides(h: dict | None):
        p = h and _poly_quotient(f, h)
        q = p and _poly_quotient(g, h)
        return q and (_scaled(h, common), p, q)

    for _ in range(6):
        ff, gg = _evaluate_first(f, x), _evaluate_first(g, x)
        if ff and gg:
            images = _heugcd(ff, gg)
            if images is None:
                return None
            h, cff, cfg = images
            h = _interpolate(h, x)
            content = _gcd_of(h.values())
            found = (divides({m: _exquo(c, content) for m, c in h.items()})
                     or divides(_poly_quotient(f, _interpolate(cff, x)))
                     or divides(_poly_quotient(g, _interpolate(cfg, x))))
            if found:
                return found
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _evaluate_first(f: dict, x: int) -> dict:
    """f with its first variable set to x, over the other variables."""
    out: dict = {}
    for m, c in f.items():
        scale = x ** m[0]
        value = _new(_Gaussian, (c.x * scale, c.y * scale))
        out[m[1:]] = out[m[1:]] + value if m[1:] in out else value
    return {m: c for m, c in out.items() if c}


def _interpolate(h: dict, x: int) -> dict:
    """The polynomial in a new first variable whose coefficient of its
    i-th power has the i-th balanced base-x digits of h's real and
    imaginary parts as its own."""
    out, half = {}, x // 2
    for m, c in h.items():
        i = 0
        while c:
            # c = q*x + d with -x/2 <= d < x/2 in each part
            (qx, dx), (qy, dy) = divmod(c.x + half, x), divmod(c.y + half, x)
            if dx != half or dy != half:
                out[(i, *m)] = _new(_Gaussian, (dx - half, dy - half))
            c, i = _new(_Gaussian, (qx, qy)), i + 1
    return out


def _prs_gcd(f: dict, g: dict) -> dict:
    """The gcd of the nonzero polynomials f and g, up to a unit: the
    subresultant polynomial remainder sequence (Brown and Traub 1971) in
    one variable, the gcd of the contents found recursively in the
    others."""
    while True:
        if len(g) == 1:
            f, g = g, f
        if len(f) == 1:
            # the gcd with one term: the gcd of the coefficients times the
            # least power of each variable
            [(m, c)] = f.items()
            return {tuple(map(min, m, *g)): _gcd_of(g.values(), c)}
        vf, vg = _variables(f), _variables(g)
        if vf == vg:
            break
        # a variable in only one of f and g is not in their gcd
        for j in vf - vg:
            f = _content(f, j)
        for j in vg - vf:
            g = _content(g, j)
    df, dg = _degrees(f), _degrees(g)
    j = min(vf, key=lambda j: max(df[j], dg[j]))
    cf, cg = _content(f, j), _content(g, j)
    common = _prs_gcd(cf, cg)
    f, g = _poly_quotient(f, cf), _poly_quotient(g, cg)
    if _degrees(f)[j] < _degrees(g)[j]:
        f, g = g, f
    # The subresultant remainder sequence of the primitive f and g: each
    # pseudo-remainder divided exactly by a factor known in advance keeps
    # the coefficients small without a content gcd at every step.  The
    # last nonzero member is a multiple of the gcd.
    m = _degrees(g)[j]
    d = _degrees(f)[j] - m
    h = _pseudo_remainder(f, g, j)
    h = h if d % 2 else _negated(h)
    lead = _part(g, j, m, 0)
    c = _negated(_dense_power(lead, d))
    while h:
        k = _degrees(h)[j]
        if not k:
            return common
        f, g, m, d = g, h, k, m - k
        b = _negated(_times(lead, _dense_power(c, d), _add_exponents))
        h = _poly_quotient(_pseudo_remainder(f, g, j), b)
        lead = _part(g, j, m, 0)
        c = (_poly_quotient(_dense_power(_negated(lead), d), _dense_power(c, d - 1))
             if d > 1 else _negated(lead))
    return _times(common, _poly_quotient(g, _content(g, j)), _add_exponents)


def _variables(f: dict) -> set:
    """The positions of the variables that occur in f."""
    return {j for m in f for j, e in enumerate(m) if e}


def _part(f: dict, j: int, k: int, to: int) -> dict:
    """The coefficient of the k-th power of variable j in f, times that
    variable to the power to."""
    return {m[:j] + (to,) + m[j + 1:]: c for m, c in f.items() if m[j] == k}


def _content(f: dict, j: int) -> dict:
    """The gcd of f's coefficients as a polynomial in variable j."""
    # smallest first, so that the gcd shrinks early
    return reduce(_prs_gcd, sorted((_part(f, j, k, 0) for k in {m[j] for m in f}), key=len))


def _pseudo_remainder(f: dict, g: dict, j: int) -> dict:
    """The remainder of lc(g)**(deg f - deg g + 1) * f by g, as polynomials
    in variable j."""
    d = _degrees(g)[j]
    lead = _part(g, j, d, 0)
    steps = _degrees(f)[j] - d + 1
    while f and (k := _degrees(f)[j]) >= d:
        top = _part(f, j, k, k - d)
        f = _plus(_times(lead, f, _add_exponents), _negated(_times(top, g, _add_exponents)))
        steps -= 1
    return _times(f, _dense_power(lead, steps), _add_exponents)


def _dense_power(f: dict, k: int) -> dict:
    out = {tuple(0 for _ in next(iter(f))): _UNIT}
    for _ in range(k):
        out = _times(out, f, _add_exponents)
    return out


def _make(num: dict, den: dict) -> "Scalar":
    s = object.__new__(Scalar)
    object.__setattr__(s, "num", num)
    object.__setattr__(s, "den", den)
    return s


def _unit_of(s: "Scalar"):
    """The ground unit s equals (1, -1, i or -i), else None."""
    if len(s.num) == 1 and _is_one(s.den):
        c = s.num.get(())
        if c is not None and _is_unit(c):
            return c
    return None


class Scalar(Record):
    """Immutable exact coefficient, stored as a canonical pair num/den.

    ``Scalar(value)`` takes an int, or a Scalar, which it returns as it
    is; arithmetic stays on the stored pair.  A name is not an
    expression: :func:`sym` gives the Scalar of a symbol, and the model
    reader reads expressions.
    """

    # _free and _hash cache the free symbols and the hash once asked for
    __slots__ = ("num", "den", "_free", "_hash")
    # __new__ returns the finished value
    __init__ = object.__init__

    # -- construction -----------------------------------------------------

    def __new__(cls, value: ScalarLike) -> "Scalar":
        found = _operand(value)
        if found is not None:
            return found
        if isinstance(value, str):
            raise TypeError(f"a Scalar is not read from text: sym({value!r}) is the symbol "
                            "of that name, and the model reader reads expressions")
        raise TypeError(f"a Scalar is made from an int or a Scalar, not {value!r}")

    @staticmethod
    def rational(p: int, q: int = 1) -> "Scalar":
        return _reduce(_ground(p), _ground(q))

    # -- ring operations ---------------------------------------------------

    def _add(self, other: "Scalar", sign: int) -> "Scalar":
        a, b, c, d = self.num, self.den, other.num, other.den
        if sign < 0:
            c = _negated(c)
        # a/b + c stays coprime to b, so only a shared or a product
        # denominator needs reducing
        if _is_one(d):
            return _make(_plus(a, _times(c, b)) if not _is_one(b) else _plus(a, c), b)
        if _is_one(b):
            return _make(_plus(_times(a, d), c), d)
        if b == d:
            return _reduce(_plus(a, c), b)
        return _reduce(_plus(_times(a, d), _times(c, b)), _times(b, d))

    def __add__(self, other: ScalarLike) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other._add(self, -1)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        unit, s = _unit_of(other), self
        if unit is None:  # self is probed only when other is not a unit
            unit, s = _unit_of(self), other
        if unit is not None:
            # a product by 1, -1, i or -i keeps the pair canonical
            return _make(_scaled(s.num, unit) if unit != _UNIT else s.num, s.den)
        if _is_one(self.den) and _is_one(other.den):
            return _make(_times(self.num, other.num), _ONE)
        return _reduce(_times(self.num, other.num), _times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        divisor = _operand(other)
        if divisor is None:
            return NotImplemented
        if divisor.is_zero:
            raise ZeroDivisionError("division by a scalar that normalizes to zero")
        return _reduce(_times(self.num, divisor.den), _times(self.den, divisor.num))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n < 0 and self.is_zero:
            raise ZeroDivisionError("negative power of zero scalar")
        if n == 0:
            return ONE
        num, den = (self.num, self.den) if n >= 0 else (self.den, self.num)
        return _make(*_normal_unit(_power(num, abs(n)), _power(den, abs(n))))

    def __neg__(self) -> "Scalar":
        return _make(_negated(self.num), self.den)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def denominator(self) -> "Scalar":
        """The stored denominator, as a polynomial Scalar."""
        return _make(self.den, _ONE)

    def free_symbols(self) -> frozenset:
        """The names of the symbols this depends on, inside atoms too."""
        found = getattr(self, "_free", None)
        if found is None:
            found = set()
            for g in _used(self.num, self.den):
                exponent = _EXPONENTS.get(g)
                found |= exponent.free_symbols() if exponent is not None else {g}
            found = frozenset(found)
            object.__setattr__(self, "_free", found)
        return found

    def diff(self, name: str) -> "Scalar":
        """Partial derivative by the symbol name: the derivation that takes
        name to 1 (see :func:`derive`)."""
        if not isinstance(name, str):
            raise TypeError(f"diff takes a symbol's name, not {name!r}")
        if name not in self.free_symbols():
            return ZERO
        return derive(self, {name: ONE})

    def __eq__(self, other) -> bool:
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            num = self.num
            if _is_one(self.den) and num.keys() <= {()} and not num.get((), _UNIT).y:
                # an integer hashes as the int it equals
                h = hash(num[()].x if num else 0)
            else:
                h = hash((frozenset(num.items()), frozenset(self.den.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return "0" if self.is_zero else _print(self.num, self.den)


def _operand(value) -> Scalar | None:
    """value as a Scalar, for a Scalar or an int.  For anything else (a
    Form, say) the operators return NotImplemented, so Python tries the
    other operand."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return _make(_ground(value), _ONE)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = _make({(): _Gaussian(0, 1)}, _ONE)


def sym(name: str) -> Scalar:
    """The Scalar of the symbol named name, an identifier other than i,
    which is the imaginary unit's text."""
    if not (isinstance(name, str) and name.isidentifier()) or name == "i":
        raise ValueError(f"a symbol's name is an identifier other than i, not {name!r}")
    return _make({((name, 1),): _UNIT}, _ONE)


def exp_atom(s: ScalarLike) -> Scalar:
    """Exponential exp(s), as a product of rational powers of atoms.

    Each term t of s gives one factor: t = r * p with r rational and p's
    coefficients primitive and sign-normalised, and exp(t) = E**r for the
    atom E = exp(p), so exp(y/3) is E**(1/3) and exp(y) is E, whichever
    comes first.
    """
    s = Scalar(s)
    out = ONE
    for monom, coeff in s.num.items():
        term = _reduce({monom: coeff}, s.den)
        [(tm, tc)] = term.num.items()
        top = gcd(tc.x, tc.y)
        if tc.x < 0 or (tc.x == 0 and tc.y < 0):
            top = -top
        bottom = 0
        for c in term.den.values():
            bottom = gcd(bottom, c.x, c.y)
        direction = _make(
            {tm: _exquo(tc, _Gaussian(top, 0))},
            {m: _exquo(c, _Gaussian(bottom, 0)) for m, c in term.den.items()},
        )
        text = f"exp({direction})"
        _EXPONENTS.setdefault(text, direction)
        power = Fraction(top, bottom)
        root = Fraction(1, power.denominator) if power.denominator > 1 else 1
        out = out * _make({((text, root),): _UNIT}, _ONE) ** power.numerator
    return out


def derive(e: ScalarLike, images: Mapping[str, ScalarLike]) -> Scalar:
    """D(e) for the derivation D that takes each symbol named in images to
    its image, a polynomial, and every other symbol to 0: the one pass over
    the stored pair that the module docstring describes."""
    images = {g: Scalar(v) for g, v in images.items()}
    if not all(_is_one(v.den) for v in images.values()):
        raise ValueError(f"a derivation takes symbols to polynomials: {images}")
    e = Scalar(e)
    num, den = e.num, e.den
    # (atom exp(p), lcm L of the denominators of its powers, a) with
    # a/bottom = D(p)/L, bottom the product of those denominators
    chain, bottom = [], _ONE
    for g in _used(num, den):
        exponent = _EXPONENTS.get(g)
        if exponent is not None and not exponent.free_symbols().isdisjoint(images):
            dp = derive(exponent, images)
            scale = lcm(*{r.denominator for m in (*num, *den) for h, r in m if h == g})
            b = _scaled(dp.den, _Gaussian(scale, 0))
            chain = [(h, k, _times(a, b)) for h, k, a in chain] + [(g, scale, _times(dp.num, bottom))]
            bottom = _times(bottom, b)

    def derivative(poly: dict) -> dict:
        """bottom * D(poly), an atom's power r in a term adding r*L * term * a."""
        out = _derivative(poly, images)
        out = out if _is_one(bottom) else _times(out, bottom)
        for g, scale, a in chain:
            out = _plus(out, _times({m: _Gaussian(c.x * k, c.y * k) for m, c in poly.items()
                                     if (k := int(dict(m).get(g, 0) * scale))}, a))
        return out

    top, slope = derivative(num), derivative(den)
    if not slope:
        return _make(top, _ONE) if _is_one(den) and _is_one(bottom) else _reduce(top, _times(bottom, den))
    return _reduce(_plus(_times(top, den), _negated(_times(num, slope))), _times(bottom, _times(den, den)))


def substitute(e: ScalarLike, bindings: Mapping[str, ScalarLike]) -> Scalar:
    """Simultaneous substitution on the stored pair, bindings keyed by
    symbol name.

    All bindings are applied in one pass, so swaps and rescalings like
    r -> lam*r are well defined; nothing is re-substituted afterwards.
    The power E**r of an exponential atom E = exp(p) whose exponent holds
    a bound symbol becomes exp(r * p'), p' the substituted exponent.
    """
    if not all(isinstance(name, str) for name in bindings):
        raise TypeError(f"substitute binds symbols by name: {list(bindings)}")
    e = Scalar(e)
    images = {}
    for g in _used(e.num, e.den):
        exponent = _EXPONENTS.get(g)
        if exponent is None:
            if g in bindings:
                images[g] = Scalar(bindings[g])
        elif not exponent.free_symbols().isdisjoint(bindings):
            images[g] = substitute(exponent, bindings)
    if not images:
        return e
    top, bottom = _evaluate(e.num, images), _evaluate(e.den, images)
    if bottom.is_zero:
        raise ZeroDivisionError(f"substitution makes the denominator of {e} vanish")
    return top / bottom


def _evaluate(poly: dict, images: dict) -> Scalar:
    """poly with symbol g replaced by images[g], and the power E**r of an
    atom g by exp(r * images[g]); every other generator kept."""
    groups: dict = {}
    for monom, coeff in poly.items():
        bound = tuple((g, e) for g, e in monom if g in images)
        rest = tuple((g, e) for g, e in monom if g not in images)
        groups.setdefault(bound, {})[rest] = coeff
    powers: dict = {}
    out = ZERO
    for bound, rest in groups.items():
        term = _make(rest, _ONE)
        for g, k in bound:
            if (g, k) not in powers:
                image = images[g]
                powers[(g, k)] = (image**k if g not in _EXPONENTS
                                  else exp_atom(image * Scalar.rational(k.numerator, k.denominator)))
            term = term * powers[(g, k)]
        out = out + term
    return out


def is_constant_multiple(a: Scalar, b: Scalar) -> bool:
    """True when a/b is a nonzero constant, decided without a gcd: a/b = P/Q for
    P = num(a)*den(b), Q = num(b)*den(a), and over the exponentials of constants
    P/Q can only be P_m/Q_m for a monomial m of Q, which it is when Q_m*P == P_m*Q."""
    if a.is_zero or b.is_zero:
        return False
    p, q = _times(a.num, b.den), _times(b.num, a.den)
    fixed = {g for g in _used(p, q) if g in _EXPONENTS and not _EXPONENTS[g].free_symbols()}

    def at(poly: dict, m: tuple) -> dict:
        return {tuple(f for f in n if f[0] in fixed): c for n, c in poly.items()
                if tuple(f for f in n if f[0] not in fixed) == m}

    m = tuple(f for f in next(iter(q)) if f[0] not in fixed)
    return _times(at(q, m), p) == _times(at(p, m), q)


class LaurentError(ValueError):
    """Raised when an expression is not a Laurent polynomial in eta."""


def eta_coefficients(e: ScalarLike) -> dict:
    """{n: coefficient of eta**n} of a Laurent polynomial in eta, in
    ascending order of n.

    The coefficients are nonzero eta-free Scalars; zero gives {}.  The
    denominator must be a monomial in eta times an eta-free part.
    """
    e = Scalar(e)
    if e.is_zero:
        return {}
    used = _used(e.num, e.den)
    for g in used:
        exponent = _EXPONENTS.get(g)
        if exponent is not None and ETA in exponent.free_symbols():
            raise LaurentError(f"not a Laurent polynomial in eta: {e}")
    if ETA not in used:
        return {0: e}

    def split(monom: tuple) -> tuple:
        """(the power of eta in monom, the rest of monom)."""
        held = dict(monom)
        return held.pop(ETA, 0), tuple(held.items())

    shifts = {split(m)[0] for m in e.den}
    if len(shifts) != 1:
        raise LaurentError(f"denominator is not a monomial in eta: {e.denominator}")
    [shift] = shifts
    rest = {split(m)[1]: c for m, c in e.den.items()}
    parts: dict = {}
    for m, c in e.num.items():
        k, r = split(m)
        parts.setdefault(k, {})[r] = c
    return {n - shift: _reduce(parts[n], rest) for n in sorted(parts)}


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _print(num: dict, den: dict) -> str:
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


def _terms(poly: dict) -> list:
    """The terms of poly as (negative?, factor texts), in descending lex
    order; a constant a + b*i is the two terms a and b*i."""
    order = _order(poly)
    out = []
    for monom in sorted(poly, key=lambda m: _exponents(m, order), reverse=True):
        c = poly[monom]
        held = dict(monom)
        gens = [_power_text(g, held[g]) for g in order if g in held]
        parts = [(c.x, 0), (0, c.y)] if not gens and c.x and c.y else [(c.x, c.y)]
        for a, b in parts:
            negative, factors = _coefficient(a, b)
            out.append((negative, factors + gens))
    return out


def _power_text(g: str, e) -> str:
    """The text of the generator g to the power e: ``g``, ``g**k``, or
    ``exp(<r*p>)`` for a non-integer power r of the atom exp(p)."""
    if e.denominator != 1:
        return f"exp({_EXPONENTS[g] * Scalar.rational(e.numerator, e.denominator)})"
    return g if e == 1 else f"{g}**{e}"


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
