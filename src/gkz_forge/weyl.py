"""Exact arithmetic in the Weyl algebra of coordinates a1..ap.

Elements are kept in normal order (all ``a`` factors to the left of all
``d`` factors) with exact ``Fraction`` coefficients.  The constructor is the
one normal form: it reads a mapping or ``((u, w), c)`` pairs, sums equal
keys exactly and drops zero sums; sums and products hand it their raw terms.
Multiplication applies ``d_i a_i = a_i d_i + 1`` exactly, so equality of
elements is structural equality of their normal forms.  A scalar operand of
``+``, ``-`` or ``*`` raises TypeError; ``scaled`` and ``constant`` take one.

The canonical text rendering (``a1^2 d1^2 + a1 d1``) is bit-exact: terms in
descending lexicographic order of their exponent keys, coefficients as
reduced fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .errors import VariableMismatch


def _falling(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


class WeylElement:
    """Normal-ordered element of the Weyl algebra in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        clean = {}
        for (u, w), c in terms.items() if hasattr(terms, "items") else terms:
            if len(u) != nvars or len(w) != nvars:
                raise VariableMismatch("term exponent length does not match nvars")
            key, c = (tuple(u), tuple(w)), Fraction(c)
            clean[key] = clean[key] + c if key in clean else c
        self.terms = {key: c for key, c in clean.items() if c}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls.constant(1, nvars)

    @classmethod
    def constant(cls, value, nvars):
        z = (0,) * nvars
        return cls(nvars, {(z, z): value})

    @classmethod
    def coordinate(cls, i, nvars):
        """The multiplication operator a_{i+1} (0-based index)."""
        u = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {(u, (0,) * nvars): Fraction(1)})

    @classmethod
    def partial(cls, i, nvars):
        """The derivation d_{i+1} (0-based index)."""
        w = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {((0,) * nvars, w): Fraction(1)})

    @classmethod
    def monomial(cls, u, w, coeff=Fraction(1)):
        return cls(len(u), {(tuple(u), tuple(w)): coeff})

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise VariableMismatch(
                f"operands act on {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check(other)
        return WeylElement(self.nvars, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, factor):
        return WeylElement(self.nvars, {k: c * factor for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return multiply(self, other)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def order(self):
        """Largest total degree in the derivations over all terms."""
        return max((sum(w) for (_, w) in self.terms), default=0)

    def items(self):
        """Terms in canonical (descending lexicographic) order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def constant_coefficients(self):
        """A copy of the terms, ``(u, w) -> Fraction``."""
        return dict(self.terms)

    # -- rendering ---------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for (u, w), c in self.items():
            mono = []
            for i, e in enumerate(u):
                if e:
                    mono.append(f"a{i + 1}" + (f"^{e}" if e > 1 else ""))
            for i, e in enumerate(w):
                if e:
                    mono.append(f"d{i + 1}" + (f"^{e}" if e > 1 else ""))
            body = " ".join(mono)
            negative = c < 0
            coeff_txt = str(-c if negative else c)
            if body and coeff_txt == "1":
                piece = body
            elif body:
                piece = f"{coeff_txt} {body}"
            else:
                piece = coeff_txt
            if not parts:
                parts.append(f"-{piece}" if negative else piece)
            else:
                parts.append(f"- {piece}" if negative else f"+ {piece}")
        return " ".join(parts)

    def __repr__(self):
        return f"WeylElement({self.render()})"


def multiply(x: WeylElement, y: WeylElement) -> WeylElement:
    """Normal-ordered product, applying d_i a_i = a_i d_i + 1 recursively."""
    x._check(y)
    n = x.nvars

    def products():
        for (u, w), cx in x.terms.items():
            for (up, wp), cy in y.terms.items():
                c = cx * cy
                # d^w a^up = sum_k prod_i C(w_i,k_i) * falling(up_i,k_i) a^(up-k) d^(w-k)
                kranges = [range(min(w[i], up[i]) + 1) for i in range(n)]
                for k in product(*kranges):
                    scale = 1
                    for i in range(n):
                        if k[i]:
                            scale *= comb(w[i], k[i]) * _falling(up[i], k[i])
                    key = (
                        tuple(u[i] + up[i] - k[i] for i in range(n)),
                        tuple(w[i] - k[i] + wp[i] for i in range(n)),
                    )
                    yield key, c * scale

    return WeylElement(n, products())


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    return multiply(x, y) - multiply(y, x)


def fourier_box(ell, nvars=None) -> WeylElement:
    """Box operator of an integer relation vector.

    Splits ``ell`` into its positive and negative parts and returns
    ``d^(ell+) - d^(ell-)``; for the zero vector the two terms cancel, which
    gives the zero operator.
    """
    ell = tuple(int(x) for x in ell)
    n = nvars if nvars is not None else len(ell)
    if len(ell) != n:
        raise VariableMismatch("relation vector length does not match nvars")
    plus = tuple(max(x, 0) for x in ell)
    minus = tuple(max(-x, 0) for x in ell)
    z = (0,) * n
    return WeylElement(n, [((z, plus), 1), ((z, minus), -1)])
