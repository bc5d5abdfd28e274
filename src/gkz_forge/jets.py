"""Truncated polynomial jets in a single deformation parameter ``eps``.

A jet of order ``k`` stores the exact ``Fraction`` coefficients of
``eps^0 .. eps^k`` and forgets everything beyond.  Jets exist only inside
``series.frobenius_basis``, which expands ratios of gamma values at a
deformed exponent in them.  Order 0 jets behave like plain scalars.
"""

from __future__ import annotations

from fractions import Fraction


class Jet:
    """Immutable truncated polynomial ``c0 + c1*eps + ... + ck*eps^k``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = tuple(coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            elif len(coeffs) < order + 1:
                coeffs = coeffs + (Fraction(0),) * (order + 1 - len(coeffs))
        if not coeffs:
            coeffs = (Fraction(0),)
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value, order=0):
        return cls((value,), order)

    # -- basic queries --------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        """Coefficient of ``eps^k`` (0 beyond the stored order)."""
        return self.coeffs[k] if k <= self.order else Fraction(0)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.order)

    def __add__(self, other):
        other = self._lift(other)
        n = max(self.order, other.order)
        return Jet(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n + 1))
        )

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        n = max(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if b != 0:
                    out[i + j] += a * b
        return Jet(out)

    __rmul__ = __mul__

    def over_linear(self, c0, c1):
        """Quotient by ``c0 + c1*eps`` in closed form; requires ``c0 != 0``."""
        out = []
        prev = 0
        for c in self.coeffs:
            prev = (c - c1 * prev) / c0
            out.append(prev)
        return Jet(out)

    def shifted(self, k):
        """Multiply by ``eps^k``, keeping the stored order."""
        if k == 0:
            return self
        return Jet((Fraction(0),) * k + self.coeffs, self.order)

    # -- comparison / display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(other)
        n = max(self.order, other.order)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(n + 1))

    def __hash__(self):
        # normalize away trailing zeros so equal jets hash equally
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return hash(tuple(coeffs))

    def __repr__(self):
        return f"Jet({self.render()})"

    def render(self):
        """Canonical text form, e.g. ``1/2 - 2 eps + eps^2``."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                e = "eps" if k == 1 else f"eps^{k}"
                body = e if mag == 1 else f"{mag} {e}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        if not parts:
            return "0"
        return " ".join(parts)

