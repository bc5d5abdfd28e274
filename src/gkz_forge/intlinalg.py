"""Exact integer and rational linear algebra on plain ints and Fractions,
organized as tuples of row tuples.

The row Hermite normal form is the one elimination, with no Gauss-Jordan
beside it: ranks count its nonzero rows, the one rational solver (which also
gives the exact finite-difference stencil weights) back-substitutes down it,
saturated kernels are read from the Hermite form of ``[A^T | I]``, and
``lattice`` reads determinants (the product of its pivots) from it.
Rational rows are scaled to integer rows first.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _integral(rows):
    """The rows as integer lists, each scaled by the lcm of its denominators."""
    out = []
    for r in rows:
        d = math.lcm(*(x.denominator for x in r))
        out.append([x.numerator * (d // x.denominator) for x in r])
    return out


def rank(rows):
    """Rank of an integer (or rational) matrix ``M``, exactly: that of the
    Gram matrix ``M M^T`` (``M^T M`` for a tall ``M``), as ``x . M M^T x =
    |M^T x|^2``, which keeps the wide big-int rows of ``count_independent``
    down to a small square Hermite form."""
    a = _integral(rows)
    if a and len(a) > len(a[0]):
        a = list(zip(*a))
    gram = [[sum(map(operator.mul, r, s)) for s in a] for r in a]
    return sum(1 for r in hermite_form(gram) if any(r))


def hermite_form(rows):
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, zero rows sink to the bottom.  A row below a pivot is
    cleared in one unimodular step with the pivot row (an extended gcd), not
    by a Euclidean run of row subtractions, which big entries make long.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, m):
            p, b = a[row][col], a[i][col]
            if b:
                g = math.gcd(p, b)
                u, v = p // g, b // g
                s = pow(u, -1, abs(v))
                t = (1 - s * u) // v  # s p + t b = g, and s u + t v = 1
                top, low = a[row], a[i]
                a[row] = [s * x + t * y for x, y in zip(top, low)]
                a[i] = [u * y - v * x for x, y in zip(top, low)]
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
        for i in range(row):
            q = a[i][col] // a[row][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[row])]
        row += 1
        if row == m:
            break
    return tuple(tuple(r) for r in a)


def kernel_basis(rows):
    """Basis of the saturated integer kernel ``{x : rows @ x = 0}``.

    The rows of the Hermite form of ``[rows^T | I]`` whose first part
    vanishes carry, in the identity part, a basis of the kernel lattice that
    is already its Hermite form (first nonzero entry of every vector positive).
    """
    m = len(rows)
    t = list(zip(*_integral(rows)))  # transpose: p x m
    h = hermite_form([list(c) + [int(i == j) for j in range(len(t))] for i, c in enumerate(t)])
    return tuple(r[m:] for r in h if not any(r[:m]))


def solve_rational(rows, rhs):
    """One rational solution of ``rows @ x = rhs`` or None.

    Back substitution down the Hermite form of the augmented rows, with free
    variables pinned to zero; its pivot columns are those of Gauss-Jordan,
    so this is the Gauss-Jordan solution.  Raises ValueError unless there is
    one right-hand side per row.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    n = len(rows[0]) if rows else 0
    x = [Fraction(0)] * n
    for r in reversed(hermite_form(_integral([list(r) + [y] for r, y in zip(rows, rhs)]))):
        col = next((j for j, v in enumerate(r) if v), None)
        if col == n:
            return None
        if col is not None:
            x[col] = Fraction(r[n] - sum(r[j] * x[j] for j in range(col + 1, n)), r[col])
    return tuple(x)
