"""Assembly of tautological / GKZ differential systems.

A system is presented as a finite list of Weyl-algebra operators: box
operators from the relation lattice of the exponent matrix, first-order
Euler (torus) operators from its rows together with the parameter vector
beta, and optional extra first-order symmetry operators built from square
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le

from .errors import SaturationBudgetExceeded
from .lattice import ExponentMatrix, homogenize, integer_kernel
from .weyl import WeylElement, fourier_box


@dataclass(frozen=True)
class SystemSpec:
    """Finite presentation of a differential system plus its provenance."""

    operators: tuple
    A: ExponentMatrix
    beta: tuple
    label: str = ""

    @property
    def nvars(self):
        return self.A.nsections


def symmetry_operator(xi, beta_xi=Fraction(0)) -> WeylElement:
    """First-order operator sum_ij xi[i][j] a_i d_j + beta_xi.

    The convention is pinned so that xi = identity with beta_xi = 1
    reproduces the Euler operator sum_i a_i d_i + 1; the Euler operator of
    a row of the exponent matrix is that of the row's diagonal matrix.
    """
    p = len(xi)
    if any(len(r) != p for r in xi):
        raise ValueError("symmetry matrix must be square")
    unit = [tuple(1 if k == i else 0 for k in range(p)) for i in range(p)]
    # the WeylElement constructor makes every value a Fraction and drops zeros
    terms = {((0,) * p, (0,) * p): beta_xi}
    for i, row in enumerate(xi):
        for j, c in enumerate(row):
            if c:
                terms[unit[i], unit[j]] = c
    return WeylElement(p, terms)


def _diagonal(row):
    return tuple(tuple(c if i == j else 0 for j in range(len(row))) for i, c in enumerate(row))


def gkz_system(A: ExponentMatrix, beta) -> SystemSpec:
    """The GKZ system of an exponent matrix: box plus Euler operators.

    ``beta`` has length dim+1; the Calabi-Yau normalization is
    ``beta = (1, 0, ..., 0)``.  Box operators come from the canonical
    saturated kernel basis (one per basis vector).
    """
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != A.dim + 1:
        raise ValueError(f"beta must have length {A.dim + 1}")
    p = A.nsections
    ops = [fourier_box(ell, p) for ell in integer_kernel(A)]
    for k, row in enumerate(A.A):
        ops.append(symmetry_operator(_diagonal(row), beta[k]))
    return SystemSpec(operators=tuple(ops), A=A, beta=beta, label="GKZ")


def cy_beta(dim):
    """The Calabi-Yau parameter vector (1, 0, ..., 0) of length dim+1."""
    return (Fraction(1),) + (Fraction(0),) * dim


def unipotent_p1_system() -> SystemSpec:
    """Degree-2 family on the projective line with only translations as symmetry.

    Coefficient basis order is (x^2, xy, y^2), i.e. chart exponents
    (2, 1, 0), so the translation flow x -> x + t y acts on coefficients as
    2 a1 d2 + a2 d3.  The full torus Euler operator of the chart is *not*
    included; the symmetry algebra is spanned by the global scaling (with
    beta(e) = 1) and the translation generator (with beta = 0).
    """
    A = homogenize([(2,), (1,), (0,)], 1)
    box = fourier_box((1, -2, 1), 3)
    scaling = symmetry_operator(_diagonal((1, 1, 1)), Fraction(1))
    xi = ((0, 2, 0), (0, 0, 1), (0, 0, 0))
    translation = symmetry_operator(xi, Fraction(0))
    return SystemSpec(
        operators=(box, scaling, translation),
        A=A,
        beta=(Fraction(1), Fraction(0)),
        label="P1-unipotent",
    )


# -- lattice ideal saturation -------------------------------------------------
#
# A small lex Buchberger engine on binomials.  It exists for one purpose:
# saturating the kernel-basis binomial ideal by the product of the variables,
# which can add binomials the kernel basis itself misses (the twisted cubic
# being the classic case).  Every polynomial it meets is a pure-difference
# binomial x^lead - x^trail, since S-pairs and reductions of such binomials
# stay binomials (Eisenbud-Sturmfels, Binomial ideals, Duke Math. J. 84,
# 1996, Prop. 1.1).  So a generator is the pair of exponent tuples
# ``(lead, trail)`` with lead > trail in lex order; the ideal does not see
# its sign, and the engine does no coefficient arithmetic.


def _divides(m1, m2):
    return all(map(le, m1, m2))


def _spend(budget, what):
    budget[0] -= 1
    if budget[0] < 0:
        raise SaturationBudgetExceeded(f"{what} cap exceeded")


def _step(m, basis, budget):
    """One reduction step: ``m - c + d`` for the first generator ``(c, d)``
    whose lead divides ``m``, or None when no lead does."""
    _spend(budget, "reduction step")
    for c, d in basis:
        if _divides(c, m):
            return tuple(x - y + z for x, y, z in zip(m, c, d))
    return None


def _reduce(a, b, basis, budget):
    """Normal form of x^a - x^b (a > b) modulo ``basis``: a pair, or None.

    The larger live monomial is rewritten until no lead divides it; the two
    terms cancel when they meet.  Then the smaller one is rewritten alone.
    """
    while (m := _step(a, basis, budget)) is not None:
        if m == b:
            return None
        a, b = max(m, b), min(m, b)
    while (m := _step(b, basis, budget)) is not None:
        b = m
    return a, b


def _buchberger(basis, budget):
    """Lex Groebner basis of binomial pairs; one step per S-pair.

    The pairs (i, j), j < i, are taken in lex order, which is the order of
    a queue that appends a new generator's pairs: ``basis`` grows while it
    is walked.
    """
    basis = list(basis)
    for i, (lf, tf) in enumerate(basis):
        for lg, tg in basis[:i]:
            _spend(budget, "S-pair")
            if not any(map(min, lf, lg)):
                continue  # coprime leading terms produce nothing
            lcm = tuple(map(max, lf, lg))
            u = tuple(m - x + y for m, x, y in zip(lcm, lf, tf))
            v = tuple(m - x + y for m, x, y in zip(lcm, lg, tg))
            # equal new monomials make the S-pair zero, with no reduction step
            if u != v and (s := _reduce(max(u, v), min(u, v), basis, budget)):
                basis.append(s)
    return basis


def saturate_lattice_ideal(kernel, step_cap=20000):
    """Generating set of the saturated lattice ideal, as exponent vectors.

    Starting from the binomials of the kernel basis, the ideal is saturated
    by each variable in turn (adjoining t*x_i - 1 and eliminating t with a
    lexicographic Groebner basis).  Returns the canonical integer vectors
    ``lead - trail`` (first nonzero entry positive) of the binomials of the
    minimal generating set, sorted; when they are the kernel basis, the
    ``kernel`` argument itself.  Each S-pair and each reduction step costs
    one of ``step_cap`` steps; SaturationBudgetExceeded when they run out.
    """
    if not kernel:
        return ()
    p = len(kernel[0])
    budget = [step_cap]
    gens = []
    for ell in kernel:
        plus, minus = tuple(max(x, 0) for x in ell), tuple(max(-x, 0) for x in ell)
        gens.append((max(plus, minus), min(plus, minus)))
    for i in range(p):
        # work in k[t, x1..xp] with t as the (eliminated) first variable
        relation = ((1,) + tuple(int(j == i) for j in range(p)), (0,) * (p + 1))
        lifted = [((0,) + a, (0,) + b) for a, b in gens] + [relation]
        gens = [(a[1:], b[1:]) for a, b in _buchberger(lifted, budget) if a[0] == 0]
    # drop generators whose lead an earlier-sorted lead divides
    kept = []
    for lead, trail in sorted(gens, key=lambda g: g[0]):
        if not any(_divides(c, lead) for c, _ in kept):
            kept.append((lead, trail))
    out = sorted({tuple(a - b for a, b in zip(lead, trail)) for lead, trail in kept})
    return tuple(kernel) if out == sorted(set(kernel)) else tuple(out)
