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
# A deliberately small Buchberger engine working on dict-of-monomial
# polynomials over Q with lexicographic order.  It exists for exactly one
# purpose: saturating the kernel-basis binomial ideal by the product of the
# variables, which can add binomials the kernel basis itself misses (the
# twisted cubic being the classic case).


def _leading(poly):
    return max(poly)


def _mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def _mono_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def _mono_lcm(m1, m2):
    return tuple(max(a, b) for a, b in zip(m1, m2))


def _poly_sub(p, q):
    out = dict(p)
    for m, c in q.items():
        acc = out.get(m, Fraction(0)) - c
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)
    return out


def _poly_scale_shift(p, mono, coeff):
    return {_mono_mul(m, mono): c * coeff for m, c in p.items()}


def _reduce(poly, basis, budget):
    """Full reduction of ``poly`` modulo ``basis``; mutates the budget list."""
    remainder = {}
    work = dict(poly)
    while work:
        budget[0] -= 1
        if budget[0] < 0:
            raise SaturationBudgetExceeded("reduction step cap exceeded")
        lead = _leading(work)
        for g in basis:
            lg = _leading(g)
            if _mono_divides(lg, lead):
                shift = tuple(a - b for a, b in zip(lead, lg))
                factor = work[lead] / g[lg]
                work = _poly_sub(work, _poly_scale_shift(g, shift, factor))
                break
        else:
            remainder[lead] = work.pop(lead)
    return remainder


def _buchberger(gens, budget):
    basis = [g for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        budget[0] -= 1
        if budget[0] < 0:
            raise SaturationBudgetExceeded("S-pair cap exceeded")
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        lf, lg = _leading(f), _leading(g)
        lcm = _mono_lcm(lf, lg)
        if _mono_mul(lf, lg) == lcm:  # coprime leading terms produce nothing
            continue
        sf = _poly_scale_shift(f, tuple(a - b for a, b in zip(lcm, lf)), 1 / f[lf])
        sg = _poly_scale_shift(g, tuple(a - b for a, b in zip(lcm, lg)), 1 / g[lg])
        s = _reduce(_poly_sub(sf, sg), basis, budget)
        if s:
            basis.append(s)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis


def _minimalize(basis):
    """Drop generators whose leading monomial another one divides, then sort."""
    basis = sorted(basis, key=_leading)
    kept = []
    for g in basis:
        lg = _leading(g)
        if any(_mono_divides(_leading(h), lg) for h in kept):
            continue
        kept.append(g)
    # make monic
    out = []
    for g in kept:
        lc = g[_leading(g)]
        out.append({m: c / lc for m, c in g.items()})
    return out


def _binomial_from_vector(ell, nvars):
    plus = tuple(max(x, 0) for x in ell)
    minus = tuple(max(-x, 0) for x in ell)
    return {plus: Fraction(1), minus: Fraction(-1)}


def _eliminate_first_variable(gens, budget):
    """Lex Groebner basis, then generators not involving variable 0."""
    basis = _buchberger(gens, budget)
    out = []
    for g in basis:
        if all(m[0] == 0 for m in g):
            out.append({m[1:]: c for m, c in g.items()})
    return out


def saturate_lattice_ideal(kernel, step_cap=20000):
    """Generating set of the saturated lattice ideal, as exponent vectors.

    Starting from the binomials of the kernel basis, the ideal is saturated
    by each variable in turn (adjoining 1 - t*x_i and eliminating t with a
    lexicographic Groebner basis).  Returns canonical integer vectors
    ``alpha - beta`` for the binomials ``x^alpha - x^beta`` of the reduced
    generating set; for already-saturated principal families this is the
    kernel basis itself.
    """
    if not kernel:
        return ()
    p = len(kernel[0])
    budget = [step_cap]
    gens = [_binomial_from_vector(ell, p) for ell in kernel]
    for i in range(p):
        # work in k[t, x1..xp] with t as the (eliminated) first variable
        lifted = [{(0,) + m: c for m, c in g.items()} for g in gens]
        relation = {
            tuple([1] + [1 if j == i else 0 for j in range(p)]): Fraction(-1),
            (0,) * (p + 1): Fraction(1),
        }
        lifted.append(relation)
        gens = _eliminate_first_variable(lifted, budget)
    gens = _minimalize(gens)
    out = []
    for g in gens:
        if len(g) != 2 or sorted(g.values()) != [Fraction(-1), Fraction(1)]:
            raise SaturationBudgetExceeded(
                "saturation left a non-binomial generator; raise the step cap"
            )
        pos = next(m for m, c in g.items() if c == 1)
        neg = next(m for m, c in g.items() if c == -1)
        vec = tuple(a - b for a, b in zip(pos, neg))
        first = next((x for x in vec if x != 0), 0)
        if first < 0:
            vec = tuple(-x for x in vec)
        out.append(vec)
    out = sorted(set(out))
    canon = sorted(set(kernel))
    if out == canon:
        return tuple(kernel)
    return tuple(out)
