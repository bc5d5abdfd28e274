"""Assembly of tautological / GKZ differential systems.

A system is presented as a finite list of Weyl-algebra operators: box
operators from the toric ideal I_A of the exponent matrix (one per element
of its reduced Groebner basis, computed by Bayer-Stillman saturation of the
kernel-basis binomials), first-order Euler (torus) operators from its rows
together with the parameter vector beta, and optional extra first-order
symmetry operators built from square matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import le, sub

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
    terms = [((unit[i], unit[j]), c) for i, row in enumerate(xi) for j, c in enumerate(row)]
    return WeylElement(p, [(((0,) * p, (0,) * p), beta_xi), *terms])


def _diagonal(row):
    return tuple(tuple(c if i == j else 0 for j in range(len(row))) for i, c in enumerate(row))


def gkz_system(A: ExponentMatrix, beta) -> SystemSpec:
    """The GKZ system of an exponent matrix: box plus Euler operators.

    ``beta`` has length dim+1; the Calabi-Yau normalization is
    ``beta = (1, 0, ..., 0)``.  The box operators carry the toric ideal
    I_A: one per element of its reduced Groebner basis
    (``saturate_lattice_ideal`` of the kernel basis), which raises
    SaturationBudgetExceeded when the default step cap runs out.
    """
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != A.dim + 1:
        raise ValueError(f"beta must have length {A.dim + 1}")
    p = A.nsections
    ops = [fourier_box(ell, p) for ell in saturate_lattice_ideal(integer_kernel(A))]
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
# A Buchberger engine on binomials.  S-pairs and reductions of pure-difference
# binomials x^lead - x^trail stay such binomials (Eisenbud-Sturmfels, Duke
# Math. J. 84, 1996, Prop. 1.1), so a generator is the pair of exponent tuples
# ``(lead, trail)`` and no coefficient arithmetic is done.  A has a row of
# ones, so both terms have one degree, and in coordinates that put x_i first,
# grevlex with x_i last leads with the lex-smaller tuple.  Dividing a Groebner
# basis for that order by its powers of x_i saturates by x_i (Bayer-Stillman;
# Sturmfels, Groebner Bases and Convex Polytopes, 1996, ch. 12).


def _spend(budget, what):
    budget[0] -= 1
    if budget[0] < 0:
        raise SaturationBudgetExceeded(f"{what} cap exceeded")


def _normal_form(m, basis, budget):
    """Rewrite the monomial ``m`` by the first generator whose lead divides
    it, one step each, until no lead does."""
    while g := next((g for g in basis if all(map(le, g[0], m))), None):
        _spend(budget, "reduction step")
        m = tuple(x - c + d for x, c, d in zip(m, *g))
    return m


def _buchberger(gens, budget):
    """Groebner basis of binomial pairs, taken by lcm degree; one step per
    S-pair.  Buchberger's criteria skip a pair when its leads are coprime, or
    when a third lead divides their lcm and both of that generator's pairs
    with them are already treated.
    """
    basis, queue, pending = [], [], set()

    def add(g):
        basis.append(g)
        j = len(basis) - 1
        for i in range(j):
            pending.update([(i, j), (j, i)])
            heappush(queue, (sum(map(max, basis[i][0], g[0])), i, j))

    for g in gens:
        add(g)
    while queue:
        _, i, j = heappop(queue)
        pending.difference_update([(i, j), (j, i)])
        _spend(budget, "S-pair")
        (lf, tf), (lg, tg) = basis[i], basis[j]
        if not any(map(min, lf, lg)):
            continue  # coprime leading terms produce nothing
        lcm = tuple(map(max, lf, lg))
        if any(all(map(le, c, lcm)) and k not in (i, j) and (i, k) not in pending
               and (j, k) not in pending for k, (c, _) in enumerate(basis)):
            continue
        u = _normal_form(tuple(m - x + y for m, x, y in zip(lcm, lf, tf)), basis, budget)
        v = _normal_form(tuple(m - x + y for m, x, y in zip(lcm, lg, tg)), basis, budget)
        if u != v:
            add((min(u, v), max(u, v)))
    return basis


def _reduced(basis, budget):
    """Minimal leads, each trail in normal form: the reduced form of a
    Groebner basis, which depends only on the ideal and the order."""
    kept = []
    for lead, trail in sorted(basis):  # a lead divides only leads sorted after it
        if not any(all(map(le, c, lead)) for c, _ in kept):
            kept.append((lead, trail))
    return [(lead, _normal_form(trail, kept, budget)) for lead, trail in kept]


def saturate_lattice_ideal(kernel, step_cap=20000):
    """The reduced Groebner basis of the saturated lattice ideal, as vectors.

    The binomials of ``kernel`` (vectors that sum to zero, since A has a row
    of ones) are saturated by each variable in turn: a grevlex Groebner basis
    with that variable last, divided by its powers of the variable, then
    reduced.  For the kernel of A this is the toric ideal I_A.  The last
    basis has x_1 last; it is returned as the integer vectors ``trail -
    lead`` (first nonzero entry positive), sorted, so the output depends only
    on the ideal.  Each S-pair and each reduction step costs one of
    ``step_cap`` steps; SaturationBudgetExceeded when they run out.
    """
    if any(map(sum, kernel)):
        raise ValueError("kernel vectors must sum to zero")
    budget = [step_cap]
    gens = [(tuple(max(x, 0) for x in ell), tuple(max(-x, 0) for x in ell)) for ell in kernel]
    for _ in range(len(kernel[0]) if kernel else 0):
        # rotate so that the next variable comes first, and orient the pairs
        gens = [(a[1:] + a[:1], b[1:] + b[:1]) for a, b in gens]
        gens = _buchberger([(min(a, b), max(a, b)) for a, b in gens], budget)
        gens = _reduced([((a[0] - k,) + a[1:], (b[0] - k,) + b[1:])
                         for a, b in gens for k in [min(a[0], b[0])]], budget)
    return tuple(sorted(tuple(map(sub, t, a)) for a, t in gens))
