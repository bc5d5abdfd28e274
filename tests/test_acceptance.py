"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line when its
assertions hold (pytest reports FAIL otherwise).  Tolerances are pinned
here and nowhere else; every expected value is either exact or produced by
an independent oracle inside the test.
"""

import math
import random
from fractions import Fraction

import mpmath as mp

from gkz_forge import lattice, series, tautsys
from gkz_forge.periods import (
    ChainSpec,
    QuadratureSettings,
    SectionData,
    Segment,
    denominator_roots,
    finite_difference_residual,
    general_type_integral,
    loop_chain,
    numeric_chain_integral,
    numeric_cycle_integral,
    residue_period,
    torus_period_series,
)
from gkz_forge.weyl import WeylElement, commutator, multiply

SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]
CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
TIGHT = QuadratureSettings(tol=1e-13)


def report(line):
    print(f"\nPASS {line}")


def halfline_chain(mid=1.0):
    return ChainSpec(
        segments=(
            Segment(start=(mid,), end=(mid,), start_flags=(-1,), end_flags=(0,)),
            Segment(start=(mid,), end=(mid,), start_flags=(0,), end_flags=(1,)),
        )
    )


def test_criterion_1_unipotent_golden():
    """The translation-invariant solution of the degree-2 family on P^1."""
    spec = tautsys.unipotent_p1_system()
    candidate = series.monomial_series((-1, 0, 0))
    reports = series.annihilate_check(spec, candidate)
    assert len(reports) == 3
    assert all(r.clean for r in reports), "symbolic residuals must vanish exactly"
    assert all(not r.residual.terms for r in reports)

    fd = finite_difference_residual(
        spec, lambda a: 1.0 / a[0], (1.0, 0.7, 1.3), h=0.002
    )
    assert fd.max_residual < 1e-10
    orders = [r.observed_order for r in fd.reports if r.observed_order is not None]
    assert orders, "at least one operator must show a measurable truncation order"
    assert all(3.5 < o < 4.5 for o in orders)
    silent = [r for r in fd.reports if r.observed_order is None]
    assert all(
        abs(r.residual) < 1e-12 and abs(r.residual_refined) < 1e-12 for r in silent
    )
    report(
        "criterion 1: 1/a1 solves the unipotent system exactly; finite-difference"
        f" residuals max {fd.max_residual:.2e} < 1e-10 with O(h^4) convergence"
    )


def test_criterion_2_rank_equals_volume():
    cases = [(SEGMENT, 1, 2), (HESSE, 2, 3), (CROSS, 2, 4)]
    lines = []
    for pts, dim, want in cases:
        vol = lattice.normalized_volume(pts)
        oracle = lattice.ehrhart_volume_oracle(pts)
        spec = tautsys.gkz_system(lattice.homogenize(pts, dim), tautsys.cy_beta(dim))
        basis = series.frobenius_basis(spec, order=8)
        count = series.count_independent(basis)
        assert all(
            isinstance(c, Fraction) for s in basis for c in s.terms.values()
        ), "independence counting must be exact"
        assert vol == oracle == count == want, (pts, vol, oracle, count)
        lines.append(f"{want}")
    report(
        "criterion 2: rank = volume = independent series count for the three"
        f" families ({', '.join(lines)}) at truncation 8, exact coefficient rank"
    )


def test_criterion_3_period_solution_property():
    specs = []
    for pts, dim, coeffs, radii, tol in [
        (SEGMENT, 1, (0.01, 1.0, 0.01), (1.0,), 1e-10),
        (HESSE, 2, (1.0, 0.05, 0.05, 0.05), (1.0, 1.0), 1e-8),
    ]:
        A = lattice.homogenize(pts, dim)
        spec = tautsys.gkz_system(A, tautsys.cy_beta(dim))
        s = torus_period_series(A, order=10)
        assert all(r.clean for r in series.annihilate_check(spec, s))
        sec = SectionData(A=A, coeffs=coeffs)
        res = numeric_cycle_integral(sec, radii, QuadratureSettings(tol=1e-12))
        ref = torus_period_series(A, order=20).evaluate(coeffs)
        assert abs(res.value - ref) <= tol, (pts, abs(res.value - ref))
        specs.append(abs(res.value - ref))
    report(
        "criterion 3: period series annihilated exactly at order 10;"
        f" quadrature vs series differ by {specs[0]:.1e} and {specs[1]:.1e}"
    )


def test_criterion_4_semi_period_chain():
    A = lattice.homogenize(SEGMENT, 1)
    sec = SectionData(A=A, coeffs=(1.0, 3.0, 1.0))
    res = numeric_chain_integral(sec, halfline_chain(), TIGHT)

    # partial-fraction closed form, recomputed at high precision
    with mp.workdps(40):
        disc = mp.sqrt(9 - 4)
        r1, r2 = (-3 + disc) / 2, (-3 - disc) / 2
        closed = complex(mp.log(r2 / r1) / (r1 - r2))
    assert abs(res.value - closed) < 1e-9

    spec = tautsys.gkz_system(A, tautsys.cy_beta(1))

    def F(a):
        return numeric_chain_integral(
            SectionData(A=A, coeffs=tuple(a)), halfline_chain(), TIGHT
        ).value

    coarse = finite_difference_residual(spec, F, (1.0, 3.0, 1.0), h=0.02)
    fine = finite_difference_residual(spec, F, (1.0, 3.0, 1.0), h=0.01)
    assert coarse.max_residual < 1e-6
    assert fine.max_residual < coarse.max_residual
    report(
        f"criterion 4: chain integral {res.value.real:.10f} matches the closed"
        f" form {closed.real:.10f} within 1e-9; finite-difference residuals"
        f" {coarse.max_residual:.1e} -> {fine.max_residual:.1e} under h-refinement"
    )


def test_criterion_5_tube_over_cycle():
    A = lattice.homogenize(SEGMENT, 1)
    sec = SectionData(A=A, coeffs=(1.0, 3.0, 1.0))
    roots = denominator_roots(sec)
    residues = [residue_period(sec, i) for i in range(len(roots))]
    assert abs(sum(residues)) < 1e-12

    loop = loop_chain(roots[1], 0.15)
    val = numeric_chain_integral(sec, loop, TIGHT).value
    assert abs(val - residues[1]) < 1e-10
    report(
        "criterion 5: closed loop reproduces 2*pi*i times the residue within"
        f" 1e-10 (|diff| = {abs(val - residues[1]):.1e}); residues sum to"
        f" {abs(sum(residues)):.1e}"
    )


def test_criterion_6_general_type_linearity():
    A = lattice.homogenize([(-1,), (0,), (1,), (2,)], 1)
    chain = halfline_chain()
    coeffs = (1.0, 3.0, 2.0, 0.5)

    def value(b, scale=1.0):
        sec = SectionData(
            A=A,
            coeffs=tuple(scale * c for c in coeffs),
            numerator_exponents=((0,), (1,)),
            numerator_coeffs=tuple(b),
        )
        return general_type_integral(sec, chain, TIGHT).value

    rng = random.Random(2718)
    worst = 0.0
    for _ in range(20):
        b1 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        b2 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        both = tuple(x + y for x, y in zip(b1, b2))
        gap = abs(value(both) - value(b1) - value(b2))
        worst = max(worst, gap)
        assert gap < 1e-9

    lam = 1.6
    v = value((0.4, 0.8))
    vs = value((0.4, 0.8), scale=lam)
    assert abs(vs - v / lam) < 1e-9
    report(
        "criterion 6: chain integrals linear in the numerator over 20 random"
        f" pairs (worst gap {worst:.1e} < 1e-9) and scale as 1/lambda"
    )


def test_criterion_7_algebra_suite():
    rng = random.Random(1234)

    def random_element():
        terms = {}
        for _ in range(3):
            u = tuple(rng.randint(0, 2) for _ in range(2))
            w = tuple(rng.randint(0, 2) for _ in range(2))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            terms[(u, w)] = terms.get((u, w), Fraction(0)) + c
        return WeylElement(2, terms)

    for _ in range(200):
        x, y, z = random_element(), random_element(), random_element()
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    for n in (2, 3):
        for i in range(n):
            for j in range(n):
                c = commutator(WeylElement.partial(i, n), WeylElement.coordinate(j, n))
                assert c == (WeylElement.one(n) if i == j else WeylElement.zero(n))

    # box/Euler commutator: [E_k, box] is the exact integer multiple
    # -(A_k . ell+) box, and the multiple computed from ell+ and ell-
    # agrees because A.ell = 0, so the commutator vanishes in the system
    for pts, dim in [(SEGMENT, 1), (HESSE, 2), (CROSS, 2)]:
        A = lattice.homogenize(pts, dim)
        spec = tautsys.gkz_system(A, tautsys.cy_beta(dim))
        kernel = lattice.integer_kernel(A)
        for ell, box in zip(kernel, spec.operators):
            for row, e_op in zip(A.A, spec.operators[len(kernel):]):
                cp = sum(r * max(x, 0) for r, x in zip(row, ell))
                cm = sum(r * max(-x, 0) for r, x in zip(row, ell))
                assert cp - cm == 0
                assert commutator(e_op, box) == box.scaled(-cp)

    checked = 0
    while checked < 50:
        n = rng.choice([1, 2, 3])
        pts = sorted(
            {
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(n + 1, n + 4))
            }
        )
        try:
            vol = lattice.normalized_volume(pts)
        except lattice.LowerDimensionalPolytope:
            continue
        assert vol == lattice.ehrhart_volume_oracle(pts), pts
        checked += 1

    report(
        "criterion 7: associativity on 200 random triples, canonical"
        " commutation relations, box/Euler commutator identity on all"
        " generated systems, Ehrhart = triangulation on 50 random polytopes"
    )
