import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from gkz_forge import lattice, periods, series, tautsys
from gkz_forge.errors import (
    DegeneracyError,
    DivergentAtBoundary,
    MultipleRoot,
    NoInteriorMonomial,
    NonConvergent,
    PoleNearPath,
    SingularOnContour,
    StencilOutOfDomain,
)
from gkz_forge.periods import (
    ChainSpec,
    QuadratureSettings,
    SectionData,
    Segment,
    central_stencil,
    denominator_roots,
    fd_weights,
    finite_difference_residual,
    general_type_integral,
    loop_chain,
    numeric_chain_integral,
    numeric_cycle_integral,
    residue_period,
    torus_period_series,
)

SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]

A_SEG = lattice.homogenize(SEGMENT, 1)
A_HESSE = lattice.homogenize(HESSE, 2)
TIGHT = QuadratureSettings(tol=1e-13)


def halfline_chain(mid=1.0):
    """The chain 0 -> infinity through ``mid`` on the positive axis."""
    return ChainSpec(
        segments=(
            Segment(start=(mid,), end=(mid,), start_flags=(-1,), end_flags=(0,)),
            Segment(start=(mid,), end=(mid,), start_flags=(0,), end_flags=(1,)),
        )
    )


def brute_constant_term(coeffs, order):
    """Oracle: expand (-(a1/x + a3 x)/a2)^m with sympy-free polynomial dicts
    and collect x^0 terms of 1/f for the degree-2 chart."""
    a1, a2, a3 = coeffs
    acc = {}
    # 1/f = (1/a2) sum_m (-(a1 x^-1 + a3 x)/a2)^m
    for m in range(2 * order + 1):
        # expand the m-th power by binomials: choose j factors of a1 x^-1
        for j in range(m + 1):
            e = (m - j) - j
            c = (
                math.comb(m, j)
                * (-1) ** m
                * a1**j
                * a3 ** (m - j)
                / a2 ** (m + 1)
            )
            acc[e] = acc.get(e, 0.0) + c
    return acc.get(0, 0.0)


class TestTorusPeriodSeries:
    def test_p1_coefficients(self):
        s = torus_period_series(A_SEG, order=8)
        for k in range(8):
            assert s.terms[((k, -2 * k, k), (0, 0, 0))] == math.comb(2 * k, k)

    def test_hesse_coefficients(self):
        s = torus_period_series(A_HESSE, order=6)
        for k in range(6):
            expected = Fraction(math.factorial(3 * k), math.factorial(k) ** 3)
            if k % 2:
                expected = -expected
            assert s.terms[((-3 * k, k, k, k), (0, 0, 0, 0))] == expected

    def test_single_section(self):
        A = lattice.homogenize([(0,), (1,)], 1)
        s = torus_period_series(A, i0=0, order=4)
        assert s.gamma == (Fraction(-1), Fraction(0))
        assert s.terms[((0, 0), (0, 0))] == 1

    def test_annihilated_by_cy_system(self):
        for A, dim in [(A_SEG, 1), (A_HESSE, 2)]:
            spec = tautsys.gkz_system(A, tautsys.cy_beta(dim))
            s = torus_period_series(A, order=10)
            assert all(r.clean for r in series.annihilate_check(spec, s))

    def test_brute_force_constant_term(self):
        coeffs = (0.1, 1.0, 0.07)
        s = torus_period_series(A_SEG, order=12)
        assert abs(s.evaluate(coeffs) - brute_constant_term(coeffs, 12)) < 1e-14

    def test_no_interior(self):
        A = lattice.homogenize([(1,), (2,)], 1)
        with pytest.raises(NoInteriorMonomial):
            torus_period_series(A)
        with pytest.raises(NoInteriorMonomial):
            torus_period_series(A_SEG, i0=0)


class TestCycleIntegral:
    def test_single_coefficient(self):
        A = lattice.homogenize([(0,), (1,)], 1)
        rng = random.Random(8)
        for _ in range(5):
            a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            s = SectionData(A=A, coeffs=(a, 0))
            res = numeric_cycle_integral(s, (1.0,), TIGHT)
            assert abs(res.value - 1 / a) < 1e-12

    def test_p1_matches_series(self):
        s = SectionData(A=A_SEG, coeffs=(0.01, 1.0, 0.01))
        res = numeric_cycle_integral(s, (1.0,), QuadratureSettings(tol=1e-12))
        ref = torus_period_series(A_SEG, order=20).evaluate(s.coeffs)
        assert abs(res.value - ref) < 1e-10

    def test_hesse_matches_series(self):
        s = SectionData(A=A_HESSE, coeffs=(1.0, 0.05, 0.05, 0.05))
        res = numeric_cycle_integral(s, (1.0, 1.0), QuadratureSettings(tol=1e-11))
        ref = torus_period_series(A_HESSE, order=10).evaluate(s.coeffs)
        assert abs(res.value - ref) < 1e-8

    def test_singular_contour(self):
        # f = x - 1 vanishes on the unit torus
        A = lattice.homogenize([(0,), (1,)], 1)
        s = SectionData(A=A, coeffs=(-1.0, 1.0))
        with pytest.raises(SingularOnContour):
            numeric_cycle_integral(s, (1.0,), TIGHT)

    def test_scaling_covariance(self):
        s = SectionData(A=A_SEG, coeffs=(0.02, 1.0, 0.03))
        lam = 1.7 - 0.3j
        scaled = SectionData(A=A_SEG, coeffs=tuple(lam * c for c in s.coeffs))
        v1 = numeric_cycle_integral(s, (1.0,), TIGHT).value
        v2 = numeric_cycle_integral(scaled, (1.0,), TIGHT).value
        assert abs(v2 - v1 / lam) < 1e-12


class TestChainIntegral:
    def closed_form(self, cm1, c0, c1):
        with mp.workdps(40):
            disc = mp.sqrt(c0 * c0 - 4 * c1 * cm1)
            r1 = (-c0 + disc) / (2 * c1)
            r2 = (-c0 - disc) / (2 * c1)
            return complex(mp.log(r2 / r1) / (c1 * (r1 - r2)))

    def test_131_closed_form_and_scipy(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        res = numeric_chain_integral(sec, halfline_chain(), TIGHT)
        ref = self.closed_form(1.0, 3.0, 1.0)
        assert abs(res.value - ref) < 1e-9
        from scipy.integrate import quad

        sci, _ = quad(lambda t: 1.0 / (1 + 3 * t + t * t), 0, math.inf)
        assert abs(res.value - sci) < 1e-9

    def test_homotopy_invariance(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        direct = numeric_chain_integral(sec, halfline_chain(), TIGHT)
        # deformed path through the upper half plane
        detour = ChainSpec(
            segments=(
                Segment(start=(0.4,), end=(0.4,), start_flags=(-1,), end_flags=(0,)),
                Segment(start=(0.4,), end=(1.0 + 1.5j,)),
                Segment(start=(1.0 + 1.5j,), end=(3.0,)),
                Segment(start=(3.0,), end=(3.0,), start_flags=(0,), end_flags=(1,)),
            )
        )
        deformed = numeric_chain_integral(sec, detour, TIGHT)
        assert abs(direct.value - deformed.value) < 1e-10

    def test_reparameterization_stability(self):
        # same path, different junction: the boundary behaviour is unchanged
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        v1 = numeric_chain_integral(sec, halfline_chain(1.0), TIGHT).value
        v2 = numeric_chain_integral(sec, halfline_chain(0.37), TIGHT).value
        assert abs(v1 - v2) < 1e-10

    def test_zero_length_chain(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        null = ChainSpec(
            segments=(Segment(start=(1.0,), end=(1.0,)),)
        )
        res = numeric_chain_integral(sec, null, TIGHT)
        assert res.value == 0
        # both endpoints at the same boundary point
        null_boundary = ChainSpec(
            segments=(
                Segment(
                    start=(1.0,), end=(1.0,), start_flags=(-1,), end_flags=(-1,)
                ),
            )
        )
        res = numeric_chain_integral(sec, null_boundary, TIGHT)
        assert res.value == 0

    def test_divergent_at_boundary(self):
        # without the quadratic term the integrand does not extend to infinity
        A = lattice.homogenize([(-1,), (0,)], 1)
        sec = SectionData(A=A, coeffs=(1.0, 3.0))
        with pytest.raises(DivergentAtBoundary):
            numeric_chain_integral(sec, halfline_chain(), TIGHT)

    def test_pole_near_path(self):
        # root on the positive axis blocks the chain
        sec = SectionData(A=A_SEG, coeffs=(-1.0, 0.0, 1.0))  # roots at +-1
        with pytest.raises(PoleNearPath):
            numeric_chain_integral(sec, halfline_chain(), TIGHT)

    def test_both_boundary_flags_rejected(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        bad = ChainSpec(
            segments=(
                Segment(start=(1.0,), end=(1.0,), start_flags=(-1,), end_flags=(1,)),
            )
        )
        with pytest.raises(DegeneracyError):
            numeric_chain_integral(sec, bad, TIGHT)


def quadratic_halfline(coeffs):
    """Integral of dx / (a1 + a2 x + a3 x^2) over [0, inf) by partial
    fractions, 40 digits; principal logarithms are continuous along the
    half-line when no root lies on it."""
    with mp.workdps(40):
        a1, a2, a3 = (mp.mpc(c) for c in coeffs)
        disc = mp.sqrt(a2 * a2 - 4 * a1 * a3)
        r1, r2 = (-a2 + disc) / (2 * a3), (-a2 - disc) / (2 * a3)
        return complex((mp.log(-r2) - mp.log(-r1)) / (a3 * (r1 - r2)))


def near_pole_section(p, offset=1e-4):
    """Roots p + offset i (beside the half-line) and -1."""
    r1, r2 = complex(p, offset), -1.0
    return SectionData(A=A_SEG, coeffs=(r1 * r2, -(r1 + r2), 1.0 + 0j)), (r1, r2)


class TestAdaptiveGaussKronrod:
    def test_rule_degrees(self):
        # Kronrod 15 points: exact to degree 22; embedded Gauss 7 points: 13
        x = periods._GK_NODES
        for k in range(23):
            exact = (1 - (-1) ** (k + 1)) / (k + 1)
            assert abs(periods._GK_WEIGHTS @ x**k - exact) < 1e-15
            if k < 14:
                assert abs(periods._GAUSS_WEIGHTS @ x**k - exact) < 1e-15
        assert abs(periods._GAUSS_WEIGHTS @ x**14 - 2 / 15) > 1e-6

    def test_near_pole_converges_fast(self):
        # a pole 1e-4 beside the inverted half of the chain, at tol 1e-10
        sec, _ = near_pole_section(2.0)
        res = numeric_chain_integral(sec, halfline_chain(), QuadratureSettings(tol=1e-10))
        assert abs(res.value - quadratic_halfline(sec.coeffs)) < 1e-12
        assert res.error <= 1e-10
        assert res.evaluations < 5000

    def test_tolerance_below_roundoff_floor_raises(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        with pytest.raises(NonConvergent, match="roundoff floor") as info:
            numeric_chain_integral(sec, halfline_chain(), QuadratureSettings(tol=1e-300))
        assert "budget" not in str(info.value)

    def test_unsplittable_interval_raises(self):
        # a pole 1e-14 off the path needs intervals below the resolution of t
        A = lattice.homogenize([(0,), (1,)], 1)
        sec = SectionData(A=A, coeffs=(-(2 ** (1 / 300) + 1e-14j), 1.0))
        chain = ChainSpec(segments=(Segment(start=(1.0,), end=(2.0,)),))
        with pytest.raises(NonConvergent, match="narrower"):
            numeric_chain_integral(
                sec, chain, QuadratureSettings(tol=1e-2, max_evals=2**22)
            )

    def test_pole_on_path_between_clearance_samples(self):
        # the root 2^(1/300) lies on the path at t = 1/300; the integral
        # does not exist and must not come back as a number
        A = lattice.homogenize([(0,), (1,)], 1)
        sec = SectionData(A=A, coeffs=(-(2 ** (1 / 300)), 1.0))
        chain = ChainSpec(segments=(Segment(start=(1.0,), end=(2.0,)),))
        for tol in (1e-2, 1e-6, 1e-10):
            with pytest.raises((NonConvergent, PoleNearPath)):
                numeric_chain_integral(sec, chain, QuadratureSettings(tol=tol))

    def test_budget_exhaustion_raises(self):
        sec, _ = near_pole_section(2.0)
        with pytest.raises(NonConvergent, match="budget"):
            numeric_chain_integral(
                sec, halfline_chain(), QuadratureSettings(tol=1e-10, max_evals=300)
            )

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.sampled_from([1e-4, 1e-6]),
        st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
    )
    # a floor of 50 eps times the integral of |f| returned this one 5x off
    @example(0.8, 1e-6, 1e-12)
    def test_chain_error_contract(self, p, offset, tol):
        # a chain either raises or meets tol, in its estimate and in fact
        sec, (r1, r2) = near_pole_section(p, offset)
        quad = QuadratureSettings(tol=tol)
        with mp.workdps(40):
            residues = [
                complex(2j * mp.pi / (mp.mpc(r) - mp.mpc(s))) for r, s in ((r1, r2), (r2, r1))
            ]
        roots = denominator_roots(sec)
        cases = [(halfline_chain(), quadratic_halfline(sec.coeffs))]
        for root, want in zip((r1, r2), residues):
            idx = min(range(2), key=lambda i: abs(roots[i] - root))
            assert abs(residue_period(sec, idx) - want) < 1e-12
            radius = 0.25 * min(abs(r1 - r2), abs(root))
            cases.append((loop_chain(root, radius), want))
        for chain, exact in cases:
            try:
                res = numeric_chain_integral(sec, chain, quad)
            except (NonConvergent, PoleNearPath):
                # a pole 1e-4 beside the path is within reach down to tol 1e-10
                assert offset < 1e-4 or tol < 1e-10
                continue
            assert res.error <= tol
            assert abs(res.value - exact) <= tol


class TestResidues:
    def test_sum_of_residues_zero(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        total = residue_period(sec, 0) + residue_period(sec, 1)
        assert abs(total) < 1e-12

    def test_loop_equals_residue(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        roots = denominator_roots(sec)
        for idx in (0, 1):
            loop = loop_chain(roots[idx], 0.15)
            val = numeric_chain_integral(sec, loop, TIGHT).value
            assert abs(val - residue_period(sec, idx)) < 1e-10

    def test_small_loop_around_origin_vanishes(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        val = numeric_chain_integral(sec, loop_chain(0.0, 0.1), TIGHT).value
        assert abs(val) < 1e-12

    def test_multiple_root_detected(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 2.0, 1.0))  # (t+1)^2
        with pytest.raises(MultipleRoot):
            residue_period(sec, 0)


class TestGeneralType:
    def setup_method(self):
        self.A = lattice.homogenize([(-1,), (0,), (1,), (2,)], 1)
        self.chain = halfline_chain()
        self.coeffs = (1.0, 3.0, 2.0, 0.5)

    def section(self, b):
        return SectionData(
            A=self.A,
            coeffs=self.coeffs,
            numerator_exponents=((0,), (1,)),
            numerator_coeffs=tuple(b),
        )

    def test_zero_numerator(self):
        res = general_type_integral(self.section((0, 0)), self.chain, TIGHT)
        assert res.value == 0

    def test_matches_scipy_oracle(self):
        from scipy.integrate import quad

        for b in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.3)]:
            res = general_type_integral(self.section(b), self.chain, TIGHT)

            def f(t):
                den = 1.0 + 3.0 * t + 2.0 * t * t + 0.5 * t**3
                return (b[0] + b[1] * t) / den

            ref_re, _ = quad(f, 0, math.inf, epsabs=1e-12, epsrel=1e-12)
            assert abs(res.value - ref_re) < 1e-9

    def test_linearity(self):
        rng = random.Random(17)
        for _ in range(20):
            b1 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            b2 = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            both = tuple(x + y for x, y in zip(b1, b2))
            v1 = general_type_integral(self.section(b1), self.chain, TIGHT).value
            v2 = general_type_integral(self.section(b2), self.chain, TIGHT).value
            v12 = general_type_integral(self.section(both), self.chain, TIGHT).value
            assert abs(v12 - v1 - v2) < 1e-9

    def test_scaling_covariance(self):
        lam = 1.3
        b = (0.4, 0.8)
        v = general_type_integral(self.section(b), self.chain, TIGHT).value
        scaled = SectionData(
            A=self.A,
            coeffs=tuple(lam * c for c in self.coeffs),
            numerator_exponents=((0,), (1,)),
            numerator_coeffs=b,
        )
        vs = general_type_integral(scaled, self.chain, TIGHT).value
        assert abs(vs - v / lam) < 1e-10


class TestFiniteDifference:
    def test_weights(self):
        assert fd_weights(1, [-1, 0, 1]) == [
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
        ]
        assert fd_weights(2, [-1, 0, 1]) == [Fraction(1), Fraction(-2), Fraction(1)]
        nodes, w = central_stencil(1, 4)
        assert nodes == [-2, -1, 0, 1, 2]
        assert w == [
            Fraction(1, 12),
            Fraction(-2, 3),
            Fraction(0),
            Fraction(2, 3),
            Fraction(-1, 12),
        ]

    def test_stencils_exact_on_polynomials(self):
        # a stencil of accuracy q differentiates degree < q + m exactly
        for m in (1, 2, 3):
            for acc in (2, 4):
                nodes, w = central_stencil(m, acc)
                for deg in range(m + acc):
                    val = sum(
                        wt * Fraction(nd) ** deg for wt, nd in zip(w, nodes)
                    )
                    expected = (
                        Fraction(math.factorial(deg), math.factorial(deg - m))
                        if deg == m
                        else Fraction(0)
                    )
                    if deg == m:
                        assert val == math.factorial(m)
                    else:
                        assert val == expected

    def test_unipotent_inverse_a1(self):
        spec = tautsys.unipotent_p1_system()
        rep = finite_difference_residual(
            spec, lambda a: 1.0 / a[0], (1.0, 0.7, 1.3), h=0.002
        )
        assert rep.max_residual < 1e-10
        euler = rep.reports[1]
        assert euler.observed_order is not None
        assert 3.5 < euler.observed_order < 4.5

    @pytest.mark.parametrize("accuracy", [4, 6])
    def test_richardson_factor_is_two_to_the_accuracy(self, accuracy):
        # exp(a1) is no solution: the Euler residual is (a1 + 1) exp(a1)
        spec = tautsys.unipotent_p1_system()
        a0 = (0.8, 0.7, 1.3)
        rep = finite_difference_residual(
            spec, lambda a: cmath.exp(a[0]), a0, h=0.1, accuracy=accuracy
        )
        euler = rep.reports[1]
        r1, r2 = euler.residual, euler.residual_refined
        factor = 2**accuracy
        assert abs(r1 - r2) > 1e-11
        expected = (factor * r2 - r1) / (factor - 1)
        assert abs(euler.richardson - expected) <= 1e-6 * abs(r1 - r2)
        exact = (a0[0] + 1) * math.exp(a0[0])
        assert abs(euler.richardson - exact) < abs(r2 - exact)

    def test_period_series_function(self):
        A = A_SEG
        spec = tautsys.gkz_system(A, tautsys.cy_beta(1))
        s = torus_period_series(A, order=16)
        rep = finite_difference_residual(
            spec, lambda a: s.evaluate(a), (0.05, 1.0, 0.04), h=0.002
        )
        assert rep.max_residual < 1e-8

    def test_chain_integral_solves_system(self):
        spec = tautsys.gkz_system(A_SEG, tautsys.cy_beta(1))
        chain = halfline_chain()

        def F(a):
            sec = SectionData(A=A_SEG, coeffs=tuple(a))
            return numeric_chain_integral(sec, chain, TIGHT).value

        rep = finite_difference_residual(spec, F, (1.0, 3.0, 1.0), h=0.02)
        assert rep.max_residual < 1e-6
        finer = finite_difference_residual(spec, F, (1.0, 3.0, 1.0), h=0.01)
        assert finer.max_residual < rep.max_residual

    def test_stencil_reaching_a_zero_coordinate(self):
        spec = tautsys.gkz_system(A_SEG, tautsys.cy_beta(1))
        s = torus_period_series(A_SEG, order=8)
        # the first-derivative stencil's node -2 lands on a1 = 0.004 - 2 * 0.002 = 0
        with pytest.raises(StencilOutOfDomain):
            finite_difference_residual(spec, s.evaluate, (0.004, 1.0, 0.03), h=0.002)

    def test_out_of_domain(self):
        spec = tautsys.unipotent_p1_system()

        def F(a):
            raise ValueError("outside")

        with pytest.raises(StencilOutOfDomain):
            finite_difference_residual(spec, F, (1.0, 1.0, 1.0), h=0.01)
