import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.calculus.finite_diff import finite_diff_weights

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


def multinomial_period_series(A, i0, order):
    """Reference: the constant-term series by its own multinomial formula,
    the coefficient (-1)^|m| |m|! / prod m_i! on the offset with
    multiplicities m away from i0."""
    kernel = lattice.integer_kernel(A)
    p = A.nsections
    gamma = tuple(Fraction(-1) if i == i0 else Fraction(0) for i in range(p))
    terms = {}
    zl = (0,) * p
    for _, v in lattice.LatticeWalk(kernel, p).window(order):
        if any(v[i] < 0 for i in range(p) if i != i0):
            continue
        total = -v[i0]
        if total < 0:
            continue
        coeff = Fraction(math.factorial(total))
        for i in range(p):
            if i != i0 and v[i]:
                coeff /= math.factorial(v[i])
        if total % 2:
            coeff = -coeff
        terms[(v, zl)] = coeff
    return series.LogSeries(gamma=gamma, terms=terms, lattice=kernel, radius=order)


def random_sets_with_origin(seed, count):
    """Seeded point sets of dimension 1-3 with 0 among d+2 .. d+4 points;
    every other set lies in the nonnegative orthant, so 0 is a vertex."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        dim = rng.randint(1, 3)
        low = 0 if len(found) % 2 else -2
        points = {(0,) * dim}
        size = min(rng.randint(dim + 2, dim + 4), (3 - low) ** dim)
        while len(points) < size:
            points.add(tuple(rng.randint(low, 2) for _ in range(dim)))
        points = sorted(points, key=lambda _: rng.random())
        try:
            A = lattice.homogenize(points, dim)
        except DegeneracyError:
            continue
        found.append((A, low == 0))
    return found


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

    def test_matches_multinomial_formula(self):
        # the gamma-ratio tables at eps^0 give the multinomial series term
        # for term, in dict order and as Fractions, with the origin interior
        # or a vertex
        cases = random_sets_with_origin(17, 210)
        assert sum(vertex for _, vertex in cases) >= 100
        for k, (A, _) in enumerate(cases):
            order = k % 7
            i0 = A.points.index((0,) * A.dim)
            got = torus_period_series(A, order=order)
            want = multinomial_period_series(A, i0, order)
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert all(type(c) is Fraction for c in got.terms.values())

    @pytest.mark.parametrize(
        "kwargs",
        [
            # i0 = -2 once built gamma (0, 0, 0) with the single term 1, and
            # order -1 an empty series that every operator passed
            {"i0": -2}, {"i0": 3}, {"i0": True}, {"i0": 1.0},
            {"order": -1}, {"order": True}, {"order": 2.0},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            torus_period_series(A_SEG, **kwargs)


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

    @pytest.mark.parametrize(
        "radii", [(1.0, 1.0), (0.0,), (-1.0,), (math.nan,), (math.inf,), (True,)]
    )
    def test_radii_rejected(self, radii):
        # NaN and inf once ran the grid up to its cap, True the unit torus
        s = SectionData(A=A_SEG, coeffs=(0.02, 1.0, 0.03))
        with pytest.raises(DegeneracyError, match="one positive radius"):
            numeric_cycle_integral(s, radii, TIGHT)

    def test_scaling_covariance(self):
        s = SectionData(A=A_SEG, coeffs=(0.02, 1.0, 0.03))
        lam = 1.7 - 0.3j
        scaled = SectionData(A=A_SEG, coeffs=tuple(lam * c for c in s.coeffs))
        v1 = numeric_cycle_integral(s, (1.0,), TIGHT).value
        v2 = numeric_cycle_integral(scaled, (1.0,), TIGHT).value
        assert abs(v2 - v1 / lam) < 1e-12

    @pytest.mark.parametrize("max_evals", [64, 100, 119])
    def test_budget_counts_every_grid(self, max_evals):
        # the grids 8, 16, 32 and 64 take 120 evaluations; the grid of 64
        # alone once fit under max_evals and the run returned 120
        s = SectionData(A=A_SEG, coeffs=(0.3, 1.0, 0.3))
        with pytest.raises(NonConvergent, match=f"budget of {max_evals} evaluations"):
            numeric_cycle_integral(s, (1.0,), QuadratureSettings(max_evals=max_evals))
        res = numeric_cycle_integral(s, (1.0,), QuadratureSettings(max_evals=120))
        assert res.evaluations == 120 and res.error <= 1e-10


class TestChainIntegral:
    # the half-line deformed through the upper half plane: linear segments
    # from 0 and to infinity around two arcs
    detour = ChainSpec(
        segments=(
            Segment(start=(0.4,), end=(0.4,), start_flags=(-1,), end_flags=(0,)),
            Segment(start=(0.4,), end=(1.0 + 1.5j,)),
            Segment(start=(1.0 + 1.5j,), end=(3.0,)),
            Segment(start=(3.0,), end=(3.0,), start_flags=(0,), end_flags=(1,)),
        )
    )

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
        deformed = numeric_chain_integral(sec, self.detour, TIGHT)
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
        # raised by the clearance scan, not by a node value that is not finite
        with pytest.raises(PoleNearPath, match=r"^denominator nearly vanishes at t = 1\.0000$"):
            numeric_chain_integral(sec, halfline_chain(), TIGHT)

    @pytest.mark.parametrize("flags", [{"start_flags": (2,)}, {"end_flags": (-3,)}])
    def test_flag_outside_minus_one_to_one_rejected(self, flags):
        # a flag of 2 once reached numeric_chain_integral and divided by zero
        with pytest.raises(DegeneracyError, match="flags"):
            Segment(start=(0.0,), end=(1.0,), **flags)

    def test_both_boundary_flags_rejected(self):
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        bad = ChainSpec(
            segments=(
                Segment(start=(1.0,), end=(1.0,), start_flags=(-1,), end_flags=(1,)),
            )
        )
        with pytest.raises(DegeneracyError):
            numeric_chain_integral(sec, bad, TIGHT)


class TestInputChecks:
    def test_section_coefficient_count(self):
        with pytest.raises(DegeneracyError, match="coefficient count does not match"):
            SectionData(A=A_SEG, coeffs=(1.0, 3.0))

    def test_section_identically_zero(self):
        with pytest.raises(DegeneracyError, match="section is identically zero"):
            SectionData(A=A_SEG, coeffs=(0, 0.0, 0j))

    @pytest.mark.parametrize(
        "coeffs, numerator",
        [
            ((math.nan, 3.0, 1.0), ()),
            ((1.0, math.inf, 1.0), ()),
            ((1.0, 3.0, complex(1.0, -math.inf)), ()),
            ((1.0, 3.0, 10**400), ()),
            ((1.0, 3.0, 1.0), (0.5, math.nan)),
            ((1.0, 3.0, 1.0), (0.5, complex(math.nan, 1.0))),
        ],
    )
    def test_section_coefficients_must_be_finite(self, coeffs, numerator):
        # a NaN coefficient once ran the torus rule through its whole budget,
        # reported a misleading PoleNearPath on a chain and leaked numpy's
        # LinAlgError from the residues
        exponents = ((0,), (1,)) if numerator else ()
        with pytest.raises(DegeneracyError, match="coefficients must be finite"):
            SectionData(A=A_SEG, coeffs=coeffs, numerator_exponents=exponents,
                        numerator_coeffs=numerator)

    def test_numerator_lengths_must_match(self):
        with pytest.raises(DegeneracyError, match="differ in length"):
            SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0), numerator_exponents=((0,), (1,)),
                        numerator_coeffs=(0.5,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": (math.inf,), "end": (1.0,)},
            {"start": (1.0,), "end": (math.nan,)},
            {"start": (complex(1.0, math.inf),), "end": (1.0,), "start_flags": (-1,)},
            {"start": (1.0,), "end": (-math.inf,), "end_flags": (1,)},
        ],
    )
    def test_segment_points_must_be_finite(self, kwargs):
        # an infinite point once leaked ValueError from cmath.log, a NaN one
        # gave PoleNearPath
        with pytest.raises(DegeneracyError, match="control points must be finite"):
            Segment(**kwargs)

    @pytest.mark.parametrize("center", [math.nan, complex(0.0, math.inf)])
    def test_loop_center_must_be_finite(self, center):
        with pytest.raises(DegeneracyError, match="control points must be finite"):
            loop_chain(center, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": (1.0,), "end": (1.0, 2.0)},
            {"start": (1.0,), "end": (2.0,), "start_flags": (0, 0)},
            {"start": (1.0,), "end": (2.0,), "end_flags": (0, 1)},
        ],
    )
    def test_segment_of_inconsistent_dimension(self, kwargs):
        with pytest.raises(DegeneracyError, match="inconsistent dimension"):
            Segment(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"start": (0.0,), "end": (1.0,)}, {"start": (1.0,), "end": (0j,)}]
    )
    def test_segment_unflagged_point_on_the_boundary(self, kwargs):
        with pytest.raises(DegeneracyError, match="unflagged control point on the boundary"):
            Segment(**kwargs)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"end_flags": (1,)}, {}),
            ({}, {"start_flags": (-1,)}),
        ],
    )
    def test_chain_flags_at_an_interior_junction(self, first, second):
        segs = (
            Segment(start=(0.5,), end=(1.0,), **first),
            Segment(start=(1.0,), end=(2.0,), **second),
        )
        with pytest.raises(DegeneracyError, match="interior junctions must not carry"):
            ChainSpec(segments=segs)

    def test_chain_segments_that_do_not_meet(self):
        segs = (Segment(start=(0.5,), end=(1.0,)), Segment(start=(1.0 + 1e-6j,), end=(2.0,)))
        with pytest.raises(DegeneracyError, match="do not match at the junction"):
            ChainSpec(segments=segs)


# The exact partition of three chains of the section (1, 3, 1): the
# evaluation count and the value to 1e-14 relative.  A change to the adaptive
# integrator's arithmetic or bisection order shows here at once.
PINNED_CHAINS = {
    # the half-line of jobs/chain_131.json at its tol 1e-12: two linear segments
    "halfline": (0.860817881928008 + 0j, 84),
    # a 12-arc loop_chain of radius 0.15 around the root -0.38196..., tol 1e-13
    "loop": (-1.8735013540549517e-16 + 2.8099258924162904j, 504),
    # the mixed chain of test_homotopy_invariance, tol 1e-13
    "mixed": (0.8608178819280081 + 2.7755575615628914e-17j, 168),
    # ARC_TO_INFINITY, tol 1e-13: the numerator's lowest exponent is -1 in
    # the arc's chart and 0 in the inverted chart
    "arc to infinity": (0.25541281188299536 - 6.938893903907228e-18j, 84),
}

# dx / (x (2 + 3x)) on an arc from 1 to 2 + i and on to infinity
ARC_TO_INFINITY = (
    SectionData(A=lattice.homogenize([(0,), (1,)], 1), coeffs=(2.0, 3.0)),
    ChainSpec(
        segments=(
            Segment(start=(1.0,), end=(2.0 + 1j,)),
            Segment(start=(2.0 + 1j,), end=(2.0 + 1j,), start_flags=(0,), end_flags=(1,)),
        )
    ),
)


def pinned_chain(name):
    sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
    if name == "halfline":
        return sec, halfline_chain(), QuadratureSettings(tol=1e-12)
    if name == "loop":
        return sec, loop_chain(denominator_roots(sec)[1], 0.15), TIGHT
    if name == "arc to infinity":
        return (*ARC_TO_INFINITY, TIGHT)
    return sec, TestChainIntegral.detour, TIGHT


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_pinned_quadrature_partition(name):
    value, evaluations = PINNED_CHAINS[name]
    sec, chain, quad = pinned_chain(name)
    res = numeric_chain_integral(sec, chain, quad)
    assert res.evaluations == evaluations
    assert res.error <= quad.tol
    assert abs(res.value - value) <= 1e-14 * abs(value)


# chains that meet their tol on the first round, with their values before the
# first round started from the two halves of each segment
ONE_CALL_CHAINS = {
    # jobs/chain_131.json: the half-line at tol 1e-12
    "chain_131": ((1.0, 3.0, 1.0), QuadratureSettings(tol=1e-12), 0.8608178819280081),
    # a section of the benchmark's chain-FD certificates, at their tol 1e-13
    "chain-fd": ((0.9, 3.1, 1.1), TIGHT, 0.8518654577489119),
}


@pytest.mark.parametrize("name", sorted(ONE_CALL_CHAINS))
def test_chain_that_converges_at_once_takes_one_integrand_call(name, monkeypatch):
    # both halves of every segment and the pole-clearance scan share one call
    coeffs, quad, value = ONE_CALL_CHAINS[name]
    calls = []
    stacked = periods._chain_integrand

    def counted(pieces):
        integrand = stacked(pieces)

        def call(piece, t):
            calls.append(len(piece))
            return integrand(piece, t)

        return call

    monkeypatch.setattr(periods, "_chain_integrand", counted)
    res = numeric_chain_integral(SectionData(A=A_SEG, coeffs=coeffs), halfline_chain(), quad)
    assert calls == [2]  # one call, one row per segment
    assert res.evaluations == 84 and res.error <= quad.tol
    assert abs(res.value - value) <= 1e-15 * abs(value)


def test_first_round_is_held_to_the_budget():
    # 12 arcs take 504 evaluations in the first round, far past 50
    sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
    with pytest.raises(NonConvergent, match="exceeded its budget of 50 evaluations"):
        numeric_chain_integral(
            sec, loop_chain(0, 1.0, 12), QuadratureSettings(tol=1e-6, max_evals=50)
        )


def reference_integrand(num, den, seg, t):
    """One segment's chart integrand and its rounding-error estimate at the
    parameters ``t``, from the segment's own Laurent data, term by term."""
    start, end = seg.start_flags[0], seg.end_flags[0]
    if start == 1 or end == 1:
        num, den = periods._invert_pair(num, den)
        a = 0j if start else 1.0 / seg.start[0]
        b = 0j if end else 1.0 / seg.end[0]
    else:
        a = 0j if start else seg.start[0]
        b = 0j if end else seg.end[0]
    num, den = periods._normalize_pair(num, den)
    if start:
        x, dx = b * t, b
    elif end:
        x, dx = a * (1.0 - t), -a
    else:
        w = cmath.log(b / a)
        x = a * np.exp(t * w)
        dx = w * x

    def horner(poly, x):
        low, high = min(poly), max(poly)
        value = poly[high]
        for e in range(high - 1, low - 1, -1):
            value = value * x + poly.get(e, 0)
        return value * x**low if low else value

    size = np.abs(x)
    top, bottom = horner(num, x), horner(den, x)
    cond = horner({e: abs(c) for e, c in den.items()}, size) / np.abs(bottom)
    noise = periods._EPS * np.abs(dx / bottom) * (
        (periods._ROUNDOFF + cond) * np.abs(top)
        + horner({e: abs(c) for e, c in num.items()}, size)
    )
    return top / bottom * dx, noise


def stacked_integrand_case(name):
    sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
    if name == "detour":
        return periods._chart_pair(sec), TestChainIntegral.detour
    if name == "complex coefficients":
        sec = SectionData(A=A_SEG, coeffs=(-1.2628599417211044 - 1e-4j, -0.2628599417211044 - 1e-4j, 1.0))
        return periods._chart_pair(sec), halfline_chain()
    if name == "lowest exponents 1 and 2":
        # x dx / (1 + x^2 + x^5) on the half-line
        A = lattice.homogenize([(-2,), (0,), (3,)], 1)
        return periods._chart_pair(SectionData(A=A, coeffs=(1.0, 1.0, 1.0))), halfline_chain()
    if name == "lowest exponents -1 and 0":
        sec, chain = ARC_TO_INFINITY
        return periods._chart_pair(sec), chain
    # (x + (0.5 - 0.25i) x^2) dx / x^2 f on the half-line, f of degree 3 in 1/x
    A = lattice.homogenize([(-1,), (0,), (1,), (2,), (3,)], 1)
    sec = SectionData(
        A=A,
        coeffs=(1.0, 2.0, 0.5, 1.5j, 1.0),
        numerator_exponents=((1,), (2,)),
        numerator_coeffs=(1.0, 0.5 - 0.25j),
    )
    return periods._chart_pair(sec), halfline_chain()


@pytest.mark.parametrize(
    "name",
    [
        "detour",
        "complex coefficients",
        "lowest exponents 1 and 2",
        "lowest exponents -1 and 0",
        "general type",
    ],
)
def test_stacked_integrand_matches_each_segment(name):
    # every row of a chain's stacked integrand carries the bits of its own
    # segment's integrand: no common exponent window, no numpy moduli
    (num, den), chain = stacked_integrand_case(name)
    pieces = [periods._segment_piece(num, den, seg) for seg in chain.segments]
    t = np.arange(1, 16) / 16.0
    f, noise, _ = periods._chain_integrand(pieces)(
        np.arange(len(pieces)), np.tile(t, (len(pieces), 1))
    )
    for i, seg in enumerate(chain.segments):
        ref_f, ref_noise = reference_integrand(num, den, seg, t)
        assert f[i].tobytes() == np.broadcast_to(ref_f, t.shape).tobytes()
        assert noise[i].tobytes() == np.broadcast_to(ref_noise, t.shape).tobytes()


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
        # Kronrod 21 points: exact to degree 31; embedded Gauss 10 points: 19
        x = periods._GK_NODES
        for k in range(32):
            exact = (1 - (-1) ** (k + 1)) / (k + 1)
            assert abs(periods._GK_WEIGHTS @ x**k - exact) < 1e-15
            if k < 20:
                assert abs(periods._GAUSS_WEIGHTS @ x**k - exact) < 1e-15
        assert abs(periods._GK_WEIGHTS @ x**32 - 2 / 33) > 1e-12
        assert abs(periods._GAUSS_WEIGHTS @ x**20 - 2 / 21) > 1e-6

    def test_rule_matches_quadpack_qk21(self):
        # scipy's copy of QUADPACK's dqk21 table, read through its rule on
        # [-1, 1]: the integrand is the unit vector of its node, so the rule
        # returns the Kronrod weights, and the first vector its norm sees is
        # the Kronrod minus the Gauss weights
        from scipy.integrate._quad_vec import _quadrature_gk21

        nodes, seen = list(periods._GK_NODES), []

        def unit(x):
            return np.eye(len(nodes))[nodes.index(x)]

        def norm(v):
            seen.append(v)
            return 1.0

        kronrod, _, _ = _quadrature_gk21(-1.0, 1.0, unit, norm)
        assert np.array_equal(kronrod, periods._GK_WEIGHTS)
        assert np.array_equal(seen[0], periods._GK_WEIGHTS - periods._GAUSS_WEIGHTS)

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": -1e-10},
            {"tol": True}, {"tol": "1e-10"},
            {"max_evals": 2.5}, {"max_evals": -5}, {"max_evals": 0}, {"max_evals": True},
        ],
    )
    def test_bad_settings_rejected(self, kwargs):
        # tol = nan once ran a whole torus grid before NonConvergent
        with pytest.raises(ValueError):
            QuadratureSettings(**kwargs)

    @staticmethod
    def pole_beside_path(offset):
        # the root 2^(1/300) + offset i beside the path from 1 to 2, at t = 1/300
        A = lattice.homogenize([(0,), (1,)], 1)
        sec = SectionData(A=A, coeffs=(-(2 ** (1 / 300) + offset * 1j), 1.0))
        return sec, ChainSpec(segments=(Segment(start=(1.0,), end=(2.0,)),))

    def test_pole_1e_14_off_the_path_stops_at_the_roundoff_floor(self):
        sec, chain = self.pole_beside_path(1e-14)
        with pytest.raises(NonConvergent, match="roundoff floor"):
            numeric_chain_integral(
                sec, chain, QuadratureSettings(tol=1e-2, max_evals=2**22)
            )

    def test_unsplittable_interval_raises(self):
        # a pole 1e-15 off the path needs intervals below the resolution of t
        sec, chain = self.pole_beside_path(1e-15)
        for tol in (1e-2, 1e-1, 1.0):
            with pytest.raises(NonConvergent, match="narrower"):
                numeric_chain_integral(
                    sec, chain, QuadratureSettings(tol=tol, max_evals=2**22)
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
    def test_chart_of_a_two_dimensional_section_rejected(self):
        sec = SectionData(A=A_HESSE, coeffs=(1.0, 0.05, 0.05, 0.05))
        with pytest.raises(DegeneracyError, match="one-dimensional charts"):
            numeric_chain_integral(sec, halfline_chain(), TIGHT)
        with pytest.raises(DegeneracyError, match="one-dimensional charts"):
            residue_period(sec, 0)

    def test_denominator_without_roots_rejected(self):
        # f = a2 alone: the chart denominator x f is x, a constant once normalized
        with pytest.raises(DegeneracyError, match="no roots"):
            residue_period(SectionData(A=A_SEG, coeffs=(0, 1, 0)), 0)

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

    @pytest.mark.parametrize(
        "radius, points",
        [
            (0, 12), (0.0, 12), (-0.15, 12), (math.nan, 12), (math.inf, 12),
            (0.15, 2), (0.15, 1), (0.15, 0),
            (0.15, 3.5), (0.15, 12.0), (0.15, "4"), (0.15, True), (True, 12),
        ],
    )
    def test_degenerate_loop_rejected(self, radius, points):
        # a zero radius or fewer than 3 points once came back as the period 0,
        # a point count that is no int raised a bare TypeError, and a radius
        # True gave a unit loop
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        with pytest.raises(DegeneracyError):
            loop_chain(denominator_roots(sec)[1], radius, points)

    def test_residues_without_a_linear_term(self):
        # 1 / (1 + x^2) at +-i: the derivative 2x has no constant term
        sec = SectionData(A=A_SEG, coeffs=(1.0, 0.0, 1.0))
        residues = [residue_period(sec, i) for i in (0, 1)]
        assert sorted(z.real for z in residues) == pytest.approx([-math.pi, math.pi], abs=1e-14)
        assert all(abs(z.imag) < 1e-14 for z in residues)

    @pytest.mark.parametrize("root_index", [-1, 2, True, 1.0])
    def test_bad_root_index_rejected(self, root_index):
        # -1 once gave the residue at the last root, 2 a bare IndexError
        sec = SectionData(A=A_SEG, coeffs=(1.0, 3.0, 1.0))
        with pytest.raises(ValueError, match=rf"root_index {root_index!r} .* 2 roots"):
            residue_period(sec, root_index)

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

    def test_missing_numerator_data_rejected(self):
        sec = SectionData(A=self.A, coeffs=self.coeffs)
        with pytest.raises(DegeneracyError, match="requires numerator data"):
            general_type_integral(sec, self.chain, TIGHT)

    def test_numerator_exponents_of_another_dimension_rejected(self):
        with pytest.raises(DegeneracyError, match="must have length 1"):
            SectionData(
                A=self.A, coeffs=self.coeffs,
                numerator_exponents=((0,), (1, 0)), numerator_coeffs=(1.0, 1.0),
            )

    def test_every_integral_of_a_zero_numerator_is_zero(self):
        sec = self.section((0, 0))
        res = numeric_chain_integral(sec, self.chain, TIGHT)
        assert (res.value, res.error, res.evaluations) == (0, 0, 0)
        assert [residue_period(sec, i) for i in range(3)] == [0, 0, 0]
        assert numeric_cycle_integral(sec, (1.0,), TIGHT).value == 0

    def test_chain_integral_reads_the_numerator(self):
        sec = self.section((0.7, -0.3))
        assert numeric_chain_integral(sec, self.chain, TIGHT) == general_type_integral(
            sec, self.chain, TIGHT
        )

    def test_loops_agree_with_residues(self):
        sec = self.section((0.7, 0.2 - 0.4j))
        quad = QuadratureSettings(tol=1e-12)
        for idx, root in enumerate(denominator_roots(sec)):
            loop = numeric_chain_integral(sec, loop_chain(root, 0.15), quad).value
            assert abs(loop - residue_period(sec, idx)) < 2e-12

    def test_torus_period_of_the_section_over_itself_is_one(self):
        sec = SectionData(
            A=self.A, coeffs=self.coeffs,
            numerator_exponents=self.A.points, numerator_coeffs=self.coeffs,
        )
        assert abs(numeric_cycle_integral(sec, (1.0,), TIGHT).value - 1) < 1e-15

    def test_torus_period_matches_the_residues_inside(self):
        # (2 pi i)^-1 of g dx / (x f) around |x| = 1 is the sum of the
        # residues of the chart integrand at the roots inside: here the
        # one root at -0.456 (the others have modulus 2.09), and x = 0,
        # where the chart numerator x^(sigma - 1) g = g has no pole
        sec = self.section((0.7, 0.2 - 0.4j))
        inside = [i for i, r in enumerate(denominator_roots(sec)) if abs(r) < 1]
        want = sum(residue_period(sec, i) for i in inside) / (2j * math.pi)
        assert abs(numeric_cycle_integral(sec, (1.0,), TIGHT).value - want) < 1e-12

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


def fraction_fd_residuals(spec, F, a0, h, accuracy):
    """Reference: the residuals of ``finite_difference_residual`` at h and h/2,
    each stencil sum accumulated as a ``Fraction`` sample by sample."""
    a0 = tuple(complex(z) for z in a0)
    out = []
    for op in spec.operators:
        for step in (h, h / 2.0):
            total = 0j
            for (u, w), oc in sorted(op.constant_coefficients().items()):
                mono = 1.0 + 0j
                for j, uj in enumerate(u):
                    if uj:
                        mono *= a0[j] ** uj
                axes = [
                    list(zip(*central_stencil(k, accuracy))) if k else [(0, Fraction(1))]
                    for k in w
                ]
                re = im = Fraction(0)
                for combo in itertools.product(*axes):
                    weight = math.prod((wt for _, wt in combo), start=Fraction(1))
                    v = complex(F(tuple(a + step * nd for a, (nd, _) in zip(a0, combo))))
                    re += weight * Fraction(v.real)
                    im += weight * Fraction(v.imag)
                total += float(oc) * mono * (complex(re, im) / step ** sum(w))
            out.append(total)
    return out


class TestFiniteDifference:
    def test_weights(self):
        assert fd_weights(1, [-1, 0, 1]) == [
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
        ]
        assert fd_weights(2, [-1, 0, 1]) == [Fraction(1), Fraction(-2), Fraction(1)]
        with pytest.raises(ValueError):
            fd_weights(1, [0, 1, 1])
        nodes, w = central_stencil(1, 4)
        assert nodes == [-2, -1, 0, 1, 2]
        assert w == [
            Fraction(1, 12),
            Fraction(-2, 3),
            Fraction(0),
            Fraction(2, 3),
            Fraction(-1, 12),
        ]

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(0, 4),
        st.lists(st.integers(-6, 6), min_size=2, max_size=9, unique=True),
    )
    def test_weights_match_sympy(self, derivative, nodes):
        # an independent oracle: sympy's implementation of Fornberg's recursion
        if derivative >= len(nodes):
            with pytest.raises(ValueError):
                fd_weights(derivative, nodes)
            return
        expected = finite_diff_weights(derivative, nodes, 0)[derivative][-1]
        assert fd_weights(derivative, nodes) == [Fraction(str(w)) for w in expected]

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

    def test_each_stencil_point_sampled_once_per_certificate(self):
        spec = tautsys.gkz_system(A_HESSE, tautsys.cy_beta(2))
        calls = []

        def F(a):
            calls.append(a)
            return 1.0 / a[0]

        a0, h = (1.0, 0.05, 0.06, 0.07), 0.002
        finite_difference_residual(spec, F, a0, h=h)
        assert len(set(calls)) == len(calls)  # no point is sampled twice
        # the stencil points every operator term reads, merged over operators
        # and both steps: the node 2k at h/2 is the node k at h
        points = set()
        for step in (h, h / 2.0):
            for op in spec.operators:
                for _, w in op.terms:
                    axes = [central_stencil(k)[0] if k else [0] for k in w]
                    points.update(
                        tuple(complex(a) + step * o for a, o in zip(a0, offset))
                        for offset in itertools.product(*axes)
                    )
        assert set(calls) == points
        assert len(calls) == 233  # 2 x 131 stencil offsets, 29 of them shared

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2**32), st.sampled_from([2, 4, 6]))
    def test_stencil_sums_equal_fraction_reference(self, seed, accuracy):
        # samples of every sign and of magnitudes 2^-60 .. 2^60, so the
        # integer sums need wide common denominators
        def F(a):
            rng = random.Random(f"{seed} {a!r}")
            return complex(*(rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60) for _ in "ri"))

        for spec, a0, h in [
            (tautsys.gkz_system(A_SEG, tautsys.cy_beta(1)), (1.0, 3.0, 1.0), 0.02),
            (tautsys.unipotent_p1_system(), (0.8 + 0.1j, 0.7, 1.3), 0.1),
        ]:
            rep = finite_difference_residual(spec, F, a0, h=h, accuracy=accuracy)
            got = [x for r in rep.reports for x in (r.residual, r.residual_refined)]
            assert got == fraction_fd_residuals(spec, F, a0, h, accuracy)

    @pytest.mark.parametrize("h", [0, 0.0, -0.01, math.nan, math.inf, 1j, True])
    def test_step_must_be_positive_finite(self, h):
        # True once ran as the step 1.0
        spec = tautsys.unipotent_p1_system()
        with pytest.raises(ValueError, match="step h"):
            finite_difference_residual(spec, lambda a: 1.0 / a[0], (1.0, 0.7, 1.3), h=h)

    @pytest.mark.parametrize("a0", [(1.0, 3.0, 1.0, 2.0), (1.0, 3.0)])
    def test_a0_must_hold_one_coefficient_per_variable(self, a0):
        # four coordinates once gave a meaningless residual, two a bare IndexError
        spec = tautsys.gkz_system(A_SEG, tautsys.cy_beta(1))
        calls = []

        def F(a):
            calls.append(a)
            return sum(a)

        with pytest.raises(ValueError, match=rf"a0 must hold 3 coefficients, got {len(a0)}"):
            finite_difference_residual(spec, F, a0, h=0.02)
        assert not calls

    @pytest.mark.parametrize(
        "a0", [(math.nan, 3.0, 1.0), (1.0, math.inf, 1.0), (1.0, 3.0, complex(1.0, math.nan))]
    )
    def test_a0_must_be_finite(self, a0):
        # a NaN a0 once gave a report whose box operator held
        spec = tautsys.gkz_system(A_SEG, tautsys.cy_beta(1))
        calls = []

        def F(a):
            calls.append(a)
            return 1.0

        with pytest.raises(ValueError, match="a0 must be finite"):
            finite_difference_residual(spec, F, a0, h=0.01)
        assert not calls

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, complex(1.0, math.inf), complex(math.nan, 0.0)]
    )
    def test_non_finite_sample_is_out_of_domain(self, value):
        # such a sample once leaked ValueError or OverflowError from as_integer_ratio
        spec = tautsys.unipotent_p1_system()
        with pytest.raises(StencilOutOfDomain, match="the sampled function is"):
            finite_difference_residual(spec, lambda a: value, (1.0, 1.0, 1.0), h=0.01)

    def test_central_stencil_widths(self):
        # 2 ceil(m / 2) - 1 + accuracy nodes: the fewest symmetric ones
        for m in range(1, 7):
            for acc in (2, 4, 6, 8):
                nodes, _ = central_stencil(m, acc)
                k = (2 * ((m + 1) // 2) - 1 + acc) // 2
                assert nodes == list(range(-k, k + 1))

    @pytest.mark.parametrize("accuracy", [0, 1, 3, -2, 4.0, True])
    def test_accuracy_must_be_positive_even(self, accuracy):
        # an odd accuracy rounds up to the next even stencil, so the
        # Richardson factor 2^accuracy would be wrong; central_stencil once
        # returned the accuracy-4 stencil for 3 and failed on 0 for want of nodes
        spec = tautsys.unipotent_p1_system()
        want = f"accuracy must be a positive even integer, got {accuracy!r}"
        with pytest.raises(ValueError, match=want):
            finite_difference_residual(
                spec, lambda a: cmath.exp(a[0]), (0.8, 0.7, 1.3), h=0.1, accuracy=accuracy
            )
        with pytest.raises(ValueError, match=want):
            central_stencil(2, accuracy)

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
