import cmath
import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from gkz_forge import lattice, series, tautsys
from gkz_forge.errors import LimitExceeded, TruncationTooSmall, UnsupportedFamily
from gkz_forge.weyl import WeylElement
from gkz_forge.series import (
    annihilate_check,
    apply_operator,
    count_independent,
    frobenius_basis,
    monomial_series,
)


SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]
CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
QUINTIC = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1), (0, 0, 0, 0)]
# kernel-rank-2 families whose deformation directions include poles; the
# flag says whether another base or direction still yields a full basis
RANK_TWO_POLES = [
    ([(-1,), (0,), (1,), (2,)], True),
    ([(-2,), (-1,), (0,), (1,)], True),
    ([(1, 0), (0, 1), (-1, 0), (-1, -1), (0, 0)], True),
]
# the families and orders of the series-certify benchmark workload
PINNED_PAIRS = [
    (SEGMENT, 8), (SEGMENT, 32), (HESSE, 8), (HESSE, 16), (CROSS, 8),
    ([(0,), (1,), (2,), (3,)], 6), ([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], 5),
    (QUINTIC, 8),
]


def make_spec(pts, dim):
    return tautsys.gkz_system(lattice.homogenize(pts, dim), tautsys.cy_beta(dim))


def _series_text(s):
    """Exact text of a series: its terms sorted, every rational by ``str``."""
    terms = sorted((k, str(c)) for k, c in s.terms.items())
    return repr((tuple(str(g) for g in s.gamma), terms, s.lattice, s.radius))


def _report_text(r):
    return repr((r.operator.render(), _series_text(r.residual), r.clean, r.checked,
                 r.skipped, r.max_abs))


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_bases():
    out = []
    for pts, order in PINNED_PAIRS:
        spec = make_spec(pts, len(pts[0]))
        out.append((spec, frobenius_basis(spec, order)))
    return out


class TestFrobeniusBasis:
    def test_eps_coefficient_is_multiple_of_period(self):
        # the eps^0 coefficient of the deformed resonant series is the
        # period sum_k C(2k, k) a1^k a3^k / a2^(2k+1), exactly
        s = frobenius_basis(make_spec(SEGMENT, 1), order=6)[0]
        assert s.gamma == (0, -1, 0)
        assert s.terms == {
            ((k, -2 * k, k), (0, 0, 0)): Fraction(math.comb(2 * k, k))
            for k in range(7)
        }

    def test_log_multi_indices_are_capped_before_they_are_listed(self):
        # vol 19 and a first kernel vector on 6 coordinates: 75 offsets of
        # the window carry terms, times C(18 + 6, 6) = 134,596 log indices
        pts = [(-2, 1, -2), (-2, 2, -2), (-1, 0, 0), (1, -2, 1), (1, 1, 2), (2, -2, 2), (0, 0, 0)]
        with pytest.raises(LimitExceeded, match="75 offsets times 134596 log multi-indices"):
            frobenius_basis(make_spec(pts, 3), order=2)

    def test_empty_kernel_gives_the_monomial_at_any_order(self):
        # the one solution a^(-3/2, -7/2) has offset 0 only, so order 2 keeps it
        spec = tautsys.gkz_system(lattice.homogenize([(0,), (2,)], 1), (5, 7))
        (s,) = frobenius_basis(spec, order=2)
        assert s == series.monomial_series((Fraction(-3, 2), Fraction(-7, 2)))
        assert all(r.clean for r in annihilate_check(spec, s))

    @pytest.mark.parametrize("order", [-1, True, 2.0, "3"])
    def test_bad_order_is_rejected(self, order, monkeypatch):
        # refused before the lattice window is built
        monkeypatch.setattr(series, "LatticeWalk", None)
        with pytest.raises(ValueError, match=f"order .*{order!r}"):
            frobenius_basis(make_spec(SEGMENT, 1), order=order)

    @pytest.mark.parametrize(
        "pts,dim,vol", [(SEGMENT, 1, 2), (HESSE, 2, 3), (CROSS, 2, 4)]
    )
    def test_count_matches_volume(self, pts, dim, vol):
        spec = make_spec(pts, dim)
        basis = frobenius_basis(spec, order=8)
        assert len(basis) == vol
        assert count_independent(basis) == vol
        assert lattice.normalized_volume(pts) == vol

    @pytest.mark.parametrize(
        "pts,dim",
        [
            (SEGMENT, 1),
            (HESSE, 2),
            (CROSS, 2),
            ([(0, 0), (1, 0), (0, 1)], 2),
            ([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)], 2),
            (
                [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1),
                 (0, 0, 0, 0)],
                4,
            ),
        ],
    )
    def test_basis_is_independent(self, pts, dim):
        # the series command reports len(basis) as the independent count
        basis = frobenius_basis(make_spec(pts, dim), order=5)
        assert count_independent(basis) == len(basis)

    def test_segment_log_structure(self):
        spec = make_spec(SEGMENT, 1)
        s0, s1 = frobenius_basis(spec, order=6)
        assert all(not any(m) for (_, m) in s0.terms)  # pure power series
        assert any(any(m) for (_, m) in s1.terms)  # one log factor
        assert max(sum(m) for (_, m) in s1.terms) == 1

    def test_hesse_log_depths(self):
        spec = make_spec(HESSE, 2)
        basis = frobenius_basis(spec, order=6)
        depths = [max((sum(m) for (_, m) in s.terms), default=0) for s in basis]
        assert depths == [0, 1, 2]

    def test_all_exact_rational(self):
        spec = make_spec(CROSS, 2)
        for s in frobenius_basis(spec, order=6):
            assert all(isinstance(c, Fraction) for c in s.terms.values())

    def test_annihilation_clean(self):
        for pts, dim in [(SEGMENT, 1), (HESSE, 2), (CROSS, 2)]:
            spec = make_spec(pts, dim)
            for s in frobenius_basis(spec, order=8):
                assert all(r.clean for r in annihilate_check(spec, s))

    def test_empty_kernel_family(self):
        spec = make_spec([(0, 0), (1, 0), (0, 1)], 2)
        basis = frobenius_basis(spec, order=5)
        assert len(basis) == 1
        assert count_independent(basis) == 1

    def test_rank_two_family(self):
        # five points with interior: kernel rank 2, volume 4
        pts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
        spec = make_spec(pts, 2)
        assert len(lattice.integer_kernel(spec.A)) == 2
        basis = frobenius_basis(spec, order=5)
        assert len(basis) == 4
        assert count_independent(basis) == 4
        for s in basis:
            assert all(r.clean for r in annihilate_check(spec, s))

    @pytest.mark.parametrize("pts,solved", RANK_TWO_POLES)
    def test_rank_two_pole_directions_are_skipped(self, pts, solved):
        # a direction with a zero-slope factor vanishing in a denominator
        # has a pole eps cannot resolve; it is skipped, not divided by
        spec = make_spec(pts, len(pts[0]))
        assert len(lattice.integer_kernel(spec.A)) == 2
        if not solved:
            with pytest.raises(UnsupportedFamily):
                frobenius_basis(spec, order=6)
            return
        basis = frobenius_basis(spec, order=6)
        assert len(basis) == count_independent(basis) == lattice.normalized_volume(pts)
        for s in basis:
            assert all(r.clean for r in annihilate_check(spec, s))

    def test_no_exponent_solves_the_degree_constraints(self):
        # a rank-deficient hand-built matrix: the rows (1,1,1) and (2,2,2)
        # cannot give the degrees (-1, 0) of the Calabi-Yau beta
        A = lattice.ExponentMatrix(dim=1, points=((0,), (1,), (2,)), A=((1, 1, 1), (2, 2, 2)))
        spec = tautsys.gkz_system(A, tautsys.cy_beta(1))
        with pytest.raises(UnsupportedFamily, match="no exponent solves the degree constraints"):
            frobenius_basis(spec, order=2)

    def test_kernel_rank_cap(self):
        # five points on a line: kernel rank 3, no longer capped
        spec = make_spec([(0,), (1,), (2,), (3,), (4,)], 1)
        assert len(lattice.integer_kernel(spec.A)) == 3
        basis = frobenius_basis(spec, order=4)
        assert len(basis) == count_independent(basis) == 4
        for s in basis:
            assert all(r.clean for r in annihilate_check(spec, s))

    def test_rank_three_family(self):
        pts = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]
        spec = make_spec(pts, 2)
        assert len(lattice.integer_kernel(spec.A)) == 3
        basis = frobenius_basis(spec, order=4)
        assert len(basis) == count_independent(basis) == lattice.normalized_volume(pts) == 5
        for s in basis:
            assert all(r.clean for r in annihilate_check(spec, s))

    def test_origin_base_is_one_sided(self):
        # {-2,-1,0,1} starts from -e_i0 at the origin, where the eps^0
        # series lies on one side of the lattice
        spec = make_spec([(-2,), (-1,), (0,), (1,)], 1)
        s0 = frobenius_basis(spec, order=6)[0]
        assert s0.gamma == (0, 0, -1, 0)
        walk = lattice.LatticeWalk(s0.lattice, s0.nvars)
        leads = {next(x for x in walk.coords(v) if x) for v, _ in s0.terms if any(v)}
        assert leads and (all(x > 0 for x in leads) or all(x < 0 for x in leads))


class TestAnnihilateCheck:
    def test_euler_residual_exact_termwise(self):
        spec = make_spec(SEGMENT, 1)
        s = frobenius_basis(spec, order=5)[0]
        for rep in annihilate_check(spec, s):
            if rep.operator.order() == 1:
                assert rep.checked == 0 and rep.skipped == 0

    def test_constant_against_cy_system(self):
        spec = make_spec(SEGMENT, 1)
        reports = annihilate_check(spec, monomial_series((0, 0, 0)))
        euler = reports[1]
        ((key, value),) = tuple(euler.residual.terms.items())
        assert value == 1

    def test_truncation_too_small(self):
        spec = make_spec(HESSE, 2)  # box operator of order 3
        s = series.LogSeries(
            gamma=(Fraction(-1), Fraction(0), Fraction(0), Fraction(0)),
            terms={((0, 0, 0, 0), (0, 0, 0, 0)): Fraction(1)},
            lattice=lattice.integer_kernel(spec.A),
            radius=2,
        )
        with pytest.raises(TruncationTooSmall):
            annihilate_check(spec, s)

    def test_scaling_covariance_on_series(self):
        # total exponent degree of every term is -1: F(lam a) = lam^-1 F(a)
        spec = make_spec(HESSE, 2)
        for s in frobenius_basis(spec, order=5):
            for (v, m) in s.terms:
                assert sum(s.exponent(v)) == -1


# sha256 of exact outputs; a faster construction or certification kernel
# must leave every one of them intact
BASES_SHA256 = "379f5e3e1ccdf4059995e44b80413bc309c30d83f6448f4bb2b609e697001669"
PERTURBED_REPORTS_SHA256 = "c5c54f959d02f25508c4dea3248616a8f5164fc476cb27b41b02154deb882a37"


class TestPinnedOutputs:
    def test_bases_are_pinned(self, pinned_bases):
        lines = [_series_text(s) for _, basis in pinned_bases for s in basis]
        assert _sha256(lines) == BASES_SHA256

    def test_perturbed_reports_are_pinned(self, pinned_bases):
        # quintic mirror at order 8: its exponents have denominator 5
        spec, basis = pinned_bases[-1]
        s = basis[-1]
        key = next(k for k, _ in s.sorted_terms() if any(k[1]))
        bumped = replace(s, terms={**s.terms, key: s.terms[key] + Fraction(1, 7)})
        reports = [annihilate_check(spec, t) for t in basis[:-1] + [bumped]]
        assert all(r.clean for element in reports[:-1] for r in element)
        assert not all(r.clean for r in reports[-1])
        lines = [_report_text(r) for element in reports for r in element]
        assert _sha256(lines) == PERTURBED_REPORTS_SHA256


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def log_series_and_operator(draw):
    """One or two terms c a^(gamma+v) log^m (rational gamma, log powers <= 2)
    and a normal-ordered Weyl operator, on 1-3 variables."""
    n = draw(st.integers(1, 3))
    gamma = tuple(draw(st.lists(rationals, min_size=n, max_size=n)))
    offsets = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(tuple)
    logs = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    terms = draw(
        st.dictionaries(st.tuples(offsets, logs), rationals.filter(bool), min_size=1, max_size=2)
    )
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    op_terms = draw(
        st.dictionaries(st.tuples(exponents, exponents), rationals, min_size=1, max_size=3)
    )
    return series.LogSeries(gamma=gamma, terms=terms), WeylElement(n, op_terms)


def _sympy_terms(expr, syms):
    """Expanded sympy expression -> {(exponents, log powers): Fraction}."""
    known = set(syms) | {sp.log(x) for x in syms} | {sp.S.One}
    out = {}
    for term in sp.Add.make_args(sp.expand(expr)):
        c, rest = term.as_coeff_Mul()
        if c == 0:
            continue
        powers = rest.as_powers_dict()
        assert set(powers) <= known, f"unexpected factor in {term}"
        exps = tuple(Fraction(str(powers.get(x, 0))) for x in syms)
        logs = tuple(int(powers.get(sp.log(x), 0)) for x in syms)
        key = (exps, logs)
        out[key] = out.get(key, 0) + Fraction(str(c))
    return {k: c for k, c in out.items() if c != 0}


def _rational(q):
    return sp.Rational(q.numerator, q.denominator)


class TestRatioTable:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        st.one_of(st.integers(-8, 8).map(Fraction), rationals),
        st.one_of(st.just(Fraction(0)), rationals),
        st.integers(-8, 8),
        st.integers(0, 4),
        st.tuples(rationals, rationals, st.integers(-8, 8)),
    )
    def test_against_sympy_series(self, base, slope, x, order, other):
        # R(x) = Gamma(g+1)/Gamma(g+x+1) = num(eps)/den(eps), products of
        # linear factors; the entry is eps^val * unit with unit = N/Q mod
        # eps^(order+1), where num = eps^a N and den = eps^b Q, val = a - b
        table = series._ratio_table(base, slope, -8, 8, order)
        eps = sp.Symbol("eps")
        for _, (nums, den) in table.values():
            assert den > 0 and math.gcd(den, *nums) == 1 and len(nums) == order + 1

        def as_poly(unit):
            nums, den = unit
            return sp.Poly(sum(sp.Rational(c, den) * eps**k for k, c in enumerate(nums)), eps)

        g = _rational(base) + _rational(slope) * eps
        num = sp.Poly(sp.Mul(*(g - j for j in range(-x))), eps)
        den = sp.Poly(sp.Mul(*(g + j for j in range(1, x + 1))), eps)
        if den.is_zero:
            assert table.get(x) is None
            return
        # below its first zero unit a table stops; lookups read that entry
        val, unit = table[max(x, min(table))]
        got = as_poly(unit)
        mod = sp.Poly(eps ** (order + 1), eps)
        # the truncated product with an entry of a second table
        base2, slope2, x2 = other
        table2 = series._ratio_table(base2, slope2, -8, 8, order)
        entry = table2.get(max(x2, min(table2)))
        if entry is not None:
            product = as_poly(series._jet_product(unit, entry[1]))
            assert sp.rem(got * as_poly(entry[1]) - product, mod).is_zero
        if num.is_zero:
            assert got.is_zero
            return
        a, b = (min(m for (m,) in p.monoms()) for p in (num, den))
        assert val == a - b
        N, Q = sp.quo(num, sp.Poly(eps**a, eps)), sp.quo(den, sp.Poly(eps**b, eps))
        assert sp.rem(N * sp.invert(Q, mod) - got, mod).is_zero


class TestApplyOperator:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(log_series_and_operator())
    @example((  # the zero operator
        series.LogSeries(gamma=(Fraction(-1, 5),), terms={((0,), (1,)): Fraction(3, 2)}),
        WeylElement(1, {}),
    ))
    @example((  # exponents with denominator 5, terms of derivative orders 3 and 1
        series.LogSeries(
            gamma=(Fraction(-1, 5), Fraction(2, 5)),
            terms={((1, -1), (2, 0)): Fraction(7, 3), ((0, 0), (0, 1)): Fraction(-1, 2)},
        ),
        WeylElement(2, {((1, 0), (2, 1)): 1, ((0, 0), (1, 0)): 3}),
    ))
    @example((  # operator coefficients that are not integers
        series.LogSeries(gamma=(Fraction(1, 2), Fraction(-1, 3)), terms={((0, 1), (1, 1)): 4}),
        WeylElement(2, {((0, 1), (1, 2)): Fraction(-5, 6), ((1, 1), (0, 0)): Fraction(2, 3)}),
    ))
    def test_against_sympy_diff(self, case):
        s, op = case
        syms = sp.symbols(f"a1:{s.nvars + 1}", positive=True)
        f = 0
        for (v, m), c in s.terms.items():
            term = _rational(c)
            for x, e, k in zip(syms, s.exponent(v), m):
                term *= x ** _rational(e) * sp.log(x) ** k
            f += term
        image = 0
        for (u, w), oc in op.constant_coefficients().items():
            term = f
            for x, k in zip(syms, w):
                term = sp.diff(term, x, k)
            for x, k in zip(syms, u):
                term *= x**k
            image += _rational(oc) * term
        mine = {
            (s.exponent(v), m): c for (v, m), c in apply_operator(op, s).items()
        }
        assert mine == _sympy_terms(image, syms)

    def test_perturbed_log_term_is_flagged(self):
        spec = make_spec(HESSE, 2)
        basis = frobenius_basis(spec, order=8)
        s = basis[-1]
        (key, c) = next((k, c) for k, c in s.sorted_terms() if any(k[1]))
        assert all(r.clean for r in annihilate_check(spec, s))
        bumped = series.LogSeries(
            gamma=s.gamma,
            terms={**s.terms, key: c + 1},
            lattice=s.lattice,
            radius=s.radius,
        )
        assert not all(r.clean for r in annihilate_check(spec, bumped))


@st.composite
def series_and_point(draw):
    """Up to six terms c a^(gamma+v) log^m on 1-3 variables (exponent
    denominators <= 5, log powers <= 2) and a torus point whose coordinates
    may sit on the negative real axis with a +0.0 or -0.0 imaginary part."""
    n = draw(st.integers(1, 3))
    gamma = tuple(draw(st.lists(
        st.builds(Fraction, st.integers(-10, 10), st.integers(1, 5)), min_size=n, max_size=n
    )))
    offsets = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    logs = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    terms = draw(
        st.dictionaries(st.tuples(offsets, logs), rationals.filter(bool), max_size=6)
    )
    coordinate = st.one_of(
        st.builds(complex, st.floats(-3.0, -0.05), st.sampled_from([0.0, -0.0])),
        st.builds(cmath.rect, st.floats(0.05, 3.0), st.floats(-math.pi, math.pi)),
    )
    point = tuple(draw(st.lists(coordinate, min_size=n, max_size=n)))
    return series.LogSeries(gamma=gamma, terms=terms), point


def _mp_log(z):
    # principal branch at 40 digits; mpmath has no signed zero, so the
    # negative real axis takes the side of the imaginary part's sign, as C99 clog
    if z.imag == 0 and z.real < 0:
        return mp.mpc(mp.log(-z.real), math.copysign(1.0, z.imag) * mp.pi)
    return mp.log(mp.mpc(z.real, z.imag))


class TestEvaluate:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(series_and_point())
    def test_against_mpmath(self, case):
        s, point = case
        with mp.workdps(40):
            logs = [_mp_log(z) for z in point]
            values = []
            for (v, m), c in s.terms.items():
                term = mp.mpf(c.numerator) / c.denominator
                for g, x, k, L in zip(s.gamma, v, m, logs):
                    e = g + x
                    term *= mp.exp(mp.mpf(e.numerator) / e.denominator * L) * L**k
                values.append(term)
            exact = complex(mp.fsum(values))
            scale = float(mp.fsum(abs(t) for t in values))
        assert abs(s.evaluate(point) - exact) <= 1e-12 * scale

    def test_zero_coordinate_raises(self):
        s = monomial_series((Fraction(1, 2), Fraction(0)))
        with pytest.raises(ValueError):
            s.evaluate((0.0, 1.0))
        with pytest.raises(ValueError):
            s.evaluate((1.0, complex(-0.0, -0.0)))

    def test_overflow_raises(self):
        s = series.LogSeries(gamma=(Fraction(0),), terms={((800,), (0,)): Fraction(1)})
        with pytest.raises(OverflowError):
            s.evaluate((10.0,))

    def test_empty_series_is_zero(self):
        s = series.LogSeries(gamma=(Fraction(1, 3), Fraction(0)), terms={})
        assert s.evaluate((2.0, -1.0)) == 0j

    def test_replaced_series_evaluates_its_own_terms(self):
        s = monomial_series((Fraction(1, 2),))
        text = repr(s)
        assert s.evaluate((4.0,)) == 2
        t = replace(s, terms={((1,), (1,)): Fraction(3)})
        assert t.evaluate((4.0,)) == pytest.approx(3 * 4**1.5 * math.log(4), rel=1e-15)
        # the numeric form rides outside the fields: ==, repr and the old value hold
        assert s.evaluate((4.0,)) == 2
        assert repr(s) == text and s == monomial_series((Fraction(1, 2),))

    def test_replaced_series_is_cleared_from_its_own_terms(self):
        spec = make_spec(SEGMENT, 1)
        s = frobenius_basis(spec, order=6)[0]
        text = repr(s)
        assert count_independent([s]) == 1
        assert all(r.clean for r in annihilate_check(spec, s))
        # the integer form is built once and rides outside the fields, like
        # the numeric form
        assert s._integer_form() is s._integer_form()
        assert repr(s) == text and s == frobenius_basis(spec, order=6)[0]
        key, c = next(kv for kv in s.sorted_terms() if any(kv[0][0]))
        bumped = replace(s, terms={**s.terms, key: c + 1})
        assert not all(r.clean for r in annihilate_check(spec, bumped))
        assert count_independent([s, bumped]) == 2
        zero = replace(s, terms={k: 0 * c for k, c in s.terms.items()})
        assert count_independent([zero]) == 0
        assert all(r.clean for r in annihilate_check(spec, s))
        # a float coefficient is still rejected, on first use
        floats = replace(s, terms={**s.terms, key: 0.5})
        with pytest.raises(TypeError):
            annihilate_check(spec, floats)
        with pytest.raises(TypeError):
            count_independent([floats])


class TestCountIndependent:
    def test_proportional_series(self):
        s = monomial_series((-1, 0, 0))
        assert count_independent([s, s.scaled(2)]) == 1

    def test_empty(self):
        assert count_independent([]) == 0

    def test_float_coefficient_is_rejected(self):
        # ranks and annihilation are decided exactly: no float fallback
        a = monomial_series((-1, 0, 0))
        b = monomial_series((0, -1, 0), 0.5)
        with pytest.raises(TypeError):
            count_independent([a, b])
        with pytest.raises(TypeError):
            annihilate_check(make_spec(SEGMENT, 1), a.scaled(3.0))
        assert count_independent([a, a.scaled(3)]) == 1

    def test_series_on_different_numbers_of_variables_are_rejected(self):
        with pytest.raises(ValueError, match="different numbers of variables"):
            count_independent([monomial_series((0, -1)), monomial_series((0, 0, -1))])

    def test_operator_on_other_variables_is_rejected(self):
        s = monomial_series((0, -1))
        with pytest.raises(ValueError, match="operator acts on 3 variables, series on 2"):
            apply_operator(WeylElement.partial(0, 3), s)
        with pytest.raises(ValueError, match="operator acts on 4 variables, series on 2"):
            annihilate_check(make_spec(HESSE, 2), s)
