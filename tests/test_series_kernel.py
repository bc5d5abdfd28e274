"""The columnar operator kernel and the modular rank certificate against
independent references.

``_reference_images`` is the earlier dict-loop kernel, kept verbatim (with
its one-variable derivative table) as the oracle for ``_integer_images``;
``intlinalg.rank`` on the exponent-keyed coefficient matrix is the oracle
for ``count_independent``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gkz_forge import intlinalg, lattice, series, tautsys
from gkz_forge.series import LogSeries, count_independent, frobenius_basis
from gkz_forge.weyl import WeylElement

P = series._P
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]


# -- the reference kernel (verbatim) -------------------------------------------

def _integer_derivative_table(qe, q, m, k):
    """``q^k`` times one variable's factor of ``d^k (a^e log(a)^m)``, for ``qe = q*e``.

    ``d^k (a^e log^m a) = sum_j K_j a^(e-k) log^(m-j) a``.  ``q^k K_j`` is a
    polynomial in ``qe`` with integer coefficients, so for an integer ``qe``
    the nonzero ``(m - j, q^k K_j)`` pairs listed are integers.
    """
    coeffs = [1] + [0] * min(k, m)
    for t in range(k):
        # d (a^(e-t) log^(m-j)) = (e-t) a^(e-t-1) log^(m-j) + (m-j) a^(e-t-1) log^(m-j-1)
        qet = qe - q * t
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] = qet * coeffs[j] + q * (m - j + 1) * coeffs[j - 1]
        coeffs[0] *= qet
    return tuple((m - j, c) for j, c in enumerate(coeffs) if c != 0)


def _reference_images(ops, series: LogSeries):
    """Each operator applied to ``series`` in integers, as ``(totals, scale)``.

    The image coefficient of ``(offset, logpow)`` is ``totals[key] / scale``
    with ``scale = D * O * q^r``: ``D`` clears the series' coefficients once,
    ``O`` the operator's, and ``q`` the exponents'.  The one-variable tables
    ``q^k K`` (``_integer_derivative_table``) are integers, and a term of
    derivative order ``|w|`` is scaled by ``q^(r-|w|)``, ``r`` the operator's
    order.  The tables are cached by ``(i, v_i, m_i, k)`` and shared by all
    operators.  Yields one pair per operator, in order.
    """
    q = math.lcm(*(g.denominator for g in series.gamma))
    qgamma = [int(q * g) for g in series.gamma]
    D = math.lcm(*(c.denominator for c in series.terms.values()))
    by_offset = {}
    for (v, m), c in series.terms.items():
        by_offset.setdefault(v, []).append((m, c.numerator * (D // c.denominator)))
    tables = {}
    for op in ops:
        coeffs = op.constant_coefficients()
        order = max((sum(w) for _, w in coeffs), default=0)
        O = math.lcm(*(c.denominator for c in coeffs.values()))
        op_terms = [
            (
                tuple(ui - wi for ui, wi in zip(u, w)),
                tuple((i, k) for i, k in enumerate(w) if k),
                c.numerator * (O // c.denominator) * q ** (order - sum(w)),
            )
            for (u, w), c in coeffs.items()
        ]
        acc = {}
        for v, group in by_offset.items():
            for shift, active, c in op_terms:
                v2 = tuple([a + b for a, b in zip(v, shift)])
                for m, n in group:
                    images = [(m, n * c)]
                    for i, k in active:
                        key = (i, v[i], m[i], k)
                        table = tables.get(key)
                        if table is None:
                            table = tables[key] = _integer_derivative_table(
                                qgamma[i] + q * v[i], q, m[i], k
                            )
                        mi = m[i]
                        images = [
                            (m2 if mj == mi else m2[:i] + (mj,) + m2[i + 1 :], f * K)
                            for m2, f in images
                            for mj, K in table
                        ]
                    for m2, f in images:
                        key = (v2, m2)
                        acc[key] = acc.get(key, 0) + f
        yield acc, D * O * q**order


# -- random series and operators -----------------------------------------------

small_rationals = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5)
)


@st.composite
def series_cases(draw, max_terms=12, offsets=st.integers(-3, 3)):
    p = draw(st.integers(1, 4))
    gamma = tuple(draw(st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)), min_size=p, max_size=p
    )))
    keys = draw(st.lists(
        st.tuples(
            st.tuples(*[offsets] * p),
            st.tuples(*[st.integers(0, 3)] * p),
        ),
        max_size=max_terms,
        unique=True,
    ))
    terms = {key: draw(st.one_of(small_rationals, st.integers(-9, 9).filter(bool))) for key in keys}
    op_terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * p),
            st.lists(st.integers(0, p - 1), max_size=4).map(
                lambda idx: tuple(idx.count(i) for i in range(p))
            ),
            small_rationals,
        ),
        max_size=4,
    ))
    op = WeylElement(p, {(u, w): c for u, w, c in op_terms})
    return LogSeries(gamma=gamma, terms=terms), op


def _check_against_reference(s, ops):
    images = list(series._integer_images(ops, s))
    reference = list(_reference_images(ops, s))
    assert len(images) == len(reference) == len(ops)
    for (totals, scale), (ref_totals, ref_scale) in zip(images, reference):
        assert scale == ref_scale
        assert totals == {key: c for key, c in ref_totals.items() if c}
        assert list(totals) == sorted(totals)


class TestIntegerImages:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(series_cases())
    @example((LogSeries(gamma=(Fraction(1, 2),), terms={}), WeylElement.partial(0, 1)))
    @example((
        LogSeries(gamma=(Fraction(1, 3), 0), terms={((1, 0), (2, 1)): Fraction(3, 4)}),
        WeylElement.zero(2),
    ))
    def test_against_reference(self, case):
        s, op = case
        _check_against_reference(s, [op, WeylElement.one(s.nvars), op])

    @pytest.mark.parametrize("pts, dim, order", [([(-1,), (0,), (1,)], 1, 8), (HESSE, 2, 6)])
    def test_solution_images_cancel(self, pts, dim, order):
        # the images of a Frobenius basis cancel inside the trust window
        spec = tautsys.gkz_system(lattice.homogenize(pts, dim), tautsys.cy_beta(dim))
        for s in frobenius_basis(spec, order=order):
            _check_against_reference(s, spec.operators)

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(series_cases(max_terms=6, offsets=st.integers(-40000, 40000)))
    def test_wide_keys_against_reference(self, case):
        # offsets spread over 80001 values per coordinate: with four
        # coordinates the mixed-radix code no longer fits in int64
        s, op = case
        _check_against_reference(s, [op])

    def test_wide_key_case(self):
        big = 40000
        s = LogSeries(
            gamma=(Fraction(1, 2), Fraction(-1, 3), 0, 2),
            terms={
                ((big, -big, big, -big), (1, 0, 2, 0)): Fraction(2, 3),
                ((-big, big, -big, big), (0, 3, 0, 1)): 5,
                ((0, 0, 0, 0), (1, 1, 1, 1)): Fraction(-1, 5),
            },
        )
        assert (2 * big + 1) ** 4 >= 2**63  # offset span alone overflows int64 codes
        op = WeylElement(4, {
            ((1, 0, 0, 0), (2, 0, 1, 0)): Fraction(1, 2),
            ((0, 0, 0, 0), (0, 1, 0, 3)): -3,
            ((0, 1, 1, 0), (0, 0, 0, 0)): 1,
        })
        _check_against_reference(s, [op, WeylElement.partial(3, 4)])


@st.composite
def wide_factor_cases(draw):
    """Series whose factor bound exceeds int64: gamma denominators up to
    10^6, operator coefficients up to 2^80, derivative orders up to 6."""
    p = draw(st.integers(1, 3))
    gamma = tuple(draw(st.lists(
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
        min_size=p, max_size=p,
    )))
    keys = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-2, 2)] * p), st.tuples(*[st.integers(0, 3)] * p)),
        min_size=1, max_size=8, unique=True,
    ))
    terms = {key: draw(small_rationals) for key in keys}
    big = st.builds(Fraction, st.integers(-(2**80), 2**80).filter(bool), st.integers(1, 10**4))
    op_terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * p),
            st.tuples(*[st.integers(0, 6)] * p).filter(lambda w: sum(w) <= 6),
            big,
        ),
        min_size=1, max_size=3,
    ))
    # one coefficient of at least 2^63 keeps the factors out of int64
    op_terms[0] = op_terms[0][:2] + (Fraction(2**63 + 1),)
    op = WeylElement(p, {(u, w): c for u, w, c in op_terms})
    return LogSeries(gamma=gamma, terms=terms), op


def _factor_dtypes(s, ops):
    """The kernel's images of ``s``, checked against the reference, and the
    dtypes of the small factors it summed per (row, image)."""
    seen = []
    merge = series._merge
    with pytest.MonkeyPatch.context() as mp:
        # the first merge of a block sums the small factors
        mp.setattr(series, "_merge", lambda k, v: seen.append(v.dtype) or merge(k, v))
        _check_against_reference(s, ops)
    return set(seen[::2])


class TestFactorWidth:
    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(wide_factor_cases())
    def test_wide_factors_against_reference(self, case):
        s, op = case
        assert _factor_dtypes(s, [op, WeylElement.one(s.nvars)]) <= {np.dtype(object)}

    def test_bound_just_under_int64_limit(self):
        # a constant operator's one factor is its numerator, and its bound
        # the factor itself
        s = LogSeries(
            gamma=(Fraction(1, 3), Fraction(-2, 7)),
            terms={((0, 1), (1, 0)): Fraction(2**70 + 1, 3), ((1, -1), (0, 2)): -5},
        )
        under = WeylElement.constant(series._INT64_BOUND - 1, 2)
        at = WeylElement.constant(series._INT64_BOUND, 2)
        assert _factor_dtypes(s, [under]) == {np.dtype(np.int64)}
        assert _factor_dtypes(s, [at]) == {np.dtype(object)}

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(series_cases(), st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
    def test_one_call_per_operator_list(self, case, multipliers):
        # batching every operator into one expansion changes no pair
        s, op = case
        ops = [op, op.scaled(multipliers[0] + 1) + WeylElement.partial(0, s.nvars),
               WeylElement.coordinate(s.nvars - 1, s.nvars) * op]
        batched = series._integer_images(ops, s)
        single = [pair for o in ops for pair in series._integer_images([o], s)]
        assert batched == single
        assert [list(t) for t, _ in batched] == [list(t) for t, _ in single]

    @pytest.mark.parametrize("pts, dim, order", [([(-1,), (0,), (1,)], 1, 8), (HESSE, 2, 6)])
    def test_object_path_gives_identical_bases(self, pts, dim, order, monkeypatch):
        spec = tautsys.gkz_system(lattice.homogenize(pts, dim), tautsys.cy_beta(dim))
        basis = frobenius_basis(spec, order=order)
        expected = [series._integer_images(spec.operators, s) for s in basis]
        monkeypatch.setattr(series, "_INT64_BOUND", 0)
        for s, want in zip(basis, expected):
            got = series._integer_images(spec.operators, s)
            assert got == want
            assert [list(t) for t, _ in got] == [list(t) for t, _ in want]
            assert _factor_dtypes(s, spec.operators) == {np.dtype(object)}


# -- the modular rank certificate ----------------------------------------------


def _monomial_row(keys_values, gamma=(0, 0)):
    return LogSeries(gamma=gamma, terms=dict(keys_values))


class TestRankCertificate:
    def test_rank_mod_p_too_low_falls_back(self, monkeypatch):
        # rows (1, 0) and (0, P): rank 1 mod P, rank 2 over Q
        calls = []
        exact = intlinalg.rank
        monkeypatch.setattr(intlinalg, "rank", lambda rows: calls.append(rows) or exact(rows))
        a = _monomial_row({((0, 0), (0, 0)): 1})
        b = _monomial_row({((1, 0), (0, 0)): P})
        assert series._rank_mod_p([([0], [1]), ([1], [P])], 2) == 1
        assert count_independent([a, b]) == 2
        assert len(calls) == 1

    def test_denominator_divisible_by_p(self):
        # clearing a row of denominators keeps its rank, so P | D needs no
        # separate path
        a = _monomial_row({((0, 0), (0, 0)): Fraction(1, P), ((1, 0), (1, 0)): 2})
        b = _monomial_row({((0, 0), (0, 0)): Fraction(3, 7)})
        assert count_independent([a, b]) == 2
        assert count_independent([a, a.scaled(Fraction(5, 3))]) == 1

    def test_full_modular_rank_skips_exact_elimination(self, monkeypatch):
        def forbidden(rows):
            raise AssertionError("exact elimination after a full modular rank")

        monkeypatch.setattr(intlinalg, "rank", forbidden)
        a = _monomial_row({((0, 0), (0, 0)): Fraction(1, 2), ((1, 0), (0, 1)): 3})
        b = _monomial_row({((1, 0), (0, 1)): Fraction(-2, 9)})
        assert count_independent([a, b]) == 2

    def test_wide_exponent_codes(self):
        # exponents spread over 2^32 + 1 and 2^32 values: the column codes
        # leave int64, where (2^32, 0) and (0, 0) would share a code mod 2^64
        wide = 2**32
        a = _monomial_row({((0, 0), (0, 0)): 1, ((0, wide - 1), (0, 0)): Fraction(1, 2)})
        b = _monomial_row({((wide, 0), (0, 0)): 1, ((0, wide - 1), (0, 0)): Fraction(1, 2)})
        assert count_independent([a, b]) == 2
        assert count_independent([a, b, a.scaled(3)]) == 2

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.tuples(st.integers(-2, 2)), st.tuples(st.integers(0, 2))),
                st.one_of(
                    small_rationals,
                    # P - 1 is the largest residue; 2^64 + 1 lies outside int64, -2^63 at its edge
                    st.sampled_from([P, -P, 2 * P, Fraction(1, P), P - 1, 2**64 + 1, -(2**63)]),
                ),
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=3),
        st.lists(st.integers(-1, 1), min_size=4, max_size=4),
    )
    def test_against_exact_rank(self, rows, combos, floors):
        # independent-looking rows, plus integer combinations of them (so
        # dependent lists occur), each on a gamma shifted by an integer: the
        # monomial a^(gamma+v) is the same whatever the split
        base = [dict(r) for r in rows]
        for combo in combos:
            mix = {}
            for weight, r in zip(combo, base):
                for key, c in r.items():
                    mix[key] = mix.get(key, 0) + weight * c
            base.append({key: c for key, c in mix.items() if c})
        series_list = [
            LogSeries(
                gamma=(Fraction(1, 3) + f,),
                terms={((v[0] - f,), m): c for (v, m), c in r.items()},
            )
            for r, f in zip(base, floors * 2)
        ]
        columns = sorted({(s.exponent(v), m) for s in series_list for v, m in s.terms})
        matrix = [
            [s.terms.get(((e[0] - s.gamma[0],), m), 0) for e, m in columns]
            for s in series_list
        ]
        assert count_independent(series_list) == intlinalg.rank(matrix)
