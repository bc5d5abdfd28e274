import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from gkz_forge.errors import VariableMismatch
from gkz_forge.weyl import WeylElement, commutator, fourier_box, multiply


def random_element(rng, nvars=2, nterms=3, maxexp=2):
    terms = {}
    for _ in range(nterms):
        u = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        w = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[(u, w)] = terms.get((u, w), Fraction(0)) + c
    return WeylElement(nvars, terms)


def test_canonical_commutation():
    d1 = WeylElement.partial(0, 1)
    a1 = WeylElement.coordinate(0, 1)
    assert (d1 * a1).render() == "a1 d1 + 1"
    assert (a1 * d1).render() == "a1 d1"


def test_euler_square():
    # verified against the action on monomials: (a d)^2 a^k = k^2 a^k
    e = WeylElement.coordinate(0, 1) * WeylElement.partial(0, 1)
    sq = e * e
    assert sq.render() == "a1^2 d1^2 + a1 d1"
    for k in range(5):
        # apply to a^k: a^u d^w contributes falling(k, w) * a^(k+u-w)
        val = sum(
            c * _falling(k, sum(w))
            for (u, w), c in sq.terms.items()
        )
        assert val == k * k


def _falling(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


def test_identity_neutral():
    rng = random.Random(1)
    one = WeylElement.one(2)
    for _ in range(10):
        x = random_element(rng)
        assert one * x == x
        assert x * one == x


def test_partial_coordinate_deltas():
    for n in (1, 2, 3):
        for i in range(n):
            for j in range(n):
                c = commutator(WeylElement.partial(i, n), WeylElement.coordinate(j, n))
                expected = WeylElement.one(n) if i == j else WeylElement.zero(n)
                assert c == expected
                assert commutator(
                    WeylElement.coordinate(i, n), WeylElement.coordinate(j, n)
                ).is_zero()
                assert commutator(
                    WeylElement.partial(i, n), WeylElement.partial(j, n)
                ).is_zero()


def test_disjoint_euler_factors_commute():
    e1 = WeylElement.coordinate(0, 2) * WeylElement.partial(0, 2)
    e2 = WeylElement.coordinate(1, 2) * WeylElement.partial(1, 2)
    assert commutator(e1, e2).is_zero()


def test_euler_box_commutator():
    # [sum a_i d_i, box] = -2 box for the degree-2 box
    n = 3
    euler = sum(
        (WeylElement.coordinate(i, n) * WeylElement.partial(i, n) for i in range(n)),
        start=WeylElement.zero(n),
    )
    box = fourier_box((1, -2, 1))
    assert commutator(euler, box) == box.scaled(-2)


def test_associativity_random():
    rng = random.Random(42)
    for _ in range(200):
        x = random_element(rng)
        y = random_element(rng)
        z = random_element(rng)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_normal_order_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        x = random_element(rng)
        rebuilt = WeylElement(x.nvars, dict(x.terms))
        assert rebuilt == x


def test_fourier_box_examples():
    assert fourier_box((1, -2, 1)).render() == "d1 d3 - d2^2"
    # d^(ell+) - d^(ell-): the positive part of (-3,1,1,1) is (0,1,1,1)
    z = (0, 0, 0, 0)
    expected = WeylElement(
        4, {(z, (0, 1, 1, 1)): Fraction(1), (z, (3, 0, 0, 0)): Fraction(-1)}
    )
    assert fourier_box((-3, 1, 1, 1)) == expected
    assert fourier_box((-3, 1, 1, 1)).render() == "-d1^3 + d2 d3 d4"
    assert fourier_box((0, 0)).is_zero()


def test_fourier_box_sign_antisymmetry():
    for ell in [(1, -2, 1), (-3, 1, 1, 1), (2, 0, -1, -1)]:
        s = fourier_box(ell) + fourier_box(tuple(-x for x in ell))
        assert s.is_zero()


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        multiply(WeylElement.one(2), WeylElement.one(3))


def test_term_and_relation_lengths_must_match_nvars():
    with pytest.raises(VariableMismatch, match="term exponent length"):
        WeylElement(2, {((0, 0), (1,)): 1})


def test_render_fractions():
    x = WeylElement.monomial((1,), (0,), Fraction(3, 4))
    assert x.render() == "3/4 a1"
    assert WeylElement.zero(2).render() == "0"


def _reference_multiply(x, y):
    # the merge-loop product that summed each key as it went, kept as the
    # oracle of the product that hands its raw terms to the constructor
    n = x.nvars
    terms = {}
    for (u, w), cx in x.terms.items():
        for (up, wp), cy in y.terms.items():
            c = cx * cy
            kranges = [range(min(w[i], up[i]) + 1) for i in range(n)]
            for k in product(*kranges):
                scale = 1
                for i in range(n):
                    if k[i]:
                        scale *= comb(w[i], k[i]) * _falling(up[i], k[i])
                key = (
                    tuple(u[i] + up[i] - k[i] for i in range(n)),
                    tuple(w[i] - k[i] + wp[i] for i in range(n)),
                )
                acc = terms.get(key, 0) + c * scale
                if acc == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = acc
    return terms


def _reference_sum(x, y, sign=1):
    terms = dict(x.terms)
    for key, c in y.terms.items():
        acc = terms.get(key, 0) + sign * c
        if acc == 0:
            terms.pop(key, None)
        else:
            terms[key] = acc
    return terms


def test_constructor_normal_form_matches_merge_loops():
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        x = random_element(rng, nvars, rng.randint(0, 4))
        y = random_element(rng, nvars, rng.randint(0, 4))
        xy, yx = _reference_multiply(x, y), _reference_multiply(y, x)
        assert multiply(x, y).terms == xy
        assert commutator(x, y).terms == _reference_sum(
            WeylElement(nvars, xy), WeylElement(nvars, yx), -1
        )
        assert (x + y).terms == _reference_sum(x, y)
        assert (x - y).terms == _reference_sum(x, y, -1)
        assert (x - x).is_zero()
        for element in (multiply(x, y), x + y, x - y):
            assert all(type(c) is Fraction and c for c in element.terms.values())


def test_constructor_reads_pairs_and_merges_exactly():
    z, d = (0,), (1,)
    pairs = [((z, d), 0.5), ((z, d), Fraction(1, 2)), ((z, z), 3), ((z, z), -3), ((d, z), 0)]
    x = WeylElement(1, pairs)
    assert x.terms == {(z, d): Fraction(1)}
    assert type(x.terms[z, d]) is Fraction
    assert x == WeylElement(1, iter(pairs)) == WeylElement.partial(0, 1)
    # lists are keys too: the constructor makes them tuples
    assert WeylElement(1, [(([0], [1]), 1)]) == WeylElement.partial(0, 1)
    with pytest.raises(VariableMismatch, match="term exponent length"):
        WeylElement(2, [(((0, 0), (1,)), 1)])


@pytest.mark.parametrize("scalar", [0, 2, Fraction(1, 3), 1.5])
def test_scalar_operands_raise_type_error(scalar):
    x = WeylElement.partial(0, 2)
    for op in (
        lambda: x + scalar, lambda: scalar + x, lambda: x - scalar,
        lambda: scalar - x, lambda: x * scalar, lambda: scalar * x,
    ):
        with pytest.raises(TypeError):
            op()
    # scalars enter through scaled and constant
    assert x.scaled(2) + WeylElement.constant(scalar, 2) == WeylElement(
        2, [(((0, 0), (1, 0)), 2), (((0, 0), (0, 0)), scalar)]
    )


def test_sum_needs_a_start_element():
    ops = [WeylElement.partial(i, 2) for i in range(2)]
    with pytest.raises(TypeError):
        sum(ops)
    assert sum(ops, start=WeylElement.zero(2)).render() == "d1 + d2"
