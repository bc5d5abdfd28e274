from fractions import Fraction
from operator import le

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkz_forge import intlinalg, lattice, series, tautsys
from gkz_forge.errors import DegenerateConfiguration, SaturationBudgetExceeded
from gkz_forge.weyl import commutator, fourier_box


SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]
TWISTED_CUBIC = [(0,), (1,), (2,), (3,)]
CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_gkz_segment_operators():
    A = lattice.homogenize(SEGMENT, 1)
    spec = tautsys.gkz_system(A, (1, 0))
    rendered = [op.render() for op in spec.operators]
    assert rendered == [
        "d1 d3 - d2^2",
        "a1 d1 + a2 d2 + a3 d3 + 1",
        "-a1 d1 + a3 d3",
    ]


def test_gkz_hesse_operators():
    A = lattice.homogenize(HESSE, 2)
    spec = tautsys.gkz_system(A, (1, 0, 0))
    boxes = [op for op in spec.operators if op.order() == 3]
    assert len(boxes) == 1
    assert boxes[0] == fourier_box((3, -1, -1, -1))
    assert len(spec.operators) == 4  # one box, three Euler rows


def test_gkz_empty_kernel_only_euler():
    A = lattice.homogenize([(0, 0), (1, 0), (0, 1)], 2)
    spec = tautsys.gkz_system(A, (1, 0, 0))
    assert len(spec.operators) == 3
    assert all(op.order() == 1 for op in spec.operators)


def test_cy_constant_terms():
    A = lattice.homogenize(HESSE, 2)
    spec = tautsys.gkz_system(A, tautsys.cy_beta(2))
    zero_key = ((0,) * 4, (0,) * 4)
    euler_ops = [op for op in spec.operators if op.order() == 1]
    consts = [op.terms.get(zero_key) for op in euler_ops]
    assert consts[0] == 1
    assert all(c is None for c in consts[1:])


def test_symmetry_operator_identity_is_euler():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    op = tautsys.symmetry_operator(eye, 1)
    assert op.render() == "a1 d1 + a2 d2 + a3 d3 + 1"


def test_symmetry_operator_zero_matrix():
    z = [[0] * 2 for _ in range(2)]
    op = tautsys.symmetry_operator(z, Fraction(5, 2))
    assert op.render() == "5/2"


def test_malformed_symmetry_matrix_or_beta_rejected():
    with pytest.raises(ValueError, match="square"):
        tautsys.symmetry_operator([[1, 0], [0]], 1)
    with pytest.raises(ValueError, match="length 2"):
        tautsys.gkz_system(lattice.homogenize(SEGMENT, 1), (1, 0, 0))


def test_symmetry_operator_linearity():
    import random

    rng = random.Random(11)
    for _ in range(10):
        x = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        y = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        bx, by = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        s = [[x[i][j] + y[i][j] for j in range(2)] for i in range(2)]
        assert tautsys.symmetry_operator(s, bx + by) == (
            tautsys.symmetry_operator(x, bx) + tautsys.symmetry_operator(y, by)
        )


def test_translation_generator_matches_flow():
    # flow of x -> x + t y on (x^2, xy, y^2) coefficients: da2 = 2 a1, da3 = a2
    up = tautsys.unipotent_p1_system()
    assert up.operators[2].render() == "2 a1 d2 + a2 d3"


class TestUnipotentResiduals:
    def setup_method(self):
        self.spec = tautsys.unipotent_p1_system()

    def residuals(self, gamma):
        cand = series.monomial_series(gamma)
        return series.annihilate_check(self.spec, cand)

    def test_inverse_a1_annihilated(self):
        reports = self.residuals((-1, 0, 0))
        assert all(r.clean for r in reports)

    def test_inverse_a3_fails_symmetry(self):
        reports = self.residuals((0, 0, -1))
        # box and scaling clean, translation leaves -a2/a3^2
        assert reports[0].clean and reports[1].clean
        assert not reports[2].clean
        (key, value), = reports[2].residual.terms.items()
        assert value == -1
        offset, logs = key
        assert tuple(offset) == (0, 1, -1) and not any(logs)

    def test_constant_fails_euler(self):
        reports = self.residuals((0, 0, 0))
        assert not reports[1].clean
        ((_, value),) = tuple(reports[1].residual.terms.items())
        assert value == 1


def test_box_euler_commutator_identity():
    # [E_k, box_ell] = -(A_k . ell+) box_ell, the same multiple from ell-, on
    # every generator of I_A, also those the kernel basis lacks (the twisted
    # cubic's d1 d4 - d2 d3, the cross with its origin's d1 d2 - d3 d4)
    families = [(SEGMENT, 1), (HESSE, 2), (CROSS, 2), (TWISTED_CUBIC, 1), (CROSS + [(0, 0)], 2)]
    for pts, dim in families:
        A = lattice.homogenize(pts, dim)
        spec = tautsys.gkz_system(A, tautsys.cy_beta(dim))
        gens = tautsys.saturate_lattice_ideal(lattice.integer_kernel(A))
        boxes = tuple(fourier_box(ell) for ell in gens)
        assert spec.operators[: len(gens)] == boxes
        eulers = spec.operators[len(gens) :]
        for ell, box in zip(gens, boxes):
            plus = [max(x, 0) for x in ell]
            minus = [max(-x, 0) for x in ell]
            for row, e_op in zip(A.A, eulers):
                cp = sum(r * x for r, x in zip(row, plus))
                cm = sum(r * x for r, x in zip(row, minus))
                assert cp == cm  # the multiple is well defined since A.ell = 0
                assert commutator(e_op, box) == box.scaled(-cp)


# -- oracle: the lex engine with an adjoined variable t ------------------------
#
# Saturates by each x_i in turn by adjoining t*x_i - 1 and eliminating t with
# a lexicographic Groebner basis; a generator is (lead, trail) with lead the
# lex-larger tuple.  Returns the minimal generating set read off that basis.


def _lex_saturation(kernel, step_cap=20000):
    budget = [step_cap]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise SaturationBudgetExceeded("oracle cap exceeded")

    def step(m, basis):
        spend()
        for c, d in basis:
            if all(map(le, c, m)):
                return tuple(x - y + z for x, y, z in zip(m, c, d))
        return None

    def reduce(a, b, basis):
        while (m := step(a, basis)) is not None:
            if m == b:
                return None
            a, b = max(m, b), min(m, b)
        while (m := step(b, basis)) is not None:
            b = m
        return a, b

    def buchberger(basis):
        basis = list(basis)
        for i, (lf, tf) in enumerate(basis):
            for lg, tg in basis[:i]:
                spend()
                if not any(map(min, lf, lg)):
                    continue
                lcm = tuple(map(max, lf, lg))
                u = tuple(m - x + y for m, x, y in zip(lcm, lf, tf))
                v = tuple(m - x + y for m, x, y in zip(lcm, lg, tg))
                if u != v and (s := reduce(max(u, v), min(u, v), basis)):
                    basis.append(s)
        return basis

    p = len(kernel[0])
    gens = []
    for ell in kernel:
        plus, minus = tuple(max(x, 0) for x in ell), tuple(max(-x, 0) for x in ell)
        gens.append((max(plus, minus), min(plus, minus)))
    for i in range(p):
        relation = ((1,) + tuple(int(j == i) for j in range(p)), (0,) * (p + 1))
        lifted = [((0,) + a, (0,) + b) for a, b in gens] + [relation]
        gens = [(a[1:], b[1:]) for a, b in buchberger(lifted) if a[0] == 0]
    kept = []
    for lead, trail in sorted(gens):
        if not any(all(map(le, c, lead)) for c, _ in kept):
            kept.append((lead, trail))
    return tuple(sorted(tuple(a - b for a, b in zip(lead, trail)) for lead, trail in kept))


def _reduces_to_zero(v, basis, lead):
    """Whether x^v+ - x^v- lies in the ideal of the Groebner basis ``basis``
    (vectors) whose binomials lead with ``lead`` (min or max) of their terms."""
    pairs = []
    for w in basis:
        a, b = tuple(max(x, 0) for x in w), tuple(max(-x, 0) for x in w)
        pairs.append((a, b) if lead(a, b) == a else (b, a))

    def normal_form(m):
        while g := next((g for g in pairs if all(map(le, g[0], m))), None):
            m = tuple(x - c + d for x, c, d in zip(m, *g))
        return m

    return normal_form(tuple(max(x, 0) for x in v)) == normal_form(tuple(max(-x, 0) for x in v))


class TestSaturation:
    def test_principal_families_fixed(self):
        for pts, dim in [(SEGMENT, 1), (HESSE, 2)]:
            k = lattice.integer_kernel(lattice.homogenize(pts, dim))
            assert tautsys.saturate_lattice_ideal(k) == k

    def test_empty_kernel(self):
        k = lattice.integer_kernel(lattice.homogenize([(0, 0), (1, 0), (0, 1)], 2))
        assert tautsys.saturate_lattice_ideal(k) == ()

    def test_twisted_cubic_gains_generator(self):
        k = lattice.integer_kernel(lattice.homogenize([(0,), (1,), (2,), (3,)], 1))
        gens = tautsys.saturate_lattice_ideal(k)
        assert set(gens) == {(0, 1, -2, 1), (1, -2, 1, 0), (1, -1, -1, 1)}
        # every generator lies in the kernel: vanishes on the monomial curve
        A = lattice.homogenize([(0,), (1,), (2,), (3,)], 1).A
        for v in gens:
            assert all(sum(r[j] * v[j] for j in range(4)) == 0 for r in A)

    def test_quotient_stability_of_principal_ideal(self):
        # saturating twice changes nothing
        k = lattice.integer_kernel(lattice.homogenize(SEGMENT, 1))
        once = tautsys.saturate_lattice_ideal(k)
        again = tautsys.saturate_lattice_ideal(once)
        assert once == again

    def test_budget_cap(self, monkeypatch):
        k = lattice.integer_kernel(lattice.homogenize([(0,), (1,), (2,), (3,)], 1))
        monkeypatch.setattr(tautsys, "MAX_SATURATION_STEPS", 3)
        with pytest.raises(SaturationBudgetExceeded):
            tautsys.saturate_lattice_ideal(k)

    # (points, dim, reduced Groebner basis, smallest step cap that passes);
    # one step per S-pair and per reduction step, so the cap pins the
    # engine's work too
    PINNED = [
        pytest.param(
            [(0,), (1,), (2,), (3,)],
            1,
            ((0, 1, -2, 1), (1, -2, 1, 0), (1, -1, -1, 1)),
            22,
            id="twisted-cubic",
        ),
        pytest.param(
            [(0,), (1,), (2,), (3,), (4,)],
            1,
            (
                (0, 0, 1, -2, 1), (0, 1, -1, -1, 1), (1, -2, 1, 0, 0),
                (1, -1, -1, 1, 0), (1, -1, 0, -1, 1), (1, 0, -2, 0, 1),
            ),
            185,
            id="rational-normal-quartic",
        ),
        pytest.param(
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)],
            2,
            (
                (1, -1, -1, 0, 0, 1), (1, 0, 1, -1, 0, -1), (1, 1, 0, 0, -1, -1),
                (2, -1, 0, -1, 0, 0), (2, 0, -1, 0, -1, 0),
            ),
            242,
            id="cross-origin-corner",
        ),
        pytest.param(
            [(0, 3), (1, -2), (1, 3), (2, -1), (3, 3)],
            2,
            ((1, -4, 0, 5, -2), (2, 0, -3, 0, 1)),
            63,
            id="five-points",
        ),
    ]

    @pytest.mark.parametrize("points, dim, gens, cap", PINNED)
    def test_pinned_generators_and_step_cap(self, points, dim, gens, cap, monkeypatch):
        k = lattice.integer_kernel(lattice.homogenize(points, dim))
        monkeypatch.setattr(tautsys, "MAX_SATURATION_STEPS", cap)
        assert tautsys.saturate_lattice_ideal(k) == gens
        monkeypatch.setattr(tautsys, "MAX_SATURATION_STEPS", cap - 1)
        with pytest.raises(SaturationBudgetExceeded):
            tautsys.saturate_lattice_ideal(k)

    def test_unbalanced_vectors_rejected(self):
        with pytest.raises(ValueError):
            tautsys.saturate_lattice_ideal([(1, -2, 2)])

    # coordinate boxes per dimension; on the full-rank sets of dim + 2 or
    # dim + 3 points in them drawn below, each saturation takes at most 60
    # steps, well inside the default cap of 20,000
    BOXES = {1: (-2, 2), 2: (-1, 1), 3: (0, 1)}

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        st.sampled_from(sorted(BOXES)).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.lists(
                    st.tuples(*[st.integers(*TestSaturation.BOXES[dim])] * dim),
                    min_size=dim + 2,
                    max_size=dim + 3,
                    unique=True,
                ),
            )
        )
    )
    def test_saturation_properties(self, case):
        dim, points = case
        try:
            A = lattice.homogenize(points, dim)
        except DegenerateConfiguration:
            assume(False)
        kernel = lattice.integer_kernel(A)
        gens = tautsys.saturate_lattice_ideal(kernel)
        # each generator x^a - x^b lies in I_A: A a = A b
        for v in gens:
            assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in A.A)
        # together they span the kernel lattice, whose Hermite form is unique
        assert tuple(r for r in intlinalg.hermite_form(gens) if any(r)) == kernel
        # the ideal is the lex engine's: each basis reduces the other's
        # generators to zero (leads: lex-smaller terms here, lex-larger there)
        oracle = _lex_saturation(kernel)
        assert all(_reduces_to_zero(v, gens, min) for v in oracle)
        assert all(_reduces_to_zero(v, oracle, max) for v in gens)
        # the output depends only on the ideal: not on the order or sign of
        # the kernel rows, and saturating it returns it
        negated = [tuple(-x for x in v) for v in kernel]
        for rows in (negated[::-1], negated[:1] + list(kernel[1:]), gens):
            assert tautsys.saturate_lattice_ideal(rows) == gens
