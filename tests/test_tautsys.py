from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkz_forge import intlinalg, lattice, series, tautsys
from gkz_forge.errors import DegenerateConfiguration, SaturationBudgetExceeded
from gkz_forge.weyl import commutator, fourier_box


SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]


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
    # [E_k, box_ell] = -(A_k . ell+) box_ell, the same multiple from ell-
    for pts, dim in [(SEGMENT, 1), (HESSE, 2), ([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)]:
        A = lattice.homogenize(pts, dim)
        spec = tautsys.gkz_system(A, tautsys.cy_beta(dim))
        kernel = lattice.integer_kernel(A)
        boxes = spec.operators[: len(kernel)]
        eulers = spec.operators[len(kernel) :]
        for ell, box in zip(kernel, boxes):
            plus = [max(x, 0) for x in ell]
            minus = [max(-x, 0) for x in ell]
            for row, e_op in zip(A.A, eulers):
                cp = sum(r * x for r, x in zip(row, plus))
                cm = sum(r * x for r, x in zip(row, minus))
                assert cp == cm  # the multiple is well defined since A.ell = 0
                assert commutator(e_op, box) == box.scaled(-cp)


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

    def test_budget_cap(self):
        k = lattice.integer_kernel(lattice.homogenize([(0,), (1,), (2,), (3,)], 1))
        with pytest.raises(SaturationBudgetExceeded):
            tautsys.saturate_lattice_ideal(k, step_cap=3)

    # (points, dim, generators, smallest step cap that passes); one step per
    # S-pair and per reduction step, so the cap pins the engine's work too
    PINNED = [
        (
            [(0,), (1,), (2,), (3,)],
            1,
            ((0, 1, -2, 1), (1, -2, 1, 0), (1, -1, -1, 1)),
            356,
        ),
        (
            [(0,), (1,), (2,), (3,), (4,)],
            1,
            (
                (0, 0, 1, -2, 1), (0, 1, -2, 1, 0), (0, 1, -1, -1, 1),
                (1, -2, 1, 0, 0), (1, -1, -1, 1, 0), (1, -1, 0, -1, 1),
            ),
            5935,
        ),
        (
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)],
            2,
            (
                (0, 0, 3, -2, 1, -2), (0, 1, -1, 1, -1, 0), (0, 1, 2, -1, 0, -2),
                (0, 2, 1, 0, -1, -2), (1, -1, -1, 0, 0, 1), (1, 0, 1, -1, 0, -1),
                (1, 1, 0, 0, -1, -1), (2, -1, 0, -1, 0, 0),
            ),
            2084,
        ),
        (
            [(0, 3), (1, -2), (1, 3), (2, -1), (3, 3)],
            2,
            ((0, 8, -3, -10, 5), (1, -4, 0, 5, -2), (1, 4, -3, -5, 3), (2, 0, -3, 0, 1)),
            19739,
        ),
    ]

    @pytest.mark.parametrize("points, dim, gens, cap", PINNED)
    def test_pinned_generators_and_step_cap(self, points, dim, gens, cap):
        k = lattice.integer_kernel(lattice.homogenize(points, dim))
        assert tautsys.saturate_lattice_ideal(k, step_cap=cap) == gens
        with pytest.raises(SaturationBudgetExceeded):
            tautsys.saturate_lattice_ideal(k, step_cap=cap - 1)

    # coordinate boxes per dimension; over every full-rank set of dim + 2 or
    # dim + 3 points in them, saturating the kernel and then its output
    # takes at most 5,195 steps, well inside the default cap of 20,000
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
        assert tautsys.saturate_lattice_ideal(gens) == gens
