import math
import random
from fractions import Fraction

import sympy as sp
from hypothesis import given, settings, strategies as st

from gkz_forge import intlinalg


def smith_invariants(rows):
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Elementary Smith reduction; the oracle for saturated kernel bases.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    invariants = []
    top = 0
    while top < min(m, n):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for r in a:
            r[top], r[j0] = r[j0], r[top]
        while True:
            # clear row and column `top` by gcd steps
            done = True
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    for j in range(n):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        done = False
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for i in range(m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for i in range(m):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        done = False
            if done:
                break
        invariants.append(abs(a[top][top]))
        top += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(invariants) - 1):
            x, y = invariants[i], invariants[i + 1]
            if y % x:
                g = math.gcd(x, y)
                invariants[i], invariants[i + 1] = g, x * y // g
                changed = True
    return tuple(invariants)


class TestIntLinAlg:
    def test_det_examples(self):
        assert intlinalg.det([[1, 2], [3, 4]]) == -2
        assert intlinalg.det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert intlinalg.det([[1, 1], [1, 1]]) == 0
        assert intlinalg.det([]) == 1

    def test_det_random_vs_expansion(self):
        rng = random.Random(3)

        def cofactor_det(m):
            n = len(m)
            if n == 1:
                return m[0][0]
            return sum(
                (-1) ** j * m[0][j] * cofactor_det(
                    [row[:j] + row[j + 1 :] for row in m[1:]]
                )
                for j in range(n)
            )

        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert intlinalg.det(m) == cofactor_det(m)

    def test_hermite_form_canonical(self):
        h = intlinalg.hermite_form([(-3, 1, 1, 1)])
        assert h == ((3, -1, -1, -1),)
        h, u = intlinalg.hermite_form([[2, 4], [1, 3]], transform=True)
        assert h == ((1, 1), (0, 2))  # above-pivot entry reduced mod 2
        # u is unimodular and u @ a = h
        assert abs(intlinalg.det(u)) == 1
        a = [[2, 4], [1, 3]]
        prod = tuple(
            tuple(sum(u[i][k] * a[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert prod == h

    def test_kernel_basis_properties(self):
        rng = random.Random(4)
        for _ in range(25):
            m = rng.randint(1, 3)
            p = rng.randint(m + 1, m + 4)
            rows = [tuple(rng.randint(-3, 3) for _ in range(p)) for _ in range(m)]
            kb = intlinalg.kernel_basis(rows)
            for v in kb:
                assert all(
                    sum(r[j] * v[j] for j in range(p)) == 0 for r in rows
                )
            if kb:
                assert all(d == 1 for d in smith_invariants(kb))
            assert len(kb) == p - intlinalg.rank(rows)

    def test_smith_invariants(self):
        assert smith_invariants([[2, 0], [0, 3]]) == (1, 6)
        assert smith_invariants([[2, 4], [4, 8]]) == (2,)
        assert smith_invariants([[1, 0], [0, 1]]) == (1, 1)

    def test_solve_rational(self):
        x = intlinalg.solve_rational([[1, 1, 1], [-1, 0, 1]], [-1, 0])
        assert x == (Fraction(0), Fraction(-1), Fraction(0))
        assert intlinalg.solve_rational([[1, 1], [1, 1]], [0, 1]) is None

    def test_solve_integer(self):
        rows = [[1, 1, 1, 1], [0, 1, 0, -1], [0, 0, 1, -1]]
        x = intlinalg.integer_solver(rows)([-1, 0, 0])
        assert x is not None
        assert [sum(r[j] * x[j] for j in range(4)) for r in rows] == [-1, 0, 0]
        # unsolvable over the integers: parity obstruction
        assert intlinalg.integer_solver([[2]])([1]) is None


ENTRY = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def linear_system(draw):
    """A small integer or rational matrix and a right-hand side, consistent
    by construction about half of the time."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(ENTRY) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x = [draw(ENTRY) for _ in range(n)]
        rhs = [sum(r[j] * x[j] for j in range(n)) for r in rows]
    else:
        rhs = [draw(ENTRY) for _ in range(m)]
    return rows, rhs


class TestGaussJordanOracle:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(linear_system())
    def test_rank_and_solve_match_sympy(self, system):
        rows, rhs = system
        assert intlinalg.rank(rows) == sp.Matrix(rows).rank()
        try:
            sol, params = sp.Matrix(rows).gauss_jordan_solve(sp.Matrix(rhs))
        except ValueError:  # sympy: the system has no solution
            assert intlinalg.solve_rational(rows, rhs) is None
            return
        # free variables pinned to zero select the same solution
        expected = tuple(Fraction(str(v)) for v in sol.subs({p: 0 for p in params}))
        assert intlinalg.solve_rational(rows, rhs) == expected

    def test_inputs_are_not_modified(self):
        rows, rhs = [[2, 4], [1, 3]], [2, 1]
        assert intlinalg.solve_rational(rows, rhs) == (Fraction(1), Fraction(0))
        assert intlinalg.rank(rows) == 2
        assert rows == [[2, 4], [1, 3]] and rhs == [2, 1]
