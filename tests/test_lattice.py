import itertools
import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkz_forge import intlinalg, lattice
from gkz_forge.errors import (
    DegenerateConfiguration,
    DuplicatePoint,
    LimitExceeded,
    LowerDimensionalPolytope,
)


SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]
CROSS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def brute_force_kernel(A, bound=4):
    """Independent oracle: search small integer vectors with A.v = 0."""
    import itertools

    p = len(A[0])
    found = []
    for v in itertools.product(range(-bound, bound + 1), repeat=p):
        if any(v) and all(sum(r[j] * v[j] for j in range(p)) == 0 for r in A):
            found.append(v)
    return found


class TestHomogenize:
    def test_segment(self):
        em = lattice.homogenize(SEGMENT, 1)
        assert em.A == ((1, 1, 1), (-1, 0, 1))

    def test_hesse_shape_and_rank(self):
        em = lattice.homogenize(HESSE, 2)
        assert len(em.A) == 3 and len(em.A[0]) == 4

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint):
            lattice.homogenize([(1,), (1,)], 1)

    def test_rank_deficient(self):
        # all points on a line through the origin in dim 2
        with pytest.raises(DegenerateConfiguration):
            lattice.homogenize([(0, 0), (1, 1), (2, 2)], 2)

    def test_desk_limits(self):
        with pytest.raises(LimitExceeded):
            lattice.homogenize([(0,) * 5, tuple(range(5))], 5)
        # 30 sections exceed MAX_POINTS on every path, the Ehrhart oracle too
        many = [(i,) for i in range(30)]
        with pytest.raises(LimitExceeded):
            lattice.homogenize(many, 1)
        with pytest.raises(LimitExceeded):
            lattice.normalized_volume(many)
        with pytest.raises(LimitExceeded):
            lattice.ehrhart_volume_oracle(many)


class TestIntegerKernel:
    def test_segment_kernel(self):
        em = lattice.homogenize(SEGMENT, 1)
        k = lattice.integer_kernel(em)
        assert k == ((1, -2, 1),)

    def test_square_invertible_is_empty(self):
        em = lattice.homogenize([(0, 0), (1, 0), (0, 1)], 2)
        assert lattice.integer_kernel(em) == ()

    def test_hesse_kernel_up_to_sign(self):
        em = lattice.homogenize(HESSE, 2)
        (v,) = lattice.integer_kernel(em)
        assert v in ((3, -1, -1, -1), (-3, 1, 1, 1))
        assert v[0] > 0  # canonical sign

    def test_brute_force_agreement(self):
        for pts, dim in [(SEGMENT, 1), (HESSE, 2), (CROSS, 2)]:
            em = lattice.homogenize(pts, dim)
            k = lattice.integer_kernel(em)
            brute = brute_force_kernel(em.A)
            for v in k:
                assert all(
                    sum(r[j] * v[j] for j in range(len(v))) == 0 for r in em.A
                )
                assert v in brute

    def test_permutation_consistency(self):
        rng = random.Random(7)
        pts = HESSE
        em = lattice.homogenize(pts, 2)
        base = lattice.integer_kernel(em)
        for _ in range(5):
            perm = list(range(len(pts)))
            rng.shuffle(perm)
            em2 = lattice.homogenize([pts[i] for i in perm], 2)
            k2 = lattice.integer_kernel(em2)
            # permuting points permutes kernel coordinates: compare spans
            permuted = sorted(
                tuple(v[perm.index(j)] for j in range(len(pts))) for v in k2
            )
            from gkz_forge.intlinalg import hermite_form

            assert hermite_form(sorted(base)) == hermite_form(permuted)


small_matrices = st.integers(1, 2).flatmap(
    lambda m: st.integers(m + 1, m + 3).flatmap(
        lambda p: st.lists(
            st.lists(st.integers(-3, 3), min_size=p, max_size=p), min_size=m, max_size=m
        )
    )
)


class TestLatticeWalk:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(small_matrices, st.data())
    def test_coordinates_round_trip(self, rows, data):
        basis = intlinalg.kernel_basis(rows)
        p = len(rows[0])
        walk = lattice.LatticeWalk(basis, p)
        columns = [tuple(b[j] for b in basis) for j in range(p)]
        window = walk.window(1)
        assert [c for c, _ in window] == sorted(c for c, _ in window)
        assert len(window) == 3 ** len(basis)
        for coords, v in window:
            assert v == tuple(sum(c * b[j] for c, b in zip(coords, basis)) for j in range(p))
            assert walk.coords(v) == coords
            if basis:
                assert intlinalg.integer_solver(columns)(v) == coords
        # the kernel is saturated: off the kernel means off the lattice
        e = data.draw(st.lists(st.integers(-2, 2), min_size=p, max_size=p))
        if any(sum(r[j] * e[j] for j in range(p)) for r in rows):
            _, v = data.draw(st.sampled_from(window))
            assert walk.coords([x + y for x, y in zip(v, e)]) is None
        # a vector of the rational span outside a sublattice has no coordinates
        if basis:
            doubled = lattice.LatticeWalk([[2 * x for x in b] for b in basis], p)
            assert doubled.coords(basis[0]) is None
            assert doubled.coords([2 * x for x in basis[0]]) == (1,) + (0,) * (len(basis) - 1)

    def test_empty_basis_spans_the_zero_offset(self):
        walk = lattice.LatticeWalk((), 3)
        assert walk.window(4) == [((), (0, 0, 0))]
        assert walk.coords((0, 0, 0)) == ()
        assert walk.coords((0, 1, 0)) is None

    def test_window_over_the_cap_raises_before_enumerating(self):
        # 13^5 = 371,293 offsets: refused at once, not built
        walk = lattice.LatticeWalk(
            [tuple(int(i == k) for i in range(5)) for k in range(5)], 5
        )
        start = time.perf_counter()
        with pytest.raises(LimitExceeded, match="window of 371293 offsets"):
            walk.window(6)
        assert time.perf_counter() - start < 0.1

    def test_window_at_the_cap_enumerates(self, monkeypatch):
        segment = lattice.LatticeWalk([(1,)], 1)
        assert len(segment.window((lattice.MAX_WINDOW - 1) // 2)) == lattice.MAX_WINDOW - 1
        with pytest.raises(LimitExceeded):
            segment.window(lattice.MAX_WINDOW // 2)
        # a cap of exactly 3^3 offsets admits the rank-3 window of radius 1
        monkeypatch.setattr(lattice, "MAX_WINDOW", 27)
        cube = lattice.LatticeWalk([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert len(cube.window(1)) == 27
        with pytest.raises(LimitExceeded):
            cube.window(2)


def plain_dilate_counts(pts, facets):
    """Reference: lattice points of k*conv(pts), k = 0..n, one by one with itertools.product."""
    n = len(pts[0])
    lo = [min(p[j] for p in pts) for j in range(n)]
    hi = [max(p[j] for p in pts) for j in range(n)]
    counts = []
    for k in range(n + 1):
        box = itertools.product(*(range(k * lo[j], k * hi[j] + 1) for j in range(n)))
        counts.append(sum(
            all(sum(c * v for c, v in zip(normal, x)) <= k * offset for normal, offset, _ in facets)
            for x in box
        ))
    return counts


@st.composite
def full_dimensional_points(draw):
    n = draw(st.integers(1, 4))
    coord = st.integers(-2, 2) if n < 4 else st.integers(-1, 1)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 4, unique=True))
    assume(lattice._affine_rank(pts) == n)
    return pts


class TestVolumes:
    def test_examples(self):
        assert lattice.normalized_volume(SEGMENT) == 2
        assert lattice.normalized_volume([(1, 0), (0, 1), (-1, -1)]) == 3
        assert lattice.normalized_volume(HESSE) == 3
        assert lattice.normalized_volume(CROSS) == 4

    def test_unit_simplices(self):
        for n in range(1, 5):
            pts = [(0,) * n] + [
                tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
            ]
            assert lattice.normalized_volume(pts) == 1
            assert lattice.ehrhart_volume_oracle(pts) == 1

    def test_ehrhart_examples(self):
        assert lattice.ehrhart_volume_oracle(SEGMENT) == 2
        assert lattice.ehrhart_volume_oracle([(1, 0), (0, 1), (-1, -1)]) == 3

    def test_segment_dilate_counts(self):
        # 3 points at k=1, 5 at k=2 for the segment [-1, 1]
        facets = lattice._facet_hyperplanes([(-1,), (0,), (1,)])
        counts = []
        for k in (1, 2):
            counts.append(
                sum(
                    1
                    for x in range(-k, k + 1)
                    if all(c[0] * x <= k * off for c, off, _ in facets)
                )
            )
        assert counts == [3, 5]

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(full_dimensional_points())
    def test_ehrhart_counts_match_plain_enumeration(self, pts):
        n = len(pts[0])
        facets = lattice._facet_hyperplanes(pts)
        counts = plain_dilate_counts(pts, facets)
        assert lattice._dilate_counts(pts, facets) == counts
        # n! times the Ehrhart leading coefficient is the n-th difference of the counts
        volume = sum((-1) ** (n - k) * math.comb(n, k) * counts[k] for k in range(n + 1))
        assert lattice.ehrhart_volume_oracle(pts) == volume

    def test_ehrhart_box_beyond_int64_is_refused(self):
        with pytest.raises(LimitExceeded):
            lattice.ehrhart_volume_oracle([(0,), (2**63,)])
        with pytest.raises(LimitExceeded):
            lattice.ehrhart_volume_oracle([(0, 0), (1, 0), (0, 2**61)])

    def test_lower_dimensional(self):
        with pytest.raises(LowerDimensionalPolytope):
            lattice.normalized_volume([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(LowerDimensionalPolytope):
            lattice.ehrhart_volume_oracle([(0,)])

    def test_oracle_matches_triangulation_randomized(self):
        rng = random.Random(2024)
        trials = 0
        while trials < 30:
            n = rng.choice([1, 2, 3])
            pts = {
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(n + 1, n + 4))
            }
            pts = sorted(pts)
            try:
                vol = lattice.normalized_volume(pts)
            except LowerDimensionalPolytope:
                continue
            assert vol == lattice.ehrhart_volume_oracle(pts), pts
            trials += 1

    def test_unimodular_and_translation_invariance(self):
        rng = random.Random(5)
        pts = HESSE
        base = lattice.normalized_volume(pts)
        for _ in range(10):
            # random unimodular transform from elementary shears
            u = [[1, 0], [0, 1]]
            for _ in range(4):
                i, j = rng.sample([0, 1], 2)
                c = rng.randint(-2, 2)
                for k in range(2):
                    u[i][k] += c * u[j][k]
            t = (rng.randint(-3, 3), rng.randint(-3, 3))
            moved = [
                (
                    u[0][0] * x + u[0][1] * y + t[0],
                    u[1][0] * x + u[1][1] * y + t[1],
                )
                for x, y in pts
            ]
            assert lattice.normalized_volume(moved) == base
