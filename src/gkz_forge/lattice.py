"""Exact lattice geometry for toric section data.

This module owns the combinatorial seed of every system built by the
package: homogenized exponent matrices, their saturated integer kernels,
the walk over a kernel lattice (window offsets and their coordinates),
normalized polytope volumes (the rank prediction) and the independent
Ehrhart counting oracle.

All arithmetic in this module is exact.  Floating point is deliberately
banned here: the normalized volume *is* the predicted solution rank and a
single rounding error would silently change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DuplicatePoint,
    LimitExceeded,
    LowerDimensionalPolytope,
    NonIntegerVolume,
)
from . import intlinalg

MAX_DIM = 4
MAX_POINTS = 24
# offsets in one lattice window, (2 * radius + 1) ** kernel rank
MAX_WINDOW = 10_000


@dataclass(frozen=True)
class ExponentMatrix:
    """Homogenized exponent matrix of a monomial basis.

    ``points`` are the Laurent exponents of the basis monomials; ``A`` is the
    (dim+1) x p integer matrix whose first row is all ones (the homogenizing
    Euler direction) and whose remaining rows list the point coordinates.
    """

    dim: int
    points: tuple
    A: tuple

    @property
    def nsections(self):
        return len(self.points)

    def degree(self, column_exponents):
        """A-degree of a monomial given by rational column exponents."""
        return tuple(
            sum(Fraction(row[j]) * Fraction(column_exponents[j]) for j in range(self.nsections))
            for row in self.A
        )


class LatticeWalk:
    """Integer combinations ``sum_k c_k basis_k`` of independent rows in Z^nvars.

    ``window`` walks the coordinate box and ``coords`` inverts it.  The
    Hermite form that ``coords`` back-substitutes on is computed once, when
    the walk is made.  An empty basis spans only the zero offset.
    """

    def __init__(self, basis, nvars):
        self.basis = tuple(tuple(b) for b in basis)
        self._solve = intlinalg.integer_solver(
            [tuple(b[j] for b in self.basis) for j in range(nvars)]
        )
        self.nvars = nvars

    def window(self, radius):
        """``(coords, offset)`` for every coordinate vector of max norm at most
        ``radius``, in lexicographic order of the coordinates.

        Raises LimitExceeded, before enumerating anything, when the window
        has more than ``MAX_WINDOW`` offsets.
        """
        size = (2 * radius + 1) ** len(self.basis)
        if size > MAX_WINDOW:
            raise LimitExceeded(
                f"lattice window of {size} offsets (radius {radius}, kernel rank "
                f"{len(self.basis)}) exceeds the supported cap of {MAX_WINDOW}"
            )
        out = []
        for c in product(range(-radius, radius + 1), repeat=len(self.basis)):
            v = tuple(sum(ck * b[j] for ck, b in zip(c, self.basis)) for j in range(self.nvars))
            out.append((c, v))
        return out

    def coords(self, v):
        """Coordinates of the offset ``v``, or None when ``v`` is off the lattice."""
        return self._solve(v)


def homogenize(points, dim):
    """Assemble the homogenized exponent matrix from Laurent exponents.

    Raises DuplicatePoint for repeated points and DegenerateConfiguration
    when the homogenized matrix does not have full row rank dim+1.
    """
    pts = tuple(tuple(int(x) for x in p) for p in points)
    if not pts:
        raise DegenerateConfiguration("no points given")
    if not 1 <= dim <= MAX_DIM:
        raise LimitExceeded(f"dimension {dim} outside supported range 1..{MAX_DIM}")
    if len(pts) > MAX_POINTS:
        raise LimitExceeded(f"{len(pts)} points exceed the supported cap of {MAX_POINTS}")
    seen = set()
    for p in pts:
        if len(p) != dim:
            raise DegenerateConfiguration(f"point {p} does not have dimension {dim}")
        if p in seen:
            raise DuplicatePoint(f"point {p} appears twice")
        seen.add(p)
    rows = [(1,) * len(pts)]
    for k in range(dim):
        rows.append(tuple(p[k] for p in pts))
    a = tuple(rows)
    if intlinalg.rank(a) != dim + 1:
        raise DegenerateConfiguration(
            "exponent matrix is rank deficient; points lie on a hyperplane"
        )
    return ExponentMatrix(dim=dim, points=pts, A=a)


def integer_kernel(em: ExponentMatrix) -> tuple:
    """Canonical saturated basis of the integer kernel of ``em.A``, a tuple
    of integer vectors (empty when the kernel is zero).

    The basis is Hermite-reduced with the first nonzero entry of every
    vector positive, so downstream operator generation is deterministic.
    """
    return intlinalg.kernel_basis(em.A)


# -- convex hull and volumes -------------------------------------------------


def _dedupe(points):
    out = []
    seen = set()
    for p in points:
        t = tuple(int(x) for x in p)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _polytope_points(points):
    """The distinct points of a full-dimensional polytope within the
    desk-scale caps.

    Raises LowerDimensionalPolytope for an empty or flat point set and
    LimitExceeded outside dimensions 1..MAX_DIM or beyond MAX_POINTS points.
    """
    pts = _dedupe(points)
    if not pts:
        raise LowerDimensionalPolytope("empty point set")
    n = len(pts[0])
    if not 1 <= n <= MAX_DIM:
        raise LimitExceeded(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if len(pts) > MAX_POINTS:
        raise LimitExceeded(f"{len(pts)} points exceed the supported cap of {MAX_POINTS}")
    if _affine_rank(pts) != n:
        raise LowerDimensionalPolytope("points do not span the ambient dimension")
    return pts


def _affine_rank(pts):
    if len(pts) < 2:
        return 0
    base = pts[0]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    return intlinalg.rank(diffs)


def _cofactor_normal(diffs, d):
    """Generalized cross product of d-1 integer vectors in Z^d."""
    normal = []
    for j in range(d):
        minor = [[row[k] for k in range(d) if k != j] for row in diffs]
        normal.append((-1) ** j * intlinalg.det(minor))
    return tuple(normal)


def _facet_hyperplanes(pts):
    """All facet inequalities c.x <= c0 of conv(pts), with incident points.

    Brute-force gift wrapping: every d-subset spanning a hyperplane is
    tested for having all points on one side.  Returns a list of
    ``(normal, offset, indices)`` with primitive integer normals.
    """
    d = len(pts[0])
    facets = {}
    if d == 1:
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        facets[((1,), hi)] = None
        facets[((-1,), -lo)] = None
    else:
        for subset in combinations(range(len(pts)), d):
            base = pts[subset[0]]
            diffs = [tuple(x - y for x, y in zip(pts[i], base)) for i in subset[1:]]
            normal = _cofactor_normal(diffs, d)
            if all(x == 0 for x in normal):
                continue
            g = math.gcd(*(abs(x) for x in normal))
            normal = tuple(x // g for x in normal)
            offset = sum(c * x for c, x in zip(normal, base))
            sides = [sum(c * x for c, x in zip(normal, p)) - offset for p in pts]
            if all(s <= 0 for s in sides):
                facets[(normal, offset)] = None
            elif all(s >= 0 for s in sides):
                facets[(tuple(-c for c in normal), -offset)] = None
    out = []
    for normal, offset in facets:
        idx = tuple(
            i
            for i, p in enumerate(pts)
            if sum(c * x for c, x in zip(normal, p)) == offset
        )
        out.append((normal, offset, idx))
    out.sort()
    return out


def _triangulate(pts):
    """Simplices (as index tuples) of a star triangulation of conv(pts).

    ``pts`` must be distinct and span their ambient dimension.  Facets not
    containing the base point are triangulated recursively in a projected
    chart; each recursion level drops one coordinate along which the facet
    normal is nonzero, which is an affine isomorphism on the facet.
    """
    d = len(pts[0])
    if d == 1:
        xs = [p[0] for p in pts]
        return [(xs.index(min(xs)), xs.index(max(xs)))]
    base = 0
    simplices = []
    for normal, offset, idx in _facet_hyperplanes(pts):
        if sum(c * x for c, x in zip(normal, pts[base])) == offset:
            continue
        drop = max(range(d), key=lambda j: abs(normal[j]))
        facet_pts = [tuple(x for k, x in enumerate(pts[i]) if k != drop) for i in idx]
        for sub in _triangulate(facet_pts):
            simplices.append((base,) + tuple(idx[i] for i in sub))
    return simplices


def normalized_volume(points) -> int:
    """n! times the Euclidean volume of the convex hull of ``points``.

    Computed by exact gift wrapping plus a star triangulation; each simplex
    contributes the absolute determinant of its edge matrix, so the result
    is an exact integer.  Raises LowerDimensionalPolytope when the hull is
    not full-dimensional.
    """
    pts = _polytope_points(points)
    total = 0
    for simplex in _triangulate(pts):
        base = pts[simplex[0]]
        edges = [tuple(x - y for x, y in zip(pts[i], base)) for i in simplex[1:]]
        total += abs(intlinalg.det(edges))
    return total


def _dilate_counts(pts, facets):
    """Lattice points of k*conv(pts) for k = 0..n, counted by int64 numpy
    passes over bounding boxes, one slice of the first coordinate at a time."""
    n = len(pts[0])
    lo = [min(p[j] for p in pts) for j in range(n)]
    hi = [max(p[j] for p in pts) for j in range(n)]
    reach = [n * max(-a, b) for a, b in zip(lo, hi)]
    # |c.x| and k*c0 over every dilate's box must fit int64, or numpy wraps
    largest = max(n * abs(c0) + sum(abs(x) * r for x, r in zip(c, reach)) for c, c0, _ in facets)
    if largest > np.iinfo(np.int64).max:
        raise LimitExceeded(f"Ehrhart counting box reaches {largest}, beyond int64")
    normals = np.array([c for c, _, _ in facets], dtype=np.int64)
    offsets = np.array([c0 for _, c0, _ in facets], dtype=np.int64)
    counts = []
    for k in range(n + 1):
        rest = np.zeros((1, 0), dtype=np.int64)  # the box of coordinates 2..n
        for j in range(1, n):
            axis = np.arange(k * lo[j], k * hi[j] + 1, dtype=np.int64)
            rest = np.column_stack([np.repeat(rest, len(axis), axis=0), np.tile(axis, len(rest))])
        partial = rest @ normals[:, 1:].T
        counts.append(sum(
            int((partial + x0 * normals[:, 0] <= k * offsets).all(axis=1).sum())
            for x0 in range(k * lo[0], k * hi[0] + 1)
        ))
    return counts


def ehrhart_volume_oracle(points) -> int:
    """Normalized volume from Ehrhart interpolation, independent of the hull path.

    Counts lattice points of the dilates k*conv(points) for k = 0..n by
    direct enumeration over a bounding box (membership decided by the exact
    facet inequalities), interpolates the Ehrhart polynomial, and returns
    n! times its leading coefficient.
    """
    pts = _polytope_points(points)
    n = len(pts[0])
    counts = _dilate_counts(pts, _facet_hyperplanes(pts))
    # solve the Vandermonde system for the Ehrhart coefficients
    vander = [[Fraction(k) ** i for i in range(n + 1)] for k in range(n + 1)]
    coeffs = intlinalg.solve_rational(vander, [Fraction(c) for c in counts])
    leading = coeffs[n] * math.factorial(n)
    if leading.denominator != 1 or leading <= 0:
        raise NonIntegerVolume(f"Ehrhart leading coefficient {leading} is not a positive integer")
    return int(leading)
