"""Exact integer and rational linear algebra helpers.

Everything here works on plain Python ints / Fractions, organized as tuples
of row tuples.  Matrices are tiny (dimensions a handful, at most a couple of
dozen columns), so the classical algorithms are used directly: Bareiss for
determinants, row Hermite normal form with a unimodular transform for
kernels and for the one integer solver (back substitution on that form),
and Gauss-Jordan elimination for ranks and for the one rational solver.
That solver also gives the Ehrhart polynomial coefficients of the volume
oracle and the exact finite-difference stencil weights, both from small
Vandermonde systems.
"""

from __future__ import annotations

from fractions import Fraction


def det(rows):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _gauss_jordan(a, ncols):
    """Reduce the rows ``a`` in place to reduced row echelon form.

    Pivots are searched in the first ``ncols`` columns, first nonzero entry
    first; columns beyond them (a right-hand side) are carried along.
    Returns the pivot columns.  Entries stay ints until elimination touches
    them, and a row update only visits the pivot row's nonzero columns.
    """
    m = len(a)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = a[r]
        inv = 1 / Fraction(row[col])
        # entries left of col vanish in every row from r on
        support = [j for j in range(col, len(row)) if row[j] != 0]
        for j in support:
            row[j] *= inv
        for i in range(m):
            f = a[i][col]
            if i != r and f != 0:
                other = a[i]
                for j in support:
                    other[j] -= f * row[j]
        pivots.append(col)
        if len(pivots) == m:
            break
    return pivots


def rank(rows):
    """Rank of an integer (or rational) matrix, exactly."""
    a = [list(r) for r in rows]
    return len(_gauss_jordan(a, len(a[0]))) if a else 0


def hermite_form(rows, transform=False):
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, zero rows sink to the bottom.  With ``transform=True``
    also returns a unimodular ``U`` with ``U @ rows == H``.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        u[row], u[piv] = u[piv], u[row]
        # clear the column below via gcd steps
        while True:
            nz = [i for i in range(row + 1, m) if a[i][col] != 0]
            if not nz:
                break
            for i in nz:
                q = a[i][col] // a[row][col]
                a[i] = [x - q * y for x, y in zip(a[i], a[row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[row])]
                if a[i][col] != 0:
                    a[row], a[i] = a[i], a[row]
                    u[row], u[i] = u[i], u[row]
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
            u[row] = [-x for x in u[row]]
        for i in range(row):
            q = a[i][col] // a[row][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[row])]
        row += 1
        if row == m:
            break
    h = tuple(tuple(r) for r in a)
    if transform:
        return h, tuple(tuple(r) for r in u)
    return h


def kernel_basis(rows):
    """Basis of the saturated integer kernel ``{x : rows @ x = 0}``.

    Computed from the Hermite transform of the transpose: the transform rows
    that map to zero form a basis of the full kernel lattice (they are rows
    of a unimodular matrix, so the lattice they span is saturated).  The
    result is put into canonical form: row Hermite reduced with the first
    nonzero entry of every vector positive.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return ()
    t = list(zip(*rows))  # transpose: p x m
    h, u = hermite_form(t, transform=True)
    kernel = [u[i] for i in range(len(t)) if all(x == 0 for x in h[i])]
    if not kernel:
        return ()
    reduced = [r for r in hermite_form(kernel) if any(x != 0 for x in r)]
    return tuple(tuple(r) for r in reduced)


def solve_rational(rows, rhs):
    """One rational solution of ``rows @ x = rhs`` or None.

    Deterministic: Gauss-Jordan with first-nonzero pivoting, and free
    variables pinned to zero.
    """
    a = [list(r) + [y] for r, y in zip(rows, rhs)]
    n = len(rows[0]) if a else 0
    pivots = _gauss_jordan(a, n)
    if any(a[i][n] != 0 for i in range(len(pivots), len(a))):
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = Fraction(a[i][n])
    return tuple(x)


def integer_solver(rows):
    """Integer solver of ``rows @ x = rhs`` for many right-hand sides.

    Factors the transpose once, ``U A^T = H`` (row Hermite form with its
    unimodular transform), so each call only back-substitutes: it solves
    ``y H = rhs`` down the staircase of ``H`` and returns ``x = y U``, or
    None when ``rhs`` has no integer solution.  The entries of ``y`` at the
    zero rows of ``H`` are pinned to zero.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return lambda rhs: ()
    h, u = hermite_form(list(zip(*rows)), transform=True)
    steps = [
        (u[i], next(j for j, x in enumerate(hrow) if x), hrow)
        for i, hrow in enumerate(h)
        if any(hrow)
    ]
    nunknowns = len(h)

    def solve(rhs):
        rem = list(rhs)
        x = [0] * nunknowns
        for urow, col, hrow in steps:
            q, r = divmod(rem[col], hrow[col])
            if r:
                return None
            if q:
                rem = [a - q * b for a, b in zip(rem, hrow)]
                x = [a + q * b for a, b in zip(x, urow)]
        if any(rem):
            return None
        return tuple(x)

    return solve

