"""Gamma series and Frobenius logarithmic series solutions.

Series live on a coset ``gamma + L`` of the relation lattice ``L`` of an
exponent matrix.  A term is ``coeff * a^(gamma+v) * prod_i log(a_i)^m_i``
keyed by the integer offset ``v`` and the log multi-index ``m``, with a
Fraction (or float) coefficient.

Two coefficient conventions appear:

* ``gamma_series`` uses raw reciprocal-gamma coefficients
  ``1 / prod_i Gamma(gamma_i + v_i + 1)`` with ``1/Gamma`` equal to zero at
  nonpositive integers.
* ``frobenius_basis`` (the Frobenius method of Hosono, Klemm, Theisen and
  Yau, hep-th/9406055) deforms the exponent to ``gamma + eps*direction``
  and works with ratios of gamma values at integer shifts, which are
  rational functions of ``eps``.  It expands them as exact eps-jets of
  order ``vol - 1`` and extracts the logarithmic solutions as their
  eps-power coefficients.  This is the only place jets occur; everything
  is exact rational arithmetic, so independence counts are exact.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    DegreeViolation,
    TruncationTooSmall,
    UnsupportedFamily,
)
from . import intlinalg
from .lattice import integer_kernel, normalized_volume
from .tautsys import SystemSpec
from .jets import Jet


# -- reciprocal gamma values and gamma-ratio jets ----------------------------


def reciprocal_gamma_value(q):
    """1/Gamma(q) for rational q; exact at integers, float elsewhere."""
    q = Fraction(q)
    if q.denominator == 1:
        qi = int(q)
        if qi <= 0:
            return Fraction(0)
        return Fraction(1, math.factorial(qi - 1))
    return 1.0 / math.gamma(float(q))


def gamma_ratio_jet(base, slope, shift, order):
    """Exact jet of Gamma(g+1)/Gamma(g+shift+1) at g = base + slope*eps.

    Returned as ``(valuation, unit)`` with ``unit`` a Jet whose constant
    term is nonzero; the ratio itself is ``eps^valuation * unit``.  Negative
    valuation means the ratio has a pole at eps = 0.
    """
    base = Fraction(base)
    slope = Fraction(slope)
    num = []  # linear factors in the numerator
    den = []
    if shift >= 0:
        for j in range(1, shift + 1):
            den.append((base + j, slope))
    else:
        for j in range(-shift):
            num.append((base - j, slope))
    val = 0
    unit = Jet.constant(Fraction(1), order)
    for c0, c1 in num:
        if c0 == 0:
            val += 1
            unit = unit * Jet.constant(c1, order)
        else:
            unit = unit * Jet.linear(c0, c1, order)
    for c0, c1 in den:
        if c0 == 0:
            val -= 1
            unit = unit / Jet.constant(c1, order)
        else:
            unit = unit / Jet.linear(c0, c1, order)
    return val, unit


# -- offset lattice helper ----------------------------------------------------


class OffsetLattice:
    """Membership and coordinates for the integer span of basis rows."""

    def __init__(self, basis):
        self.basis = tuple(tuple(b) for b in basis)
        self._cache = {}

    @property
    def rank(self):
        return len(self.basis)

    def coords(self, v):
        """Coordinates of v in the basis, or None when v is off-lattice."""
        v = tuple(v)
        if v in self._cache:
            return self._cache[v]
        if not self.basis:
            out = () if all(x == 0 for x in v) else None
        else:
            rows = list(zip(*self.basis))  # p x r matrix with columns = basis
            sol = intlinalg.solve_integer(rows, v)
            if sol is None:
                out = None
            else:
                # solve_integer guarantees rows @ sol = v
                out = sol
        self._cache[v] = out
        return out

    def vector(self, coords):
        p = len(self.basis[0])
        return tuple(
            sum(coords[i] * self.basis[i][j] for i in range(len(self.basis)))
            for j in range(p)
        )


# -- the series container -----------------------------------------------------


@dataclass(frozen=True)
class LogSeries:
    """Truncated series with fractional exponents and logarithm powers.

    ``terms`` maps ``(offset, logpow)`` to a coefficient.  ``lattice`` and
    ``radius`` describe the guaranteed-complete region: every offset whose
    lattice coordinates are bounded by ``radius`` in max norm is either
    stored or exactly zero.  ``radius=None`` states that the stored terms
    are the whole series (used for monomials and rational candidates).
    """

    gamma: tuple
    terms: dict
    lattice: tuple = ()
    radius: object = None
    direction: tuple = None

    @property
    def nvars(self):
        return len(self.gamma)

    def exponent(self, offset):
        return tuple(g + o for g, o in zip(self.gamma, offset))

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (sum(abs(x) for x in kv[0][0]), kv[0])
        )

    def eps_coefficient(self, j) -> "LogSeries":
        """Extract the eps^j coefficient of a jet-valued deformed series.

        The deformation multiplies every monomial by ``a^(eps*direction)``,
        whose expansion contributes powers of ``sum_i direction_i log a_i``;
        they are spread over log multi-indices here.
        """
        direction = self.direction
        support = [i for i, d in enumerate(direction) if d != 0]
        out = defaultdict(Fraction)
        for (v, m), jet in self.terms.items():
            if any(m):
                raise ValueError("jet-valued series must not carry explicit logs")
            for logtot in range(j + 1):
                c = jet.coefficient(j - logtot)
                if c == 0:
                    continue
                for alpha in _compositions(logtot, support, self.nvars):
                    factor = Fraction(1)
                    for i in support:
                        if alpha[i]:
                            factor *= direction[i] ** alpha[i] / math.factorial(alpha[i])
                    out[(v, alpha)] += c * factor
        terms = {k: c for k, c in out.items() if c != 0}
        return LogSeries(
            gamma=self.gamma,
            terms=terms,
            lattice=self.lattice,
            radius=self.radius,
        )

    def evaluate(self, avec):
        """Numeric value at a point of the torus (principal branches)."""
        import cmath

        logs = [cmath.log(complex(a)) for a in avec]
        total = 0j
        for (v, m), c in self.sorted_terms():
            term = complex(c)
            for i in range(self.nvars):
                e = self.gamma[i] + v[i]
                if e:
                    term *= cmath.exp(float(e) * logs[i])
                if m[i]:
                    term *= logs[i] ** m[i]
            total += term
        return total

    def scaled(self, factor):
        return LogSeries(
            gamma=self.gamma,
            terms={k: c * factor for k, c in self.terms.items()},
            lattice=self.lattice,
            radius=self.radius,
            direction=self.direction,
        )

    def render(self):
        lines = ["gamma = (" + ", ".join(str(g) for g in self.gamma) + ")"]
        for (v, m), c in self.sorted_terms():
            ctxt = str(c) if isinstance(c, Fraction) else repr(c)
            lines.append(f"  offset ({', '.join(str(x) for x in v)})"
                         f" log ({', '.join(str(x) for x in m)}) : {ctxt}")
        return "\n".join(lines)


def _compositions(total, support, nvars):
    """Multi-indices with the given total, supported on ``support``."""
    if total == 0:
        yield (0,) * nvars
        return
    if not support:
        return
    first, rest = support[0], support[1:]
    for head in range(total + 1):
        for tail in _compositions(total - head, rest, nvars):
            alpha = list(tail)
            alpha[first] = head
            yield tuple(alpha)


def monomial_series(gamma, coeff=Fraction(1)) -> LogSeries:
    """A single monomial (or finitely supported candidate) as a LogSeries."""
    gamma = tuple(Fraction(g) for g in gamma)
    p = len(gamma)
    return LogSeries(
        gamma=gamma,
        terms={((0,) * p, (0,) * p): coeff},
        lattice=(),
        radius=None,
    )


def _offsets_in_window(basis, radius):
    if not basis:
        return [()]
    ranges = [range(-radius, radius + 1) for _ in basis]
    return sorted(product(*ranges))


def _check_degree(A, beta, gamma):
    lhs = A.degree(gamma)
    rhs = tuple(-Fraction(b) for b in beta)
    if lhs != rhs:
        raise DegreeViolation(
            f"A.gamma = {lhs} does not equal -beta = {rhs}"
        )


def gamma_series(spec: SystemSpec, gamma, order) -> LogSeries:
    """Truncated reciprocal-gamma series with base exponent ``gamma``.

    Requires ``A.gamma = -beta``.
    """
    gamma = tuple(Fraction(g) for g in gamma)
    A = spec.A
    _check_degree(A, spec.beta, gamma)
    kernel = integer_kernel(A)
    if not kernel.vectors:
        # no offsets: the reciprocal-gamma prefactor is a single overall
        # constant, so the series is normalized to the bare monomial
        return LogSeries(
            gamma=gamma,
            terms={((0,) * A.nsections, (0,) * A.nsections): Fraction(1)},
            lattice=(),
            radius=order,
        )
    lat = OffsetLattice(kernel.vectors)
    terms = {}
    zero_log = (0,) * A.nsections
    for coords in _offsets_in_window(kernel.vectors, order):
        v = lat.vector(coords)
        coeff = Fraction(1)
        for i in range(A.nsections):
            f = reciprocal_gamma_value(gamma[i] + v[i] + 1)
            if f == 0:
                coeff = Fraction(0)
                break
            coeff = coeff * f
        if coeff != 0:
            terms[(v, zero_log)] = coeff
    return LogSeries(gamma=gamma, terms=terms, lattice=kernel.vectors, radius=order)


# -- Frobenius bases ----------------------------------------------------------


def _ratio_jet_family(gamma0, slope, offsets, lat, jet_order):
    """Exact jets of the gamma-ratio coefficients over a window of offsets.

    Returns ``None`` when some coefficient has a pole at eps = 0 (the
    deformed family is then not holomorphic and unusable).
    """
    p = len(gamma0)
    family = {}
    for coords in offsets:
        v = lat.vector(coords) if lat.basis else (0,) * p
        val = 0
        unit = Jet.constant(Fraction(1), jet_order)
        for i in range(p):
            vi, ui = gamma_ratio_jet(gamma0[i], slope[i], v[i], jet_order)
            val += vi
            unit = unit * ui
        if val < 0:
            return None
        if val > jet_order:
            continue
        jet = unit.shifted(val)
        if not jet.is_zero():
            family[v] = jet
    return family


def _deformed_series(gamma0, slope, family, lattice, radius):
    return LogSeries(
        gamma=tuple(Fraction(g) for g in gamma0),
        terms={(v, (0,) * len(gamma0)): jet for v, jet in family.items()},
        lattice=lattice,
        radius=radius,
        direction=tuple(Fraction(s) for s in slope),
    )


def _one_sided(family, lat):
    """True when the eps^0 support does not straddle both lattice sides."""
    pos = neg = False
    for v, jet in family.items():
        if jet.coefficient(0) == 0:
            continue
        coords = lat.coords(v)
        s = next((x for x in coords if x != 0), 0)
        if s > 0:
            pos = True
        elif s < 0:
            neg = True
    return not (pos and neg)


def _candidate_classes(gamma_star, delta):
    """Fractional shifts lam with some integral entry of gamma_star + lam*delta."""
    seen = set()
    for gi, di in zip(gamma_star, delta):
        if di == 0:
            continue
        for t in range(abs(di)):
            lam = Fraction(t - gi, di) % 1
            seen.add(lam)
    return sorted(seen)


# kernel ranks above 2 have no deformation strategy below
_MAX_KERNEL_RANK = 2


def frobenius_basis(spec: SystemSpec, order):
    """A basis of series solutions near the large complex structure limit.

    The system must consist of box and Euler operators of its exponent
    matrix (only ``spec.A`` and ``spec.beta`` enter the construction), and
    its kernel rank must be at most 2.  Deforms a resonant base exponent
    along kernel directions with an exact eps-jet, and returns the
    eps-power coefficients ``eps^0 .. eps^(vol-1)`` as logarithmic series.
    The jets have order ``vol - 1``: a lower order would read truncated
    coefficients as zero and yield non-solutions, a higher one computes
    coefficients nobody reads.  The list has length
    equal to the normalized volume of the exponent polytope and is linearly
    independent (checked by ``count_independent``).  Exact rational
    coefficients throughout.
    """
    A = spec.A
    vol = normalized_volume(A.points)
    kernel = integer_kernel(A)
    rank = kernel.rank
    if rank > _MAX_KERNEL_RANK:
        raise UnsupportedFamily(
            f"kernel rank {rank} exceeds the supported {_MAX_KERNEL_RANK}"
        )
    neg_beta = [-Fraction(b) for b in spec.beta]
    jet_order = vol - 1

    if rank == 0:
        gamma_star = intlinalg.solve_rational(A.A, neg_beta)
        if gamma_star is None:
            raise UnsupportedFamily("no exponent solves the degree constraints")
        if all(abs(g) <= order for g in gamma_star):
            return [monomial_series(gamma_star)]
        return []

    gamma_star = intlinalg.solve_rational(A.A, neg_beta)
    if gamma_star is None:
        raise UnsupportedFamily("no exponent solves the degree constraints")
    lat = OffsetLattice(kernel.vectors)
    offsets = _offsets_in_window(kernel.vectors, order)

    if rank == 1:
        delta = kernel.vectors[0]
        for lam in _candidate_classes(gamma_star, delta):
            gamma0 = tuple(g + lam * d for g, d in zip(gamma_star, delta))
            family = _ratio_jet_family(gamma0, delta, offsets, lat, jet_order)
            if family is None or not _one_sided(family, lat):
                continue
            deformed = _deformed_series(gamma0, delta, family, kernel.vectors, order)
            basis = [deformed.eps_coefficient(j) for j in range(vol)]
            if count_independent(basis) == vol:
                return basis
        raise UnsupportedFamily("no resonant exponent class yields a full basis")

    # rank 2: fixed integral base exponent, several deformation directions
    if any(b.denominator != 1 for b in neg_beta):
        raise UnsupportedFamily("rank-2 families need an integral parameter vector")
    gamma0 = intlinalg.solve_integer(A.A, [int(b) for b in neg_beta])
    if gamma0 is None:
        raise UnsupportedFamily("rank-2 families need an integral base exponent")
    gamma0 = tuple(Fraction(g) for g in gamma0)
    b1, b2 = kernel.vectors
    pool = [
        b1,
        b2,
        tuple(x + y for x, y in zip(b1, b2)),
        tuple(x - y for x, y in zip(b1, b2)),
        tuple(2 * x + y for x, y in zip(b1, b2)),
        tuple(x + 2 * y for x, y in zip(b1, b2)),
    ]
    basis = []
    for slope in pool:
        family = _ratio_jet_family(gamma0, slope, offsets, lat, jet_order)
        if family is None:
            continue
        deformed = _deformed_series(gamma0, slope, family, kernel.vectors, order)
        for j in range(vol):
            candidate = deformed.eps_coefficient(j)
            if not candidate.terms:
                continue
            if count_independent(basis + [candidate]) > len(basis):
                basis.append(candidate)
            if len(basis) == vol:
                return basis
    raise UnsupportedFamily(
        "deformation directions did not produce a volume-sized basis"
    )


# -- residuals and independence ------------------------------------------------


@dataclass(frozen=True)
class OperatorResidual:
    operator: object
    residual: LogSeries
    clean: bool
    checked: int
    skipped: int
    max_abs: float


def _derivative_table(e, m, k):
    """One variable's factor of ``d^k (a^e log(a)^m)`` as ``(log power, K)`` pairs.

    ``d^k (a^e log^m a) = sum_j K_j a^(e-k) log^(m-j) a``; only the nonzero
    ``K_j`` are listed, as ints when the exponent ``e`` is an integer.
    """
    if e.denominator == 1:
        e = int(e)
    coeffs = [1] + [0] * min(k, m)
    for t in range(k):
        # d (a^(e-t) log^(m-j)) = (e-t) a^(e-t-1) log^(m-j) + (m-j) a^(e-t-1) log^(m-j-1)
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] = (e - t) * coeffs[j] + (m - j + 1) * coeffs[j - 1]
        coeffs[0] *= e - t
    return tuple((m - j, c) for j, c in enumerate(coeffs) if c != 0)


def apply_operator(op, series: LogSeries) -> dict:
    """Raw term map of ``op`` applied to ``series`` (offset, logpow) -> coeff.

    The operator term ``c a^u d^w`` sends ``a^(gamma+v) log^m`` to a product
    of one-variable factors: ``d_i^k`` maps ``a_i^e log^(m_i) a_i`` to
    ``sum_j K(e, m_i, k, j) a_i^(e-k) log^(m_i-j) a_i``.  Each factor table is
    computed once per call in exact arithmetic and cached by
    ``(i, v_i, m_i, k)``, and an image term is keyed by the integer offset
    ``v - w + u`` and its log multi-index, so no exponent is ever formed.
    Contributions to a key are summed in a fixed order (series terms in
    ``sorted_terms`` order, then operator terms in sorted order), so float
    summation is deterministic.
    """
    gamma = series.gamma
    op_terms = [
        (
            tuple(ui - wi for ui, wi in zip(u, w)),
            tuple((i, k) for i, k in enumerate(w) if k),
            int(oc) if oc.denominator == 1 else oc,
        )
        for (u, w), oc in sorted(op.constant_coefficients().items())
    ]
    tables = {}
    acc = {}
    for (v, m), coeff in series.sorted_terms():
        for shift, active, oc in op_terms:
            images = [(m, oc)]
            for i, k in active:
                key = (i, v[i], m[i], k)
                table = tables.get(key)
                if table is None:
                    table = tables[key] = _derivative_table(gamma[i] + v[i], m[i], k)
                mi = m[i]
                images = [
                    (m2 if mj == mi else m2[:i] + (mj,) + m2[i + 1 :], f * K)
                    for m2, f in images
                    for mj, K in table
                ]
            v2 = tuple([a + b for a, b in zip(v, shift)])
            for m2, f in images:
                c = coeff * f
                key = (v2, m2)
                prev = acc.get(key)
                acc[key] = c if prev is None else prev + c
    out = {}
    for key in sorted(acc):
        total = acc[key]
        if total != 0:
            out[key] = total
    return out


def annihilate_check(spec: SystemSpec, series: LogSeries, tol=None):
    """Apply every operator of the system to the series and report residuals.

    A residual coefficient is only trusted when every lattice offset that
    could feed it lies inside the series' guaranteed-complete window; the
    frontier terms produced by truncation are counted but not judged.  The
    report is ``clean`` when all trusted coefficients vanish (exactly for
    rational coefficients, below ``tol`` for floats).
    """
    lat = OffsetLattice(series.lattice)
    exact = all(isinstance(c, Fraction) for c in series.terms.values())
    if tol is None:
        if exact:
            tol = 0
        else:
            scale = max((abs(c) for c in series.terms.values()), default=1.0)
            tol = 1e-12 * max(1.0, float(scale))
    reports = []
    for op in spec.operators:
        if (
            series.radius is not None
            and series.terms
            and op.order() > series.radius
        ):
            raise TruncationTooSmall(
                f"operator order {op.order()} exceeds truncation {series.radius}"
            )
        raw = apply_operator(op, series)
        shifts = sorted(
            {
                tuple(w[i] - u[i] for i in range(series.nvars))
                for (u, w) in op.constant_coefficients()
            }
        )
        kept = {}
        skipped = 0
        for (v2, m2), c in raw.items():
            reliable = True
            if series.radius is not None:
                for s in shifts:
                    pre = tuple(v2[i] + s[i] for i in range(series.nvars))
                    coords = lat.coords(pre)
                    if coords is not None and any(
                        abs(x) > series.radius for x in coords
                    ):
                        reliable = False
                        break
            if reliable:
                kept[(v2, m2)] = c
            else:
                skipped += 1
        max_abs = max((abs(float(c)) for c in kept.values()), default=0.0)
        clean = all(
            (c == 0 if isinstance(c, Fraction) and exact else abs(float(c)) <= tol)
            for c in kept.values()
        )
        residual = LogSeries(
            gamma=series.gamma,
            terms={k: c for k, c in kept.items() if c != 0},
            lattice=(),
            radius=None,
        )
        reports.append(
            OperatorResidual(
                operator=op,
                residual=residual,
                clean=clean,
                checked=len(kept),
                skipped=skipped,
                max_abs=max_abs,
            )
        )
    return reports


def count_independent(series_list) -> int:
    """Rank of the coefficient matrix over the shared monomial/log basis.

    Exact when every coefficient is rational; floats fall back to a
    numerical rank.
    """
    series_list = list(series_list)
    if not series_list:
        return 0
    # a^(gamma+v) with gamma = floor + frac is keyed by the index of the
    # fractional class frac and the integer exponent floor + v
    classes = {}
    keyed = []
    for s in series_list:
        floor = tuple(math.floor(g) for g in s.gamma)
        cls = classes.setdefault(
            tuple(g - f for g, f in zip(s.gamma, floor)), len(classes)
        )
        keyed.append(
            {
                (cls, tuple([f + x for f, x in zip(floor, v)]), m): c
                for (v, m), c in s.terms.items()
            }
        )
    column = {key: j for j, key in enumerate(sorted(set().union(*keyed)))}
    exact = all(
        isinstance(c, Fraction) for s in series_list for c in s.terms.values()
    )
    rows = []
    for terms in keyed:
        row = [0] * len(column)
        for key, c in terms.items():
            row[column[key]] = c
        rows.append(row)
    if exact:
        return intlinalg.rank(rows)
    import numpy as np

    m = np.array([[float(x) for x in row] for row in rows], dtype=float)
    if m.size == 0:
        return 0
    return int(np.linalg.matrix_rank(m, tol=1e-9 * max(1.0, float(abs(m).max()))))
