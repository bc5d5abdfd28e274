"""Gamma series and Frobenius logarithmic series solutions.

Series live on a coset ``gamma + L`` of the relation lattice ``L`` of an
exponent matrix.  A term is ``coeff * a^(gamma+v) * prod_i log(a_i)^m_i``
keyed by the integer offset ``v`` and the log multi-index ``m``, with a
rational (``int`` or ``Fraction``) coefficient, so ranks and annihilation
are decided exactly.

* ``gamma_series`` uses reciprocal-gamma coefficients
  ``prod_i 1 / Gamma(gamma_i + v_i + 1)`` with ``1/Gamma`` equal to zero at
  nonpositive integers.  A non-integral ``gamma_i`` contributes the same
  constant ``1 / Gamma(gamma_i mod 1)`` to every term; it is dropped, which
  leaves an exact Pochhammer factor.
* ``frobenius_basis`` (the Frobenius method of Hosono, Klemm, Theisen and
  Yau, hep-th/9406055) deforms the exponent to ``gamma + eps*direction``
  and works with ratios of gamma values at integer shifts, which are
  rational functions of ``eps``.  It expands them as exact eps-jets of
  order ``vol - 1`` and extracts the logarithmic solutions as their
  eps-power coefficients.  This is the only place jets occur.  Each
  coordinate keeps one prefix table of ratios over the window's shifts,
  built one linear factor at a time, so a coefficient is a product of
  table entries.
* ``annihilate_check`` works in integers: the series is cleared of
  denominators once, and each residual coefficient is divided once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegreeViolation,
    TruncationTooSmall,
    UnsupportedFamily,
)
from . import intlinalg
from .lattice import LatticeWalk, integer_kernel, normalized_volume
from .tautsys import SystemSpec
from .jets import Jet


# -- reciprocal gamma values and gamma-ratio jets ----------------------------


def reciprocal_gamma_value(q):
    """Exact ``Gamma(r) / Gamma(q)`` for rational ``q``, with ``r = q mod 1``.

    At an integer this is ``1/Gamma(q)`` (zero at nonpositive integers).
    Elsewhere it is ``1/Gamma(q)`` without the constant factor
    ``1/Gamma(r)``: the Pochhammer factor ``1 / (r (r+1) ... (q-1))``, or
    ``(r-1) (r-2) ... q`` when ``q < 0``.
    """
    q = Fraction(q)
    n = math.floor(q)
    if q == n:
        return Fraction(0) if n <= 0 else Fraction(1, math.factorial(n - 1))
    r = q - n
    if n >= 0:
        return 1 / math.prod((r + k for k in range(n)), start=Fraction(1))
    return math.prod((r - k for k in range(1, 1 - n)), start=Fraction(1))


def _ratio_table(base, slope, lo, hi, order):
    """Prefix table of ``R(x) = Gamma(g+1)/Gamma(g+x+1)`` at ``g = base + slope*eps``.

    Maps each shift ``x`` in ``lo..hi`` to ``(valuation, unit)``: the ratio
    is ``eps^valuation * unit`` with ``unit`` a Jet of the given order.  Built
    by ``R(x) = R(x-1) / (g+x)`` upward and ``R(x) = R(x+1) * (g+x+1)``
    downward, one linear factor per step.  A factor ``g+x`` with zero slope
    that vanishes in the denominator is a pole no deformation resolves: the
    shifts from there up are missing, so lookups return ``None``.
    """
    one = Jet.constant(Fraction(1), order)
    table = {0: (0, one)}
    val, unit = 0, one
    for x in range(1, hi + 1):
        c0 = base + x
        if c0 == 0:
            if slope == 0:
                break
            val, unit = val - 1, unit.over_linear(slope, 0)
        else:
            unit = unit.over_linear(c0, slope)
        table[x] = (val, unit)
    val, unit = 0, one
    for x in range(-1, lo - 1, -1):
        c0 = base + x + 1
        if c0 == 0:
            val, unit = val + 1, unit * slope
        else:
            unit = unit * Jet((c0, slope), order)
        table[x] = (val, unit)
    return table


# -- the series container -----------------------------------------------------


@dataclass(frozen=True)
class LogSeries:
    """Truncated series with fractional exponents and logarithm powers.

    ``terms`` maps ``(offset, logpow)`` to a rational (``int`` or
    ``Fraction``) coefficient.  ``lattice`` and
    ``radius`` describe the guaranteed-complete region: every offset whose
    lattice coordinates are bounded by ``radius`` in max norm is either
    stored or exactly zero.  ``radius=None`` states that the stored terms
    are the whole series (used for monomials and rational candidates).
    """

    gamma: tuple
    terms: dict
    lattice: tuple = ()
    radius: object = None

    @property
    def nvars(self):
        return len(self.gamma)

    def exponent(self, offset):
        return tuple(g + o for g, o in zip(self.gamma, offset))

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (sum(abs(x) for x in kv[0][0]), kv[0])
        )

    def evaluate(self, avec):
        """Numeric value at a point of the torus (principal branches).

        The first call keeps the terms' numeric form on the instance, so
        ``terms`` must not be mutated in place; each call is one numpy pass.
        A zero coordinate raises ValueError, a non-finite value OverflowError.
        """
        form = self.__dict__.get("_numeric")
        if form is None:
            rows = self.sorted_terms()
            shape = (len(rows), self.nvars)
            # complex exponents gamma + v spare the matrix product a cast
            exps = [[complex(g + x) for g, x in zip(self.gamma, v)] for (v, _), _ in rows]
            logpows = np.array([m for (_, m), _ in rows], dtype=np.int64).reshape(shape)
            form = (
                np.array(exps, dtype=complex).reshape(shape),
                logpows if logpows.any() else None,
                np.array([complex(c) for _, c in rows], dtype=complex),
            )
            object.__setattr__(self, "_numeric", form)
        exps, logpows, coeffs = form
        if 0 in avec:
            raise ValueError("series evaluated at a zero coordinate")
        logs = np.log(np.asarray(avec, dtype=complex))  # C99 clog, as in cmath
        with np.errstate(over="ignore", invalid="ignore"):
            values = coeffs * np.exp(exps @ logs)
            if logpows is not None:
                values *= np.prod(logs**logpows, axis=1)
            total = complex(values.sum())
        if not cmath.isfinite(total):
            raise OverflowError(f"series value {total} is not finite")
        return total

    def scaled(self, factor):
        return LogSeries(
            gamma=self.gamma,
            terms={k: c * factor for k, c in self.terms.items()},
            lattice=self.lattice,
            radius=self.radius,
        )

    def render(self):
        lines = ["gamma = (" + ", ".join(str(g) for g in self.gamma) + ")"]
        for (v, m), c in self.sorted_terms():
            lines.append(f"  offset ({', '.join(str(x) for x in v)})"
                         f" log ({', '.join(str(x) for x in m)}) : {c}")
        return "\n".join(lines)


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


def _check_degree(A, beta, gamma):
    lhs = A.degree(gamma)
    rhs = tuple(-Fraction(b) for b in beta)
    if lhs != rhs:
        raise DegreeViolation(
            f"A.gamma = {lhs} does not equal -beta = {rhs}"
        )


def gamma_series(spec: SystemSpec, gamma, order) -> LogSeries:
    """Truncated reciprocal-gamma series with base exponent ``gamma``.

    Requires ``A.gamma = -beta``.  Coefficients are exact: each is
    ``prod_i reciprocal_gamma_value(gamma_i + v_i + 1)``, which drops the
    constant ``1/Gamma(gamma_i mod 1)`` of every non-integral ``gamma_i``.
    """
    gamma = tuple(Fraction(g) for g in gamma)
    A = spec.A
    _check_degree(A, spec.beta, gamma)
    kernel = integer_kernel(A)
    zero_log = (0,) * A.nsections
    if not kernel.vectors:
        # no offsets: the reciprocal-gamma prefactor is a single overall
        # constant, so the series is normalized to the bare monomial
        return LogSeries(
            gamma=gamma,
            terms={(zero_log, zero_log): Fraction(1)},
            lattice=(),
            radius=order,
        )
    terms = {}
    for _, v in LatticeWalk(kernel.vectors, A.nsections).window(order):
        coeff = Fraction(1)
        for g, x in zip(gamma, v):
            coeff *= reciprocal_gamma_value(g + x + 1)
            if coeff == 0:
                break
        if coeff != 0:
            terms[(v, zero_log)] = coeff
    return LogSeries(gamma=gamma, terms=terms, lattice=kernel.vectors, radius=order)


# -- Frobenius bases ----------------------------------------------------------


def _ratio_jet_family(gamma0, slope, window, jet_order):
    """Exact jets of the gamma-ratio coefficients over a window of offsets.

    Returns ``(coords, offset, jet)`` triples with nonzero jets, or ``None``
    when some coefficient has a pole at eps = 0 (the deformed family is then
    not holomorphic and unusable).  Each coefficient is a product of entries
    of one prefix ratio table per coordinate.
    """
    tables = [
        _ratio_table(Fraction(g), Fraction(s), min(xs), max(xs), jet_order)
        for g, s, xs in zip(gamma0, slope, zip(*(v for _, v in window)))
    ]
    one = Jet.constant(Fraction(1), jet_order)
    family = []
    for coords, v in window:
        val, unit = 0, one
        for table, x in zip(tables, v):
            entry = table.get(x)
            if entry is None:
                return None
            if x:
                val += entry[0]
                unit = unit * entry[1]
        if val < 0:
            return None
        if val > jet_order:
            continue
        jet = unit.shifted(val)
        if not jet.is_zero():
            family.append((coords, v, jet))
    return family


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


def _eps_coefficients(gamma0, slope, family, lattice, radius, count):
    """The eps^0 .. eps^(count-1) coefficients of a deformed family, as log series.

    The deformed series is ``sum_v c_v(eps) a^(gamma0 + v + eps*slope)``.  Its
    factor ``a^(eps*slope)`` contributes ``prod_i (slope_i log a_i)^alpha_i /
    alpha_i!`` to the power ``eps^|alpha|``, so the eps^j coefficient carries
    the log multi-index ``alpha`` with the jet coefficient ``c_v[j - |alpha|]``.
    """
    support = [i for i, s in enumerate(slope) if s != 0]
    logs = []  # (|alpha|, alpha, prod_i slope_i^alpha_i / alpha_i!)
    for total in range(count):
        for alpha in _compositions(total, support, len(gamma0)):
            factor = Fraction(1)
            for i in support:
                if alpha[i]:
                    factor *= Fraction(slope[i]) ** alpha[i] / math.factorial(alpha[i])
            logs.append((total, alpha, factor))
    terms = [{} for _ in range(count)]
    for _, v, jet in family:
        for total, alpha, factor in logs:
            for j in range(total, count):
                c = jet.coefficient(j - total)
                if c != 0:
                    terms[j][(v, alpha)] = c * factor
    return [
        LogSeries(gamma=tuple(gamma0), terms=t, lattice=lattice, radius=radius)
        for t in terms
    ]


def _one_sided(family):
    """True when the eps^0 support does not straddle both lattice sides."""
    sides = set()
    for coords, _, jet in family:
        if jet.coefficient(0) != 0:
            lead = next((x for x in coords if x != 0), 0)
            sides.add((lead > 0) - (lead < 0))
    return not {1, -1} <= sides


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
    gamma_star = intlinalg.solve_rational(A.A, neg_beta)
    if gamma_star is None:
        raise UnsupportedFamily("no exponent solves the degree constraints")

    if rank == 0:
        if all(abs(g) <= order for g in gamma_star):
            return [monomial_series(gamma_star)]
        return []

    window = LatticeWalk(kernel.vectors, A.nsections).window(order)

    if rank == 1:
        delta = kernel.vectors[0]
        for lam in _candidate_classes(gamma_star, delta):
            gamma0 = tuple(g + lam * d for g, d in zip(gamma_star, delta))
            family = _ratio_jet_family(gamma0, delta, window, vol - 1)
            if family is None or not _one_sided(family):
                continue
            basis = _eps_coefficients(gamma0, delta, family, kernel.vectors, order, vol)
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
        family = _ratio_jet_family(gamma0, slope, window, vol - 1)
        if family is None:
            continue
        for candidate in _eps_coefficients(gamma0, slope, family, kernel.vectors, order, vol):
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


def _integer_images(ops, series: LogSeries):
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


def apply_operator(op, series: LogSeries) -> dict:
    """Raw term map of ``op`` applied to ``series`` (offset, logpow) -> coeff.

    The operator term ``c a^u d^w`` sends ``a^(gamma+v) log^m`` to a product
    of one-variable factors: ``d_i^k`` maps ``a_i^e log^(m_i) a_i`` to
    ``sum_j K(e, m_i, k, j) a_i^(e-k) log^(m_i-j) a_i``.  The sum is formed
    in integers (``_integer_images``) and divided once per image term; an
    image term is keyed by the integer offset ``v - w + u`` and its log
    multi-index, so no exponent is ever formed.
    """
    ((totals, scale),) = _integer_images([op], series)
    return {key: Fraction(totals[key], scale) for key in sorted(totals) if totals[key]}


def _require_rational(series: LogSeries):
    for c in series.terms.values():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"series coefficient {c!r} is not an int or a Fraction")


def annihilate_check(spec: SystemSpec, series: LogSeries):
    """Apply every operator of the system to the series and report residuals.

    A residual coefficient is only trusted when every lattice offset that
    could feed it lies inside the series' guaranteed-complete window; the
    frontier terms produced by truncation are counted but not judged.  The
    report is ``clean`` when every trusted coefficient vanishes exactly.
    Raises TypeError on a coefficient that is not rational.
    """
    _require_rational(series)
    walk = LatticeWalk(series.lattice, series.nvars)
    for op in spec.operators:
        if (
            series.radius is not None
            and series.terms
            and op.order() > series.radius
        ):
            raise TruncationTooSmall(
                f"operator order {op.order()} exceeds truncation {series.radius}"
            )
    reports = []
    for op, (totals, scale) in zip(spec.operators, _integer_images(spec.operators, series)):
        shifts = sorted(
            {
                tuple(w[i] - u[i] for i in range(series.nvars))
                for (u, w) in op.constant_coefficients()
            }
        )
        trusted = {}  # offset -> every offset that feeds it lies in the window
        kept = {}
        skipped = 0
        for v2, m2 in sorted(totals):
            c = totals[v2, m2]
            if c == 0:
                continue
            ok = trusted.get(v2)
            if ok is None:
                ok = True
                if series.radius is not None:
                    for s in shifts:
                        coords = walk.coords([a + b for a, b in zip(v2, s)])
                        if coords is not None and any(abs(x) > series.radius for x in coords):
                            ok = False
                            break
                trusted[v2] = ok
            if ok:
                kept[(v2, m2)] = Fraction(c, scale)
            else:
                skipped += 1
        reports.append(
            OperatorResidual(
                operator=op,
                residual=LogSeries(gamma=series.gamma, terms=kept),
                clean=not kept,
                checked=len(kept),
                skipped=skipped,
                max_abs=max((abs(float(c)) for c in kept.values()), default=0.0),
            )
        )
    return reports


def count_independent(series_list) -> int:
    """Exact rank of the coefficient matrix over the shared monomial/log basis.

    Raises TypeError on a coefficient that is not rational.
    """
    series_list = list(series_list)
    if not series_list:
        return 0
    # a^(gamma+v) with gamma = floor + frac is keyed by the index of the
    # fractional class frac and the integer exponent floor + v
    classes = {}
    keyed = []
    for s in series_list:
        _require_rational(s)
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
    rows = []
    for terms in keyed:
        row = [0] * len(column)
        for key, c in terms.items():
            row[column[key]] = c
        rows.append(row)
    return intlinalg.rank(rows)
