"""Frobenius logarithmic series solutions.

Series live on a coset ``gamma + L`` of the relation lattice ``L`` of an
exponent matrix.  A term is ``coeff * a^(gamma+v) * prod_i log(a_i)^m_i``
keyed by the integer offset ``v`` and the log multi-index ``m``, with a
rational (``int`` or ``Fraction``) coefficient, so ranks and annihilation
are decided exactly.

* ``frobenius_basis`` (the Frobenius method of Hosono, Klemm, Theisen and
  Yau, hep-th/9406055) deforms the exponent to ``gamma + eps*direction``
  and works with ratios of gamma values at integer shifts, which are
  rational functions of ``eps``.  It expands them as exact eps-jets of
  order ``vol - 1``, the coefficients of ``eps^0 .. eps^(vol-1)`` as Python
  ints over one positive denominator, and extracts the logarithmic
  solutions as their eps-power coefficients, each made a ``Fraction`` once.
  This is the only place jets occur.  Each coordinate keeps one prefix
  table of ratios over the window's shifts, built one integer linear factor
  at a time, so a coefficient is a product of table entries.  One search
  over (base exponent, kernel basis vector) pairs serves every kernel rank;
  the lattice window, not the rank, is capped (``lattice.MAX_WINDOW``).
* ``annihilate_check`` and ``apply_operator`` share one columnar integer
  kernel.  The series is cleared of denominators once and held as int64
  offset and log-index columns beside an object column of Python-int
  numerators.  An image term is keyed by one int64 mixed-radix code of its
  (offset, log index), so a shift or a log lowering is one integer add; a
  key space too large for int64 codes is keyed by int64 rows instead.  Equal
  keys are summed by sorting, one block of rows at a time, and each
  nonzero total is divided once.
* ``count_independent`` certifies independence by a rank mod the prime
  2^31 - 1 of the cleared rows, eliminated on int64 rows; a modular rank
  below the row count, or a denominator divisible by the prime, falls back
  to exact rational elimination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TruncationTooSmall, UnsupportedFamily
from . import intlinalg
from .lattice import LatticeWalk, integer_kernel, normalized_volume
from .tautsys import SystemSpec


# -- gamma-ratio jets --------------------------------------------------------

# An eps-jet of order k is ``(numerators, denominator)``: the coefficients
# of eps^0 .. eps^k of a power series in eps are ``numerators[j] /
# denominator``, Python ints over one positive int; everything beyond eps^k
# is forgotten.


def _jet_product(a, b):
    """Truncated product of two jets of one order, skipping zero coefficients."""
    (a, da), (b, db) = a, b
    out = [0] * len(a)
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                if i + j >= len(out):
                    break
                out[i + j] += x * y
    return tuple(out), da * db


def _ratio_table(base, slope, lo, hi, order):
    """Prefix table of ``R(x) = Gamma(g+1)/Gamma(g+x+1)`` at ``g = base + slope*eps``.

    Maps each shift ``x`` in ``lo..hi`` to ``(valuation, unit)``: the ratio
    is ``eps^valuation * unit`` with ``unit`` a jet of the given order,
    reduced (its denominator and numerators have gcd 1).  Built by ``R(x) =
    R(x-1) / (g+x)`` upward and ``R(x) = R(x+1) * (g+x+1)`` downward, one
    integer linear factor ``q*(g+x) = n + m*eps`` per step, ``q`` the lcm of
    the denominators of ``base`` and ``slope``; a factor whose constant term
    vanishes moves one power of eps into the valuation.  A factor ``g+x``
    with zero slope that vanishes in the denominator is a pole no
    deformation resolves: the shifts from there up are missing, so lookups
    return ``None``.
    """
    q = math.lcm(base.denominator, slope.denominator)
    n0, m = int(q * base), int(q * slope)

    def store(x, val, nums, den):
        g = math.gcd(den, *nums) * (1 if den > 0 else -1)
        table[x] = val, (tuple(c // g for c in nums), den // g)
        return table[x]

    table = {0: (0, ((1,) + (0,) * order, 1))}
    val, (nums, den) = table[0]
    for x in range(1, hi + 1):
        n = n0 + q * x
        if n == 0:
            if m == 0:
                break
            val, nums, den = val - 1, [q * c for c in nums], den * m
        else:
            # n^K * unit / (n + m*eps), K = order + 1; each division is exact
            N, prev, out = n ** len(nums), 0, []
            for c in nums:
                prev = (c * N - m * prev) // n
                out.append(q * prev)
            nums, den = out, den * N
        val, (nums, den) = store(x, val, nums, den)
    val, (nums, den) = table[0]
    for x in range(-1, lo - 1, -1):
        n = n0 + q * (x + 1)
        if n == 0:
            val, nums = val + 1, [m * c for c in nums]
        else:
            nums = [n * c + m * p for c, p in zip(nums, (0,) + nums[:-1])]
        val, (nums, den) = store(x, val, nums, den * q)
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
    one = ((1,) + (0,) * jet_order, 1)
    family = []
    for coords, v in window:
        val, unit = 0, one
        for table, x in zip(tables, v):
            entry = table.get(x)
            if entry is None:
                return None
            if x:
                val += entry[0]
                unit = _jet_product(unit, entry[1])
        if val < 0:
            return None
        if val > jet_order:
            continue
        nums, den = unit
        nums = (0,) * val + nums[: len(nums) - val]
        if any(nums):
            family.append((coords, v, (nums, den)))
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
    # the log factors over one common denominator L
    L = math.lcm(*(f.denominator for _, _, f in logs))
    logs = [(total, alpha, f.numerator * (L // f.denominator)) for total, alpha, f in logs]
    terms = [{} for _ in range(count)]
    for _, v, (nums, den) in family:
        den *= L
        for total, alpha, factor in logs:
            for j in range(total, count):
                c = nums[j - total]
                if c:
                    terms[j][(v, alpha)] = Fraction(c * factor, den)
    return [
        LogSeries(gamma=tuple(gamma0), terms=t, lattice=lattice, radius=radius)
        for t in terms
    ]


def _one_sided(family):
    """True when the eps^0 support does not straddle both lattice sides.

    The side of an offset is the sign of its first nonzero lattice
    coordinate; with kernel rank 1 that is the sign of its one coordinate.
    """
    sides = set()
    for coords, _, (nums, _) in family:
        if nums[0]:
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


def frobenius_basis(spec: SystemSpec, order):
    """A basis of series solutions near the large complex structure limit.

    The system must consist of box and Euler operators of its exponent
    matrix (only ``spec.A`` and ``spec.beta`` enter the construction).
    Deforms a base exponent ``gamma0`` along a kernel basis vector with an
    exact eps-jet, and returns the eps-power coefficients ``eps^0 ..
    eps^(vol-1)`` as logarithmic series.  The jets have order ``vol - 1``:
    a lower order would read truncated coefficients as zero and yield
    non-solutions, a higher one computes coefficients nobody reads.

    One search serves every kernel rank.  The bases are the resonant
    classes of a rational solution of the degree constraints along the
    first kernel vector; with kernel rank 2 or more, ``-e_i0`` (the large
    complex structure point of the origin ``i0``, the base of
    ``torus_period_series``) comes first when the origin is a point and
    ``-e_i0`` solves the constraints.  The directions are the kernel basis
    vectors, in order.  The first pair whose family is holomorphic and
    one-sided and whose ``vol`` coefficients are independent (checked by
    ``count_independent``) gives the basis, so its length is the normalized
    volume of the exponent polytope.  Exact rational coefficients
    throughout.  The lattice window is capped by ``lattice.MAX_WINDOW``.
    An order that is not a nonnegative int raises ValueError.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise ValueError(f"order must be a nonnegative int, got {order!r}")
    A = spec.A
    vol = normalized_volume(A.points)
    kernel = integer_kernel(A)
    neg_beta = tuple(-Fraction(b) for b in spec.beta)
    gamma_star = intlinalg.solve_rational(A.A, neg_beta)
    if gamma_star is None:
        raise UnsupportedFamily("no exponent solves the degree constraints")
    if not kernel:
        if all(abs(g) <= order for g in gamma_star):
            return [monomial_series(gamma_star)]
        return []

    window = LatticeWalk(kernel, A.nsections).window(order)
    delta = kernel[0]
    bases = [
        tuple(g + lam * d for g, d in zip(gamma_star, delta))
        for lam in _candidate_classes(gamma_star, delta)
    ]
    origin = (0,) * A.dim
    if len(kernel) > 1 and origin in A.points:
        i0 = A.points.index(origin)
        lcs = tuple(Fraction(-1) if i == i0 else Fraction(0) for i in range(A.nsections))
        if A.degree(lcs) == neg_beta:
            bases.insert(0, lcs)
    for gamma0 in bases:
        for slope in kernel:
            family = _ratio_jet_family(gamma0, slope, window, vol - 1)
            if family is None or not _one_sided(family):
                continue
            basis = _eps_coefficients(gamma0, slope, family, kernel, order, vol)
            if count_independent(basis) == vol:
                return basis
    raise UnsupportedFamily("no base exponent and kernel direction yields a full basis")


# -- residuals and independence ------------------------------------------------


@dataclass(frozen=True)
class OperatorResidual:
    operator: object
    residual: LogSeries
    clean: bool
    checked: int
    skipped: int
    max_abs: float


def _derivative_columns(qe, q, m, k):
    """``q^k`` times one variable's factor of ``d^k (a^e log(a)^m)``, for ``qe = q*e``.

    ``d^k (a^e log^m a) = sum_j K_j a^(e-k) log^(m-j) a``.  ``q^k K_j`` is a
    polynomial in ``qe`` with integer coefficients.  ``qe`` and ``m`` are
    object arrays of Python ints, one entry per (exponent, log power) pair;
    returns the columns ``q^k K_0 .. q^k K_J``, ``J = min(k, max m)``, as
    object arrays (``K_j`` is zero where ``j > m``).
    """
    cols = [np.ones(len(qe), dtype=object)]
    cols += [np.zeros(len(qe), dtype=object) for _ in range(min(k, max(m, default=0)))]
    for t in range(k):
        # d (a^(e-t) log^(m-j)) = (e-t) a^(e-t-1) log^(m-j) + (m-j) a^(e-t-1) log^(m-j-1)
        qet = qe - q * t
        for j in range(len(cols) - 1, 0, -1):
            cols[j] = qet * cols[j] + q * (m - (j - 1)) * cols[j - 1]
        cols[0] = qet * cols[0]
    return cols


# image terms expanded per block before they are summed by key; bounds the
# Python ints alive at once
_BLOCK = 1 << 12


def _merge(keys, values, blocks):
    """Sum the values of equal keys (int64 codes or int64 rows) over the sums
    so far and new ``(keys, values)`` blocks; sorted keys, zero sums dropped."""
    keys = np.concatenate([keys] + [k for k, _ in blocks])
    values = np.concatenate([values] + [v for _, v in blocks])
    keys, inverse = np.unique(keys, axis=0 if keys.ndim > 1 else None, return_inverse=True)
    sums = np.zeros(len(keys), dtype=object)
    np.add.at(sums, inverse.ravel(), values)
    keep = np.flatnonzero(sums)
    return keys[keep], sums[keep]


def _integer_images(ops, series: LogSeries):
    """Each operator applied to ``series`` in integers, as ``(totals, scale)``.

    The image coefficient of ``(offset, logpow)`` is ``totals[key] / scale``
    with ``scale = D * O * q^r``: ``D`` clears the series' coefficients once,
    ``O`` the operator's, and ``q`` the exponents'; a term of derivative order
    ``|w|`` is scaled by ``q^(r-|w|)``, ``r`` the operator's order.  ``totals``
    holds the nonzero coefficients in ascending key order.

    An operator term expands the rows one active variable at a time by that
    variable's derivative columns (``_derivative_columns``, shared by all
    operators).  Keys are int64 mixed-radix codes of (offset, log index), or
    int64 rows when the radix product does not fit in int64; equal keys are
    summed by sorting, about ``_BLOCK`` expanded rows at a time.  Yields one
    pair per operator, in order.
    """
    q = math.lcm(*(g.denominator for g in series.gamma))
    qgamma = [int(q * g) for g in series.gamma]
    D = math.lcm(*(c.denominator for c in series.terms.values()))
    p = series.nvars
    rows = len(series.terms)
    V = np.array([v for v, _ in series.terms], dtype=np.int64).reshape(rows, p)
    M = np.array([m for _, m in series.terms], dtype=np.int64).reshape(rows, p)
    C = np.array(
        [c.numerator * (D // c.denominator) for c in series.terms.values()], dtype=object
    )
    top = M.max(axis=0, initial=0).tolist()  # highest log power per variable
    distinct, tables = {}, {}

    def columns(i, k):
        # each row's (offset, log power) pair of variable i, and the
        # derivative columns over the distinct pairs
        if i not in distinct:
            distinct[i] = np.unique(V[:, i] * (top[i] + 1) + M[:, i], return_inverse=True)
        if (i, k) not in tables:
            v, m = (x.astype(object) for x in np.divmod(distinct[i][0], top[i] + 1))
            cols = _derivative_columns(qgamma[i] + q * v, q, m, k)
            tables[i, k] = [(col, col != 0) for col in cols]
        return distinct[i][1], tables[i, k]

    for op in ops:
        coeffs = op.constant_coefficients()
        order = max((sum(w) for _, w in coeffs), default=0)
        O = math.lcm(*(c.denominator for c in coeffs.values()))
        scale = D * O * q**order
        if not rows or not coeffs:
            yield {}, scale
            continue
        shifts = np.array([[ui - wi for ui, wi in zip(u, w)] for u, w in coeffs], dtype=np.int64)
        # the radices cover the rows and their shifted images, so every
        # partial code lies in [0, prod(radix))
        lo = V.min(axis=0) + shifts.min(axis=0, initial=0)
        hi = V.max(axis=0) + shifts.max(axis=0, initial=0)
        radix = (hi - lo + 1).tolist() + [t + 1 for t in top]
        if math.prod(radix) < 2**63:
            weight = np.array([math.prod(radix[j + 1 :]) for j in range(2 * p)], dtype=np.int64)
        else:
            weight = np.eye(2 * p, dtype=np.int64)  # keys are the rows themselves
        base = np.concatenate([V - lo, M], axis=1) @ weight
        shift_keys = shifts @ weight[:p]
        terms = [
            (shift_key, [(i, k) for i, k in enumerate(w) if k],
             c.numerator * (O // c.denominator) * q ** (order - sum(w)))
            for ((u, w), c), shift_key in zip(coeffs.items(), shift_keys)
        ]
        spread = sum(math.prod(min(k, top[i]) + 1 for i, k in active) for _, active, _ in terms)
        step = max(1, _BLOCK // spread)
        acc_keys, acc_vals = base[:0], C[:0]
        # row blocks in series order, all terms at once: an image is complete,
        # and dropped if it cancelled, once the rows feeding it are merged
        for start in range(0, rows, step):
            block = np.arange(start, min(start + step, rows))
            images = []
            for shift_key, active, factor in terms:
                idx, keys, vals = block, base[block] + shift_key, C[block] * factor
                for i, k in active:
                    pair_of, cols = columns(i, k)
                    pairs = pair_of[idx]
                    parts = []
                    for j, (col, nonzero) in enumerate(cols):
                        sel = np.flatnonzero(nonzero[pairs])
                        if sel.size:
                            parts.append(
                                (idx[sel], keys[sel] - j * weight[p + i], vals[sel] * col[pairs[sel]])
                            )
                    if not parts:
                        break  # every image of this term vanishes
                    idx, keys, vals = (np.concatenate(x) for x in zip(*parts))
                else:
                    images.append((keys, vals))
            acc_keys, acc_vals = _merge(acc_keys, acc_vals, images)
        if acc_keys.ndim == 1:
            acc_keys = np.stack(np.unravel_index(acc_keys, radix), axis=1)
        acc_keys[:, :p] += lo
        yield {
            (tuple(key[:p]), tuple(key[p:])): total
            for key, total in zip(acc_keys.tolist(), acc_vals.tolist())
        }, scale


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
    return {key: Fraction(total, scale) for key, total in totals.items()}


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
        for (v2, m2), c in totals.items():
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


# the Mersenne prime 2^31 - 1: a full rank mod P is the full rank over Q, and
# a product of two residues stays below 2^62, inside int64
_P = 2**31 - 1


def _rank_mod_p(rows, ncols):
    """Rank mod ``_P`` of integer rows given as ``(columns, values)`` pairs;
    each value is reduced once, and elimination runs on int64 residue rows."""
    echelon = []  # (pivot column, row scaled to 1 there), in insertion order
    for cols, values in rows:
        row = np.zeros(ncols, dtype=np.int64)
        row[cols] = [c % _P for c in values]
        for col, pivot_row in echelon:
            f = row[col]
            if f:
                row = (row - f * pivot_row) % _P
        nonzero = np.flatnonzero(row)
        if nonzero.size:
            col = nonzero[0]
            echelon.append((col, row * pow(int(row[col]), -1, _P) % _P))
    return len(echelon)


def count_independent(series_list) -> int:
    """Exact rank of the coefficient matrix over the shared monomial/log basis.

    The rows are cleared of denominators, which leaves the rank unchanged,
    and ranked mod the prime ``_P`` first: a full rank there is the rank
    over Q, since a nonzero minor mod ``_P`` is nonzero.  A lower modular
    rank falls back to exact elimination of the same integer rows.  Raises
    TypeError on a coefficient that is not rational.
    """
    series_list = list(series_list)
    if not series_list:
        return 0
    # a^(gamma+v) with gamma = floor + frac is keyed by the index of the
    # fractional class frac and the integer exponent floor + v, counted from
    # the floor of the class's first series
    classes = {}  # frac -> (index, floor)
    column = {}
    keyed = []
    for s in series_list:
        _require_rational(s)
        floor = tuple(math.floor(g) for g in s.gamma)
        cls, first = classes.setdefault(
            tuple(g - f for g, f in zip(s.gamma, floor)), (len(classes), floor)
        )
        shift = tuple(f - f0 for f, f0 in zip(floor, first))
        keys = s.terms if not any(shift) else (
            (tuple([d + x for d, x in zip(shift, v)]), m) for v, m in s.terms
        )
        keyed.append([column.setdefault((cls, v, m), len(column)) for v, m in keys])
    cleared = []
    for s, cols in zip(series_list, keyed):
        D = math.lcm(*(c.denominator for c in s.terms.values()))
        cleared.append((cols, [c.numerator * (D // c.denominator) for c in s.terms.values()]))
    if _rank_mod_p(cleared, len(column)) == len(series_list):
        return len(series_list)
    rows = []
    for cols, values in cleared:
        row = [0] * len(column)
        for j, c in zip(cols, values):
            row[j] = c
        rows.append(row)
    return intlinalg.rank(rows)
