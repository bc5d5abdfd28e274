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
  Jets occur only here and in ``periods.torus_period_series``, which reads
  the same tables at jet order 0.  Each coordinate keeps one prefix table
  of ratios over the window's shifts, built one integer linear factor at a
  time, so a coefficient is a product of table entries.  One search over
  (base exponent, kernel basis vector) pairs serves every kernel rank, its
  coefficients independent by construction (``frobenius_basis``); the
  lattice window, not the rank, is capped (``lattice.MAX_WINDOW``).
* A series keeps its integer form on the instance, built on first use:
  int64 offset and log-index columns beside an object column of
  Python-int numerators over ``D``, the lcm of the reduced denominators.
  The rational-coefficient check runs once, when it is built.
* ``annihilate_check`` and ``apply_operator`` share one columnar integer
  kernel, one pass per series for every operator.  An image is keyed by
  one mixed-radix code of (operator, offset, log index), so a shift or a
  log lowering is one integer add.  Each derivative pattern of the
  operators' terms expands the rows once; every expanded row carries a
  small factor (operator coefficient times derivative columns), summed in
  int64 per (row, image) when an exact bound allows, so each surviving
  pair costs one big-integer product.  The products are summed per image
  by sorting, one block of rows at a time, and each nonzero total is
  divided once.  Codes or factors that could leave int64 are Python ints
  on the same path.
* ``count_independent`` certifies independence for callers by a rank mod
  the prime 2^31 - 1 of the integer forms, eliminated on int64 rows; clearing
  denominators scales each row by a nonzero integer, so a full modular rank
  is the rank over Q whatever the denominators.  A modular rank below the
  row count falls back to exact rational elimination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import LimitExceeded, TruncationTooSmall, UnsupportedFamily
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
    return ``None``.  One that vanishes in the numerator makes the ratio
    zero at every shift from there down: the table stops at the first zero
    unit, and lookups below its lowest key read that entry.
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
        if not any(nums):
            break
    return table


# -- the series container -----------------------------------------------------


def _int64_rows(tuples, shape):
    flat = np.fromiter(chain.from_iterable(tuples), dtype=np.int64, count=math.prod(shape))
    return flat.reshape(shape)


@dataclass(frozen=True)
class LogSeries:
    """Truncated series with fractional exponents and logarithm powers.

    ``terms`` maps ``(offset, logpow)`` to a rational (``int`` or
    ``Fraction``) coefficient.  ``lattice`` and
    ``radius`` describe the guaranteed-complete region: every offset whose
    lattice coordinates are bounded by ``radius`` in max norm is either
    stored or exactly zero.  ``radius=None`` states that the stored terms
    are the whole series (used for monomials and rational candidates).

    The numeric form (``evaluate``) and the integer form (the exact checks)
    are built from ``terms`` on first use and kept on the instance, outside
    the fields, so ``==`` and ``repr`` do not see them; ``terms`` must not
    be mutated in place (``dataclasses.replace`` makes a new series).
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

    def _offset_groups(self):
        """``(offset, terms)`` pairs in order of the offsets' 1-norm, then
        lexicographically, each offset's terms ordered by log index."""
        groups = {}
        for kv in self.terms.items():
            groups.setdefault(kv[0][0], []).append(kv)
        order = sorted((sum(map(abs, v)), v) for v in groups)
        return [(v, sorted(groups[v])) for _, v in order]

    def sorted_terms(self):
        """``(key, coefficient)`` pairs by the 1-norm of the offset, then by key."""
        return [kv for _, group in self._offset_groups() for kv in group]

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

    def _integer_form(self):
        """The terms over one denominator, as ``(V, M, C, D)``.

        ``V`` and ``M`` are the int64 offset and log-index rows, ``C`` an
        object column of Python-int numerators and ``D`` the lcm of the
        reduced denominators, so term ``k`` is ``C[k] / D``; rows follow
        ``terms``.  Built on first use and kept on the instance, like the
        numeric form of ``evaluate``; a coefficient that is not an ``int``
        or a ``Fraction`` raises TypeError then.
        """
        form = self.__dict__.get("_integer")
        if form is None:
            values = self.terms.values()
            if not all(issubclass(t, (int, Fraction)) for t in set(map(type, values))):
                c = next(c for c in values if not isinstance(c, (int, Fraction)))
                raise TypeError(f"series coefficient {c!r} is not an int or a Fraction")
            ratios = [c.as_integer_ratio() for c in values]
            distinct = {d for _, d in ratios}
            D = math.lcm(*distinct)
            quotient = {d: D // d for d in distinct}
            shape = (len(ratios), self.nvars)
            form = (
                _int64_rows((v for v, _ in self.terms), shape),
                _int64_rows((m for _, m in self.terms), shape),
                np.array([n * quotient[d] for n, d in ratios], dtype=object),
                D,
            )
            object.__setattr__(self, "_integer", form)
        return form

    def scaled(self, factor):
        return LogSeries(
            gamma=self.gamma,
            terms={k: c * factor for k, c in self.terms.items()},
            lattice=self.lattice,
            radius=self.radius,
        )

    def render(self):
        lines = ["gamma = (" + ", ".join(str(g) for g in self.gamma) + ")"]
        logs = {}  # log index -> its text
        for v, group in self._offset_groups():
            head = f"  offset ({', '.join(map(str, v))}) log ("
            for (_, m), c in group:
                text = logs.get(m)
                if text is None:
                    text = logs[m] = ", ".join(map(str, m))
                lines.append(f"{head}{text}) : {c}")
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

# (window offset, log multi-index) pairs one eps-expansion may enumerate
MAX_LOG_TERMS = 100_000


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
    floors = [min(table) for table in tables]
    one = ((1,) + (0,) * jet_order, 1)
    family = []
    for coords, v in window:
        val, unit = 0, one
        for table, floor, x in zip(tables, floors, v):
            entry = table.get(max(x, floor))
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
    Raises LimitExceeded, before enumerating any, when the family's offsets
    times the multi-indices exceed ``MAX_LOG_TERMS``.
    """
    support = [i for i, s in enumerate(slope) if s != 0]
    # the multi-indices of total below count on the support
    indices = math.comb(count - 1 + len(support), len(support))
    if len(family) * indices > MAX_LOG_TERMS:
        raise LimitExceeded(
            f"{len(family)} offsets times {indices} log multi-indices exceed"
            f" the supported cap of {MAX_LOG_TERMS}"
        )
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
    one-sided gives the basis, so its length is the normalized volume of the
    exponent polytope.  Its coefficients are independent by construction:
    offset 0 is in every window, with the jet (1, 0, ..., 0) over 1, so the
    eps^j series has the term ``(0, alpha)`` for each ``alpha`` of total j
    on the slope's support, with coefficient ``prod_i slope_i^alpha_i /
    alpha_i! != 0``, and no other eps-series has one: the offset-0 columns
    are block-diagonal with nonzero blocks (``count_independent`` certifies
    it for callers).  Exact rational coefficients throughout.  The window is
    capped by ``lattice.MAX_WINDOW``, the log terms of one expansion by
    ``MAX_LOG_TERMS``; an order that is not a nonnegative int raises ValueError.
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
    if not kernel:  # the one solution is the monomial a^gamma, with offset 0 only
        return [monomial_series(gamma_star)]

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
            if family is not None and _one_sided(family):
                return _eps_coefficients(gamma0, slope, family, kernel, order, vol)
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


def _derivative_columns(qe, q, top, k):
    """``q^k`` times one variable's factor of ``d^k (a^e log(a)^m)``, for ``qe = q*e``.

    ``log^m a`` is the m-th derivative of ``a^e`` in ``e``, so ``d^k (a^e
    log^m a) = sum_j K_j a^(e-k) log^(m-j) a`` with ``K_j = C(m, j)
    F^(j)(e)``, ``F(e) = e (e-1) .. (e-k+1)``.  Then ``q^k K_j = C(m, j) q^j
    P^(j)(qe)`` for the integer polynomial ``P(X) = prod_{t<k} (X - q t)``.
    Returns the columns ``q^k K_0 .. q^k K_J``, ``J = min(k, top)``, as
    lists of Python ints over the grid of pairs: each ``qe`` in order, and
    for each ``m = 0 .. top``.
    """
    poly = [1]  # P, constant term first
    for t in range(k):
        poly = [a - q * t * b for a, b in zip([0] + poly, poly + [0])]
    cols = []
    for j in range(min(k, top) + 1):
        # q^j P^(j) at every qe, by Horner's rule
        values = [0] * len(qe)
        for n in range(k, j - 1, -1):
            c = poly[n] * math.perm(n, j) * q**j
            values = [y * x + c for y, x in zip(values, qe)]
        binomials = [math.comb(m, j) for m in range(top + 1)]
        cols.append([b * y for y in values for b in binomials])
    return cols


# expanded image rows per block: bounds the work arrays and the Python ints
# alive at once
_BLOCK = 1 << 13
# small factors are summed in int64 when every partial sum stays below this
_INT64_BOUND = 2**62


def _merge(keys, values):
    """Sum the values of equal keys; sorted keys, zero sums dropped."""
    if not len(keys):
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(values, starts)
    keep = np.flatnonzero(sums)
    return keys[starts][keep], sums[keep]


def _check_variables(op, series):
    if op.nvars != series.nvars:
        raise ValueError(
            f"operator acts on {op.nvars} variables, series on {series.nvars}"
        )


def _integer_images(ops, series: LogSeries):
    """Each operator applied to ``series`` in integers, as ``(totals, scale)``.

    The image coefficient of ``(offset, logpow)`` is ``totals[key] / scale``
    with ``scale = D * O * q^r``: ``D`` clears the series' coefficients (the
    series' integer form), ``O`` the operator's, and ``q`` the exponents'; a
    term of derivative order ``|w|`` is scaled by ``q^(r-|w|)``, ``r`` the
    operator's order.  ``totals`` holds the nonzero coefficients in ascending
    key order.  Returns one pair per operator, in order.

    One expansion serves every operator.  An image is keyed by one code:
    the operator's index as the leading digit, then the mixed-radix digits
    of its (offset, log index), so a shift or a log lowering is one integer
    add.  The terms of all operators are grouped by derivative pattern
    ``w``: the rows expand once per pattern, one differentiated variable at
    a time, by that variable's derivative columns (``_derivative_columns``),
    and every term with the pattern then adds its shift code and scales the
    column product by its coefficient.  These small factors are summed per
    (row, image) by sorting; each nonzero sum costs one product with the
    row's big-integer numerator, and the products are summed per image.
    Factors are int64 when an exact bound on every partial sum (per
    operator, the sum over its terms of ``|factor| * prod max |column| *
    prod (number of columns)``) lies below ``_INT64_BOUND``, and codes when
    ``image * rows + row`` fits; otherwise they are Python ints in object
    arrays, on the same path.  Rows are expanded about ``_BLOCK`` expanded
    rows at a time.  Raises ValueError on an operator on another number of
    variables than the series, before any work.
    """
    for op in ops:
        _check_variables(op, series)
    V, M, C, D = series._integer_form()
    p, rows = series.nvars, len(C)
    q = math.lcm(*(g.denominator for g in series.gamma))
    qgamma = [int(q * g) for g in series.gamma]
    scales, terms = [], []  # terms: (operator index, u - w, w, factor)
    for o, op in enumerate(ops):
        coeffs = op.constant_coefficients()
        order = max((sum(w) for _, w in coeffs), default=0)
        O = math.lcm(*(c.denominator for c in coeffs.values()))
        scales.append(D * O * q**order)
        terms += [
            (o, [ui - wi for ui, wi in zip(u, w)], w,
             c.numerator * (O // c.denominator) * q ** (order - sum(w)))
            for (u, w), c in coeffs.items()
        ]
    if not rows or not terms:
        return [({}, scale) for scale in scales]

    top = M.max(axis=0).tolist()  # highest log power per variable
    patterns = {}  # derivative pattern w -> indices of the terms with it
    for t, (_, _, w, _) in enumerate(terms):
        patterns.setdefault(tuple(w), []).append(t)
    # per differentiated variable: each row's index in the grid of (distinct
    # offset, log power) pairs, and the derivative columns of each order in
    # use over that grid
    pair_of, qe, tables = {}, {}, {}
    for w in patterns:
        for i, k in enumerate(w):
            if k and (i, k) not in tables:
                if i not in pair_of:
                    offsets, index = np.unique(V[:, i], return_inverse=True)
                    pair_of[i] = index * (top[i] + 1) + M[:, i]
                    qe[i] = [qgamma[i] + q * x for x in offsets.tolist()]
                tables[i, k] = _derivative_columns(qe[i], q, top[i], k)
    # an exact bound on every partial sum of the factors of one (row, image);
    # each column must fit as well, also where another variable's vanish
    reach = {
        ik: (max(max(map(abs, col)) for col in cols), len(cols))
        for ik, cols in tables.items()
    }
    bound = [0] * len(ops)
    for w, group in patterns.items():
        size = count = 1
        for i, k in enumerate(w):
            if k:
                size, count = size * reach[i, k][0], count * reach[i, k][1]
        for t in group:
            bound[terms[t][0]] += abs(terms[t][3]) * size * count
    fits = max(bound) < _INT64_BOUND and all(c < _INT64_BOUND for c, _ in reach.values())
    dtype = np.int64 if fits else object
    tables = {ik: np.array(cols, dtype=object).astype(dtype) for ik, cols in tables.items()}
    # row blocks in series order of about _BLOCK expanded rows each, from
    # the nonzero columns at each row's pairs
    expanded = np.zeros(rows, dtype=np.int64)
    for w, group in patterns.items():
        count = np.full(rows, len(group))
        for i, k in enumerate(w):
            if k:
                count *= np.count_nonzero(tables[i, k], axis=0)[pair_of[i]]
        expanded += count
    ends = np.cumsum(expanded)
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK), side="right")
    bounds = sorted({0, *cuts.tolist(), rows})

    # the radices cover the rows and their shifted images, so every code of
    # operator o lies in [o*R, (o+1)*R)
    shifts = np.array([s for _, s, _, _ in terms], dtype=np.int64)
    lo = V.min(axis=0) + shifts.min(axis=0)
    hi = V.max(axis=0) + shifts.max(axis=0)
    radix = (hi - lo + 1).tolist() + [t + 1 for t in top]
    R = math.prod(radix)
    weight = [math.prod(radix[j + 1 :]) for j in range(2 * p)]
    # a (row, image) code is image * rows + row
    key_type = np.int64 if len(ops) * R * rows < 2**63 else object
    digits = np.concatenate([V - lo, M], axis=1).astype(key_type, copy=False)
    base = digits @ np.array(weight, dtype=key_type)
    groups = [
        (w, np.array([
            (terms[t][0] * R + sum(s * x for s, x in zip(terms[t][1], weight))) * rows
            for t in group
        ], dtype=key_type), np.array([terms[t][3] for t in group], dtype=dtype))
        for w, group in patterns.items()
    ]

    keys, totals = base[:0], C[:0]
    # an image is complete, and dropped if it cancelled, once the rows
    # feeding it are merged
    for start, stop in zip(bounds, bounds[1:]):
        block = np.arange(start, stop)
        codes, factors = [], []
        for w, term_codes, term_factors in groups:
            # the images of each row under d^w: (row, key, column product)
            idx, key, prod = block, base[block], np.ones(len(block), dtype=dtype)
            for i, k in enumerate(w):
                if not k:
                    continue
                pairs = pair_of[i][idx]
                parts = []
                for j, col in enumerate(tables[i, k]):
                    col = col[pairs]
                    sel = np.flatnonzero(col)
                    if sel.size == len(col):
                        parts.append((idx, key - j * weight[p + i], prod * col))
                    elif sel.size:
                        parts.append((idx[sel], key[sel] - j * weight[p + i], prod[sel] * col[sel]))
                if not parts:
                    break  # every image of the pattern vanishes
                idx, key, prod = parts[0] if len(parts) == 1 else (
                    np.concatenate(x) for x in zip(*parts)
                )
            else:
                # every term with the pattern, as (row, image) codes
                row_codes = key * rows + idx
                codes.append((row_codes[None, :] + term_codes[:, None]).ravel())
                factors.append((prod[None, :] * term_factors[:, None]).ravel())
        if not codes:
            continue
        # the small factors summed per (row, image), one product per sum
        codes, factors = np.concatenate(codes), np.concatenate(factors)
        code, sums = _merge(codes, factors)
        key, row = code // rows, np.asarray(code % rows, dtype=np.int64)
        keys, totals = _merge(np.concatenate([keys, key]), np.concatenate([totals, C[row] * sums]))

    op_of, code = keys // R, keys % R
    split = np.searchsorted(op_of.astype(np.int64), np.arange(len(ops) + 1))
    columns = []
    for r in reversed(radix):
        code, digit = code // r, code % r
        columns.append(digit)
    rows_out = np.stack(columns[::-1], axis=1)
    rows_out[:, :p] += lo
    rows_out = rows_out.tolist()
    totals = totals.tolist()
    return [
        ({
            (tuple(key[:p]), tuple(key[p:])): total
            for key, total in zip(rows_out[a:b], totals[a:b])
        }, scale)
        for a, b, scale in zip(split[:-1].tolist(), split[1:].tolist(), scales)
    ]


def apply_operator(op, series: LogSeries) -> dict:
    """Raw term map of ``op`` applied to ``series`` (offset, logpow) -> coeff.

    The operator term ``c a^u d^w`` sends ``a^(gamma+v) log^m`` to a product
    of one-variable factors: ``d_i^k`` maps ``a_i^e log^(m_i) a_i`` to
    ``sum_j K(e, m_i, k, j) a_i^(e-k) log^(m_i-j) a_i``.  The sum is formed
    in integers (``_integer_images``) and divided once per image term; an
    image term is keyed by the integer offset ``v - w + u`` and its log
    multi-index, so no exponent is ever formed.  An operator on another
    number of variables than the series raises ValueError.
    """
    ((totals, scale),) = _integer_images([op], series)
    return {key: Fraction(total, scale) for key, total in totals.items()}


def annihilate_check(spec: SystemSpec, series: LogSeries):
    """Apply every operator of the system to the series and report residuals.

    A residual coefficient is only trusted when every lattice offset that
    could feed it lies inside the series' guaranteed-complete window; the
    frontier terms produced by truncation are counted but not judged.  The
    report is ``clean`` when every trusted coefficient vanishes exactly.
    Raises TypeError on a coefficient that is not rational, ValueError on
    an operator on a different number of variables than the series.
    """
    for op in spec.operators:
        _check_variables(op, series)
    series._integer_form()
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
        row[cols] = np.asarray(values, dtype=object) % _P
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

    The rows are the series' integer forms (cleared of denominators, which
    leaves the rank unchanged), ranked mod the prime ``_P`` first: a full
    rank there is the rank over Q, since a nonzero minor mod ``_P`` is
    nonzero.  A lower modular rank falls back to exact elimination of the
    same integer rows.  Raises TypeError on a coefficient that is not
    rational, ValueError on series on different numbers of variables.
    """
    series_list = list(series_list)
    if not series_list:
        return 0
    counts = sorted({s.nvars for s in series_list})
    if len(counts) > 1:
        raise ValueError(f"series on different numbers of variables: {counts}")
    # a^(gamma+v) with gamma = floor + frac is keyed by the index of the
    # fractional class frac and the integer exponent floor + v, counted from
    # the floor of the class's first series
    classes = {}  # frac -> (index, floor)
    parts = []  # (class, shift, offsets, log indices, numerators) per series
    for s in series_list:
        V, M, C, _ = s._integer_form()
        floor = tuple(math.floor(g) for g in s.gamma)
        cls, first = classes.setdefault(
            tuple(g - f for g, f in zip(s.gamma, floor)), (len(classes), floor)
        )
        shift = np.array([f - f0 for f, f0 in zip(floor, first)], dtype=np.int64)
        parts.append((cls, shift, V, M, C))
    filled = [x for x in parts if len(x[4])]
    if not filled:
        return 0
    # one mixed-radix code per (class, exponent, log index), Python ints
    # when it does not fit in int64
    lo = np.min([V.min(axis=0) + shift for _, shift, V, _, _ in filled], axis=0)
    hi = np.max([V.max(axis=0) + shift for _, shift, V, _, _ in filled], axis=0)
    top = np.max([M.max(axis=0) for *_, M, _ in filled], axis=0)
    radix = [len(classes)] + (hi - lo + 1).tolist() + (top + 1).tolist()
    weight = [math.prod(radix[j + 1 :]) for j in range(len(radix))]
    key_type = np.int64 if math.prod(radix) < 2**63 else object
    p = len(lo)
    wv, wm = (np.array(w, dtype=key_type) for w in (weight[1 : p + 1], weight[p + 1 :]))
    codes = np.concatenate([
        cls * weight[0]
        + (V - (lo - shift)).astype(key_type, copy=False) @ wv
        + M.astype(key_type, copy=False) @ wm
        for cls, shift, V, M, _ in parts
    ])
    distinct, column = np.unique(codes, return_inverse=True)
    bounds = np.cumsum([0] + [len(x[4]) for x in parts]).tolist()
    cleared = [(column[a:b], x[4]) for a, b, x in zip(bounds, bounds[1:], parts)]
    ncols = len(distinct)
    if _rank_mod_p(cleared, ncols) == len(series_list):
        return len(series_list)
    rows = []
    for cols, values in cleared:
        row = [0] * ncols
        for j, c in zip(cols.tolist(), values.tolist()):
            row[j] = c
        rows.append(row)
    return intlinalg.rank(rows)
