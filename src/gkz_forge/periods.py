"""Numerical evaluation of period and chain integrals, plus certification.

Every integral of a section integrates g Omega / f, g its numerator or 1
(the Calabi-Yau integrand).  The torus-cycle period is computed two ways:
as an exact constant-term series near a dominant interior monomial (g = 1
only), and by trapezoidal quadrature on a product torus (spectrally
accurate for analytic integrands).  Chain integrals over paths reaching the
toric boundary are integrated in a chart in which the integrand extends
holomorphically across the flagged endpoints (reaching infinity is handled
by inverting the coordinate), by one global adaptive Gauss-Kronrod (10, 21)
integrator (QUADPACK's dqk21 pair, the default rule of its QAGS driver).
The segments of a chain form one stacked integrand: each segment is a row
of path parameters and dense chart coefficients, and each round evaluates
the nodes of every new interval at once by Horner's rule.  A cached plan
per chain and shape of the chart holds the rows' paths and charts and the
first round's x and dx/dt, so a call only fills in the coefficients.  The
first round takes every segment as its two halves and evaluates their
nodes together with a 129-point pole-clearance scan of every path, in one
call, so a chain that meets its tolerance at once costs one call of the
integrand; each later round splits the intervals of largest error into 8.
It stops when the summed error estimate is at most tol and raises
NonConvergent when tol is below the roundoff floor (eps times the integral
of |f| (50 + cond), cond the condition number of the Horner sums), when its
evaluation budget ``MAX_EVALS`` runs out, or when an interval can no longer
be split; a returned error is never above tol.

``finite_difference_residual`` applies the operators of a system to any
numerically sampled function of the coefficients with exact central
finite-difference stencils of order ``FD_ORDER``, which certifies "this
integral solves the system" at a point without symbolic access to the
function; each operator's report gives the verdict.  The stencil weights
solve a small Vandermonde system with ``intlinalg``'s exact solver, once
per derivative order.  Each stencil sum is formed exactly in integers, and
a certificate keeps one table, its samples by stencil point: each point is
sampled once, and the steps h and h/2 and all operators share the samples.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegeneracyError,
    DivergentAtBoundary,
    MultipleRoot,
    NoInteriorMonomial,
    NonConvergent,
    PoleNearPath,
    SingularOnContour,
    StencilOutOfDomain,
)
from . import intlinalg
from .lattice import ExponentMatrix, LatticeWalk, integer_kernel
from .series import LogSeries, _eps_coefficients, _ratio_jet_family

# a section (or chart denominator) whose modulus falls below this fraction
# of the sum of its terms' moduli counts as vanishing on a torus or a path
_CLEARANCE = 1e-6
# the order of accuracy of every finite-difference stencil: the error of a
# residual is O(h^FD_ORDER)
FD_ORDER = 4
# the evaluations of the integrand one quadrature may spend: a torus-cycle
# integral summed over its grids, a chain integral over its rounds
MAX_EVALS = 2**20


def _is_int(value):
    # bool is a subclass of int, but no count, index or size
    return isinstance(value, int) and not isinstance(value, bool)


def _is_size(value):
    # a real above the largest float, such as a huge int, is not finite
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max
    )


def _finite(values):
    try:
        return all(map(cmath.isfinite, values))
    except OverflowError:  # an int or Fraction beyond the float range
        return False


# -- data types ----------------------------------------------------------------


@dataclass(frozen=True)
class SectionData:
    """A point of the family: section coefficients over an exponent matrix.

    ``numerator_exponents`` / ``numerator_coeffs`` optionally give the
    numerator g that every integral reads (empty: g = 1).  DegeneracyError
    when they differ in length, an exponent's length is not ``A.dim``, or a
    coefficient of the section or of g is not finite.  Both coefficient
    tuples are kept as complex numbers.
    """

    A: ExponentMatrix
    coeffs: tuple
    numerator_exponents: tuple = ()
    numerator_coeffs: tuple = ()

    def __post_init__(self):
        if len(self.coeffs) != self.A.nsections:
            raise DegeneracyError("coefficient count does not match the sections")
        if all(c == 0 for c in self.coeffs):
            raise DegeneracyError("section is identically zero")
        if len(self.numerator_exponents) != len(self.numerator_coeffs):
            raise DegeneracyError("numerator exponents and coefficients differ in length")
        if any(len(nu) != self.A.dim for nu in self.numerator_exponents):
            raise DegeneracyError(f"numerator exponents must have length {self.A.dim}")
        if not _finite([*self.coeffs, *self.numerator_coeffs]):
            raise DegeneracyError("section and numerator coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(map(complex, self.coeffs)))
        object.__setattr__(self, "numerator_coeffs", tuple(map(complex, self.numerator_coeffs)))


@dataclass(frozen=True)
class Segment:
    """Smooth path piece in torus coordinates.

    Unflagged coordinates interpolate multiplicatively between the control
    points (so circles around the origin are exact arcs).  A flag of -1
    sends the coordinate to 0 at that end, +1 sends it to infinity; the
    control point entry of a flagged coordinate gives the approach
    direction (the path is linear in the chart coordinate).  Any other flag,
    or a control point that is not finite, raises DegeneracyError.
    """

    start: tuple
    end: tuple
    start_flags: tuple = None
    end_flags: tuple = None

    def __post_init__(self):
        n = len(self.start)
        if not _finite([*self.start, *self.end]):
            raise DegeneracyError("segment control points must be finite")
        object.__setattr__(self, "start", tuple(map(complex, self.start)))
        object.__setattr__(self, "end", tuple(map(complex, self.end)))
        object.__setattr__(
            self, "start_flags", tuple(self.start_flags or (0,) * n)
        )
        object.__setattr__(self, "end_flags", tuple(self.end_flags or (0,) * n))
        if len(self.end) != n or len(self.start_flags) != n or len(self.end_flags) != n:
            raise DegeneracyError("segment data of inconsistent dimension")
        if any(f not in (-1, 0, 1) for f in self.start_flags + self.end_flags):
            raise DegeneracyError(
                f"boundary flags must be -1, 0 or 1, got {self.start_flags} and {self.end_flags}"
            )
        for z, f in zip(self.start + self.end, self.start_flags + self.end_flags):
            if f == 0 and z == 0:
                raise DegeneracyError("unflagged control point on the boundary")

    def is_null(self):
        return (
            self.start == self.end
            and self.start_flags == self.end_flags
        )


@dataclass(frozen=True)
class ChainSpec:
    """Piecewise-smooth integration chain with boundary flags."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        for a, b in zip(segs, segs[1:]):
            if any(a.end_flags) or any(b.start_flags):
                raise DegeneracyError("interior junctions must not carry boundary flags")
            if max(abs(x - y) for x, y in zip(a.end, b.start)) > 1e-9:
                raise DegeneracyError("consecutive segments do not match at the junction")


@dataclass(frozen=True)
class QuadratureSettings:
    """Target error of a quadrature.  ValueError unless ``tol`` is a positive
    finite real."""

    tol: float = 1e-10

    def __post_init__(self):
        if not _is_size(self.tol):
            raise ValueError(f"tol must be a positive finite real, got {self.tol!r}")


@dataclass(frozen=True)
class IntegrationResult:
    value: complex
    error: float
    evaluations: int


# -- constant-term period series ------------------------------------------------


def torus_period_series(A: ExponentMatrix, i0=None, order=10) -> LogSeries:
    """Constant-term expansion of 1/f around a dominant interior monomial.

    With ``mu_{i0} = 0`` the coefficient of the offset with multiplicities
    ``m`` away from i0 is ``(-1)^|m| multinomial(|m|; m)`` on the monomial
    ``prod a_i^{m_i} * a_{i0}^{-|m|-1}``; this equals ``(2 pi i)^{-n}``
    times the period of the holomorphic form over the product torus where
    ``a_{i0}`` dominates.  It is the gamma-ratio series of ``-e_{i0}`` read
    at eps^0 along ``e_{i0}``: off i0 the slope is zero, so a negative
    offset there meets 1/Gamma at a nonpositive integer and the term is an
    exact zero.  ValueError unless ``order`` is a nonnegative int and ``i0``
    is None or an int in ``range(A.nsections)``.
    """
    if not _is_int(order) or order < 0:
        raise ValueError(f"order must be a nonnegative int, got {order!r}")
    if i0 is not None and not (_is_int(i0) and 0 <= i0 < A.nsections):
        raise ValueError(f"i0 must be a section index in range({A.nsections}), got {i0!r}")
    zero = (0,) * A.dim
    if i0 is None:
        try:
            i0 = A.points.index(zero)
        except ValueError:
            raise NoInteriorMonomial(
                "no zero exponent among the sections; pass i0 explicitly"
            ) from None
    if A.points[i0] != zero:
        raise NoInteriorMonomial(
            f"section {i0} has exponent {A.points[i0]}; the expansion base must be 0"
        )
    kernel = integer_kernel(A)
    p = A.nsections
    gamma = tuple(Fraction(-1) if i == i0 else Fraction(0) for i in range(p))
    unit = tuple(int(i == i0) for i in range(p))
    window = LatticeWalk(kernel, p).window(order)
    family = _ratio_jet_family(gamma, unit, window, 0)
    return _eps_coefficients(gamma, unit, family, kernel, order, 1)[0]


# -- torus-cycle quadrature ------------------------------------------------------


def _section_on_torus(s: SectionData, radii, grids):
    """f and the numerator g (1 without one) on the product torus grid."""
    n = s.A.dim
    angles = [np.linspace(0.0, 2.0 * np.pi, grids[j], endpoint=False) for j in range(n)]
    mesh = np.meshgrid(*angles, indexing="ij") if n > 1 else [angles[0]]
    x = [radii[j] * np.exp(1j * mesh[j]) for j in range(n)]

    def laurent(terms):
        total = np.zeros(mesh[0].shape, dtype=complex)
        for mu, c in terms:
            if c != 0:
                total = total + c * math.prod(xj**e for xj, e in zip(x, mu) if e)
        return total

    g = zip(s.numerator_exponents, s.numerator_coeffs)
    g = g if s.numerator_exponents else [((0,) * n, 1)]
    return laurent(zip(s.A.points, s.coeffs)), laurent(g)


def numeric_cycle_integral(
    s: SectionData, radii, quad: QuadratureSettings = QuadratureSettings()
) -> IntegrationResult:
    """(2 pi i)^{-n} times the integral of g dx_1/x_1 ... dx_n/x_n / f over |x_j| = r_j.

    Tensor-product trapezoidal rule with grid doubling; exponentially
    convergent for sections without zeros on the torus.  The reported error
    is the difference of the two finest grids.  ``MAX_EVALS`` bounds the
    evaluations summed over all grids, as it does for a chain: a grid
    that would take the total past it is not sampled, and NonConvergent is
    raised instead.  DegeneracyError unless ``radii`` holds one positive
    finite real (no bool) per coordinate whose powers in the section's terms
    stay in the float range.
    """
    n = s.A.dim
    if len(radii) != n or not all(map(_is_size, radii)):
        raise DegeneracyError("one positive radius per torus coordinate is required")
    radii = tuple(map(float, radii))
    try:  # the moduli of the section's terms on the torus, summed
        scale = sum(abs(c) * math.prod(map(pow, radii, mu)) for c, mu in zip(s.coeffs, s.A.points))
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not 0 < scale < math.inf:
        raise DegeneracyError("the radii take the section's terms out of the float range")
    m = 8
    prev = None
    total = 0
    while total + m**n <= MAX_EVALS:
        f, g = _section_on_torus(s, radii, (m,) * n)
        total += f.size
        if np.min(np.abs(f)) < _CLEARANCE * scale:
            raise SingularOnContour(
                f"|f| dips to {np.min(np.abs(f)):.3e} on the sampled torus"
            )
        value = complex(np.mean(g / f))
        if prev is not None:
            err = abs(value - prev)
            if err <= quad.tol:
                return IntegrationResult(value=value, error=err, evaluations=total)
        prev = value
        m *= 2
    raise NonConvergent(
        "torus quadrature did not reach the tolerance within its budget"
        f" of {MAX_EVALS} evaluations"
    )


# -- chart rational forms (one-dimensional chains) --------------------------------


def _horner(columns, x, low=0):
    """Laurent polynomial at ``x`` by Horner's rule, times ``x**low``.

    ``columns`` are the coefficients from the highest degree down to
    ``low``; each is a scalar or an array broadcasting against ``x`` (one
    row of coefficients per interval of a chain).
    """
    value = columns[0]
    for c in columns[1:]:
        value = value * x + c
    return value * x**low if low else value


def _coefficients(poly):
    """Coefficients of a Laurent polynomial ``{exponent: coefficient}``.

    Returns them from the highest degree down to the lowest exponent, zero
    where the polynomial has no term, together with that lowest exponent.
    """
    low = min(poly)
    return [poly.get(e, 0j) for e in range(max(poly), low - 1, -1)], low


def _chart_pair(s: SectionData):
    """Numerator and denominator Laurent data of the chart integrand.

    On the 1-torus chart the holomorphic form is dx/x and the section has a
    pole order ``sigma = -min(mu)``; clearing it gives the polynomial
    denominator ``x^sigma f`` and the numerator ``x^(sigma-1) g``, ``g`` the
    section's numerator, or 1 (the Calabi-Yau integrand) when it has none.
    The numerator is empty when every coefficient of ``g`` cancels.
    """
    if s.A.dim != 1:
        raise DegeneracyError("chain integration is implemented for one-dimensional charts")
    sigma = max(0, -min(mu for (mu,) in s.A.points))
    g = zip(s.numerator_exponents, s.numerator_coeffs)
    g = g if s.numerator_exponents else [((0,), 1 + 0j)]
    num, den = {}, {}
    for pair, terms, shift in ((den, zip(s.A.points, s.coeffs), sigma), (num, g, sigma - 1)):
        for (e,), c in terms:
            pair[e + shift] = pair.get(e + shift, 0) + c
    num, den = ({e: c for e, c in pair.items() if c != 0} for pair in (num, den))
    if not den:
        raise DegeneracyError("section is identically zero")
    return num, den


@functools.lru_cache(maxsize=2)
def _chain_plan(low, width, depth, segments):
    """Paths and charts of the segments of a chain, one row each.

    A plan depends only on the non-null segments, each paired with its
    bits, and on the shape of the chart pair: ``low`` the numerator's lowest
    exponent over the denominator's, and the numbers of coefficients of
    both, ``width`` and ``depth``.  So a finite-difference certificate
    builds it once for all its samples.  Each segment takes the chart where
    its flagged endpoint is regular: x -> 1/w, dx = -dw/w^2, for an endpoint
    at infinity, shifted so the denominator is a polynomial with nonzero
    constant term.  A segment reaching the boundary is linear in its chart,
    ``x = p (c0 + c1 t)`` with constant ``dx/dt = dx``: ``(c0, c1) = (0,
    1)`` from a flagged start, ``(1, -1)`` towards a flagged end.  An
    unflagged segment is the multiplicative arc ``x = p exp(c1 t)`` with
    ``dx/dt = c1 x``.  The plan keeps each row's ``(p, c0, c1, dx)``, chart
    and numerator's lowest exponent, and x at the first round's parameters
    with dx/dt at its nodes.
    """
    rows = []
    for seg, _ in segments:
        start, end, p, q = seg.start_flags[0], seg.end_flags[0], seg.start[0], seg.end[0]
        if start and end:
            raise DegeneracyError("a segment with both endpoints on the boundary must be split")
        inv = 1 in (start, end)
        lowest = depth - width - 2 - low if inv else low
        if (start or end) and lowest < 0:
            raise DivergentAtBoundary("the integrand has a pole at a flagged boundary endpoint")
        a = 0j if start else 1.0 / p if inv else p
        b = 0j if end else 1.0 / q if inv else q
        # dx is stored rather than formed as p c1, which can flip the sign
        # of a zero part of b or -a
        path = (b, 0j, 1 + 0j, b) if start else (a, 1 + 0j, -1 + 0j, -a) if end else (
            a, 0j, cmath.log(b / a), 0j
        )
        rows.append((path, not (start or end), inv, lowest))
    paths, arcs, invert, lows = map(np.array, zip(*rows))
    n, m = len(rows), len(_GK_NODES)
    plan = SimpleNamespace(
        paths=paths, arcs=arcs, width=width, lows=lows, rows=np.arange(n), invert=invert[:, None],
        # the direct and the inverted chart of a chain have numerators of one
        # width, but their lowest exponents can differ: each row keeps its own
        shifts=sorted(set(lows.tolist()) - {0}),
        first_t=np.repeat(_FIRST_ROUND[: 2 * m].reshape(2, m), n, axis=0),
        first_piece=np.tile(np.arange(n), 2),
        first_bounds=np.repeat(((0.0, 0.5), (0.5, 1.0)), n, axis=1),
    )
    # dx/dt only at the nodes: the scan reads the denominator alone
    x, dx = _path(plan, plan.rows, _FIRST_ROUND)
    plan.first = x, dx[:, : 2 * m].copy()
    return plan


def _path(plan, piece, t):
    """x and dx/dt on the interval rows ``piece`` (the segment of each row)
    at the parameters ``t`` in [0, 1] (a row per interval row, or one row
    for all)."""
    c, arc = plan.paths[piece].T[..., None], plan.arcs[piece, None]
    u = t * c[2]
    x = c[1] + u
    np.exp(u, out=x, where=arc)
    x = c[0] * x
    return x, np.where(arc, c[2] * x, c[3])


def _chain_integrand(plan, coef, piece, path):
    """The chart integrands of the interval rows ``piece`` of a chain.

    ``coef`` holds a section's chart coefficients on the plan's rows and
    their moduli, ``path`` x and dx/dt on the interval rows (``_path``).
    Returns ``num(x) / den(x) * dx/dt`` and an estimate of its rounding
    error where dx/dt is given, and the condition number ``sum |d_e| |x|^e
    / |den(x)|`` of the denominator at every x, evaluating every row at once
    by Horner's rule on the rows' chart coefficients.  The condition number
    above ``1 / _CLEARANCE`` marks a parameter where the denominator nearly
    vanishes; the quadrature reads it on its pole-clearance scan.
    """
    (c, c_abs), (x, dx), k = (r[piece].T[..., None] for r in coef), path, plan.width
    size = np.abs(x)
    bottom = _horner(c[k:], x)
    cond = _horner(c_abs[k:], size) / np.abs(bottom)
    # the integrand at the leading parameters, where dx/dt is given
    n = dx.shape[1]
    x, size, bottom = x[:, :n], size[:, :n], bottom[:, :n]
    top, num_size = _horner(c[:k], x), _horner(c_abs[:k], size)
    for low in plan.shifts:  # times x**low on the rows of that lowest exponent
        at = (plan.lows[piece] == low)[:, None]
        top = np.where(at, top * x**low, top)
        num_size = np.where(at, num_size * size**low, num_size)
    # an estimate of the rounding error of f: 50 eps |f| for the sums,
    # plus eps |f| times the condition numbers sum |c_e| |x|^e / |p(x)|
    # of numerator and denominator, which blow up beside a pole (Higham,
    # "Accuracy and Stability of Numerical Algorithms", 2002, 5.1)
    noise = _EPS * np.abs(dx / bottom) * (
        (_ROUNDOFF + cond[:, :n]) * np.abs(top) + num_size
    )
    return top / bottom * dx, noise, cond


# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK dqk21, Piessens et al.
# 1983): the nonnegative Kronrod nodes, their weights, and the weights of
# the embedded 10-point Gauss rule on the nodes of odd index.
_KRONROD_HALF = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.0, 0.149445554002916905664936468389821, 0.0),
)
_GK_NODES, _GK_WEIGHTS, _GAUSS_WEIGHTS = np.concatenate(
    [np.array(_KRONROD_HALF[:-1]) * (-1, 1, 1), _KRONROD_HALF[::-1]]
).T
# the weights as complex numbers: a product with f casts them on every call
_COMPLEX_WEIGHTS = np.array([_GK_WEIGHTS, _GAUSS_WEIGHTS], dtype=complex)
_EPS = np.finfo(float).eps
# the rounding error of a quadrature sum, in units of eps |f|
_ROUNDOFF = 50
# an interval narrower than this in t is not split again
_MIN_WIDTH = 1000 * _EPS
# the number of equal parts a round splits an interval into
_SPLIT = 8


# the first round's parameters on every segment: the Kronrod nodes of
# [0, 1/2] and of [1/2, 1], then the pole-clearance scan t = k / 128
_FIRST_ROUND = np.concatenate(
    (0.25 + 0.25 * _GK_NODES, 0.75 + 0.25 * _GK_NODES, np.arange(129) / 128.0)
)


def _gauss_kronrod_sums(t, f, noise, half):
    """Value, error estimate and roundoff floor on each interval.

    Row ``i`` of ``f`` and ``noise`` holds the chain integrand's values and
    rounding-error estimates at the Kronrod nodes ``t[i]`` of an interval of
    half-width ``half[i]`` (or ``half``, one width for all).  The floor is
    the integral of the rounding-error estimates.  The error estimate is
    QUADPACK's: the Kronrod-Gauss difference rescaled by the integrand's
    variation, and never below the floor.
    """
    finite = np.isfinite(f) & np.isfinite(noise)
    if not finite.all():
        bad = t[~finite][0]
        raise PoleNearPath(f"the integrand is not finite at t = {bad:.6g} of a segment")
    kronrod = f @ _COMPLEX_WEIGHTS[0]
    gauss = f @ _COMPLEX_WEIGHTS[1]
    floor = noise @ _GK_WEIGHTS * half
    spread = np.abs(f - kronrod[:, None] / 2.0) @ _GK_WEIGHTS * half
    diff = np.abs(kronrod - gauss) * half
    ratio = np.divide(200.0 * diff, spread, out=np.zeros(len(diff)), where=spread > 0)
    err = spread * np.minimum(1.0, ratio**1.5)
    return kronrod * half, np.maximum(err, floor), floor


def _within_budget(evals):
    # the evaluations a chain integral has spent, if they fit in MAX_EVALS
    if evals > MAX_EVALS:
        raise NonConvergent(f"adaptive quadrature exceeded its budget of {MAX_EVALS} evaluations")
    return evals


def _adaptive_gauss_kronrod(plan, coef, quad: QuadratureSettings) -> IntegrationResult:
    """Sum over the segments of a chain of their integrals over [0, 1],
    within ``quad.tol``; ``coef`` as for ``_chain_integrand``.

    One global pool of intervals holds every segment (they share the
    tolerance).  The first round takes every segment as its two halves,
    [0, 1/2] and [1/2, 1], by one call of the stacked integrand, which also
    reads the denominator at the 129 parameters ``k / 128`` of every
    segment: PoleNearPath when it nearly vanishes at one, before any node
    value is used.  So a chain that meets tol at once costs one call.  Each
    further round splits the intervals of largest error into ``_SPLIT``
    equal parts, all at once, and evaluates the new ones by one call, until
    the summed error is at most tol.  Raises NonConvergent when the roundoff
    floor (the integral of the integrand's rounding-error estimates) is
    above tol, when the evaluation budget runs out (checked before every
    call, the first included), or when an interval can no longer be split.
    """
    m = len(_GK_NODES)
    evals = _within_budget(2 * m * len(plan.rows))
    f, noise, cond = _chain_integrand(plan, coef, plan.rows, plan.first)
    near = cond[:, 2 * m :] > 1.0 / _CLEARANCE
    if near.any():
        first = near[near.any(axis=1)][0]
        t = _FIRST_ROUND[2 * m + np.argmax(first)]
        raise PoleNearPath(f"denominator nearly vanishes at t = {t:.4f}")
    # the left halves of segments 0 .. n-1, then their right halves
    value, err, noise = _gauss_kronrod_sums(
        plan.first_t,
        np.concatenate((f[:, :m], f[:, m:])),
        np.concatenate((noise[:, :m], noise[:, m:])),
        0.25,
    )
    piece, (lo, hi) = plan.first_piece, plan.first_bounds
    while True:
        total = err.sum()
        if total <= quad.tol:
            return IntegrationResult(
                value=complex(value.sum()), error=float(total), evaluations=evals
            )
        floor = noise.sum()
        # the part of each interval's error that splitting can still reduce
        excess = err - noise
        if floor <= quad.tol:
            goal = quad.tol - floor
        elif excess.sum() <= floor:
            raise NonConvergent(
                f"tol {quad.tol:.3e} is below the roundoff floor {floor:.3e}"
                " (the integrated rounding error of the integrand)"
            )
        else:
            # an early floor can be inflated by a node beside a pole, so
            # refine until the floor is known as well as it is large
            goal = floor
        # split the intervals of largest reducible error until the rest
        # hold at most half of the goal
        order = np.argsort(-excess, kind="stable")
        rest = excess.sum() - np.cumsum(excess[order])
        split = order[: np.count_nonzero(rest > goal / 2.0) + 1]
        evals = _within_budget(evals + _SPLIT * m * len(split))
        left, right = lo[split], hi[split]
        if (right - left).min() < _MIN_WIDTH:
            raise NonConvergent(
                "adaptive quadrature needs an interval narrower than"
                f" {_MIN_WIDTH:.1e} in the segment parameter"
            )
        # the parts, the first parts of all split intervals first
        edges = left + np.outer(np.arange(_SPLIT + 1) / _SPLIT, right - left)
        edges[-1] = right
        parts = np.tile(piece[split], _SPLIT)
        left, right = edges[:-1].ravel(), edges[1:].ravel()
        half = (right - left) / 2.0
        t = ((right + left) / 2.0)[:, None] + half[:, None] * _GK_NODES
        f, new_noise, _ = _chain_integrand(plan, coef, parts, _path(plan, parts, t))
        new_value, new_err, new_noise = _gauss_kronrod_sums(t, f, new_noise, half)
        keep = np.ones(len(piece), dtype=bool)
        keep[split] = False
        piece, value, err, noise, lo, hi = (
            np.concatenate((old[keep], new))
            for old, new in (
                (piece, parts), (value, new_value), (err, new_err), (noise, new_noise),
                (lo, left), (hi, right),
            )
        )


def numeric_chain_integral(
    s: SectionData, chain: ChainSpec, quad: QuadratureSettings = QuadratureSettings()
) -> IntegrationResult:
    """Integral of ``g * Omega / f`` over a chain bounded by the toric boundary.

    Each segment is parameterized in the chart where its flagged endpoint
    is a regular point (inverting the coordinate for endpoints at
    infinity), and all segments are integrated together, as one stacked
    integrand, by one global adaptive Gauss-Kronrod (10, 21) integrator: the
    21-point Kronrod rule, exact to degree 31, with its embedded 10-point
    Gauss rule for the error estimate.  The paths, the charts and the first
    round's x and dx/dt come from a plan cached per chain and shape of the
    chart (``_chain_plan``), which the samples of a finite-difference
    certificate share.  The integrator starts from both halves of every
    segment, evaluated with the pole-clearance scan of every path by one
    call of the integrand, so a chain that meets tol at once takes 42
    evaluations per segment, all in that one call, and costs little more
    than filling in its coefficients and one Horner evaluation.  Each later
    round splits the intervals of largest error into ``_SPLIT`` = 8 equal
    parts, so a pole 1e-4 beside the path takes 5 or 6 rounds.  It stops
    once the summed error estimate is at most ``quad.tol``, so the returned
    error is never above tol; it raises NonConvergent when tol is below the
    roundoff floor (eps times the integral of |f| (50 + cond), cond the
    condition number of the Horner sums, which grows like 1/distance beside
    a pole), when the evaluation budget ``MAX_EVALS`` would run out
    (checked before every call, the first included) or when an interval
    can no longer be split.  Raises DivergentAtBoundary when the integrand
    does not extend across a flagged endpoint and PoleNearPath when the
    section nearly vanishes at one of 129 equally spaced parameters of a
    segment or the integrand is not finite at a node.
    """
    return _chain_integral(s, chain, quad)


def general_type_integral(
    s: SectionData, chain: ChainSpec, quad: QuadratureSettings = QuadratureSettings()
) -> IntegrationResult:
    """``numeric_chain_integral`` of a section that must carry numerator data."""
    if not s.numerator_exponents:
        raise DegeneracyError("general_type_integral requires numerator data")
    return _chain_integral(s, chain, quad)


def _chain_integral(s: SectionData, chain: ChainSpec, quad):
    # one body for both public integrals, so perfbench's tracer counts each call once
    num, den = _chart_pair(s)
    segments = [seg for seg in chain.segments if not seg.is_null()]
    if not (num and segments):
        return IntegrationResult(value=0j, error=0.0, evaluations=0)
    # segments that compare equal can differ in bits (0.0 and -0.0), which
    # the paths keep: the plan's key holds the bits as well
    keys = tuple((seg, np.array(seg.start + seg.end).tobytes()) for seg in segments)
    (top, low), (bottom, base) = _coefficients(num), _coefficients(den)
    with np.errstate(all="ignore"):  # a node on a pole is reported as such
        plan = _chain_plan(low - base, len(top), len(bottom), keys)
        # the rows' chart coefficients, highest degree first: inverting the
        # chart reverses both and negates the numerator's
        flip = _coefficients({-e: -c for e, c in num.items()})[0] + bottom[::-1]
        coef = np.where(plan.invert, flip, top + bottom)
        # their moduli by libm's hypot, as Python's abs takes them; numpy's
        # complex modulus can differ from it in the last bit
        return _adaptive_gauss_kronrod(plan, (coef, np.hypot(coef.real, coef.imag)), quad)


# -- residues ---------------------------------------------------------------------


def _sorted_roots(den):
    # the dense coefficients end at the lowest exponent: the roots other than 0
    roots = np.roots(_coefficients(den)[0])
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def denominator_roots(s: SectionData):
    """Roots of the chart denominator polynomial, sorted deterministically."""
    return _sorted_roots(_chart_pair(s)[1])


def residue_period(s: SectionData, root_index: int) -> complex:
    """2 pi i times the residue of the chart integrand at the selected root.

    One-dimensional sections with simple roots only; the residue of
    ``num/den`` at a simple root r is ``num(r)/den'(r)`` (0 for a zero
    numerator).  ValueError unless ``root_index`` is an int in
    ``range(len(denominator_roots(s)))``.
    """
    num, den = _chart_pair(s)
    roots = _sorted_roots(den)
    if not roots:
        raise DegeneracyError("the chart denominator has no roots")
    if not (_is_int(root_index) and 0 <= root_index < len(roots)):
        raise ValueError(
            f"root_index {root_index!r} is not in range({len(roots)}) of the {len(roots)} roots"
        )
    # a numerically double root splits by about sqrt(eps), so cluster wider
    scale = max(abs(r) for r in roots) + 1.0
    for i, r in enumerate(roots):
        for rr in roots[i + 1 :]:
            if abs(r - rr) < 1e-5 * scale:
                raise MultipleRoot(f"roots {r} and {rr} coincide within tolerance")
    if not num:
        return 0j
    # the quotient times x^k over x^k, the denominator's lowest term now x^0
    r, k = roots[root_index], -min(den)
    top, low = _coefficients(num)
    bottom, dlow = _coefficients({e + k - 1: (e + k) * c for e, c in den.items() if e + k})
    return 2j * math.pi * complex(_horner(top, r, low + k) / _horner(bottom, r, dlow))


def loop_chain(center, radius) -> ChainSpec:
    """Closed chain winding once counterclockwise around ``center``.

    Built from 12 multiplicative arcs between points on a circle; for
    ``center = 0`` the arcs are exact circle pieces.  Raises
    DegeneracyError unless the center is finite and the radius a positive
    finite number: a zero radius gives no loop.
    """
    if not _is_size(radius):
        raise DegeneracyError(f"loop radius must be a positive finite number, got {radius!r}")
    if not _finite([center]):
        raise DegeneracyError(f"loop center {center!r}: control points must be finite")
    verts = [complex(center) + radius * cmath.exp(2j * math.pi * k / 12) for k in range(12)]
    segs = [Segment(start=(a,), end=(b,)) for a, b in zip(verts, verts[1:] + verts[:1])]
    return ChainSpec(segments=tuple(segs))


# -- finite difference certification ------------------------------------------------


def fd_weights(derivative, nodes):
    """Exact finite-difference weights at 0 for the given distinct nodes.

    The weights solve the Vandermonde system ``sum_j w_j x_j^k = k! [k ==
    derivative]`` for ``k < len(nodes)``: the stencil differentiates every
    polynomial of degree below the node count exactly.  Raises ValueError
    unless ``derivative`` is a nonnegative int (no bool) below the node count.
    """
    n = len(nodes)
    if isinstance(derivative, bool) or not isinstance(derivative, int) or derivative < 0:
        raise ValueError(f"derivative must be a nonnegative int, got {derivative!r}")
    if derivative >= n:
        raise ValueError("not enough nodes for the requested derivative")
    if len(set(nodes)) != n:
        raise ValueError("finite-difference nodes must be distinct")
    rows = [[Fraction(x) ** k for x in nodes] for k in range(n)]
    rhs = [math.factorial(derivative) if k == derivative else 0 for k in range(n)]
    return list(intlinalg.solve_rational(rows, rhs))


@functools.lru_cache(maxsize=None)
def _central_stencil(derivative):
    """Nodes of the central stencil of order ``FD_ORDER`` for the derivative,
    its weights as integers, and their common denominator; the zeroth
    derivative reads the centre alone."""
    k = (derivative + 1) // 2 + FD_ORDER // 2 - 1 if derivative else 0
    nodes = tuple(range(-k, k + 1))
    weights = fd_weights(derivative, nodes)
    scale = math.lcm(*(x.denominator for x in weights))
    return nodes, tuple(x.numerator * (scale // x.denominator) for x in weights), scale


@dataclass(frozen=True)
class OperatorFD:
    """One operator's residuals at h and h/2 and their floors."""

    operator: object
    residual: complex
    residual_refined: complex
    floor: float
    floor_refined: float

    @property
    def observed_order(self):
        """log2 of the residuals' ratio, None when either is at or below its floor."""
        r1, r2 = abs(self.residual), abs(self.residual_refined)
        return math.log2(r1 / r2) if r1 > self.floor and r2 > self.floor_refined else None

    @property
    def richardson(self):
        # the leading error term is O(h^FD_ORDER): halving h divides it by 2^FD_ORDER
        k = 2**FD_ORDER
        return (k * self.residual_refined - self.residual) / (k - 1)

    def holds(self, tol):
        """The order is within 0.5 of FD_ORDER for some residuals within their
        floors, and the Richardson value at most tol times floor_refined / eps."""
        r1, f1 = abs(self.residual), self.floor
        r2, f2 = abs(self.residual_refined), self.floor_refined
        lo, hi = 2 ** (FD_ORDER - 0.5), 2 ** (FD_ORDER + 0.5)
        converges = lo * (r2 - f2) <= r1 + f1 and r1 - f1 <= hi * (r2 + f2)
        return converges and abs(self.richardson) <= tol * f2 / math.ulp(1.0)


@dataclass(frozen=True)
class FDReport:
    reports: tuple
    h: float

    @property
    def max_residual(self):
        return max((abs(r.residual) for r in self.reports), default=0.0)


def _exact_sum(values, weights, denominator):
    # The weighted sum is formed exactly in integers: the sampled values are
    # binary floats, hence integers over powers of two, and the stencil
    # weights are integers over one common denominator.  So stencil
    # identities like "sum of weights is zero" hold exactly and directions
    # the function does not depend on contribute no rounding noise; one
    # correctly rounded division per part ends the sum.
    parts = []
    for ratios in zip(*((v.real.as_integer_ratio(), v.imag.as_integer_ratio()) for v in values)):
        scale = max(d for _, d in ratios)
        total = sum(wt * n * (scale // d) for wt, (n, d) in zip(weights, ratios))
        parts.append(total / (scale * denominator))
    return complex(*parts)


def finite_difference_residual(spec, F, a0, h) -> FDReport:
    """Apply every operator of the system to a sampled function of the coefficients.

    Derivatives are tensor products of exact central stencils of order
    ``FD_ORDER``; each residual is recomputed at h/2 (h a positive finite
    number) for an observed convergence order and a Richardson
    extrapolation.  ``F`` takes a coefficient tuple and returns a finite
    complex value, else StencilOutOfDomain, as when it raises; ``a0`` holds
    one finite coefficient per variable of the system, else ValueError
    before any sample is taken.

    Each stencil point is sampled once per certificate, whichever operators
    and steps read it: the node 2k at h/2 is the node k at h.  The observed
    order is None when either residual lies at or below its rounding floor:
    eps * max|sample| over the samples the operator read at that step, times
    the sum over the operator's terms of |coefficient * monomial| * (sum of
    |stencil weight products|) / step^|w|, the size of the last-bit errors of
    the samples after the stencils have amplified them.  Each report keeps
    both floors (``floor``, ``floor_refined``), and its ``holds(tol)`` is
    the certificate's verdict for that operator.
    """
    if not _is_size(h):
        raise ValueError(f"the step h must be a positive finite number, got {h!r}")
    a0 = tuple(a0)
    if len(a0) != spec.nvars:
        raise ValueError(f"a0 must hold {spec.nvars} coefficients, got {len(a0)}")
    if not _finite(a0):
        raise ValueError(f"a0 must be finite, got {a0}")
    a0 = tuple(map(complex, a0))
    # the one table of the certificate: every value of F taken, by point
    samples = {}

    def sample(point):
        if point not in samples:
            try:
                value = complex(F(point))
            except Exception as exc:  # the sampled function left its domain
                raise StencilOutOfDomain(str(exc)) from exc
            if not cmath.isfinite(value):
                raise StencilOutOfDomain(f"the sampled function is {value} at {point}")
            samples[point] = value
        return samples[point]

    def residual_at(op, step):
        total, gain, size = 0j, 0.0, 0.0
        for (u, w), oc in sorted(op.constant_coefficients().items()):
            mono = math.prod((a0[j] ** uj for j, uj in enumerate(u) if uj), start=1.0 + 0j)
            # the tensor-product stencil of w: its points at this step, and
            # the products of its integer weights and of their denominators
            nodes, axes, scales = zip(*map(_central_stencil, w))
            coords = ([a + step * o for o in ns] for a, ns in zip(a0, nodes))
            values = [sample(point) for point in itertools.product(*coords)]
            weights = [math.prod(ws) for ws in itertools.product(*axes)]
            dw = _exact_sum(values, weights, math.prod(scales)) / step ** sum(w)
            total += float(oc) * mono * dw
            norm = math.prod(sum(map(abs, ws)) / d for ws, d in zip(axes, scales))
            gain += abs(float(oc) * mono) * norm / step ** sum(w)
            size = max(size, *map(abs, values))
        return total, _EPS * gain * size

    reports = []
    for op in spec.operators:
        (r1, floor1), (r2, floor2) = residual_at(op, h), residual_at(op, h / 2.0)
        reports.append(OperatorFD(op, r1, r2, floor1, floor2))
    return FDReport(reports=tuple(reports), h=float(h))
