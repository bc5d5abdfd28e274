"""Numerical evaluation of period and chain integrals, plus certification.

Every integral of a section integrates g Omega / f, g its numerator or 1
(the Calabi-Yau integrand).  The torus-cycle period is computed two ways:
as an exact constant-term series near a dominant interior monomial (g = 1
only), and by trapezoidal quadrature on a product torus (spectrally
accurate for analytic integrands).  Chain integrals over paths reaching the
toric boundary are integrated in a chart in which the integrand extends
holomorphically across the flagged endpoints (inverting the coordinate at
infinity), a chain's segments as one stacked integrand, by one adaptive
Gauss-Kronrod (10, 21) integrator (QUADPACK's dqk21 pair, the default rule
of its QAGS driver); a returned error is never above tol.

``finite_difference_residual`` applies the operators of a system to any
numerically sampled function of the coefficients with exact central
finite-difference stencils of order ``FD_ORDER``, which certifies "this
integral solves the system" at a point without symbolic access to the
function; each operator's report gives the verdict.  Each stencil sum is
formed exactly in integers, and a certificate samples each stencil point
once, whichever steps and operators read it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import operator
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
        if not n:
            raise DegeneracyError("a segment needs at least one coordinate")
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
        return self.start == self.end and self.start_flags == self.end_flags


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
        # once per chain: its dimensions, and the plan's key, the bits of its
        # non-null segments (0.0 and -0.0 compare equal but give other paths)
        live = [seg for seg in segs if not seg.is_null()]
        bits = [z for seg in live for z in seg.start + seg.end + seg.start_flags + seg.end_flags]
        bits = np.array(bits, dtype=complex).tobytes()
        object.__setattr__(self, "_key", ({len(seg.start) for seg in segs}, bits))


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
    for i, c in enumerate(columns[1:]):
        # the first product is a new array, which the rest update in place
        value = operator.imul(value, x) if i else value * x
        value += c
    return value * x**low if low else value


def _chart(s: SectionData):
    """Numerator and denominator of the chart integrand, as dense coefficients.

    On the 1-torus chart the holomorphic form is dx/x and the section has a
    pole order ``sigma = -min(mu)``; clearing it gives the polynomial
    denominator ``x^sigma f`` and the numerator ``x^(sigma-1) g``, ``g`` the
    section's numerator, or 1 (the Calabi-Yau integrand) when it has none.
    Returns ``[top, low, bottom, base]``: both from their highest to lowest
    nonzero degree, summed per exponent, and their lowest exponents; ``top``
    is empty when every coefficient of ``g`` cancels.
    """
    if s.A.dim != 1:
        raise DegeneracyError("chain integration is implemented for one-dimensional charts")
    chart, coeffs = [], (s.numerator_coeffs or (1 + 0j,), s.coeffs)
    slots = _chart_slots(s.A.points, tuple(map(tuple, s.numerator_exponents)))
    for (where, size, low), cs in zip(slots, coeffs):
        poly = [0j] * size
        for i, c in zip(where, cs):
            poly[i] += c
        chart += _trim(poly, low)
    if not chart[2]:
        raise DegeneracyError("section is identically zero")
    return chart


@functools.lru_cache(maxsize=16)
def _chart_slots(points, exponents):
    # each coefficient's place below the highest degree of the numerator (of
    # ``exponents``, or 1) and of the denominator, their lengths and lowest exponents
    sigma, slots = max(0, -min(points)[0]), []
    for terms, shift in ((exponents or ((0,),), sigma - 1), (points, sigma)):
        (high,), (low,) = max(terms), min(terms)
        slots.append(([high - e for (e,) in terms], high - low + 1, low + shift))
    return slots


def _trim(poly, low):
    # dense coefficients (lowest exponent ``low``) without their zero ends
    nonzero = [i for i, c in enumerate(poly) if c] or [0, -1]
    return poly[nonzero[0] : nonzero[-1] + 1], low + len(poly) - 1 - nonzero[-1]


@functools.lru_cache(maxsize=2)
def _chain_plan(low, width, depth, key):
    """Paths and charts of the segments of a chain, one row each.

    A plan depends only on the bits of the chain's non-null segments
    (``ChainSpec``) and the chart's shape: ``low`` the numerator's lowest
    exponent over the denominator's, ``width`` and ``depth`` their numbers
    of coefficients; so a certificate's samples share one.  A segment takes
    the chart where its flagged endpoint is regular (x -> 1/w, dx = -dw/w^2
    for infinity) and is linear in it, ``x = p (c0 + c1 t)`` with ``dx/dt =
    dx``, ``(c0, c1)`` (0, 1) from a flagged start and (1, -1) towards a
    flagged end; an unflagged one is the arc ``x = p exp(c1 t)``.  The plan
    keeps each row's ``(p, c0, c1, dx)``, chart and numerator's lowest
    exponent, and the first round's path (``_path``), dx/dt at its nodes.
    """
    rows = []
    for p, q, start, end in np.frombuffer(key, dtype=complex).reshape(-1, 4).tolist():
        start, end = int(start.real), int(end.real)
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
        paths=paths, arcs=arcs, width=width, lows=lows, invert=invert.tolist(), rows=slice(None),
        # the charts' numerators share a width, not a lowest exponent: a row's own
        shifts=sorted(set(lows.tolist()) - {0}),
        first_t=np.repeat(_FIRST_ROUND[:, None, :m], n, axis=1).reshape(-1, m),
        first_piece=np.tile(np.arange(n), 2),
        first_bounds=np.repeat(((0.0, 0.5), (0.5, 1.0)), n, axis=1),
    )
    x, dx, shifts = _path(plan, plan.rows, _FIRST_ROUND[:, None])
    plan.first = x, dx[..., :m].copy(), shifts
    return plan


def _path(plan, piece, t):
    """The path of the interval rows ``piece`` (their segments) at ``t``:
    x over |x| on a new first axis, dx/dt, and per nonzero lowest exponent
    of the numerators its rows with x**low over |x|**low.  Complex Horner
    on such a stack gives values and the sums of their terms' moduli, whose
    imaginary parts stay 0: the real sums, bit for bit."""
    c, arc = plan.paths[piece].T[..., None], plan.arcs[piece, None]
    u = t * c[2]
    x = c[1] + u
    np.exp(u, out=x, where=arc)
    x = c[0] * x
    size = np.abs(x)
    shifts = [
        (plan.lows[piece, None] == low, np.array((x**low, size**low))) for low in plan.shifts
    ]
    return np.array((x, size)), np.where(arc, c[2] * x, c[3]), shifts


def _chain_integrand(plan, coef, piece, path):
    """The chart integrands of the interval rows ``piece`` of a chain.

    ``coef`` holds the chart coefficients of the plan's rows over their
    moduli, ``path`` the rows' path (``_path``).  Returns ``num(x) / den(x)
    * dx/dt`` and its rounding error over eps where dx/dt is given, and the
    condition number ``sum |d_e| |x|^e / |den(x)|`` of the denominator at
    every x; the pole-clearance scan reads it against ``1 / _CLEARANCE``.
    """
    (x, dx, shifts), k = path, plan.width
    c = coef[:, piece].transpose(2, 0, 1)  # a column per degree, broadcast over x
    c = c.reshape(*c.shape[:2], *(1,) * (x.ndim - 3), c.shape[2], 1)
    den = _horner(c[k:], x)
    cond = den[1].real / np.abs(den[0])
    # the integrand at the leading parameters, where dx/dt is given
    n = dx.shape[-1]
    bottom, num = den[0, ..., :n], _horner(c[:k], x[..., :n])
    for at, x_low in shifts:  # times x**low on the rows of that lowest exponent
        num = np.where(at, num * x_low[..., :n], num)
    top = num[0]
    # the rounding error over eps: 50 |f| for the sums plus |f| times the condition
    # numbers sum |c_e| |x|^e / |p(x)| of numerator and denominator, large by a
    # pole (Higham, "Accuracy and Stability of Numerical Algorithms", 2002, 5.1)
    noise = np.abs(dx / bottom)
    gain = cond[..., :n] + _ROUNDOFF
    gain *= np.abs(top)
    gain += num[1].real
    noise *= gain
    f = top / bottom
    f *= dx
    return f, noise, cond


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
# rows of the transposed table, so strided views: `a @ w` on a contiguous
# copy differs in the last bit for some a, and the pinned chain bits with it
_GK_NODES, _GK_WEIGHTS, _GAUSS_WEIGHTS = np.concatenate(
    [np.array(_KRONROD_HALF[:-1]) * (-1, 1, 1), _KRONROD_HALF[::-1]]
).T
# half the weights, as complex numbers (a product with f would cast them)
_COMPLEX_WEIGHTS = np.array([_GK_WEIGHTS, _GAUSS_WEIGHTS], dtype=complex) / 2.0
_EPS = np.finfo(float).eps
# the rounding error of a quadrature sum, in units of eps |f|
_ROUNDOFF = 50
# an interval narrower than this in t is not split again
_MIN_WIDTH = 1000 * _EPS
# the number of equal parts a round splits an interval into
_SPLIT = 8


# the first round's parameters on a segment, a row per half of [0, 1]: its
# Kronrod nodes, then its half of the pole-clearance scan t = k / 128
_FIRST_ROUND = np.array([
    np.concatenate((c + 0.25 * _GK_NODES, np.arange(65) / 128.0 + c - 0.25)) for c in (0.25, 0.75)
])


def _gauss_kronrod_sums(f, noise, half):
    """Value, error estimate and roundoff floor on each interval.

    Row ``i`` of ``f`` and ``noise`` holds the integrand and its rounding
    error over eps at the Kronrod nodes of an interval of half-width
    ``half[i]`` (or ``half``).  The floor integrates the rounding error; the
    error is QUADPACK's, the Kronrod-Gauss difference rescaled by the
    integrand's variation, never below the floor, and not finite when a
    node's value or noise is not.
    """
    # the rules' means, as half their sums: these and the scalings below are by
    # powers of two (every split is dyadic), so they round as scaled terms would
    kronrod = f @ _COMPLEX_WEIGHTS[0]
    gauss = f @ _COMPLEX_WEIGHTS[1]
    spread = np.abs(f - kronrod[:, None]) @ _GK_WEIGHTS
    ratio = np.abs(kronrod - gauss)
    ratio *= 400.0
    ratio /= spread
    ratio **= 1.5
    # fmin drops the nan of 0 / 0: an interval without variation has error 0
    err = np.fmin(1.0, ratio, out=ratio)
    err *= spread
    err *= half
    floor = noise @ _GK_WEIGHTS
    floor *= _EPS * half
    np.maximum(err, floor, out=err)
    return kronrod * (2.0 * half), err, floor


def _within_budget(evals):
    # the evaluations a chain integral has spent, if they fit in MAX_EVALS
    if evals > MAX_EVALS:
        raise NonConvergent(f"adaptive quadrature exceeded its budget of {MAX_EVALS} evaluations")
    return evals


def _adaptive_gauss_kronrod(plan, coef, quad: QuadratureSettings) -> IntegrationResult:
    """Sum over the segments of a chain of their integrals over [0, 1],
    within ``quad.tol``; ``coef`` as for ``_chain_integrand``.

    One pool of intervals holds every segment.  The first round takes each
    segment's two halves by one integrand call, which also reads the
    denominator at ``t = k / 128``: PoleNearPath where it nearly vanishes.
    Each later round splits the intervals of largest error into ``_SPLIT``
    parts, evaluated by one call, until the summed error is at most tol.
    PoleNearPath at a node where the integrand is not finite; NonConvergent
    when the roundoff floor is above tol, when the budget runs out (checked
    before every call), or when an interval can no longer be split.
    """
    m = len(_GK_NODES)
    evals = _within_budget(2 * m * len(plan.invert))
    f, noise, cond = _chain_integrand(plan, coef, plan.rows, plan.first)
    if np.fmax.reduce(cond[..., m:], axis=None) > 1.0 / _CLEARANCE:  # fmax passes over nan
        near = cond[..., m:] > 1.0 / _CLEARANCE
        t = _FIRST_ROUND[:, m:][near[:, near.any(axis=(0, 2)).argmax()]][0]
        raise PoleNearPath(f"denominator nearly vanishes at t = {t:.4f}")
    # the left halves of segments 0 .. n-1, then their right halves
    t, f, noise = plan.first_t, f.reshape(-1, m), noise.reshape(-1, m)
    value, err, floor = _gauss_kronrod_sums(f, noise, 0.25)
    piece, (lo, hi) = plan.first_piece, plan.first_bounds
    while True:
        total = err.sum()
        bad = () if math.isfinite(total) else t[~(np.isfinite(f) & np.isfinite(noise))]
        if len(bad):
            raise PoleNearPath(f"the integrand is not finite at t = {bad[0]:.6g} of a segment")
        if total <= quad.tol:
            return IntegrationResult(complex(value.sum()), float(total), evals)
        floor_sum = floor.sum()
        # the part of each interval's error that splitting can still reduce
        excess = err - floor
        excess_sum = excess.sum()
        if floor_sum <= quad.tol:
            goal = quad.tol - floor_sum
        elif excess_sum <= floor_sum:
            raise NonConvergent(
                f"tol {quad.tol:.3e} is below the roundoff floor {floor_sum:.3e}"
                " (the integrated rounding error of the integrand)"
            )
        else:
            # an early floor can be inflated by a node beside a pole, so
            # refine until the floor is known as well as it is large
            goal = floor_sum
        # split the intervals of largest reducible error until the rest
        # hold at most half of the goal
        order = (-excess).argsort(kind="stable")
        rest = excess_sum - excess[order].cumsum()
        split = order[: np.count_nonzero(rest > goal / 2.0) + 1]
        evals = _within_budget(evals + _SPLIT * m * len(split))
        left, right = lo[split], hi[split]
        if (right - left).min() < _MIN_WIDTH:
            raise NonConvergent(
                "adaptive quadrature needs an interval narrower than"
                f" {_MIN_WIDTH:.1e} in the segment parameter"
            )
        # the parts, the first parts of all split intervals first
        edges = left + np.arange(_SPLIT + 1)[:, None] / _SPLIT * (right - left)
        edges[-1] = right
        parts = np.concatenate([piece[split]] * _SPLIT)
        left, right = edges[:-1].ravel(), edges[1:].ravel()
        half = (right - left) / 2.0
        t = ((right + left) / 2.0)[:, None] + half[:, None] * _GK_NODES
        f, noise, _ = _chain_integrand(plan, coef, parts, _path(plan, parts, t))
        new = parts, *_gauss_kronrod_sums(f, noise, half), left, right
        keep = np.ones(len(piece), dtype=bool)
        keep[split] = False
        old = piece, value, err, floor, lo, hi
        piece, value, err, floor, lo, hi = (np.concatenate((a[keep], b)) for a, b in zip(old, new))


def numeric_chain_integral(
    s: SectionData, chain: ChainSpec, quad: QuadratureSettings = QuadratureSettings()
) -> IntegrationResult:
    """Integral of ``g * Omega / f`` over a chain bounded by the toric boundary.

    Each segment is parameterized in the chart where its flagged endpoint
    is a regular point (inverting the coordinate for endpoints at
    infinity), and all segments are integrated together, as one stacked
    integrand, by one global adaptive Gauss-Kronrod (10, 21) integrator: the
    21-point Kronrod rule, exact to degree 31, with its embedded 10-point
    Gauss rule for the error estimate.  The chain keeps its dimension and
    bits (``ChainSpec``), and a plan cached per chain and chart shape
    (``_chain_plan``) its paths, charts and first-round x, |x|, x**low and
    dx/dt.  A call builds a row of chart coefficients and moduli per segment
    and takes both halves of every segment, and the pole-clearance scan of
    its path, in one Horner pass over values and moduli, one pass of the
    interval sums and two sums over them: 42 evaluations per segment when
    that meets tol.  Each later round splits the intervals of largest error
    into ``_SPLIT`` = 8; a pole 1e-4 beside the path takes 5 or 6 rounds.
    The returned error is at most ``quad.tol``.  NonConvergent when tol is
    below the roundoff floor (eps times the integral of |f| (50 + cond),
    cond the condition number of the Horner sums), when the budget
    ``MAX_EVALS`` would run out, or when an interval can no longer be
    split; DegeneracyError when a segment's dimension is not the section's,
    DivergentAtBoundary when the integrand does not extend across a flagged
    endpoint, and PoleNearPath when the section nearly vanishes at one of
    129 equally spaced parameters of a segment or the integrand is not
    finite at a node.
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
    top, low, bottom, base = _chart(s)
    dims, key = chain._key
    if dims - {s.A.dim}:
        raise DegeneracyError(f"chain of dimension {sorted(dims)}, section of dimension {s.A.dim}")
    if not (top and key):
        return IntegrationResult(value=0j, error=0.0, evaluations=0)
    with np.errstate(all="ignore"):  # a node on a pole is reported as such
        plan = _chain_plan(low - base, len(top), len(bottom), key)
        # the rows' chart coefficients, highest degree first (inverting the
        # chart reverses both and negates the numerator's), over their
        # moduli by libm's hypot, as Python's abs takes them: numpy's
        # complex modulus can differ from it in the last bit
        charts = top + bottom, [-c if c else c for c in reversed(top)] + bottom[::-1]
        rows = [c for inv in plan.invert for c in charts[inv]]
        coef = np.array(rows + [abs(c) for c in rows], dtype=complex)
        return _adaptive_gauss_kronrod(plan, coef.reshape(2, len(plan.invert), -1), quad)


# -- residues ---------------------------------------------------------------------


def _sorted_roots(bottom):
    # the dense coefficients end at the lowest exponent: the roots other than 0
    roots = np.roots(bottom)
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def denominator_roots(s: SectionData):
    """Roots of the chart denominator polynomial, sorted deterministically."""
    return _sorted_roots(_chart(s)[2])


def residue_period(s: SectionData, root_index: int) -> complex:
    """2 pi i times the residue of the chart integrand at the selected root.

    One-dimensional sections with simple roots only; the residue of
    ``num/den`` at a simple root r is ``num(r)/den'(r)`` (0 for a zero
    numerator).  ValueError unless ``root_index`` is an int in
    ``range(len(denominator_roots(s)))``.
    """
    top, low, bottom, base = _chart(s)
    roots = _sorted_roots(bottom)
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
    if not top:
        return 0j
    # the quotient times x^k over x^k, the denominator's lowest term now x^0
    r, k = roots[root_index], -base
    slope, dlow = _trim([e * c for e, c in zip(range(len(bottom) - 1, 0, -1), bottom)], 0)
    return 2j * math.pi * complex(_horner(top, r, low + k) / _horner(slope, r, dlow))


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


@functools.lru_cache(maxsize=None)
def _tensor_stencil(w):
    """Nodes per axis, integer weight products, their denominator, the sum of
    |weight products| over it and the order |w| of the stencil of ``w``."""
    nodes, axes, scales = zip(*map(_central_stencil, w))
    weights = [math.prod(ws) for ws in itertools.product(*axes)]
    norm = math.prod(sum(map(abs, ws)) / d for ws, d in zip(axes, scales))
    return nodes, weights, math.prod(scales), norm, sum(w)


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
    ratios = [x.as_integer_ratio() for v in values for x in (v.real, v.imag)]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    scale *= denominator
    return complex(
        sum(map(operator.mul, weights, ints[0::2])) / scale,
        sum(map(operator.mul, weights, ints[1::2])) / scale,
    )


def finite_difference_residual(spec, F, a0, h) -> FDReport:
    """Apply every operator of the system to a sampled function of the coefficients.

    Derivatives are tensor products of exact central stencils of order
    ``FD_ORDER``; each residual is recomputed at h/2 (h a positive finite
    number) for an observed convergence order and a Richardson
    extrapolation.  ``F`` takes a coefficient tuple and returns a finite
    complex value, else StencilOutOfDomain, as when it raises; ``a0`` holds
    one finite coefficient per variable of the system, else ValueError
    before any sample is taken.  Each stencil point is sampled once (the node
    2k at h/2 is the node k at h), each operator's terms and stencils built
    once.  The observed order is None when either residual lies at or below
    its rounding floor: eps * max|sample| over the samples the operator read
    at that step, times the sum over its terms of |coefficient * monomial| *
    (sum of |stencil weight products|) / step^|w|.  Each report keeps both
    floors; its ``holds(tol)`` is the certificate's verdict for the operator.
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
        value = samples.get(point)
        if value is None:
            try:
                value = complex(F(point))
            except Exception as exc:  # the sampled function left its domain
                raise StencilOutOfDomain(str(exc)) from exc
            if not cmath.isfinite(value):
                raise StencilOutOfDomain(f"the sampled function is {value} at {point}")
            samples[point] = value
        return value

    def residual_at(terms, step):
        total, gain, size = 0j, 0.0, 0.0
        for coeff, (nodes, weights, denominator, norm, order) in terms:
            # the stencil's points at this step
            coords = ([a + step * o for o in ns] for a, ns in zip(a0, nodes))
            values = [sample(point) for point in itertools.product(*coords)]
            scale = step**order
            total += coeff * (_exact_sum(values, weights, denominator) / scale)
            gain += abs(coeff) * norm / scale
            size = max(size, *map(abs, values))
        return total, _EPS * gain * size

    reports = []
    for op in spec.operators:
        # once per certificate: the operator's terms in sorted order, each
        # its coefficient times its monomial at a0 with its stencil
        terms = [
            (float(oc) * math.prod((a0[j] ** e for j, e in enumerate(u) if e), start=1.0 + 0j),
             _tensor_stencil(w))
            for (u, w), oc in sorted(op.constant_coefficients().items())
        ]
        (r1, floor1), (r2, floor2) = residual_at(terms, h), residual_at(terms, h / 2.0)
        reports.append(OperatorFD(op, r1, r2, floor1, floor2))
    return FDReport(reports=tuple(reports), h=float(h))
