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
the nodes of every new interval at once by Horner's rule.  The first round
takes every segment as its two halves and evaluates their nodes together
with a 129-point pole-clearance scan of every path, in one call, so a chain
that meets its tolerance at once costs one call of the integrand.
It stops when the summed error estimate is at most tol and raises
NonConvergent when tol is below the roundoff floor (eps times the integral
of |f| (50 + cond), cond the condition number of the Horner sums), when its
evaluation budget runs out, or when an interval can no longer be split; a
returned error is never above tol.

``finite_difference_residual`` applies the operators of a system to any
numerically sampled function of the coefficients with exact central
finite-difference stencils, which certifies "this integral solves the
system" at a point without symbolic access to the function; each
operator's report gives the verdict.  The stencil weights solve a small
Vandermonde system with ``intlinalg``'s exact solver, once per derivative
order and accuracy.  Each stencil sum is formed exactly in integers, and
each stencil point is sampled once per certificate: the steps h and h/2
and all operators share the samples.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

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


def _is_int(value):
    # bool is a subclass of int, but no count, index or size
    return isinstance(value, int) and not isinstance(value, bool)


def _is_size(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


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
    coefficient of the section or of g is not finite.
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
        object.__setattr__(self, "start", tuple(complex(z) for z in self.start))
        object.__setattr__(self, "end", tuple(complex(z) for z in self.end))
        object.__setattr__(
            self, "start_flags", tuple(self.start_flags or (0,) * n)
        )
        object.__setattr__(self, "end_flags", tuple(self.end_flags or (0,) * n))
        if len(self.end) != n or len(self.start_flags) != n or len(self.end_flags) != n:
            raise DegeneracyError("segment data of inconsistent dimension")
        if not _finite(self.start + self.end):
            raise DegeneracyError("segment control points must be finite")
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
    """Target error and evaluation budget of a quadrature.  ValueError
    unless ``tol`` is a positive finite real and ``max_evals`` a positive int."""

    tol: float = 1e-10
    max_evals: int = 2**20

    def __post_init__(self):
        if not _is_size(self.tol):
            raise ValueError(f"tol must be a positive finite real, got {self.tol!r}")
        if not _is_int(self.max_evals) or self.max_evals < 1:
            raise ValueError(f"max_evals must be a positive int, got {self.max_evals!r}")


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
    is the difference of the two finest grids.  ``quad.max_evals`` bounds
    the evaluations summed over all grids, as it does for a chain: a grid
    that would take the total past it is not sampled, and NonConvergent is
    raised instead.  DegeneracyError unless ``radii`` holds one positive
    finite real (no bool) per coordinate.
    """
    n = s.A.dim
    if len(radii) != n or not all(map(_is_size, radii)):
        raise DegeneracyError("one positive radius per torus coordinate is required")
    radii = tuple(map(float, radii))
    scale = sum(
        abs(s.coeffs[i]) * math.prod(radii[j] ** mu[j] for j in range(n))
        for i, mu in enumerate(s.A.points)
    )
    m = 8
    prev = None
    total = 0
    while total + m**n <= quad.max_evals:
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
        f" of {quad.max_evals} evaluations"
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
    mus = [mu[0] for mu in s.A.points]
    sigma = max(0, -min(mus))
    den = {}
    for mu, c in zip(mus, s.coeffs):
        if c != 0:
            den[mu + sigma] = den.get(mu + sigma, 0) + complex(c)
    den = {e: c for e, c in den.items() if c != 0}
    if not den:
        raise DegeneracyError("section is identically zero")
    g = zip(s.numerator_exponents, s.numerator_coeffs) if s.numerator_exponents else [((0,), 1)]
    num = {}
    for nu, b in g:
        e = nu[0] + sigma - 1
        num[e] = num.get(e, 0) + complex(b)
    num = {e: c for e, c in num.items() if c != 0}
    return num, den


def _invert_pair(num, den):
    """Coordinate inversion x -> 1/w including the Jacobian dx = -dw/w^2."""
    num_inv = {-e - 2: -c for e, c in num.items()}
    den_inv = {-e: c for e, c in den.items()}
    return num_inv, den_inv


def _normalize_pair(num, den):
    """Shift numerator and denominator so the denominator is a polynomial
    with nonzero constant term; the quotient is unchanged."""
    k = -min(den)
    return {e + k: c for e, c in num.items()}, {e + k: c for e, c in den.items()}


def _segment_piece(num, den, seg: Segment):
    """Chart data and path of one segment, for the stacked chain integrand.

    Returns the normalized chart numerator and denominator and the path
    parameters ``(p, c0, c1, dx)`` with an arc flag.  A segment reaching the
    boundary is linear in its chart, ``x = p (c0 + c1 t)`` with constant
    ``dx/dt = dx``: ``(c0, c1) = (0, 1)`` from a flagged start, ``(1, -1)``
    towards a flagged end.  An unflagged segment is the multiplicative arc
    ``x = p exp(c1 t)`` with ``dx/dt = c1 x``.
    """
    if seg.start_flags[0] and seg.end_flags[0]:
        raise DegeneracyError(
            "a segment with both endpoints on the boundary must be split"
        )
    invert = seg.start_flags[0] == 1 or seg.end_flags[0] == 1
    if invert:
        num, den = _invert_pair(num, den)
        a = 0j if seg.start_flags[0] else 1.0 / seg.start[0]
        b = 0j if seg.end_flags[0] else 1.0 / seg.end[0]
        aflag = seg.start_flags[0] == 1
        bflag = seg.end_flags[0] == 1
    else:
        a = 0j if seg.start_flags[0] == -1 else seg.start[0]
        b = 0j if seg.end_flags[0] == -1 else seg.end[0]
        aflag = seg.start_flags[0] == -1
        bflag = seg.end_flags[0] == -1
    num, den = _normalize_pair(num, den)
    if (aflag or bflag) and num and min(num) < 0:
        raise DivergentAtBoundary(
            "the integrand has a pole at a flagged boundary endpoint"
        )
    # dx is stored rather than formed as p c1, which can flip the sign of
    # a zero part of b or -a
    if aflag:
        return num, den, (b, 0j, 1 + 0j, b), False
    if bflag:
        return num, den, (a, 1 + 0j, -1 + 0j, -a), False
    return num, den, (a, 0j, cmath.log(b / a), 0j), True


def _chain_integrand(pieces):
    """The chart integrands of all segments of a chain as one function.

    ``pieces`` come from ``_segment_piece``.  The returned function maps
    interval rows ``piece`` (the segment of each row) and parameters ``t``
    in [0, 1] (a row of parameters per interval row, or one row for all) to
    ``num(x) / den(x) * dx/dt``, an estimate of its rounding error, and the
    condition number ``sum |d_e| |x|^e / |den(x)|`` of the denominator,
    evaluating every row at once by Horner's rule on the rows' chart
    coefficients.  The condition number above ``1 / _CLEARANCE`` marks a
    parameter where the denominator nearly vanishes; the quadrature reads it
    on its pole-clearance scan.
    """
    nums, dens, paths, arcs = zip(*pieces)
    # the direct and the inverted chart of a chain have numerators of one
    # width, but their lowest exponents can differ: each row keeps its own
    num, lows = zip(*map(_coefficients, nums))
    # every normalized denominator starts at x^0, with one degree
    den = [_coefficients(d)[0] for d in dens]
    # one row per segment: path parameters p, c0, c1, dx, then the chart
    # numerator's coefficients from column 4 and the denominator's from k
    rows = np.concatenate([np.array(paths), np.array(num), np.array(den)], axis=1)
    # the moduli by libm's hypot, as Python's abs takes them; numpy's complex
    # modulus can differ from it in the last bit
    rows_abs = np.hypot(rows.real, rows.imag)
    arcs = np.array(arcs)
    k = 4 + len(num[0])
    shifts = sorted(set(lows) - {0})
    lows = np.array(lows)

    def integrand(piece, t):
        c, c_abs = rows[piece].T[..., None], rows_abs[piece].T[..., None]
        arc = arcs[piece, None]
        # x = p (c0 + c1 t) on a linear segment, p exp(c1 t) on an arc
        u = t * c[2]
        x = c[1] + u
        np.exp(u, out=x, where=arc)
        x = c[0] * x
        dx = np.where(arc, c[2] * x, c[3])
        top, bottom = _horner(c[4:k], x), _horner(c[k:], x)
        size = np.abs(x)
        num_size = _horner(c_abs[4:k], size)
        for low in shifts:  # times x**low on the rows of that lowest exponent
            at = (lows[piece] == low)[:, None]
            top = np.where(at, top * x**low, top)
            num_size = np.where(at, num_size * size**low, num_size)
        # an estimate of the rounding error of f: 50 eps |f| for the sums,
        # plus eps |f| times the condition numbers sum |c_e| |x|^e / |p(x)|
        # of numerator and denominator, which blow up beside a pole (Higham,
        # "Accuracy and Stability of Numerical Algorithms", 2002, 5.1)
        cond = _horner(c_abs[k:], size) / np.abs(bottom)
        noise = _EPS * np.abs(dx / bottom) * (
            (_ROUNDOFF + cond) * np.abs(top) + num_size
        )
        return top / bottom * dx, noise, cond

    return integrand


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
_EPS = np.finfo(float).eps
# the rounding error of a quadrature sum, in units of eps |f|
_ROUNDOFF = 50
# an interval narrower than this in t is not split again
_MIN_WIDTH = 1000 * _EPS


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
    kronrod = f @ _GK_WEIGHTS
    gauss = f @ _GAUSS_WEIGHTS
    floor = noise @ _GK_WEIGHTS * half
    spread = np.abs(f - kronrod[:, None] / 2.0) @ _GK_WEIGHTS * half
    diff = np.abs(kronrod - gauss) * half
    ratio = np.divide(200.0 * diff, spread, out=np.zeros(len(diff)), where=spread > 0)
    err = spread * np.minimum(1.0, ratio**1.5)
    return kronrod * half, np.maximum(err, floor), floor


def _first_round(integrand, n):
    """Both halves of each of the ``n`` segments, by one integrand call.

    The call also evaluates every segment at the 129 parameters ``k / 128``
    of the pole-clearance scan, and raises PoleNearPath when the
    denominator nearly vanishes at one of them, before any node value is
    used.  Returns the interval rows in the order a bisection of every whole
    segment gives: the left halves of segments ``0 .. n-1``, then their
    right halves, with their bounds, values, error estimates and floors.
    """
    m = len(_GK_NODES)
    segments = np.arange(n)
    f, noise, cond = integrand(segments, _FIRST_ROUND)
    near = cond[:, 2 * m :] > 1.0 / _CLEARANCE
    if near.any():
        first = near[near.any(axis=1)][0]
        t = _FIRST_ROUND[2 * m + np.argmax(first)]
        raise PoleNearPath(f"denominator nearly vanishes at t = {t:.4f}")
    lo = np.repeat((0.0, 0.5), n)
    value, err, floor = _gauss_kronrod_sums(
        np.repeat(_FIRST_ROUND[: 2 * m].reshape(2, m), n, axis=0),
        np.concatenate((f[:, :m], f[:, m : 2 * m])),
        np.concatenate((noise[:, :m], noise[:, m : 2 * m])),
        0.25,
    )
    return np.concatenate((segments, segments)), value, np.array([lo, lo + 0.5, err, floor])


def _adaptive_gauss_kronrod(integrand, n, quad: QuadratureSettings) -> IntegrationResult:
    """Sum over the ``n`` segments of a chain of their integrals over [0, 1],
    within ``quad.tol``.

    One global pool of intervals holds every segment (they share the
    tolerance).  It starts with every segment as its two halves, [0, 1/2]
    and [1/2, 1], evaluated together with the pole-clearance scan by one
    call of the stacked integrand (``_first_round``), so a chain that meets
    tol at once costs one call.  Each further round bisects the intervals of
    largest error, all at once, and evaluates the new ones by one call,
    until the summed error is at most tol.  Raises NonConvergent when the
    roundoff floor (the integral of the integrand's rounding-error
    estimates) is above tol, when the evaluation budget runs out (checked
    before every call, the first included), or when an interval can no
    longer be split.
    """
    evals = 2 * len(_GK_NODES) * n
    if evals > quad.max_evals:
        raise _over_budget(quad)
    piece, value, pool = _first_round(integrand, n)
    while True:
        err, noise = pool[2:]
        total = err.sum()
        if total <= quad.tol:
            return IntegrationResult(
                value=complex(value.sum()), error=float(total), evaluations=evals
            )
        floor = noise.sum()
        # the part of each interval's error that bisection can still reduce
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
        # bisect the intervals of largest reducible error until the rest
        # hold at most half of the goal
        order = np.argsort(-excess, kind="stable")
        rest = excess.sum() - np.cumsum(excess[order])
        split = order[: np.count_nonzero(rest > goal / 2.0) + 1]
        evals += 2 * len(_GK_NODES) * len(split)
        if evals > quad.max_evals:
            raise _over_budget(quad)
        left, right = pool[:2, split]
        if (right - left).min() < _MIN_WIDTH:
            raise NonConvergent(
                "adaptive quadrature needs an interval narrower than"
                f" {_MIN_WIDTH:.1e} in the segment parameter"
            )
        mid = (left + right) / 2.0
        parents = piece[split]
        halves = np.concatenate((parents, parents))
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        half = (right - left) / 2.0
        t = ((right + left) / 2.0)[:, None] + half[:, None] * _GK_NODES
        f, new_noise, _ = integrand(halves, t)
        new_value, new_err, new_noise = _gauss_kronrod_sums(t, f, new_noise, half)
        keep = np.ones(len(piece), dtype=bool)
        keep[split] = False
        piece = np.concatenate((piece[keep], halves))
        value = np.concatenate((value[keep], new_value))
        pool = np.concatenate((pool[:, keep], [left, right, new_err, new_noise]), axis=1)


def _over_budget(quad):
    return NonConvergent(
        f"adaptive quadrature exceeded its budget of {quad.max_evals} evaluations"
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
    Gauss rule for the error estimate.  The integrator starts from both
    halves of every segment, evaluated with the pole-clearance scan of every
    path by one call of the integrand, and bisects from there; a chain that
    meets tol at once takes 42 evaluations per segment, all in that one
    call.  It stops once the summed error estimate is at most
    ``quad.tol``, so the returned error is never above tol; it raises
    NonConvergent when tol is below the roundoff floor (eps times the
    integral of |f| (50 + cond), cond the condition number of the Horner
    sums, which grows like 1/distance beside a pole), when the evaluation
    budget ``quad.max_evals`` would run out (checked before every call, the
    first included) or when an interval can no longer be split.  Raises
    DivergentAtBoundary when the integrand does not extend across a flagged
    endpoint and PoleNearPath when the section nearly vanishes at one of 129
    equally spaced parameters of a segment or the integrand is not finite
    at a node.
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
    pieces = [_segment_piece(num, den, seg) for seg in segments]
    with np.errstate(all="ignore"):  # a node on a pole is reported as such
        return _adaptive_gauss_kronrod(_chain_integrand(pieces), len(pieces), quad)


# -- residues ---------------------------------------------------------------------


def _sorted_roots(den):
    # a normalized denominator starts at x^0
    roots = np.roots(_coefficients(den)[0])
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def denominator_roots(s: SectionData):
    """Roots of the chart denominator polynomial, sorted deterministically."""
    return _sorted_roots(_normalize_pair(*_chart_pair(s))[1])


def residue_period(s: SectionData, root_index: int) -> complex:
    """2 pi i times the residue of the chart integrand at the selected root.

    One-dimensional sections with simple roots only; the residue of
    ``num/den`` at a simple root r is ``num(r)/den'(r)`` (0 for a zero
    numerator).  ValueError unless ``root_index`` is an int in
    ``range(len(denominator_roots(s)))``.
    """
    num, den = _normalize_pair(*_chart_pair(s))
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
    r = roots[root_index]
    dden = {e - 1: e * c for e, c in den.items() if e}
    top, low = _coefficients(num)
    bottom, dlow = _coefficients(dden)
    return 2j * math.pi * complex(_horner(top, r, low) / _horner(bottom, r, dlow))


def loop_chain(center, radius, points=12) -> ChainSpec:
    """Closed chain winding once counterclockwise around ``center``.

    Built from ``points`` multiplicative arcs between points on a circle;
    for ``center = 0`` the arcs are exact circle pieces.  Raises
    DegeneracyError unless the radius is a positive finite number and
    ``points`` an int of at least 3: fewer points, or a zero radius, give
    no loop.
    """
    if not _is_size(radius):
        raise DegeneracyError(f"loop radius must be a positive finite number, got {radius!r}")
    if not _is_int(points) or points < 3:
        raise DegeneracyError(f"a loop needs an int of at least 3 points, got {points!r}")
    center = complex(center)
    verts = [
        center + radius * cmath.exp(2j * math.pi * k / points) for k in range(points)
    ]
    segs = [
        Segment(start=(verts[k],), end=(verts[(k + 1) % points],))
        for k in range(points)
    ]
    return ChainSpec(segments=tuple(segs))


# -- finite difference certification ------------------------------------------------


def fd_weights(derivative, nodes):
    """Exact finite-difference weights at 0 for the given distinct nodes.

    The weights solve the Vandermonde system ``sum_j w_j x_j^k = k! [k ==
    derivative]`` for ``k < len(nodes)``: the stencil differentiates every
    polynomial of degree below the node count exactly.
    """
    n = len(nodes)
    if derivative >= n:
        raise ValueError("not enough nodes for the requested derivative")
    if len(set(nodes)) != n:
        raise ValueError("finite-difference nodes must be distinct")
    rows = [[Fraction(x) ** k for x in nodes] for k in range(n)]
    rhs = [math.factorial(derivative) if k == derivative else 0 for k in range(n)]
    return list(intlinalg.solve_rational(rows, rhs))


def _check_accuracy(accuracy):
    if not (isinstance(accuracy, numbers.Integral) and accuracy > 0 and accuracy % 2 == 0):
        raise ValueError(f"accuracy must be a positive even integer, got {accuracy!r}")


def central_stencil(derivative, accuracy=4):
    """Symmetric nodes and exact weights for a central difference; ValueError
    unless ``accuracy`` is a positive even integer."""
    _check_accuracy(accuracy)
    nodes, weights = _central_stencil(derivative, accuracy)
    return list(nodes), list(weights)


@functools.lru_cache(maxsize=None)
def _central_stencil(derivative, accuracy):
    k = (derivative + 1) // 2 + accuracy // 2 - 1
    nodes = tuple(range(-k, k + 1))
    return nodes, tuple(fd_weights(derivative, nodes))


@dataclass(frozen=True)
class OperatorFD:
    """One operator's residuals at h and h/2, their floors and stencil accuracy."""

    operator: object
    residual: complex
    residual_refined: complex
    floor: float
    floor_refined: float
    accuracy: int

    @property
    def observed_order(self):
        """log2 of the residuals' ratio, None when either is at or below its floor."""
        r1, r2 = abs(self.residual), abs(self.residual_refined)
        return math.log2(r1 / r2) if r1 > self.floor and r2 > self.floor_refined else None

    @property
    def richardson(self):
        # the leading error term is O(h^accuracy): halving h divides it by 2^accuracy
        k = 2**self.accuracy
        return (k * self.residual_refined - self.residual) / (k - 1)

    def holds(self, tol):
        """The order is within 0.5 of the accuracy for some residuals within their
        floors, and the Richardson value at most tol times floor_refined / eps."""
        r1, f1 = abs(self.residual), self.floor
        r2, f2 = abs(self.residual_refined), self.floor_refined
        lo, hi = 2 ** (self.accuracy - 0.5), 2 ** (self.accuracy + 0.5)
        converges = lo * (r2 - f2) <= r1 + f1 and r1 - f1 <= hi * (r2 + f2)
        return converges and abs(self.richardson) <= tol * f2 / math.ulp(1.0)


@dataclass(frozen=True)
class FDReport:
    reports: tuple
    h: float

    @property
    def max_residual(self):
        return max((abs(r.residual) for r in self.reports), default=0.0)


def _derivative_at(F, points, weights, denominator, order, step, samples, used):
    # The weighted sum is formed exactly in integers: the sampled values are
    # binary floats, hence integers over powers of two, and the stencil
    # weights are integers over one common denominator.  So stencil
    # identities like "sum of weights is zero" hold exactly and directions
    # the function does not depend on contribute no rounding noise; one
    # correctly rounded division per part ends the sum.  ``samples`` holds
    # every value of F taken for the certificate, ``used`` the ones this
    # call's operator has read at this step.
    ratios = []
    for point in points:
        if point not in samples:
            try:
                value = complex(F(point))
            except Exception as exc:  # the sampled function left its domain
                raise StencilOutOfDomain(str(exc)) from exc
            if not cmath.isfinite(value):
                raise StencilOutOfDomain(f"the sampled function is {value} at {point}")
            samples[point] = value
        v = used[point] = samples[point]
        ratios.append((v.real.as_integer_ratio(), v.imag.as_integer_ratio()))
    parts = []
    for part in zip(*ratios):
        scale = max(d for _, d in part)
        total = sum(wt * n * (scale // d) for wt, (n, d) in zip(weights, part))
        parts.append(total / (scale * denominator))
    return complex(*parts) / step**order


def finite_difference_residual(
    spec, F, a0, h, accuracy=4
) -> FDReport:
    """Apply every operator of the system to a sampled function of the coefficients.

    Derivatives are tensor products of exact central stencils of the given
    accuracy (a positive even integer); each residual is recomputed at h/2
    (h a positive finite number) for an observed convergence order and a
    Richardson extrapolation.  ``F`` takes a coefficient tuple and returns a
    finite complex value, else StencilOutOfDomain, as when it raises; ``a0``
    holds one finite coefficient per variable of the system, else ValueError
    before any sample is taken.

    Each stencil point is sampled once per certificate, whichever operators
    and steps read it: the node 2k at h/2 is the node k at h.  The observed
    order is None when either residual lies at or below its rounding floor:
    eps * max|sample| over the samples the operator read at that step, times
    the sum over the operator's terms of |coefficient * monomial| * (sum of
    |stencil weight products|) / step^|w|, the size of the last-bit errors of
    the samples after the stencils have amplified them.  Each report keeps
    both floors (``floor``, ``floor_refined``) and the accuracy, and its
    ``holds(tol)`` is the certificate's verdict for that operator.
    """
    if not _is_size(h):
        raise ValueError(f"the step h must be a positive finite number, got {h!r}")
    _check_accuracy(accuracy)
    a0 = tuple(complex(z) for z in a0)
    if len(a0) != spec.nvars:
        raise ValueError(f"a0 must hold {spec.nvars} coefficients, got {len(a0)}")
    if not _finite(a0):
        raise ValueError(f"a0 must be finite, got {a0}")
    reports = []
    orders = {wi for op in spec.operators for (_, w) in op.terms for wi in w}
    # per derivative order: the stencil nodes, and its weights as integers
    # over one common denominator
    stencils = {}
    for k in orders:
        nodes, weights = _central_stencil(k, accuracy) if k else ((0,), (Fraction(1),))
        scale = math.lcm(*(x.denominator for x in weights))
        stencils[k] = nodes, [x.numerator * (scale // x.denominator) for x in weights], scale
    mass = {k: sum(map(abs, weights)) / scale for k, (_, weights, scale) in stencils.items()}
    tensors = {}

    def tensor(w, step):
        # the points of the tensor-product stencil of w at this step, with
        # the products of the integer weights and of their denominators
        if (w, step) not in tensors:
            axes = [stencils[k] for k in w]
            offsets = itertools.product(*(nodes for nodes, _, _ in axes))
            tensors[w, step] = (
                [tuple(a0[j] + step * o for j, o in enumerate(offset)) for offset in offsets],
                [math.prod(ws) for ws in itertools.product(*(ws for _, ws, _ in axes))],
                math.prod(scale for _, _, scale in axes),
            )
        return tensors[w, step]

    # each stencil point is sampled once, whichever operators and steps read it
    samples = {}

    def residual_at(op, step):
        total, gain, used = 0j, 0.0, {}
        for (u, w), oc in sorted(op.constant_coefficients().items()):
            mono = 1.0 + 0j
            for j, uj in enumerate(u):
                if uj:
                    mono *= a0[j] ** uj
            dw = _derivative_at(F, *tensor(w, step), sum(w), step, samples, used)
            total += float(oc) * mono * dw
            gain += abs(float(oc) * mono) * math.prod(mass[k] for k in w) / step ** sum(w)
        return total, _EPS * gain * max(map(abs, used.values()), default=0.0)

    for op in spec.operators:
        (r1, floor1), (r2, floor2) = residual_at(op, h), residual_at(op, h / 2.0)
        reports.append(OperatorFD(op, r1, r2, floor1, floor2, accuracy))
    return FDReport(reports=tuple(reports), h=float(h))
