"""The benchmark's three workloads: inputs, references, operations and checks.

``prepare(name, seed, gf, root, workdir)`` builds one workload's list of
operations.  It is the benchmark's set-up: the seed generates the inputs,
and every reference a check compares against is computed here, outside the
timed region, by code independent of the operation it checks (exact
constants, mpmath closed forms, or an earlier pass of the same run).

Each ``Op.run`` calls the program through module attributes looked up at
call time (``gf.series.frobenius_basis``), so the tracer's wrappers see
every call.  ``Op.check`` raises ``WrongResult`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp

from tracer import is_box


class WrongResult(Exception):
    """An operation returned, but its output disagrees with the reference."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # exception class names that count as a failed operation but not as a
    # wrong result: the recorded outcome of a known defect
    expected_errors: tuple = ()
    kind: str = "api"


def _require(cond, msg):
    if not cond:
        raise WrongResult(msg)


def _homogenized_rows(points):
    """Rows of the homogenized exponent matrix: all ones, then coordinates."""
    dim = len(points[0])
    return [[1] * len(points)] + [[p[k] for p in points] for k in range(dim)]


# -- series-certify ------------------------------------------------------------

# family -> (points, normalized volume = GKZ rank); the volumes are known exactly
FAMILIES = {
    "segment": ([(-1,), (0,), (1,)], 2),
    "hesse": ([(0, 0), (1, 0), (0, 1), (-1, -1)], 3),
    "cross": ([(1, 0), (-1, 0), (0, 1), (0, -1)], 4),
    "twisted-cubic": ([(0,), (1,), (2,), (3,)], 3),
    "cross-interior": ([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)], 4),
    "quintic-mirror": (
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1), (0, 0, 0, 0)],
        5,
    ),
}
SERIES_ORDERS = [
    ("segment", 8), ("segment", 32), ("hesse", 8), ("hesse", 16), ("cross", 8),
    ("twisted-cubic", 6), ("cross-interior", 5), ("quintic-mirror", 8),
]


def series_op(gf, family, order):
    """Frobenius pipeline for one family: build, count, certify, commute."""
    points, rank = FAMILIES[family]
    dim = len(points[0])
    rows = _homogenized_rows(points)

    def run():
        lattice, tautsys, series, weyl = gf.lattice, gf.tautsys, gf.series, gf.weyl
        A = lattice.homogenize(points, dim)
        spec = tautsys.gkz_system(A, tautsys.cy_beta(dim))
        vol = lattice.normalized_volume(points)
        ehrhart = lattice.ehrhart_volume_oracle(points)
        basis = series.frobenius_basis(spec, order=order)
        count = series.count_independent(basis)
        reports = [series.annihilate_check(spec, s) for s in basis]
        boxes = [op for op in spec.operators if is_box(op)]
        eulers = [op for op in spec.operators if not is_box(op)]
        comms = [[weyl.commutator(e, box) for e in eulers] for box in boxes]
        return vol, ehrhart, basis, count, reports, boxes, eulers, comms

    def check(out):
        vol, ehrhart, basis, count, reports, boxes, eulers, comms = out
        _require(
            vol == ehrhart == count == len(basis) == rank,
            f"volume {vol}, Ehrhart {ehrhart}, count {count}, basis {len(basis)}; want {rank}",
        )
        _require(
            all(isinstance(c, Fraction) for s in basis for c in s.terms.values()),
            "basis coefficients are not exact rationals",
        )
        for k, element in enumerate(reports):
            for r in element:
                _require(
                    r.clean and not r.residual.terms and r.max_abs == 0,
                    f"series {k}: nonzero residual under {r.operator.render()}",
                )
        _require(boxes and len(eulers) == len(rows), "system lacks box or Euler operators")
        for box, row_comms in zip(boxes, comms):
            cc = box.constant_coefficients()
            plus = next(w for (u, w), c in cc.items() if c == 1)
            minus = next(w for (u, w), c in cc.items() if c == -1)
            ell = [p - m for p, m in zip(plus, minus)]
            for row, euler, comm in zip(rows, eulers, row_comms):
                _require(sum(r * x for r, x in zip(row, ell)) == 0, f"box {ell} is not a relation")
                ec = euler.constant_coefficients()
                read = [ec.get((e, e), 0) for e in _unit_vectors(len(row))]
                _require(read == row, f"Euler operator row {read} differs from {row}")
                multiple = -sum(r * p for r, p in zip(row, plus))
                want = {key: multiple * c for key, c in cc.items()} if multiple else {}
                _require(
                    comm.constant_coefficients() == want,
                    f"[E, box] is not {multiple} times the box {ell}",
                )

    return Op(f"series/{family}/order{order}", run, check)


def _unit_vectors(n):
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def prepare_series(gf, rng):
    ops = [series_op(gf, fam, order) for fam, order in SERIES_ORDERS]
    rng.shuffle(ops)
    return ops


# -- periods-certify -------------------------------------------------------------

SEGMENT = [(-1,), (0,), (1,)]
HESSE = [(0, 0), (1, 0), (0, 1), (-1, -1)]
CUBIC = [(-1,), (0,), (1,), (2,)]
CHAIN_TOL = 1e-13
POLE_OFFSET = 1e-4
POLE_TOLS = (1e-6, 1e-8, 1e-10)
# Known defect: the adaptive Gauss-Legendre quadrature halves an absolute
# tolerance per level with no roundoff floor, so at tol 1e-10 a pole 1e-4
# off the path exhausts the 2^20-evaluation budget and raises.
POLE_EXPECTED = {1e-10: ("NonConvergent",)}


def quadratic_chain_reference(coeffs):
    """Integral of dx / (a1 + a2 x + a3 x^2) over x in [0, inf), 40 digits.

    Partial fractions give (log(-r2) - log(-r1)) / (a3 (r1 - r2)); the
    principal logarithms are continuous along the path when no root lies
    on it.
    """
    with mp.workdps(40):
        a1, a2, a3 = (mp.mpc(c) for c in coeffs)
        disc = mp.sqrt(a2 * a2 - 4 * a1 * a3)
        r1, r2 = (-a2 + disc) / (2 * a3), (-a2 - disc) / (2 * a3)
        return complex((mp.log(-r2) - mp.log(-r1)) / (a3 * (r1 - r2)))


def quadratic_residues(coeffs):
    """Roots of a1 + a2 x + a3 x^2 and 2 pi i times the residues of its inverse."""
    with mp.workdps(40):
        a1, a2, a3 = (mp.mpc(c) for c in coeffs)
        disc = mp.sqrt(a2 * a2 - 4 * a1 * a3)
        roots = [(-a2 + disc) / (2 * a3), (-a2 - disc) / (2 * a3)]
        res = [2j * mp.pi / (a3 * (roots[0] - roots[1])), 2j * mp.pi / (a3 * (roots[1] - roots[0]))]
        return [complex(r) for r in roots], [complex(r) for r in res]


def halfline_chain(gf, mid=1.0):
    """The chain 0 -> infinity through ``mid`` on the positive axis."""
    Segment = gf.periods.Segment
    return gf.periods.ChainSpec(
        segments=(
            Segment(start=(mid,), end=(mid,), start_flags=(-1,), end_flags=(0,)),
            Segment(start=(mid,), end=(mid,), start_flags=(0,), end_flags=(1,)),
        )
    )


def chain_fd_op(gf, a0):
    """Chain value at a0 plus its finite-difference certificate."""
    A = gf.lattice.homogenize(SEGMENT, 1)
    chain = halfline_chain(gf)
    tight = gf.periods.QuadratureSettings(tol=CHAIN_TOL)
    closed = quadratic_chain_reference(a0)

    def run():
        periods, tautsys = gf.periods, gf.tautsys
        spec = tautsys.gkz_system(A, tautsys.cy_beta(1))

        def F(a):
            return periods.numeric_chain_integral(
                periods.SectionData(A=A, coeffs=tuple(a)), chain, tight
            ).value

        return F(a0), periods.finite_difference_residual(spec, F, a0, h=0.02)

    def check(out):
        value, fd = out
        _require(abs(value - closed) < 1e-9, f"chain value off the closed form by {abs(value - closed):.2e}")
        _require(fd.max_residual < 1e-6, f"FD residual {fd.max_residual:.2e} >= 1e-6")
        orders = [r.observed_order for r in fd.reports if r.observed_order is not None]
        _require(orders and all(3.5 < o < 4.5 for o in orders), f"FD observed orders {orders}")

    return Op(f"periods/chain-fd/{a0[0]:.3f}", run, check)


def near_pole_op(gf, coeffs, tol, reference):
    A = gf.lattice.homogenize(SEGMENT, 1)
    chain = halfline_chain(gf)

    def run():
        periods = gf.periods
        section = periods.SectionData(A=A, coeffs=coeffs)
        return periods.numeric_chain_integral(section, chain, periods.QuadratureSettings(tol=tol))

    def check(res):
        err = abs(res.value - reference)
        _require(err <= tol, f"near-pole chain at tol {tol:g} is off by {err:.2e}")

    return Op(f"periods/near-pole/tol{tol:g}", run, check, POLE_EXPECTED.get(tol, ()))


def loop_op(gf, coeffs):
    """Loops around both roots against residue_period and the exact residues."""
    A = gf.lattice.homogenize(SEGMENT, 1)
    roots, residues = quadratic_residues(coeffs)
    radius = 0.25 * abs(roots[0] - roots[1])
    tight = gf.periods.QuadratureSettings(tol=CHAIN_TOL)

    def run():
        periods = gf.periods
        section = periods.SectionData(A=A, coeffs=coeffs)
        found = periods.denominator_roots(section)
        res = [periods.residue_period(section, i) for i in range(len(found))]
        loops = [
            periods.numeric_chain_integral(section, periods.loop_chain(r, radius), tight).value
            for r in roots
        ]
        return found, res, loops

    def check(out):
        found, res, loops = out
        _require(len(found) == 2, f"{len(found)} roots found, want 2")
        for root, want, loop in zip(roots, residues, loops):
            k = min(range(2), key=lambda i: abs(found[i] - root))
            _require(abs(found[k] - root) < 1e-10, f"root {found[k]} is not {root}")
            _require(abs(res[k] - want) < 1e-10, f"residue_period off by {abs(res[k] - want):.2e}")
            _require(abs(loop - want) < 1e-10, f"loop off the residue by {abs(loop - want):.2e}")

    return Op("periods/loop-residue", run, check)


def general_type_op(gf, coeffs, b1, b2, lam):
    """Chain integrals with a numerator are linear in it and scale as 1/lambda."""
    A = gf.lattice.homogenize(CUBIC, 1)
    chain = halfline_chain(gf)
    tight = gf.periods.QuadratureSettings(tol=CHAIN_TOL)
    both = tuple(x + y for x, y in zip(b1, b2))

    def run():
        periods = gf.periods

        def value(b, scale=1.0):
            section = periods.SectionData(
                A=A,
                coeffs=tuple(scale * c for c in coeffs),
                numerator_exponents=((0,), (1,)),
                numerator_coeffs=tuple(b),
            )
            return periods.general_type_integral(section, chain, tight).value

        return value(both), value(b1), value(b2), value(b1, lam)

    def check(out):
        v12, v1, v2, v1s = out
        gap = abs(v12 - v1 - v2)
        _require(gap < 1e-9, f"numerator linearity gap {gap:.2e}")
        _require(abs(v1s - v1 / lam) < 1e-9, f"scaling gap {abs(v1s - v1 / lam):.2e}")

    return Op("periods/general-type", run, check)


def cycle_op(gf, name, points, coeffs, tol):
    """Torus quadrature against the order-20 period series, built in set-up."""
    dim = len(points[0])
    A = gf.lattice.homogenize(points, dim)
    reference = gf.periods.torus_period_series(A, order=20).evaluate(coeffs)
    radii = (1.0,) * dim

    def run():
        periods = gf.periods
        series = periods.torus_period_series(A, order=10)
        section = periods.SectionData(A=A, coeffs=coeffs)
        return series, periods.numeric_cycle_integral(
            section, radii, periods.QuadratureSettings(tol=1e-12)
        )

    def check(out):
        series, res = out
        err = abs(res.value - reference)
        _require(err <= tol, f"{name} cycle integral off the period series by {err:.2e}")
        _require(series.terms, f"{name} period series is empty")

    return Op(f"periods/cycle/{name}", run, check)


def period_series_fd_op(gf, coeffs):
    """Finite-difference certificate of the order-16 period series."""
    A = gf.lattice.homogenize(SEGMENT, 1)

    def run():
        periods, tautsys = gf.periods, gf.tautsys
        spec = tautsys.gkz_system(A, tautsys.cy_beta(1))
        series = periods.torus_period_series(A, order=16)
        return periods.finite_difference_residual(spec, series.evaluate, coeffs, h=0.002)

    def check(fd):
        _require(fd.max_residual < 1e-8, f"period-series FD residual {fd.max_residual:.2e}")

    return Op("periods/series-fd", run, check)


def prepare_periods(gf, rng):
    u = rng.uniform
    ops = [chain_fd_op(gf, (u(0.8, 1.2), u(2.7, 3.3), u(0.8, 1.2))) for _ in range(3)]
    # pole r1 = p + 1e-4 i beside the half-line, second root at -1; on the
    # inverted half of the chain (p > 1.1) tol 1e-10 exhausts the budget
    r1, r2 = complex(u(1.1, 3.0), POLE_OFFSET), -1.0
    pole = (r1 * r2, -(r1 + r2), 1.0 + 0j)
    reference = quadratic_chain_reference(pole)
    ops += [near_pole_op(gf, pole, tol, reference) for tol in POLE_TOLS]
    ops.append(loop_op(gf, (u(0.8, 1.2), u(2.7, 3.3), u(0.8, 1.2))))
    ops.append(
        general_type_op(
            gf,
            tuple(c * u(0.9, 1.1) for c in (1.0, 3.0, 2.0, 0.5)),
            (u(-1, 1), u(-1, 1)),
            (u(-1, 1), u(-1, 1)),
            u(1.2, 2.0),
        )
    )
    ops.append(cycle_op(gf, "segment", SEGMENT, (u(0.005, 0.03), 1.0, u(0.005, 0.03)), 1e-10))
    ops.append(
        cycle_op(gf, "hesse", HESSE, (1.0, u(0.02, 0.06), u(0.02, 0.06), u(0.02, 0.06)), 1e-8)
    )
    ops.append(period_series_fd_op(gf, (u(0.005, 0.03), 1.0, u(0.005, 0.03))))
    rng.shuffle(ops)
    return ops


# -- cli-batch ---------------------------------------------------------------------

# every (job, command) pair of jobs/*.json that exits 0 at the commit that
# introduced the benchmark
JOB_COMMANDS = {
    "chain_131.json": ("build", "chain", "period", "rank", "series"),
    "hesse.json": ("build", "period", "rank", "series"),
    "p1_cy.json": ("build", "period", "rank", "series"),
    "p1_unipotent_verify.json": ("build", "period", "rank", "verify"),
}
REPORTS = ("text", "machine")


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def cli_op(gf, path, command, report, semantic=None):
    """One in-process CLI call; later passes must repeat the first byte for byte."""
    argv = [command, "--input", str(path), "--report", report]
    first = []

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gf.cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def check(res):
        _require(res.code == 0, f"exit code {res.code}: {res.stderr.strip()}")
        if first:
            _require(res == first[0], "output differs from the first pass of the run")
            return
        _require(res.stdout.strip(), "empty report")
        if report == "machine":
            report_obj = json.loads(res.stdout)
            _require(report_obj.get("command") == command, "machine report names another command")
            if semantic:
                semantic(report_obj)
        first.append(res)

    return Op(f"cli/{path.name}/{command}/{report}", run, check, kind="cli")


def _quintic_rank(rep):
    _require(rep["rank"] == 5 and rep["agree"], f"quintic rank report {rep}")


def _quintic_series(rep):
    _require(rep["count"] == 5 and len(rep["series"]) == 5, "quintic series count is not 5")


def _verify_clean(rep):
    _require(rep["all_clean"], "period series not annihilated")
    worst = max(math.hypot(*r["residual"]) for r in rep["finite_difference"])
    _require(worst < 1e-6, f"verify FD residual {worst:.2e}")


def prepare_cli(gf, rng, root, workdir):
    ops = []
    for job, commands in JOB_COMMANDS.items():
        for command in commands:
            ops += [cli_op(gf, root / "jobs" / job, command, r) for r in REPORTS]
    u = rng.uniform
    generated = {
        "quintic_mirror.json": {
            "schema_version": 1, "dim": 4, "points": [list(p) for p in FAMILIES["quintic-mirror"][0]],
            "options": {"order": 8},
        },
        "hesse_verify.json": {
            "schema_version": 1, "dim": 2, "points": [list(p) for p in HESSE],
            "section": {"a": [[1.0, 0.0], [0.05, 0.0], [0.05, 0.0], [0.05, 0.0]], "i0": 0},
            "candidate": {"type": "period-series"}, "options": {"order": 16},
        },
        "p1_verify.json": {
            "schema_version": 1, "dim": 1, "points": [list(p) for p in SEGMENT],
            "section": {"a": [[u(0.005, 0.03), 0.0], [1.0, 0.0], [u(0.005, 0.03), 0.0]], "i0": 1},
            "candidate": {"type": "period-series"}, "options": {"order": 16},
        },
    }
    workdir.mkdir(parents=True, exist_ok=True)
    for name, job in generated.items():
        (workdir / name).write_text(json.dumps(job), encoding="utf-8")
    quintic, hesse, p1 = (workdir / name for name in generated)
    for r in REPORTS:
        ops.append(cli_op(gf, quintic, "rank", r, _quintic_rank))
        ops.append(cli_op(gf, quintic, "series", r, _quintic_series))
        ops.append(cli_op(gf, hesse, "verify", r, _verify_clean))
        ops.append(cli_op(gf, p1, "verify", r, _verify_clean))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("series-certify", "periods-certify", "cli-batch")


def prepare(name, seed, gf, root, workdir):
    rng = random.Random(f"{name}/{seed}")
    if name == "series-certify":
        return prepare_series(gf, rng)
    if name == "periods-certify":
        return prepare_periods(gf, rng)
    return prepare_cli(gf, rng, root, workdir)
