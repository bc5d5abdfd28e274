"""Batch command line front end.

Reads a JSON job file describing a system (points, beta, optional symmetry
matrices, section coefficients, chains) and runs one of the subcommands
``build``, ``rank``, ``series``, ``verify``, ``period``, ``chain``.
Reports are deterministic: identical job files and options produce
byte-identical output.  Exit codes: 0 success, 2 job-file problems,
3 mathematical degeneracy, 4 numerical non-convergence, 5 a ``verify``
candidate with a nonzero symbolic residual.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import CertificateFailed, DegeneracyError, GkzForgeError, JobFileError
from . import lattice, series, tautsys, periods

SCHEMA_VERSION = 1


def _fail(msg):
    raise JobFileError(msg)


def _is_int(value):
    # JSON true / false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    """A JSON number that a float holds finitely."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def _list(value, what):
    if not isinstance(value, list):
        _fail(f"{what} must be a list, got {value!r}")
    return value


def _fraction(value, what):
    try:
        if isinstance(value, str):
            return Fraction(value)
        if _is_int(value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    _fail(f"{what} must be an integer or a rational string like '3/4', got {value!r}")


def _complex(value, what):
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_real(x) for x in value):
        return complex(value[0], value[1])
    _fail(f"{what} must be a number or a [re, im] pair, got {value!r}")


def _flags(value, dim, what):
    if (
        not isinstance(value, list)
        or len(value) != dim
        or not all(_is_int(f) and f in (-1, 0, 1) for f in value)
    ):
        _fail(f"{what} must list {dim} flags from -1, 0, 1, got {value!r}")
    return tuple(value)


class Job:
    """Validated job file contents."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            _fail("job file must contain a JSON object")
        if raw.get("schema_version") != SCHEMA_VERSION:
            _fail(f"schema_version must be {SCHEMA_VERSION}")
        known = {
            "schema_version", "dim", "points", "beta", "system",
            "symmetry", "section", "numerator", "chains", "candidate", "options",
        }
        for key in raw:
            if key not in known:
                _fail(f"unknown job file key {key!r}")
        self.system_kind = raw.get("system", "gkz")
        if self.system_kind not in ("gkz", "p1-unipotent"):
            _fail("system must be 'gkz' or 'p1-unipotent'")

        if self.system_kind == "gkz":
            if "dim" not in raw or "points" not in raw:
                _fail("gkz jobs need 'dim' and 'points'")
            self.dim = raw["dim"]
            if not _is_int(self.dim):
                _fail("dim must be an integer")
            self.points = self._int_vectors(raw["points"], self.dim, "points")
            beta = raw.get("beta")
            if beta is None:
                self.beta = tautsys.cy_beta(self.dim)
            else:
                if not isinstance(beta, list) or len(beta) != self.dim + 1:
                    _fail(f"beta must be a list of {self.dim + 1} rationals")
                self.beta = tuple(_fraction(b, "beta entry") for b in beta)
        else:
            self.dim = 1
            self.points = ((2,), (1,), (0,))
            self.beta = (Fraction(1), Fraction(0))

        self.symmetry = []
        for k, entry in enumerate(_list(raw.get("symmetry", []), "symmetry")):
            if not isinstance(entry, dict) or "xi" not in entry:
                _fail("each symmetry entry needs a matrix under 'xi'")
            xi = entry["xi"]
            p = len(self.points)
            if not isinstance(xi, list) or len(xi) != p or any(
                not isinstance(row, list) or len(row) != p for row in xi
            ):
                _fail(f"symmetry matrix {k} must be {p}x{p}")
            mat = tuple(
                tuple(_fraction(x, f"symmetry[{k}] entry") for x in row) for row in xi
            )
            bx = _fraction(entry.get("beta", 0), f"symmetry[{k}] beta")
            self.symmetry.append((mat, bx))

        self.section = None
        self.i0 = None
        self.radii = None
        if "section" in raw:
            sec = raw["section"]
            if not isinstance(sec, dict) or "a" not in sec:
                _fail("section needs coefficient list 'a'")
            coeffs = [_complex(z, "section coefficient") for z in _list(sec["a"], "section a")]
            if len(coeffs) != len(self.points):
                _fail("section coefficient count must match the points")
            self.section = tuple(coeffs)
            self.i0 = sec.get("i0")
            if self.i0 is not None and not (
                _is_int(self.i0) and 0 <= self.i0 < len(self.points)
            ):
                _fail("section i0 out of range")
            radii = sec.get("radii")
            if radii is not None:
                if (
                    not isinstance(radii, list)
                    or len(radii) != self.dim
                    or not all(_is_real(r) and r > 0 for r in radii)
                ):
                    _fail(f"radii must list {self.dim} positive numbers, got {radii!r}")
                self.radii = tuple(float(r) for r in radii)

        self.numerator = None
        if "numerator" in raw:
            numr = raw["numerator"]
            if not isinstance(numr, dict) or "exponents" not in numr or "b" not in numr:
                _fail("numerator needs 'exponents' and 'b'")
            exps = self._int_vectors(numr["exponents"], self.dim, "numerator exponents")
            bs = tuple(_complex(z, "numerator coefficient") for z in _list(numr["b"], "numerator b"))
            if len(exps) != len(bs):
                _fail("numerator exponents and coefficients differ in length")
            self.numerator = (exps, bs)

        self.chains = []
        for k, ch in enumerate(_list(raw.get("chains", []), "chains")):
            segments = ch.get("segments") if isinstance(ch, dict) else None
            if not isinstance(segments, list) or not segments:
                _fail(f"chain {k} needs a nonempty 'segments' list")
            segs = []
            for seg in segments:
                if not isinstance(seg, dict):
                    _fail(f"chain {k} segments must be objects, got {seg!r}")
                ends = [seg.get("start"), seg.get("end")]
                if not all(isinstance(z, list) and len(z) == self.dim for z in ends):
                    _fail(f"chain {k} segment points must have dimension {self.dim}")
                segs.append(
                    periods.Segment(
                        start=tuple(_complex(z, "segment point") for z in seg["start"]),
                        end=tuple(_complex(z, "segment point") for z in seg["end"]),
                        start_flags=_flags(
                            seg.get("start_flags", [0] * self.dim), self.dim, "start_flags"
                        ),
                        end_flags=_flags(
                            seg.get("end_flags", [0] * self.dim), self.dim, "end_flags"
                        ),
                    )
                )
            self.chains.append(periods.ChainSpec(segments=tuple(segs)))

        self.candidate = raw.get("candidate")
        if self.candidate is not None:
            if not isinstance(self.candidate, dict) or "type" not in self.candidate:
                _fail("candidate needs a 'type'")
            if self.candidate["type"] not in ("monomial", "constant", "period-series"):
                _fail("candidate type must be monomial, constant or period-series")

        opts = raw.get("options", {})
        if not isinstance(opts, dict):
            _fail("options must be an object")
        for key in opts:
            if key not in ("order", "tol"):
                _fail(f"unknown options key {key!r}")
        self.order = opts.get("order", 10)
        if not _is_int(self.order) or self.order < 0:
            _fail(f"options.order must be a nonnegative integer, got {self.order!r}")
        tol = opts.get("tol", 1e-10)
        if not _is_real(tol) or tol <= 0:
            _fail(f"options.tol must be a positive number, got {tol!r}")
        self.tol = float(tol)

    def _int_vectors(self, data, dim, what):
        if not isinstance(data, list) or not data:
            _fail(f"{what} must be a nonempty list of integer vectors")
        out = []
        for v in data:
            if not isinstance(v, list) or len(v) != dim or any(
                not _is_int(x) for x in v
            ):
                _fail(f"{what} entries must be integer vectors of length {dim}")
            out.append(tuple(v))
        return tuple(out)

    # -- derived objects -------------------------------------------------

    def system(self) -> tautsys.SystemSpec:
        if self.system_kind == "p1-unipotent":
            return tautsys.unipotent_p1_system()
        A = lattice.homogenize(self.points, self.dim)
        spec = tautsys.gkz_system(A, self.beta)
        if self.symmetry:
            ops = list(spec.operators)
            for mat, bx in self.symmetry:
                ops.append(tautsys.symmetry_operator(mat, bx))
            spec = tautsys.SystemSpec(
                operators=tuple(ops), A=spec.A, beta=spec.beta, label=spec.label
            )
        return spec

    def section_data(self) -> periods.SectionData:
        if self.section is None:
            _fail("this command needs a 'section' block")
        A = lattice.homogenize(self.points, self.dim)
        if self.numerator:
            return periods.SectionData(
                A=A,
                coeffs=self.section,
                numerator_exponents=self.numerator[0],
                numerator_coeffs=self.numerator[1],
            )
        return periods.SectionData(A=A, coeffs=self.section)


# -- report helpers -----------------------------------------------------------


def _cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def _emit(args, text_lines, machine):
    if args.report == "machine":
        print(json.dumps(machine, indent=2))
    else:
        print("\n".join(text_lines))


# -- commands -------------------------------------------------------------------


def cmd_build(job, args):
    spec = job.system()
    rendered = [op.render() for op in spec.operators]
    text = [f"system {spec.label} on {spec.nvars} coordinates"]
    text += [f"  [{k}] {r}" for k, r in enumerate(rendered)]
    machine = {
        "command": "build",
        "label": spec.label,
        "nvars": spec.nvars,
        "beta": [str(b) for b in spec.beta],
        "operators": rendered,
    }
    _emit(args, text, machine)


def cmd_rank(job, args):
    lattice.homogenize(job.points, job.dim)  # validate the configuration
    vol = lattice.normalized_volume(job.points)
    oracle = lattice.ehrhart_volume_oracle(job.points)
    text = [f"rank = {vol}"]
    if vol != oracle:
        text.append(f"WARNING: Ehrhart oracle disagrees: {oracle}")
    machine = {
        "command": "rank",
        "rank": vol,
        "ehrhart": oracle,
        "agree": vol == oracle,
    }
    _emit(args, text, machine)


def cmd_series(job, args):
    if job.system_kind != "gkz":
        raise DegeneracyError("series bases are defined for gkz systems only")
    spec = job.system()
    basis = series.frobenius_basis(spec, order=job.order)
    # frobenius_basis only returns linearly independent lists
    count = len(basis)
    text = [f"frobenius basis: {len(basis)} series, {count} independent"]
    for k, s in enumerate(basis):
        text.append(f"-- series {k} --")
        text.append(s.render())
    machine = {
        "command": "series",
        "count": count,
        "series": [s.render() for s in basis],
    }
    _emit(args, text, machine)


def _candidate_series(job, spec):
    kind = job.candidate["type"]
    if kind == "constant":
        value = _fraction(job.candidate.get("value", 1), "candidate value")
        return series.monomial_series((Fraction(0),) * spec.nvars, value)
    if kind == "monomial":
        exps = job.candidate.get("exponents")
        if not isinstance(exps, list) or len(exps) != spec.nvars:
            _fail(f"candidate exponents must list {spec.nvars} rationals")
        gamma = tuple(_fraction(e, "candidate exponent") for e in exps)
        coeff = _fraction(job.candidate.get("coeff", 1), "candidate coeff")
        return series.monomial_series(gamma, coeff)
    return periods.torus_period_series(spec.A, job.i0, job.order)


def cmd_verify(job, args):
    spec = job.system()
    if job.candidate is None:
        _fail("verify needs a 'candidate' block")
    cand = _candidate_series(job, spec)
    reports = series.annihilate_check(spec, cand)
    text = ["symbolic residuals:"]
    machine_ops = []
    for rep in reports:
        status = "clean" if rep.clean else "NONZERO"
        text.append(
            f"  [{rep.operator.render()}] {status}"
            f" (residual terms {rep.checked}, frontier {rep.skipped},"
            f" max |.| {rep.max_abs:.3e})"
        )
        machine_ops.append(
            {
                "operator": rep.operator.render(),
                "clean": rep.clean,
                "checked": rep.checked,
                "frontier": rep.skipped,
                "max_abs": rep.max_abs,
            }
        )
    failed = [rep.operator.render() for rep in reports if not rep.clean]
    verdict = "failed" if failed else "certified"
    machine = {
        "command": "verify",
        "symbolic": machine_ops,
        "all_clean": not failed,
        "verdict": verdict,
    }
    if job.section is not None:
        fd = periods.finite_difference_residual(
            spec, cand.evaluate, job.section, h=0.002
        )
        text.append("finite-difference residuals (h = 0.002):")
        fd_ops = []
        for rep in fd.reports:
            order = "n/a" if rep.observed_order is None else f"{rep.observed_order:.2f}"
            text.append(
                f"  [{rep.operator.render()}] |res| = {abs(rep.residual):.3e},"
                f" observed order {order}"
            )
            fd_ops.append(
                {
                    "operator": rep.operator.render(),
                    "residual": _cnum(rep.residual),
                    "residual_half": _cnum(rep.residual_refined),
                    "observed_order": rep.observed_order,
                }
            )
        machine["finite_difference"] = fd_ops
    _emit(args, text, machine)
    if failed:
        raise CertificateFailed(
            "symbolic residual NONZERO under " + "; ".join(failed)
        )


def cmd_period(job, args):
    s = job.section_data()
    radii = job.radii or (1.0,) * job.dim
    quad = periods.QuadratureSettings(tol=job.tol)
    res = periods.numeric_cycle_integral(s, radii, quad)
    text = [
        f"cycle integral = {res.value.real!r} + {res.value.imag!r}j",
        f"error estimate = {res.error:.3e} ({res.evaluations} evaluations)",
    ]
    machine = {
        "command": "period",
        "value": _cnum(res.value),
        "error": res.error,
        "evaluations": res.evaluations,
    }
    _emit(args, text, machine)


def cmd_chain(job, args):
    s = job.section_data()
    if not job.chains:
        _fail("chain command needs at least one chain")
    quad = periods.QuadratureSettings(tol=job.tol)
    values = []
    text = []
    for k, chain in enumerate(job.chains):
        if job.numerator:
            res = periods.general_type_integral(s, chain, quad)
        else:
            res = periods.numeric_chain_integral(s, chain, quad)
        values.append(
            {"value": _cnum(res.value), "error": res.error, "evaluations": res.evaluations}
        )
        text.append(
            f"chain {k}: {res.value.real!r} + {res.value.imag!r}j"
            f" (error {res.error:.3e}, {res.evaluations} evaluations)"
        )
    machine = {"command": "chain", "chains": values}
    _emit(args, text, machine)


COMMANDS = {
    "build": cmd_build,
    "rank": cmd_rank,
    "series": cmd_series,
    "verify": cmd_verify,
    "period": cmd_period,
    "chain": cmd_chain,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="gkz-forge",
        description="construct, solve and numerically verify GKZ-type systems",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", required=True, help="JSON job file")
    parser.add_argument("--order", type=int, help="series truncation override")
    parser.add_argument("--tol", type=float, help="tolerance override")
    parser.add_argument("--report", choices=["text", "machine"], default="text")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            _fail(f"cannot read job file: {exc}")
        except json.JSONDecodeError as exc:
            _fail(f"job file is not valid JSON: {exc}")
        # --order and --tol override options and pass the same checks
        overrides = {
            key: getattr(args, key) for key in ("order", "tol") if getattr(args, key) is not None
        }
        if overrides and isinstance(raw, dict) and isinstance(raw.get("options", {}), dict):
            raw["options"] = {**raw.get("options", {}), **overrides}
        job = Job(raw)
        COMMANDS[args.command](job, args)
    except GkzForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
