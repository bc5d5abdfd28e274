"""The benchmark's checks must flag wrong results.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

import run  # puts the checkout's src/ and perfbench/ on sys.path
import workloads
from workloads import WrongResult

import gkz_forge


def test_perturbed_basis_coefficient_is_flagged(monkeypatch):
    op = workloads.series_op(gkz_forge, "segment", 8)
    op.check(op.run())

    exact = gkz_forge.series.frobenius_basis

    def perturbed(spec, order, **kwargs):
        basis = exact(spec, order, **kwargs)
        first = basis[0]
        key = min(first.terms, key=lambda k: sum(abs(x) for x in k[0]))
        terms = dict(first.terms)
        terms[key] += Fraction(1, 7)
        return [replace(first, terms=terms)] + basis[1:]

    monkeypatch.setattr(gkz_forge.series, "frobenius_basis", perturbed)
    with pytest.raises(WrongResult, match="nonzero residual"):
        op.check(op.run())


def test_chain_value_off_by_1e_6_is_flagged(monkeypatch):
    op = workloads.chain_fd_op(gkz_forge, (1.0, 3.0, 1.0))
    op.check(op.run())

    exact = gkz_forge.periods.numeric_chain_integral

    def shifted(*args, **kwargs):
        res = exact(*args, **kwargs)
        return replace(res, value=res.value + 1e-6)

    monkeypatch.setattr(gkz_forge.periods, "numeric_chain_integral", shifted)
    with pytest.raises(WrongResult, match="closed form"):
        op.check(op.run())


def test_expected_error_counts_as_failed_but_not_wrong():
    from gkz_forge.errors import NonConvergent

    def raises(exc):
        def run_op():
            raise exc

        return run_op

    ops = [
        workloads.Op("known", raises(NonConvergent("budget")), None, ("NonConvergent",)),
        workloads.Op("unknown", raises(NonConvergent("budget")), None),
        workloads.Op("fine", lambda: 1, lambda out: None),
    ]
    wrong = []
    _, failed = run.run_pass(ops, None, wrong)
    assert failed == 2
    assert len(wrong) == 1 and wrong[0].startswith("unknown")


def test_metric_lists_match_benchmark_json():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
