"""The check registry behind verify: order, uniqueness, and what each entry exercises."""

import functools
import importlib
import re

import pytest

from phaseq import report, spin

_ID = re.compile(r"Eq\.(\d+)([a-z]*)(-literal)?")


def _equation_order(equation_id):
    match = _ID.fullmatch(equation_id)
    assert match is not None, equation_id
    return int(match.group(1)), match.group(2), match.group(3) or ""


def test_registry_holds_58_unique_ids_in_equation_order():
    ids = [check.equation_id for check in report._CHECKS]
    assert len(ids) == 58
    assert len(set(ids)) == 58
    assert ids == sorted(ids, key=_equation_order)


def test_run_suite_reports_in_registry_order_with_the_status_rule():
    entries = report.run_suite(report.SuiteConfig())
    assert [e.equation_id for e in entries] == [c.equation_id for c in report._CHECKS]
    for entry in entries:
        if entry.threshold is None:
            assert entry.status == report.REPORTED
        else:
            expected = report.PASS if entry.residual < entry.threshold else report.FAIL
            assert entry.status == expected


# Eq.36 adopts a definition and measures nothing.
_EXERCISED = [check for check in report._CHECKS if check.equation_id != "Eq.36"]


@pytest.mark.parametrize("check", _EXERCISED, ids=lambda check: check.equation_id)
def test_entry_calls_its_declared_operation(check, monkeypatch):
    module = importlib.import_module(f"phaseq.{check.module}")
    original = getattr(module, check.operation)
    calls = []

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, check.operation, counted)
    check.run(report._Context(report.SuiteConfig()))
    assert calls, f"{check.equation_id} never calls {check.module}.{check.operation}"


def test_config_block_has_four_fields():
    assert set(report.SuiteConfig().as_dict()) == {"params", "grid", "truncation", "seed"}


def test_size_cap_admits_the_largest_sizes():
    config = report.SuiteConfig.from_mapping({"grid": {"n": 2048}, "truncation": 2048})
    assert (config.grid_points, config.truncation) == (2048, 2048)


def test_integral_float_sizes_are_accepted():
    config = report.SuiteConfig.from_mapping({"grid": {"n": 64.0}, "seed": 1e3})
    assert (config.grid_points, config.seed) == (64, 1000)


def _check_of(equation_id):
    return next(check for check in report._CHECKS if check.equation_id == equation_id)


def test_spectrum_entry_is_exact_at_the_largest_truncation():
    # one ulp of the top trusted level, 8 * 2046.5, is 1.8e-12, above the 1e-12 gate
    config = report.SuiteConfig.from_mapping(
        {"truncation": 2048, "params": {"m": 0.125, "omega": 8, "hbar": 1}}
    )
    check = _check_of("Eq.27")
    residual, _ = check.run(report._Context(config))
    assert residual == 0.0 < check.threshold


def test_joint_spectrum_entry_audits_the_rows_in_exported_order(monkeypatch):
    ctx = report._Context(report.SuiteConfig())
    check = _check_of("Eq.51")
    assert check.run(ctx) < check.threshold
    rows = spin.spin_spectrum(report.SPIN_DIM, ctx.par)
    descending = [row for sector in range(report.SPIN_DIM)
                  for row in reversed([r for r in rows if r.sector == sector])]
    monkeypatch.setattr(spin, "spin_spectrum", lambda dim, par: descending)
    assert check.run(ctx) >= check.threshold
