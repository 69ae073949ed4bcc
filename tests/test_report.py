"""The check registry behind verify: order, uniqueness, and what each entry exercises."""

import functools
import importlib
import re
import sys
import types

import pytest

from phaseq import phasespace, report, schrodinger, spin

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


def _measured(entries):
    return {entry.equation_id: (entry.residual, entry.status, entry.detail) for entry in entries}


@pytest.fixture(scope="module")
def forward():
    return _measured(report.run_suite(report.SuiteConfig()))


def test_entries_measure_the_same_in_reverse_order(forward, monkeypatch):
    monkeypatch.setattr(report, "_CHECKS", report._CHECKS[::-1])
    backward = report.run_suite(report.SuiteConfig())
    assert [entry.equation_id for entry in backward] == list(forward)[::-1]
    assert _measured(backward) == forward


@pytest.mark.parametrize("check", report._CHECKS, ids=lambda check: check.equation_id)
def test_entry_run_alone_measures_its_suite_residual(check, forward):
    result = check.run(report._Context(report.SuiteConfig()))
    residual = result[0] if isinstance(result, tuple) else result
    residual_in_suite, _, _ = forward[check.equation_id]
    assert float(residual) == residual_in_suite


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


def test_spectrum_entry_passes_at_the_largest_truncation():
    # one ulp of the top trusted level, 8 * 2046.5, is 1.8e-12, above the 1e-12
    # gate; the entry compares the lowest 63 levels, in units of hbar*omega
    config = report.SuiteConfig.from_mapping(
        {"truncation": 2048, "params": {"m": 0.125, "omega": 8, "hbar": 1}}
    )
    check = _check_of("Eq.27")
    residual, detail = check.run(report._Context(config))
    assert residual < check.threshold
    assert detail.startswith("lowest 63 levels")


def test_joint_spectrum_entry_audits_the_rows_in_exported_order(monkeypatch):
    ctx = report._Context(report.SuiteConfig())
    check = _check_of("Eq.51")
    assert check.run(ctx) < check.threshold
    rows = spin.spin_spectrum(report.SPIN_DIM)
    descending = [row for sector in range(report.SPIN_DIM)
                  for row in reversed([r for r in rows if r.sector == sector])]
    monkeypatch.setattr(spin, "spin_spectrum", lambda dim: descending)
    assert check.run(ctx) >= check.threshold


def _mutant(monkeypatch, module, original, replacement):
    """``module``'s source with one spelling replaced, executed as a module of the
    package; dataclasses look their module up in ``sys.modules``."""
    path = module.__file__
    with open(path) as file:
        source = file.read()
    assert source.count(original) == 1, original
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__package__ = module.__package__
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(original, replacement), path, "exec"), mutant.__dict__)
    return mutant


def test_a_drifted_lambda_relation_fails_its_entry_without_aborting(monkeypatch):
    drifted = _mutant(monkeypatch, spin, "((lam + 1.0) / 2.0)", "((lam + 2.0) / 2.0)")
    monkeypatch.setattr(spin, "lambda_relation", drifted.lambda_relation)
    entries = report.run_suite(report.SuiteConfig())
    assert len(entries) == len(report._CHECKS)
    entry = next(e for e in entries if e.equation_id == "Eq.40")
    assert entry.residual >= entry.threshold
    assert entry.status == report.FAIL


# Unit placements that natural units cannot see: each mutant equals the original
# at m = omega = hbar = 1.
OFF_NATURAL = report.SuiteConfig(params=phasespace.PhysParams(2.54, 0.41, 0.28))


def _passes(equation_id, config):
    check = _check_of(equation_id)
    result = check.run(report._Context(config))
    residual = result[0] if isinstance(result, tuple) else result
    return residual < check.threshold


@pytest.mark.parametrize("module, original, replacement, name, equation_ids", [
    pytest.param(phasespace, "0.5 * par.m * par.omega", "0.5 * par.m ** 2 * par.omega",
                 "hamiltonian", ["Eq.1", "Eq.27"], id="m-squared-potential"),
    pytest.param(schrodinger, "hamiltonian(0.0, par.hbar * k, par)", "hamiltonian(0.0, k, par)",
                 "hamiltonian_terms", ["Eq.27"], id="kinetic-without-hbar"),
])
def test_a_unit_mutant_fails_its_entries_off_natural_units(
        monkeypatch, module, original, replacement, name, equation_ids):
    for config in (report.SuiteConfig(), OFF_NATURAL):
        assert all(_passes(equation_id, config) for equation_id in equation_ids)
    mutated = getattr(_mutant(monkeypatch, module, original, replacement), name)
    unmutated = getattr(module, name)
    for key, bound in list(sys.modules.items()):
        if key.startswith("phaseq.") and getattr(bound, name, None) is unmutated:
            monkeypatch.setattr(bound, name, mutated)
    assert not any(_passes(equation_id, OFF_NATURAL) for equation_id in equation_ids)
