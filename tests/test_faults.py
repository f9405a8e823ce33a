"""The fault table of ``faults.py``: each row's fault must fail the battery
checks and oracle tests it names, and the checks must pass again once the
fault is undone (the oracle tests pass unfaulted in their own modules)."""

import importlib
import inspect

import pytest

from ospd import cli, make_alphabet, osptab
from ospd.osptab import (RejectError, SpinColumn, all_columns,
                         is_admissible_sigma, osp_pairs)

from faults import FAULTS, replace


def run_oracle(request, spec):
    """Run the test ``module::function`` with its fixtures."""
    module, name = spec.split("::")
    test = getattr(importlib.import_module(module), name)
    test(**{arg: request.getfixturevalue(arg)
            for arg in inspect.signature(test).parameters})


@pytest.mark.parametrize("name", list(FAULTS))
def test_fault_fails_what_it_names(name, monkeypatch, request):
    fault = FAULTS[name]
    battery = dict(cli._verify_checks(0))
    fault.apply(monkeypatch)
    for check in fault.checks:
        assert not cli._run_check(check, battery[check])["ok"], check
    for oracle in fault.oracles:
        with pytest.raises(AssertionError):
            run_oracle(request, oracle)
    monkeypatch.undo()
    for check in fault.checks:
        assert cli._run_check(check, battery[check])["ok"], check


def test_sigma_oracle_reads_only_the_sliding_splits(monkeypatch):
    def poisoned(*args):
        raise AssertionError("is_admissible_sigma reached production splits")

    for name in ("lr_split", "star_split", "_adm_profile"):
        replace(monkeypatch, osptab, name, poisoned)
    seen = set()
    for kind in ("classical", "super"):
        A = make_alphabet(kind, 4, 2)
        members = [t for a in range(4) for t in osp_pairs(A, a, 6)][::7]
        rights = (members + osp_pairs(A, 0, 6, bar=True)[::5]
                  + [SpinColumn(c) for h in range(4)
                     for c in all_columns(A, h)][::3])
        for t in members[::5]:
            for s in rights[::11]:
                try:
                    seen.add((type(s).__name__, is_admissible_sigma(t, s)))
                except RejectError:  # a' > a
                    pass
    assert seen == {(kind, ok) for kind in ("OspPair", "BarPair", "SpinColumn")
                    for ok in (True, False)}
