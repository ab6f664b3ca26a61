"""Every check of the built-in suite, run by name at its declared tolerance."""

import pytest

from phaseclone.verify import TOLERANCES, run_verification


def test_report_lists_every_declared_check_in_order(verify_results):
    assert [r.name for r in verify_results] == list(TOLERANCES)


@pytest.mark.parametrize("name", TOLERANCES)
def test_check_passes(check, name):
    check(name)


def test_undeclared_check_is_an_error(monkeypatch):
    monkeypatch.delitem(TOLERANCES, "complement_basis_orthonormality")
    with pytest.raises(KeyError, match="complement_basis_orthonormality"):
        run_verification(dmax_full=2)
