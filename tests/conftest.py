import pytest

from phaseclone.verify import TOLERANCES, run_verification


@pytest.fixture(scope="session")
def verify_results():
    """The built-in verification suite at its defaults, run once per session."""
    return run_verification()


@pytest.fixture
def check(verify_results):
    """Assert that the named `verify` checks pass at their declared tolerance."""
    by_name = {r.name: r for r in verify_results}

    def run(*names):
        for name in names:
            res = by_name[name]
            assert res.tolerance == TOLERANCES[name], name
            assert res.passed, f"{name}: max_error={res.max_error:.3e} > tolerance={res.tolerance:.1e}"

    return run
