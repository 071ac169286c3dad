import pytest

from eegnet import gradcheck


@pytest.mark.parametrize("name", list(gradcheck.CHECKS))
def test_check_within_tolerance(name):
    result = gradcheck.run_check(name)
    assert result.passed, (
        f"{name}: max relative error {result.max_rel_err:.3g} > {result.tolerance:g}"
    )
