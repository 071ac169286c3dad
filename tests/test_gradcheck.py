import pytest

from eegnet import autodiff as ad
from eegnet import gradcheck, models


@pytest.mark.parametrize("name", list(gradcheck.CHECKS))
def test_check_within_tolerance(name):
    result = gradcheck.run_check(name)
    assert result.passed, (
        f"{name}: max relative error {result.max_rel_err:.3g} > {result.tolerance:g}"
    )


def test_model_checks_catch_a_planted_gather_fault(monkeypatch):
    # every gather VJP scaled by 1 + 1e-3: a model check on two windows that
    # share frames runs the gather of shared conv features and must fail
    real = ad.gather

    def faulty(x, index):
        out = real(x, index)
        if out.requires_grad:
            backward = out._backward
            out._backward = lambda g: backward(g * (1 + 1e-3))
        return out

    monkeypatch.setattr(ad, "gather", faulty)
    for name in ("parallel_cat", "cnn2d"):
        result = gradcheck.run_check(name)
        assert not result.passed, f"{name} passed at {result.max_rel_err:.3g}"


def test_model_checks_pass_a_frame_index(monkeypatch):
    # every model check reaches the models as training does, through frames
    # and a window index; the spy stops each check at its first forward
    class Reached(Exception):
        pass

    def spy(*args, **kwargs):
        raise Reached(kwargs.get("index"))

    monkeypatch.setattr(models, "forward_windows", spy)
    indices = {}
    for name in gradcheck.CHECKS:
        try:
            gradcheck.run_check(name)
        except Reached as reached:
            indices[name] = reached.args[0]
    assert sorted(indices) == sorted(["cascade", "parallel_cat", "parallel_add",
                                      "parallel_cat_fc", "parallel_cat_conv",
                                      "cnn1d", "cnn2d", "cnn3d", "rnn"])
    for name, index in indices.items():
        assert index is not None and index.shape == (2, 3), name
