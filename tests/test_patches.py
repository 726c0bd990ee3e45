"""The multi-window L1 loss: hand cases, window boundaries, validation."""

import numpy as np
import pytest

from vctkit.patches import WindowLossConfig, multi_window_l1


def test_window_loss_identity_zero():
    x = np.array([[[-200.0, 100.0, 1000.0]]])
    assert multi_window_l1(x, x) == 0.0


def test_window_loss_hand_cases():
    cfg = WindowLossConfig()
    assert multi_window_l1([[[100.0]]], [[[90.0]]], cfg) == pytest.approx(10.0, abs=1e-12)
    assert multi_window_l1([[[1000.0]]], [[[0.0]]], cfg) == pytest.approx(500.0, abs=1e-12)
    assert multi_window_l1([[[-500.0]]], [[[-400.0]]], cfg) == pytest.approx(10.0, abs=1e-12)


def test_window_boundaries_half_open():
    cfg = WindowLossConfig()
    # 250 sits in the hard window, not soft; -150 sits in soft
    assert multi_window_l1([[[250.0]]], [[[249.0]]], cfg) == pytest.approx(0.5)
    assert multi_window_l1([[[-150.0]]], [[[-151.0]]], cfg) == pytest.approx(1.0)


def test_window_loss_scales_in_lambda():
    base = WindowLossConfig()
    doubled = WindowLossConfig(soft_weight=2.0)
    x, xh = [[[0.0]]], [[[5.0]]]
    assert multi_window_l1(x, xh, doubled) == pytest.approx(
        2 * multi_window_l1(x, xh, base))


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowLossConfig(soft_range=(100.0, 50.0))
    with pytest.raises(ValueError):
        WindowLossConfig(soft_range=(-150.0, 300.0), hard_range=(250.0, 3000.0))
    with pytest.raises(ValueError):
        WindowLossConfig(soft_weight=-1.0)


def test_window_loss_shape_checks():
    with pytest.raises(ValueError):
        multi_window_l1([[[1.0]]], [[[1.0, 2.0]]])
    with pytest.raises(ValueError):
        multi_window_l1([[[np.nan]]], [[[1.0]]])
