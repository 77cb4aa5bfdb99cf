import numpy as np
import pytest

from hadaseg.errors import ShapeError
from hadaseg.netkit.optim import adam_init, adam_step


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = adam_init(params)
        before = params["w"].copy()
        for _ in range(5):
            adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)
        assert np.array_equal(params["w"], before)

    def test_descends_on_quadratic(self):
        params = {"x": np.array([1.0])}
        state = adam_init(params)
        adam_step(params, {"x": 2.0 * params["x"]}, state, lr=0.1)
        assert params["x"][0] < 1.0

    def test_converges_on_two_parameter_quadratic(self):
        # f(a, b) = (a - 3)^2 + 2 (b + 1)^2, optimum at (3, -1).
        params = {"theta": np.array([0.0, 0.0])}
        state = adam_init(params)
        optimum = np.array([3.0, -1.0])
        for _ in range(200):
            a, b = params["theta"]
            grads = {"theta": np.array([2.0 * (a - 3.0), 4.0 * (b + 1.0)])}
            adam_step(params, grads, state, lr=0.1, beta1=0.9, beta2=0.999)
        assert np.abs(params["theta"] - optimum).max() < 1e-3

    def test_bias_correction_first_step_magnitude(self):
        # With bias correction the first update is ~lr regardless of scale.
        for scale in (1e-3, 1.0, 1e3):
            params = {"x": np.array([0.0])}
            state = adam_init(params)
            adam_step(params, {"x": np.array([scale])}, state, lr=0.01)
            assert np.isclose(abs(params["x"][0]), 0.01, rtol=1e-4)

    def test_state_counts_steps(self):
        params = {"x": np.zeros(2)}
        state = adam_init(params)
        for expected in range(1, 4):
            adam_step(params, {"x": np.ones(2)}, state)
            assert state.t == expected

    def test_shape_mismatch(self):
        params = {"x": np.zeros(2)}
        state = adam_init(params)
        with pytest.raises(ShapeError):
            adam_step(params, {"x": np.zeros(3)}, state)

    def test_one_flat_update_equals_per_parameter_updates(self):
        # Adam is elementwise, so one update over the Parameters laid end to
        # end gives each Parameter's bytes, and its moments', at every step.
        rng = np.random.default_rng(11)
        shapes = {"enc0.w": (3, 3, 3, 4), "enc0.b": (4,), "dec2.w": (3, 3, 8, 2), "out.b": (2,)}
        params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        flat = {"all": np.concatenate([p.reshape(-1) for p in params.values()])}
        state, flat_state = adam_init(params), adam_init(flat)
        for _ in range(4):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            grads["enc0.b"][0] = 0.0
            adam_step(params, grads, state, lr=0.1, beta1=0.5, beta2=0.999)
            flat_grad = np.concatenate([g.reshape(-1) for g in grads.values()])
            adam_step(flat, {"all": flat_grad}, flat_state, lr=0.1, beta1=0.5, beta2=0.999)
            pairs = [(params, flat), (state.m, flat_state.m), (state.v, flat_state.v)]
            for looped, whole in pairs:
                joined = np.concatenate([a.reshape(-1) for a in looped.values()])
                assert joined.tobytes() == whole["all"].tobytes()
        assert state.t == flat_state.t == 4
