import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabc.nn import (
    MlpParams,
    Tape,
    adam_step,
    backward,
    forward,
    grad_check,
    init_mlp,
    init_opt,
    load_weights,
    save_weights,
)


def taped_backward(p, x, upstream, **kw):
    tape = Tape()
    forward(p, x, tape)
    return backward(p, tape, upstream, **kw)


def zero_net(sizes, head="identity"):
    weights = tuple((np.zeros((a, b)), np.zeros(b)) for a, b in zip(sizes[:-1], sizes[1:]))
    return MlpParams(sizes=tuple(sizes), weights=weights, head=head)


class TestForward:
    def test_zero_weights_identity_head(self):
        p = zero_net((4, 8, 2))
        assert np.all(forward(p, np.ones(4)) == 0.0)

    def test_zero_weights_sigmoid_head(self):
        p = zero_net((4, 8, 1), head="sigmoid")
        assert forward(p, np.ones(4))[0] == pytest.approx(0.5)

    def test_single_linear_layer(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        p = MlpParams(sizes=(3, 2), weights=((W, b),), head="identity")
        x = rng.normal(size=3)
        assert np.allclose(forward(p, x), x @ W + b)

    def test_batch_matches_single(self):
        p = init_mlp((5, 16, 3), head="tanh", seed=2)
        X = np.random.default_rng(1).normal(size=(7, 5))
        batched = forward(p, X)
        assert np.allclose(batched, np.array([forward(p, x) for x in X]))

    def test_bounded_head_range(self):
        p = init_mlp((3, 8, 2), head="tanh", seed=0)
        out = forward(p, 100.0 * np.ones(3))
        assert np.all(np.abs(out) < 1.0)

    def test_probability_head_never_saturates_exactly(self):
        W = (np.full((1, 1), 1e6), np.zeros(1))
        p = MlpParams(sizes=(1, 1), weights=(W,), head="sigmoid")
        hi = forward(p, np.array([1.0]))[0]
        lo = forward(p, np.array([-1.0]))[0]
        assert 0.0 < lo < hi < 1.0
        assert np.isfinite(-np.log(hi)) and np.isfinite(-np.log(1.0 - hi))
        assert np.isfinite(-np.log(lo))


class TestBackward:
    @pytest.mark.parametrize("sizes,head", [
        ((6, 128, 128, 128, 2), "tanh"),
        ((8, 64, 2), "identity"),
        ((6, 32, 1), "sigmoid"),
    ])
    def test_grad_check_required_shapes(self, sizes, head):
        p = init_mlp(sizes, head=head, seed=3)
        x = np.random.default_rng(4).normal(size=sizes[0])
        report = grad_check(p, x, tol=1e-4)
        assert report.passed, report

    def test_zero_upstream_gives_zero_grads(self):
        p = init_mlp((4, 8, 3), head="tanh", seed=0)
        grads, gx = taped_backward(p, np.ones(4), np.zeros(3))
        assert all(np.all(gW == 0) and np.all(gb == 0) for gW, gb in grads)
        assert np.all(gx == 0)

    def test_linear_input_grad_closed_form(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(4, 3))
        p = MlpParams(sizes=(4, 3), weights=((W, np.zeros(3)),), head="identity")
        upstream = rng.normal(size=3)
        _, gx = taped_backward(p, rng.normal(size=4), upstream)
        assert np.allclose(gx, W @ upstream)

    def test_batched_param_grads_accumulate(self):
        p = init_mlp((3, 6, 2), head="identity", seed=1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 3))
        U = rng.normal(size=(5, 2))
        grads_batch, gx_batch = taped_backward(p, X, U)
        acc = [(np.zeros_like(W), np.zeros_like(b)) for W, b in p.weights]
        for x, u in zip(X, U):
            g, gx = taped_backward(p, x, u)
            acc = [(aW + gW, ab + gb) for (aW, ab), (gW, gb) in zip(acc, g)]
        for (aW, ab), (bW, bb) in zip(acc, grads_batch):
            assert np.allclose(aW, bW) and np.allclose(ab, bb)
        assert gx_batch.shape == X.shape

    @pytest.mark.parametrize("head", ["identity", "tanh", "sigmoid"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_input_only_backward_matches_full(self, head, batched):
        p = init_mlp((5, 16, 16, 1 if head == "sigmoid" else 3), head=head, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 5) if batched else 5)
        upstream = rng.normal(size=(6, p.n_out) if batched else p.n_out)
        grads, gx_full = taped_backward(p, x, upstream)
        none, gx_frozen = taped_backward(p, x, upstream, param_grads=False)
        assert grads is not None and none is None
        assert gx_frozen.shape == gx_full.shape
        assert np.array_equal(gx_frozen, gx_full)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_grad_check_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(1, 3))
        sizes = (int(rng.integers(2, 6)),) + tuple(
            int(rng.integers(2, 12)) for _ in range(depth)) + (int(rng.integers(1, 4)),)
        head = ["identity", "tanh", "sigmoid"][seed % 3]
        if head == "sigmoid":
            sizes = sizes[:-1] + (1,)
        p = init_mlp(sizes, head=head, seed=seed)
        x = rng.normal(size=sizes[0])
        assert grad_check(p, x, tol=1e-4, seed=seed).passed


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = init_mlp((2, 4, 1), seed=0)
        opt = init_opt(p, lr=0.1)
        zeros = [(np.zeros_like(W), np.zeros_like(b)) for W, b in p.weights]
        p2, opt2 = adam_step(p, zeros, opt)
        for (W, b), (W2, b2) in zip(p.weights, p2.weights):
            assert np.all(W == W2) and np.all(b == b2)
        assert opt2.t == 1

    def test_first_step_moves_by_lr_sign(self):
        W = (np.zeros((1, 1)), np.zeros(1))
        p = MlpParams(sizes=(1, 1), weights=(W,), head="identity")
        opt = init_opt(p, lr=0.01)
        grads = [(np.full((1, 1), 3.7), np.array([-0.2]))]
        p2, _ = adam_step(p, grads, opt)
        assert p2.weights[0][0][0, 0] == pytest.approx(-0.01, rel=1e-6)
        assert p2.weights[0][1][0] == pytest.approx(0.01, rel=1e-6)

    def test_scalar_quadratic_converges(self):
        p = MlpParams(sizes=(1, 1), weights=((np.zeros((1, 1)), np.zeros(1)),),
                      head="identity")
        opt = init_opt(p, lr=0.1)
        x = np.array([1.0])
        for _ in range(200):
            tape = Tape()
            out = forward(p, x, tape)
            grads, _ = backward(p, tape, 2.0 * (out - 3.0))
            p, opt = adam_step(p, grads, opt)
        assert abs(forward(p, x)[0] - 3.0) < 0.05


class TestDeterminismAndIO:
    def test_seeded_init_is_reproducible(self):
        a = init_mlp((5, 16, 2), head="tanh", seed=9)
        b = init_mlp((5, 16, 2), head="tanh", seed=9)
        for (Wa, ba), (Wb, bb) in zip(a.weights, b.weights):
            assert np.all(Wa == Wb) and np.all(ba == bb)

    def test_save_load_round_trip(self, tmp_path):
        p = init_mlp((4, 10, 1), head="sigmoid", seed=11)
        path = tmp_path / "w.json"
        save_weights(p, path)
        q = load_weights(path)
        assert q.sizes == p.sizes and q.head == p.head and q.activation == p.activation
        for (Wa, ba), (Wb, bb) in zip(p.weights, q.weights):
            assert np.all(Wa == Wb) and np.all(ba == bb)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpParams(sizes=(2, 3), weights=((np.zeros((2, 4)), np.zeros(4)),))
        with pytest.raises(ValueError):
            MlpParams(sizes=(2, 3), weights=((np.full((2, 3), np.nan), np.zeros(3)),))
        with pytest.raises(ValueError):
            init_mlp((2, 2), head="relu")
