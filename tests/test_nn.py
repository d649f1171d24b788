import io
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabc import nn as nn_module
from cabc.nn import (
    MlpParams,
    ParamGrads,
    Tape,
    adam_step,
    backward,
    forward,
    init_mlp,
    init_opt,
    load_weights,
    save_weights,
)

from gradcheck import _central_differences, grad_check


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

    @pytest.mark.parametrize("head", ["identity", "tanh", "sigmoid"])
    def test_untaped_single_input_matches_taped(self, head):
        """An untaped (d,) input runs as a vector and equals a taped (1, d) batch."""
        p = init_mlp((13, 128, 128, 128, 1 if head == "sigmoid" else 2), head=head, seed=4)
        rng = np.random.default_rng(5)
        for x in rng.normal(scale=3.0, size=(20, 13)):
            untaped = forward(p, x)
            taped = forward(p, x[None, :], Tape())
            assert untaped.shape == (p.sizes[-1],) and taped.shape == (1, p.sizes[-1])
            assert np.array_equal(untaped, taped[0])
            assert np.array_equal(untaped, forward(p, x[None, :])[0])

    @pytest.mark.parametrize("shape", [(4,), (), (2, 3, 4)])
    def test_taped_forward_takes_only_a_batch(self, shape):
        p = init_mlp((4, 8, 2), head="tanh", seed=0)
        with pytest.raises(ValueError, match="batch"):
            forward(p, np.ones(shape), Tape())

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
        grads, gx = taped_backward(p, np.ones((1, 4)), np.zeros((1, 3)))
        assert all(np.all(gW == 0) and np.all(gb == 0) for gW, gb in grads)
        assert np.all(gx == 0)

    def test_linear_input_grad_closed_form(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(4, 3))
        p = MlpParams(sizes=(4, 3), weights=((W, np.zeros(3)),), head="identity")
        upstream = rng.normal(size=(1, 3))
        _, gx = taped_backward(p, rng.normal(size=(1, 4)), upstream)
        assert np.allclose(gx, upstream @ W.T)

    def test_batched_param_grads_accumulate(self):
        p = init_mlp((3, 6, 2), head="identity", seed=1)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 3))
        U = rng.normal(size=(5, 2))
        grads_batch, gx_batch = taped_backward(p, X, U)
        acc = [(np.zeros_like(W), np.zeros_like(b)) for W, b in p.weights]
        for x, u in zip(X, U):
            g, gx = taped_backward(p, x[None, :], u[None, :])
            acc = [(aW + gW, ab + gb) for (aW, ab), (gW, gb) in zip(acc, g)]
        for (aW, ab), (bW, bb) in zip(acc, grads_batch):
            assert np.allclose(aW, bW) and np.allclose(ab, bb)
        assert gx_batch.shape == X.shape

    @pytest.mark.parametrize("head", ["identity", "tanh", "sigmoid"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_input_only_backward_matches_full(self, head, batched):
        p = init_mlp((5, 16, 16, 1 if head == "sigmoid" else 3), head=head, seed=7)
        rng = np.random.default_rng(8)
        batch = 6 if batched else 1
        x = rng.normal(size=(batch, 5))
        upstream = rng.normal(size=(batch, p.sizes[-1]))
        grads, gx_full = taped_backward(p, x, upstream)
        none, gx_frozen = taped_backward(p, x, upstream, param_grads=False)
        assert grads is not None and none is None
        assert gx_frozen.shape == gx_full.shape
        assert np.array_equal(gx_frozen, gx_full)

    @pytest.mark.parametrize("width", [1, 64, 128])
    @pytest.mark.parametrize("param_grads", [True, False])
    def test_one_output_input_grad_matches_matmul(self, width, param_grads):
        """A one-output network's input gradient equals a ``g @ W.T`` chain bit for bit."""
        p = init_mlp((7, width, width, 1), head="sigmoid", seed=width)
        rng = np.random.default_rng(width)
        x = rng.normal(size=(256, 7))
        upstream = rng.normal(size=(256, 1))
        _, gx = taped_backward(p, x, upstream, param_grads=param_grads)
        # the reference chain, every layer through a matmul
        tape = Tape()
        out = forward(p, x, tape)
        g = upstream * out * (1.0 - out)
        for i in range(len(p.weights) - 1, -1, -1):
            g = g @ p.weights[i][0].T
            if i > 0:
                g = g * (1.0 - tape.acts[i] * tape.acts[i])
        assert np.array_equal(gx, g)

    @pytest.mark.parametrize("sizes,head", [
        ((3, 5, 4, 2), "tanh"),
        ((4, 6, 3), "identity"),
        ((5, 7, 1), "sigmoid"),
    ])
    def test_batched_differences_match_per_entry(self, sizes, head):
        """Layer-batched central differences equal perturbing one entry at a time."""
        p = init_mlp(sizes, head=head, seed=2)
        rng = np.random.default_rng(1)
        x, c, h = rng.normal(size=sizes[0]), rng.normal(size=sizes[-1]), 1e-5

        def scalar(params, xv):
            return float(c @ forward(params, xv))

        theta = p.flat.copy()
        q = p.with_flat(theta)
        per_entry = []
        for j in range(len(theta)):
            theta[j] = p.flat[j] + h
            f_plus = scalar(q, x)
            theta[j] = p.flat[j] - h
            f_minus = scalar(q, x)
            theta[j] = p.flat[j]
            per_entry.append((f_plus - f_minus) / (2 * h))
        for j in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            per_entry.append((scalar(p, xp) - scalar(p, xm)) / (2 * h))
        # a chunk smaller than one layer exercises the chunk boundaries
        batched = _central_differences(p, x, c, h, chunk=7)
        assert batched.shape == (len(per_entry),)
        assert np.max(np.abs(batched - np.array(per_entry))) < 1e-9

    def test_grad_check_catches_a_wrong_gradient(self, monkeypatch):
        p = init_mlp((3, 4, 2), head="tanh", seed=0)
        x = np.random.default_rng(0).normal(size=3)
        assert grad_check(p, x).passed
        real = nn_module.backward

        def off_by_one_entry(*args, **kw):
            grads, gx = real(*args, **kw)
            grads.flat[5] += 1e-2
            return grads, gx

        monkeypatch.setattr(nn_module, "backward", off_by_one_entry)
        report = grad_check(p, x)
        assert not report.passed and report.n_checked == p.flat.size + 3

    def test_grad_check_catches_a_drifted_forward(self, monkeypatch):
        """A forward that leaves the math fails the check, even though the
        parameter differences never call it and its input differences cancel
        a constant shift."""
        p = init_mlp((3, 4, 2), head="tanh", seed=0)
        x = np.random.default_rng(0).normal(size=3)
        real = nn_module.forward

        def shifted(*args, **kw):
            return real(*args, **kw) + 1e-3

        monkeypatch.setattr(nn_module, "forward", shifted)
        report = grad_check(p, x)
        assert report.max_rel_err <= 1e-4 and not report.passed

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


class TestTapeReuse:
    """A tape passed again reuses its buffers; results equal a fresh tape's."""

    @staticmethod
    def fresh(p, x, upstream, param_grads=True):
        tape = Tape()
        out = forward(p, x, tape)
        grads, gx = backward(p, tape, upstream, param_grads=param_grads)
        return out, grads, gx

    @staticmethod
    def assert_same(a, b):
        (out_a, grads_a, gx_a), (out_b, grads_b, gx_b) = a, b
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(gx_a, gx_b)
        if grads_b is None:
            assert grads_a is None
        else:
            assert np.array_equal(grads_a.flat, grads_b.flat)
            for (Wa, ba), (Wb, bb) in zip(grads_a, grads_b):
                assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    @pytest.mark.parametrize("sizes,head", [
        ((6, 32, 32, 32, 2), "tanh"),
        ((9, 32, 32, 6), "identity"),
        ((7, 32, 1), "sigmoid"),
        ((3, 2), "identity"),
    ])
    def test_reused_tape_matches_fresh(self, sizes, head):
        p = init_mlp(sizes, head=head, seed=4)
        rng = np.random.default_rng(5)
        tape = Tape()
        # alternating inputs at one batch, then batch-size changes (new
        # buffers), a one-row batch among them, and back to the first batch
        for batch in (16, 16, 16, 9, 1, 16):
            x = rng.normal(size=(batch, sizes[0]))
            upstream = rng.normal(size=(batch, sizes[-1]))
            for param_grads in (True, False):
                out = forward(p, x, tape).copy()
                grads, gx = backward(p, tape, upstream, param_grads=param_grads)
                self.assert_same((out, grads, gx), self.fresh(p, x, upstream, param_grads))

    def test_input_only_backward_allocates_no_gradient_vector(self):
        p = init_mlp((4, 8, 2), head="tanh", seed=0)
        tape = Tape()
        forward(p, np.ones((3, 4)), tape)
        assert backward(p, tape, np.ones((3, 2)), param_grads=False)[0] is None
        assert tape._grads is None


def reference_adam_step(weights, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-layer Adam update, one temporary per expression."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_w, new_m, new_v = [], [], []
    for (W, b), (gW, gb), (mW, mb), (vW, vb) in zip(weights, grads, m, v):
        mW2 = b1 * mW + (1 - b1) * gW
        mb2 = b1 * mb + (1 - b1) * gb
        vW2 = b2 * vW + (1 - b2) * gW * gW
        vb2 = b2 * vb + (1 - b2) * gb * gb
        W2 = W - lr * (mW2 / c1) / (np.sqrt(vW2 / c2) + eps)
        b2_ = b - lr * (mb2 / c1) / (np.sqrt(vb2 / c2) + eps)
        new_w.append((W2, b2_))
        new_m.append((mW2, mb2))
        new_v.append((vW2, vb2))
    return new_w, new_m, new_v


class TestAdam:
    def test_flat_step_matches_per_layer_reference(self):
        p = init_mlp((5, 32, 32, 3), head="tanh", seed=6)
        opt = init_opt(p, lr=3e-3)
        ref_w = [(W.copy(), b.copy()) for W, b in p.weights]
        ref_m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in p.weights]
        ref_v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in p.weights]
        rng = np.random.default_rng(7)
        tape = Tape()
        for t in range(1, 6):
            forward(p, rng.normal(size=(8, 5)), tape)
            grads, _ = backward(p, tape, rng.normal(size=(8, 3)))
            ref_w, ref_m, ref_v = reference_adam_step(ref_w, grads, ref_m, ref_v, t, 3e-3)
            p, opt = adam_step(p, grads, opt)
            assert opt.t == t
            for (W, b), (rW, rb) in zip(p.weights, ref_w):
                assert np.array_equal(W, rW) and np.array_equal(b, rb)
            flat_m = np.concatenate([a.ravel() for pair in ref_m for a in pair])
            flat_v = np.concatenate([a.ravel() for pair in ref_v for a in pair])
            assert np.array_equal(opt.m, flat_m) and np.array_equal(opt.v, flat_v)

    def test_step_leaves_its_input_params_unchanged(self):
        p = init_mlp((4, 16, 2), head="tanh", seed=8)
        before = p.flat.copy()
        snapshot = [(W.copy(), b.copy()) for W, b in p.weights]
        opt = init_opt(p, lr=0.1)
        grads = ParamGrads(np.ones_like(p.flat), p.sizes)
        for _ in range(3):
            p2, opt = adam_step(p, grads, opt)
        assert np.array_equal(p.flat, before)
        for (W, b), (sW, sb) in zip(p.weights, snapshot):
            assert np.array_equal(W, sW) and np.array_equal(b, sb)
        assert not np.shares_memory(p2.flat, p.flat)
        assert not np.array_equal(p2.flat, before)


    def test_zero_grads_leave_params_unchanged(self):
        p = init_mlp((2, 4, 1), seed=0)
        opt = init_opt(p, lr=0.1)
        zeros = ParamGrads(np.zeros_like(p.flat), p.sizes)
        p2, opt2 = adam_step(p, zeros, opt)
        for (W, b), (W2, b2) in zip(p.weights, p2.weights):
            assert np.all(W == W2) and np.all(b == b2)
        assert opt2.t == 1

    def test_first_step_moves_by_lr_sign(self):
        W = (np.zeros((1, 1)), np.zeros(1))
        p = MlpParams(sizes=(1, 1), weights=(W,), head="identity")
        opt = init_opt(p, lr=0.01)
        grads = ParamGrads(np.array([3.7, -0.2]), p.sizes)  # (dW, db)
        p2, _ = adam_step(p, grads, opt)
        assert p2.weights[0][0][0, 0] == pytest.approx(-0.01, rel=1e-6)
        assert p2.weights[0][1][0] == pytest.approx(0.01, rel=1e-6)

    def test_scalar_quadratic_converges(self):
        p = MlpParams(sizes=(1, 1), weights=((np.zeros((1, 1)), np.zeros(1)),),
                      head="identity")
        opt = init_opt(p, lr=0.1)
        x = np.array([[1.0]])
        for _ in range(200):
            tape = Tape()
            out = forward(p, x, tape)
            grads, _ = backward(p, tape, 2.0 * (out - 3.0))
            p, opt = adam_step(p, grads, opt)
        assert abs(forward(p, x)[0, 0] - 3.0) < 0.05


class TestDeterminismAndIO:
    def test_seeded_init_is_reproducible(self):
        a = init_mlp((5, 16, 2), head="tanh", seed=9)
        b = init_mlp((5, 16, 2), head="tanh", seed=9)
        for (Wa, ba), (Wb, bb) in zip(a.weights, b.weights):
            assert np.all(Wa == Wb) and np.all(ba == bb)

    def test_save_load_round_trip(self, tmp_path):
        p = init_mlp((4, 10, 1), head="sigmoid", seed=11)
        path = tmp_path / "w.npz"
        save_weights(p, path)
        q = load_weights(path)
        assert q.sizes == p.sizes and q.head == p.head
        for (Wa, ba), (Wb, bb) in zip(p.weights, q.weights):
            assert np.all(Wa == Wb) and np.all(ba == bb)
        # the exact bytes of the layout: stored .npy members in a fixed order,
        # each with zip's default 1980 timestamp
        expected = io.BytesIO()
        with zipfile.ZipFile(expected, "w") as zf:
            for name, value in (("flat", p.flat), ("sizes", np.array([4, 10, 1])),
                                ("head", np.array("sigmoid")), ("seed", np.array(11))):
                with zf.open(zipfile.ZipInfo(name + ".npy"), "w") as fh:
                    np.lib.format.write_array(fh, value, allow_pickle=False)
        assert path.read_bytes() == expected.getvalue()

    def test_round_trip_is_bit_exact(self, tmp_path):
        p = init_mlp((3, 4, 2), head="tanh", seed=2)
        flat = p.flat.copy()
        flat[:6] = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.nextafter(1.0, 2.0)]
        p = p.with_flat(flat)
        save_weights(p, tmp_path / "w.npz")
        q = load_weights(tmp_path / "w.npz")
        assert q.flat.dtype == np.float64
        assert q.flat.tobytes() == p.flat.tobytes()   # keeps the sign of -0.0
        assert (q.sizes, q.head, q.seed) == (p.sizes, p.head, 2)

    def test_saves_are_byte_identical(self, tmp_path, monkeypatch):
        # the clock must not reach the file, as it does through np.savez
        p = init_mlp((5, 8, 2), head="tanh", seed=4)
        for stamp, name in ((0.0, "a.npz"), (1.6e9, "b.npz")):
            monkeypatch.setattr(time, "time", lambda: stamp)
            save_weights(p, tmp_path / name)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_members_load_without_pickle(self, tmp_path):
        p = init_mlp((5, 8, 2), head="identity", seed=7)
        save_weights(p, tmp_path / "w.npz")
        with np.load(tmp_path / "w.npz", allow_pickle=False) as data:
            assert sorted(data.files) == ["flat", "head", "seed", "sizes"]
            assert data["flat"].dtype == np.float64
            assert np.array_equal(data["flat"], p.flat)
            assert data["sizes"].tolist() == [5, 8, 2]
            assert data["head"].item() == "identity"
            assert int(data["seed"]) == 7

    def test_load_rejects_bad_flat(self, tmp_path):
        p = init_mlp((3, 4, 2), seed=1)
        meta = dict(sizes=np.array(p.sizes), head=np.array("identity"), seed=np.array(1))
        nan = p.flat.copy()
        nan[5] = np.nan
        inf = p.flat.copy()
        inf[-1] = -np.inf
        for flat in (p.flat[:-1], np.r_[p.flat, 0.0], p.flat.reshape(2, -1), nan, inf):
            np.savez(tmp_path / "bad.npz", flat=flat, **meta)
            with pytest.raises(ValueError):
                load_weights(tmp_path / "bad.npz")
        # a zero width, whose flat has the shape the sizes call for, is
        # reported as a bad width rather than as a bad flat
        np.savez(tmp_path / "bad.npz", flat=np.zeros(2), **{**meta, "sizes": np.array([3, 0, 2])})
        with pytest.raises(ValueError, match="each >= 1"):
            load_weights(tmp_path / "bad.npz")
        np.savez(tmp_path / "ok.npz", flat=p.flat, **meta)
        assert np.array_equal(load_weights(tmp_path / "ok.npz").flat, p.flat)

    def test_archive_with_an_activation_member_loads(self, tmp_path):
        # archives written while every network stored its hidden "tanh"
        p = init_mlp((3, 4, 2), head="sigmoid", seed=3)
        np.savez(tmp_path / "old.npz", flat=p.flat, sizes=np.array(p.sizes),
                 head=np.array("sigmoid"), activation=np.array("tanh"), seed=np.array(3))
        q = load_weights(tmp_path / "old.npz")
        assert (q.sizes, q.head, q.seed) == (p.sizes, p.head, 3)
        assert q.flat.tobytes() == p.flat.tobytes()

    def test_load_rejects_json_weights(self, tmp_path):
        # the text format weights had before .npz
        path = tmp_path / "policy.json"
        path.write_text('{"sizes": [1, 1], "activation": "tanh", "head": "identity", '
                        '"layers": [{"W": [[0.5]], "b": [0.0]}], "seed": 0}')
        with pytest.raises(ValueError, match="not an .npz weight archive"):
            load_weights(path)

    def test_params_copy_their_source_arrays(self):
        W, b = np.ones((2, 3)), np.zeros(3)
        p = MlpParams(sizes=(2, 3), weights=((W, b),))
        W[0, 0] = 5.0
        b[1] = -1.0
        assert np.all(p.weights[0][0] == 1.0) and np.all(p.weights[0][1] == 0.0)
        assert np.array_equal(p.flat, np.r_[np.ones(6), np.zeros(3)])
        assert np.shares_memory(p.weights[0][0], p.flat)

    def test_non_finite_values_are_rejected_by_layer(self):
        p = init_mlp((3, 4, 4, 2), seed=2)
        for bad in (np.nan, np.inf, -np.inf):
            for layer, index in ((0, 5), (1, 23), (2, p.flat.size - 1)):
                flat = p.flat.copy()
                flat[index] = bad
                with pytest.raises(ValueError, match=f"layer {layer} has non-finite"):
                    p.with_flat(flat)
        # +inf and -inf together are caught at the first of them
        flat = p.flat.copy()
        flat[[1, 30]] = np.inf, -np.inf
        with pytest.raises(ValueError, match="layer 0 has non-finite"):
            p.with_flat(flat)

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        p = MlpParams(sizes=(1, 2), weights=((np.array([[1e308, 1e308]]), np.zeros(2)),))
        assert np.array_equal(p.flat, [1e308, 1e308, 0.0, 0.0])
        assert p.with_flat(-p.flat).flat[1] == -1e308

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpParams(sizes=(2, 3), weights=((np.zeros((2, 4)), np.zeros(4)),))
        with pytest.raises(ValueError):
            MlpParams(sizes=(2, 3), weights=((np.full((2, 3), np.nan), np.zeros(3)),))
        with pytest.raises(ValueError):
            init_mlp((2, 2), head="relu")
