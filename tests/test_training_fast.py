"""Training fast-path parity: fused kernels, in-place Adam, minibatch pipeline.

The fast path's contract is *bit-identical* training against the frozen
pre-optimization stack in :mod:`oracles.nn`.  These tests pin that
contract at every level: fused forward/backward vs the unfused layers and
vs finite differences, the in-place optimizers vs their allocating
originals, parameter packing, the shared minibatch iterator's RNG stream,
and finally end-to-end VAE training.
"""

import numpy as np
import pytest

from repro.nn import ACTIVATIONS, Activation, Adam, Dense, SGD, mlp
from repro.nn.fused import FusedDenseActivation, fuse, pack_parameters
from repro.nn.gradcheck import max_relative_error, numerical_gradient
from repro.nn.minibatch import MinibatchIterator

from oracles.nn import ReferenceAdam, ReferenceVAETrainer, reference_mlp


def _fused_pair(act_name, rng, in_f=5, out_f=4):
    dense = Dense(in_f, out_f, seed=3)
    activation = Activation(act_name) if act_name != "linear" else None
    fused = FusedDenseActivation(dense, activation)
    x = rng.standard_normal((6, in_f))
    return dense, activation, fused, x


class TestFusedDenseActivation:
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_forward_bit_identical_to_unfused(self, name, rng):
        dense, activation, fused, x = _fused_pair(name, rng)
        expected = dense.forward(x)
        if activation is not None:
            expected = activation.forward(expected)
        got = fused.forward(x)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_backward_bit_identical_to_unfused(self, name, rng):
        dense, activation, fused, x = _fused_pair(name, rng)
        dout = rng.standard_normal((6, dense.out_features))

        # Unfused pass on an independent clone (fused shares dense's arrays).
        ref_dense = Dense(dense.in_features, dense.out_features, seed=3)
        ref_act = Activation(name) if activation is not None else None
        h = ref_dense.forward(x)
        if ref_act is not None:
            h = ref_act.forward(h)
        d = dout if ref_act is None else ref_act.backward(dout)
        ref_dx = ref_dense.backward(d)

        fused.forward(x)
        dx = fused.backward(dout)
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(fused.grads["W"], ref_dense.grads["W"])
        np.testing.assert_array_equal(fused.grads["b"], ref_dense.grads["b"])

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_gradient_check(self, name, rng):
        dense, _, fused, x = _fused_pair(name, rng)

        def loss():
            return float(fused.forward(x).sum())

        fused.forward(x)
        dense.zero_grads()
        dx = fused.backward(np.ones((6, dense.out_features)))
        for pname in ("W", "b"):
            num = numerical_gradient(loss, dense.params[pname])
            assert max_relative_error(fused.grads[pname], num) < 1e-5, pname
        num_x = numerical_gradient(loss, x)
        assert max_relative_error(dx, num_x) < 1e-5

    def test_grads_accumulate(self, rng):
        dense, _, fused, x = _fused_pair("relu", rng)
        fused.forward(x)
        fused.backward(np.ones((6, 4)))
        g1 = dense.grads["W"].copy()
        fused.forward(x)
        fused.backward(np.ones((6, 4)))
        np.testing.assert_array_equal(dense.grads["W"], 2 * g1)

    def test_params_shared_with_wrapped_dense(self, rng):
        dense, _, fused, x = _fused_pair("tanh", rng)
        assert fused.params["W"] is dense.params["W"]
        y1 = fused.forward(x).copy()
        dense.params["W"][...] += 1.0  # mutate through the dense view
        y2 = fused.forward(x)
        assert not np.array_equal(y1, y2)

    def test_sigmoid_stable_at_extremes(self):
        dense = Dense(2, 2, seed=0)
        dense.params["W"][...] = np.eye(2) * 1000.0
        dense.params["b"][...] = 0.0
        fused = FusedDenseActivation(dense, Activation("sigmoid"))
        out = fused.forward(np.array([[-1.0, 1.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_backward_before_forward(self):
        fused = FusedDenseActivation(Dense(2, 2, seed=0), None)
        with pytest.raises(RuntimeError):
            fused.backward(np.ones((1, 2)))

    def test_wrong_width_rejected(self):
        fused = FusedDenseActivation(Dense(3, 2, seed=0), None)
        with pytest.raises(ValueError, match="inputs"):
            fused.forward(np.ones((1, 4)))


class TestFuse:
    def test_full_network_bit_identical(self, rng):
        net = mlp([4, 6, 3], hidden_activation="relu", output_activation="sigmoid", seed=5)
        ref = mlp([4, 6, 3], hidden_activation="relu", output_activation="sigmoid", seed=5)
        fused = fuse(net)
        x = rng.random((7, 4))
        dout = rng.standard_normal((7, 3))

        np.testing.assert_array_equal(fused.forward(x), ref.forward(x))
        ref.zero_grads()
        net.zero_grads()
        ref_dx = ref.backward(dout)
        dx = fused.backward(dout)
        np.testing.assert_array_equal(dx, ref_dx)
        for name, g in net.named_grads().items():
            np.testing.assert_array_equal(g, ref.named_grads()[name], err_msg=name)

    def test_varying_batch_size_reuses_buffers(self, rng):
        net = mlp([3, 4, 2], seed=1)
        fused = fuse(net)
        for n in (5, 2, 5):  # revisit a size: buffers must not hold stale data
            x = rng.random((n, 3))
            np.testing.assert_array_equal(fused.forward(x), net.forward(x))


class TestPackParameters:
    def test_values_and_views_preserved(self):
        net = mlp([3, 5, 2], seed=4)
        before = {k: v.copy() for k, v in net.named_params().items()}
        flat_p, flat_g = pack_parameters(net.layers)
        assert flat_p.size == net.n_parameters
        for name, value in net.named_params().items():
            np.testing.assert_array_equal(value, before[name])
            assert value.base is flat_p  # rebound as a view into the flat vector
        flat_p += 1.0
        for name, value in net.named_params().items():
            np.testing.assert_array_equal(value, before[name] + 1.0)
        flat_g[...] = 0.5
        for g in net.named_grads().values():
            np.testing.assert_array_equal(g, 0.5)

    def test_packed_adam_step_bit_identical(self, rng):
        """One Adam step on the flat vector == per-parameter reference steps."""
        packed = mlp([4, 6, 2], seed=9)
        plain = mlp([4, 6, 2], seed=9)
        flat_p, flat_g = pack_parameters(packed.layers)

        x = rng.random((5, 4))
        for net in (packed, plain):
            net.zero_grads()
            net.backward(np.ones_like(net.forward(x)))

        Adam(learning_rate=1e-3).step({"theta": flat_p}, {"theta": flat_g})
        ReferenceAdam(learning_rate=1e-3).step(plain.named_params(), plain.named_grads())
        for name, p in packed.named_params().items():
            np.testing.assert_array_equal(p, plain.named_params()[name], err_msg=name)


class TestInPlaceOptimizers:
    def _grad_stream(self, shapes, steps, seed=0):
        rng = np.random.default_rng(seed)
        return [
            {k: rng.standard_normal(s) for k, s in shapes.items()} for _ in range(steps)
        ]

    def test_adam_bit_identical_to_reference(self):
        shapes = {"W": (4, 3), "b": (3,)}
        fast_p = {k: np.zeros(s) for k, s in shapes.items()}
        ref_p = {k: np.zeros(s) for k, s in shapes.items()}
        fast, ref = Adam(learning_rate=3e-3), ReferenceAdam(learning_rate=3e-3)
        for grads in self._grad_stream(shapes, steps=25):
            fast.step(fast_p, grads)
            ref.step(ref_p, {k: v.copy() for k, v in grads.items()})
            for k in shapes:
                np.testing.assert_array_equal(fast_p[k], ref_p[k], err_msg=k)

    def test_sgd_updates_in_place(self):
        p = np.ones(3)
        params = {"p": p}
        SGD(learning_rate=0.1).step(params, {"p": np.ones(3)})
        assert params["p"] is p
        np.testing.assert_allclose(p, 0.9)

    def test_adam_step_does_not_mutate_grads(self):
        params = {"p": np.zeros(4)}
        grads = {"p": np.arange(4.0)}
        kept = grads["p"].copy()
        Adam(learning_rate=1e-2).step(params, grads)
        np.testing.assert_array_equal(grads["p"], kept)


class TestMinibatchIterator:
    def _legacy_batches(self, x, batch_size, rng, shuffle, epochs):
        out = []
        n = x.shape[0]
        for _ in range(epochs):
            idx = rng.permutation(n) if shuffle else np.arange(n)
            out.append([
                x[idx[start : start + batch_size]].copy()
                for start in range(0, n, batch_size)
            ])
        return out

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("batch_size", [1, 4, 7, 20])
    def test_batches_match_legacy_loop(self, shuffle, batch_size):
        x = np.random.default_rng(2).random((17, 3))
        legacy = self._legacy_batches(
            x, batch_size, np.random.default_rng(77), shuffle, epochs=3
        )
        it = MinibatchIterator(
            x, batch_size, rng=np.random.default_rng(77), shuffle=shuffle
        )
        for epoch_batches in legacy:
            got = list(it.epoch())
            assert len(got) == len(epoch_batches) == it.n_batches
            for g, e in zip(got, epoch_batches):
                np.testing.assert_array_equal(g, e)

    def test_unshuffled_batches_are_views(self):
        x = np.random.default_rng(0).random((8, 2))
        it = MinibatchIterator(x, 3, rng=np.random.default_rng(0), shuffle=False)
        first = next(iter(it.epoch()))
        assert first.base is x

    def test_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="2-D"):
            MinibatchIterator(np.zeros(4), 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="batch_size"):
            MinibatchIterator(x, 0, rng=np.random.default_rng(0))


class TestVAEDeterminismRegression:
    """End-to-end pin: the fast VAE trainer == the frozen reference trainer."""

    def _data(self, n=48, d=12):
        rng = np.random.default_rng(6)
        return rng.random((n, d)), rng.random((16, d))

    def _pair(self, **kw):
        from repro.core.vae import VAE

        fast = VAE(12, hidden_dims=(10, 6), latent_dim=3, seed=21, **kw)
        ref = ReferenceVAETrainer(12, hidden_dims=(10, 6), latent_dim=3, seed=21, **kw)
        return fast, ref

    def _assert_identical(self, fast, ref, fast_hist, ref_hist):
        ref_params = ref.named_params()
        for name, p in fast.named_params().items():
            np.testing.assert_array_equal(p, ref_params[name], err_msg=name)
        assert fast_hist.loss == ref_hist.loss
        assert fast_hist.reconstruction == ref_hist.reconstruction
        assert fast_hist.kl == ref_hist.kl
        assert fast_hist.val_reconstruction == ref_hist.val_reconstruction

    def test_fit_bit_identical(self):
        x, _ = self._data()
        fast, ref = self._pair()
        fast_hist = fast.fit(x, epochs=6, batch_size=16, learning_rate=1e-3)
        ref_hist = ref.fit(x, epochs=6, batch_size=16, learning_rate=1e-3)
        self._assert_identical(fast, ref, fast_hist, ref_hist)

    def test_fit_with_validation_and_patience_bit_identical(self):
        x, val = self._data()
        fast, ref = self._pair()
        kw = dict(
            epochs=10, batch_size=16, learning_rate=1e-3,
            validation_data=val, patience=2,
        )
        fast_hist = fast.fit(x, **kw)
        ref_hist = ref.fit(x, **kw)
        self._assert_identical(fast, ref, fast_hist, ref_hist)

    def test_fit_unshuffled_bit_identical(self):
        x, _ = self._data()
        fast, ref = self._pair()
        fast_hist = fast.fit(x, epochs=4, batch_size=16, learning_rate=1e-3, shuffle=False)
        ref_hist = ref.fit(x, epochs=4, batch_size=16, learning_rate=1e-3, shuffle=False)
        self._assert_identical(fast, ref, fast_hist, ref_hist)

    def test_reference_mlp_matches_live_mlp_init(self):
        """Same seed -> identical initial weights across the two stacks."""
        live = mlp([5, 7, 2], output_activation="sigmoid", seed=13)
        frozen = reference_mlp([5, 7, 2], output_activation="sigmoid", seed=13)
        frozen_params = frozen.named_params()
        for name, p in live.named_params().items():
            np.testing.assert_array_equal(p, frozen_params[name], err_msg=name)
