"""Variational autoencoder (paper Sec. 3.3, Eqs. 1-4).

The encoder maps a feature sample to the parameters of a diagonal Gaussian
posterior ``q_phi(z|x) = N(mu(x), diag(exp(logvar(x))))``; the decoder maps
latents back to the input space.  Training maximises the ELBO: the
reconstruction term plus the closed-form KL against the standard-normal
prior, with gradients flowing through the reparameterisation
``z = mu + exp(logvar/2) * eps``.

Implemented with the manual-backprop layers of :mod:`repro.nn`; gradient
correctness is pinned by finite-difference tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.nn.fused import FusedDenseActivation, fuse, pack_parameters
from repro.nn.layers import Dense
from repro.nn.losses import gaussian_kl, mse_loss
from repro.nn.minibatch import MinibatchIterator
from repro.nn.network import Sequential, mlp
from repro.nn.optimizers import Adam, Optimizer
from repro.runtime.instrumentation import get_instrumentation
from repro.util.rng import derive_seed, ensure_rng
from repro.util.validation import check_matrix

__all__ = ["VAE", "TrainingHistory"]


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics."""

    loss: list[float] = field(default_factory=list)
    reconstruction: list[float] = field(default_factory=list)
    kl: list[float] = field(default_factory=list)
    val_reconstruction: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.loss)


class _FusedTrainer:
    """Preallocated fused-kernel training engine for one :class:`VAE`.

    Builds fused execution views over the model's networks (sharing their
    parameter/gradient arrays) plus per-batch-size scratch for every
    intermediate of the ELBO step, so a training step performs zero
    allocations after warm-up.  Every kernel reproduces the floating-point
    operations of :meth:`VAE.train_step` in the same order, which keeps
    fixed-seed training bit-identical to the frozen ``ReferenceVAETrainer``
    (``tests/oracles/nn.py``).
    """

    def __init__(self, model: "VAE"):
        self.model = model
        self.encoder = fuse(model.encoder)
        self.mu_head = FusedDenseActivation(model.mu_head)
        self.logvar_head = FusedDenseActivation(model.logvar_head)
        self.decoder = fuse(model.decoder)
        # Repack every parameter into one flat vector so the optimizer does
        # a single contiguous in-place update per step (elementwise math, so
        # still bit-identical to the per-parameter loop).
        flat_p, flat_g = pack_parameters(
            [*model.encoder.layers, model.mu_head, model.logvar_head, *model.decoder.layers]
        )
        self.packed_params = {"packed": flat_p}
        self.packed_grads = {"packed": flat_g}
        self._flat_g = flat_g
        self._scratch: dict[int, dict[str, np.ndarray]] = {}

    def _buffers(self, batch: int) -> dict[str, np.ndarray]:
        try:
            return self._scratch[batch]
        except KeyError:
            model = self.model
            d, k = model.input_dim, model.latent_dim
            enc_out = model.hidden_dims[-1] if model.hidden_dims else d
            s = {name: np.empty((batch, k)) for name in
                 ("eps", "std", "z", "var", "kt", "dmu", "dlv_kl", "dlv")}
            s["diff"] = np.empty((batch, d))
            s["sq"] = np.empty((batch, d))
            s["dxhat"] = np.empty((batch, d))
            s["dh"] = np.empty((batch, enc_out))
            self._scratch[batch] = s
            return s

    def step(self, x: np.ndarray) -> tuple[float, float, float]:
        """One fused gradient accumulation on batch *x*; returns (loss, recon, kl)."""
        model = self.model
        beta = model.beta
        b = x.shape[0]
        s = self._buffers(b)
        eps = s["eps"]
        model._rng.standard_normal(out=eps)  # same stream as standard_normal(shape)
        self._flat_g[...] = 0.0  # one fill == per-layer zero_grads

        # Forward with reparameterisation (Eq. 4), all into reused buffers.
        h = self.encoder.forward(x)
        mu = self.mu_head.forward(h)
        logvar = self.logvar_head.forward(h)
        std = s["std"]
        np.multiply(logvar, 0.5, out=std)
        np.exp(std, out=std)
        z = s["z"]
        np.multiply(std, eps, out=z)
        z += mu
        xhat = self.decoder.forward(z)

        # mse_loss, decomposed: value = sum(diff^2)/n, grad = 2*diff/n.
        diff = s["diff"]
        np.subtract(xhat, x, out=diff)
        np.square(diff, out=s["sq"])
        recon = float(s["sq"].sum() / b)
        dxhat = s["dxhat"]
        np.multiply(diff, 2.0, out=dxhat)
        dxhat /= b

        # gaussian_kl, decomposed: 0.5*sum(var + mu^2 - 1 - logvar)/n.
        var = s["var"]
        np.exp(logvar, out=var)
        kt = s["kt"]
        np.square(mu, out=kt)
        kt += var
        kt -= 1.0
        kt -= logvar
        kl = float(0.5 * kt.sum() / b)
        dmu = s["dmu"]
        np.divide(mu, b, out=dmu)  # dmu_kl; scaled by beta below
        dlv_kl = s["dlv_kl"]
        np.subtract(var, 1.0, out=dlv_kl)
        dlv_kl *= 0.5
        dlv_kl /= b

        # Backward: decoder -> dz -> (mu, logvar) heads -> encoder trunk.
        dz = self.decoder.backward(dxhat)
        dmu *= beta
        dmu += dz  # == dz + beta * dmu_kl
        dlv = s["dlv"]
        np.multiply(dz, eps, out=dlv)
        dlv *= 0.5
        dlv *= std
        dlv_kl *= beta
        dlv += dlv_kl  # == dz * eps * 0.5 * std + beta * dlogvar_kl
        dh = s["dh"]
        np.add(self.mu_head.backward(dmu), self.logvar_head.backward(dlv), out=dh)
        self.encoder.backward(dh)
        return recon + beta * kl, recon, kl


class VAE:
    """Dense variational autoencoder.

    Parameters
    ----------
    input_dim:
        Width of the (scaled) feature vector.
    hidden_dims:
        Encoder trunk widths; the decoder mirrors them.
    latent_dim:
        Dimension of the Gaussian latent space.
    beta:
        KL weight (1.0 = the standard ELBO of Eq. 2).
    output_activation:
        ``sigmoid`` for min-max-scaled inputs in [0,1] (default), or
        ``linear`` for standardised inputs.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int] = (128, 64),
        latent_dim: int = 16,
        *,
        beta: float = 1.0,
        output_activation: str = "sigmoid",
        seed: int | np.random.Generator | None = None,
    ):
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        if latent_dim < 1:
            raise ValueError("latent_dim must be positive")
        if beta < 0:
            raise ValueError("beta must be non-negative")
        rng = ensure_rng(seed)
        self.input_dim = int(input_dim)
        self.hidden_dims = tuple(int(h) for h in hidden_dims)
        self.latent_dim = int(latent_dim)
        self.beta = float(beta)
        self.output_activation = output_activation
        self._rng = rng
        self._fused: _FusedTrainer | None = None

        trunk_widths = [self.input_dim, *self.hidden_dims]
        self.encoder = mlp(
            trunk_widths, hidden_activation="relu", output_activation="relu", seed=derive_seed(rng)
        )
        enc_out = self.hidden_dims[-1] if self.hidden_dims else self.input_dim
        self.mu_head = Dense(enc_out, self.latent_dim, seed=derive_seed(rng))
        self.logvar_head = Dense(enc_out, self.latent_dim, seed=derive_seed(rng))
        self.decoder = mlp(
            [self.latent_dim, *reversed(self.hidden_dims), self.input_dim],
            hidden_activation="relu",
            output_activation=output_activation,
            seed=derive_seed(rng),
        )

    # -- forward paths -------------------------------------------------------

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior parameters ``(mu, logvar)`` for a batch."""
        h = self.encoder.forward(x)
        return self.mu_head.forward(h), self.logvar_head.forward(h)

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.decoder.forward(z)

    def reconstruct(self, x: np.ndarray, *, deterministic: bool = True) -> np.ndarray:
        """Reconstruction through the latent space.

        Scoring uses the posterior mean (``deterministic=True``) so anomaly
        scores are reproducible; sampling is available for generation.
        """
        x = check_matrix(x, name="X")
        if deterministic:
            return self._reconstruct_mean(x)
        mu, logvar = self.encode(x)
        eps = self._rng.standard_normal(mu.shape)
        return self.decode(mu + np.exp(0.5 * logvar) * eps)

    def _reconstruct_mean(self, x: np.ndarray) -> np.ndarray:
        """Posterior-mean reconstruction of a validated matrix.

        Encoder, mu head, decoder: the log-variance head plays no part in
        a deterministic reconstruction, so it is not run.  A row comes out
        the same bits alone as inside any block: BLAS computes every row
        of a product of two or more rows the same way, whatever the height
        or order of the block, but takes another path for a single row, so
        a lone row runs as a two-row block and the copy is dropped.
        """
        lone = x.shape[0] == 1
        if lone:
            x = np.concatenate((x, x))
        xhat = self.decoder.forward(self.mu_head.forward(self.encoder.forward(x)))
        return xhat[:1] if lone else xhat

    def sample(self, n: int) -> np.ndarray:
        """Generate *n* new samples from the prior (the generative use)."""
        z = self._rng.standard_normal((n, self.latent_dim))
        return self.decode(z)

    def reconstruction_error(
        self, x: np.ndarray, *, present: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-sample mean absolute error — the paper's anomaly score.

        With a boolean *present* mask (mixed-schema feature tables), the
        mean runs over each row's observed columns only: an absent column
        is no evidence of anomaly, and averaging its 0-fill error would
        dilute GPU-only signals on a mostly-CPU fleet.  A dense mask
        scores identically to the unmasked path.  A row's score does not
        depend on the rows scored with it (see :meth:`_reconstruct_mean`),
        so scoring windows one at a time or a micro-batch at once gives
        the same bits.
        """
        return self._reconstruction_error(check_matrix(x, name="X"), present)

    def _reconstruction_error(
        self, x: np.ndarray, present: np.ndarray | None
    ) -> np.ndarray:
        """:meth:`reconstruction_error` of a validated matrix."""
        err = np.abs(self._reconstruct_mean(x) - x)
        if present is None:
            return err.sum(axis=1) / err.shape[1]  # np.mean's own arithmetic
        p = np.asarray(present, dtype=bool)
        if p.shape != x.shape:
            raise ValueError(f"present mask shape {p.shape} != X shape {x.shape}")
        counts = p.sum(axis=1).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(p, err, 0.0).sum(axis=1) / counts
        out[counts == 0] = 0.0
        return out

    # -- training ----------------------------------------------------------------

    def _zero_grads(self) -> None:
        self.encoder.zero_grads()
        self.mu_head.zero_grads()
        self.logvar_head.zero_grads()
        self.decoder.zero_grads()

    def named_params(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, net in self._parts():
            source = net.named_params() if isinstance(net, Sequential) else net.params
            for k, v in source.items():
                out[f"{prefix}.{k}"] = v
        return out

    def named_grads(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, net in self._parts():
            source = net.named_grads() if isinstance(net, Sequential) else net.grads
            for k, v in source.items():
                out[f"{prefix}.{k}"] = v
        return out

    def load_params(self, params: dict[str, np.ndarray]) -> None:
        own = self.named_params()
        missing = set(own) - set(params)
        if missing:
            raise KeyError(f"missing parameters: {sorted(missing)}")
        for name, value in own.items():
            incoming = np.asarray(params[name], dtype=np.float64)
            if incoming.shape != value.shape:
                raise ValueError(f"parameter {name}: shape mismatch {incoming.shape}")
            value[...] = incoming

    def _parts(self):
        return (
            ("encoder", self.encoder),
            ("mu", self.mu_head),
            ("logvar", self.logvar_head),
            ("decoder", self.decoder),
        )

    def loss_on(self, x: np.ndarray, eps: np.ndarray) -> tuple[float, float, float]:
        """ELBO-derived loss for a fixed noise draw (used by gradient checks)."""
        mu, logvar = self.encode(x)
        z = mu + np.exp(0.5 * logvar) * eps
        xhat = self.decode(z)
        recon, _ = mse_loss(xhat, x)
        kl, _, _ = gaussian_kl(mu, logvar)
        return recon + self.beta * kl, recon, kl

    def train_step(
        self, x: np.ndarray, optimizer: Optimizer, *, eps: np.ndarray | None = None
    ) -> tuple[float, float, float]:
        """One gradient step on batch *x*; returns (loss, recon, kl)."""
        if eps is None:
            eps = self._rng.standard_normal((x.shape[0], self.latent_dim))
        self._zero_grads()

        # Forward with reparameterisation (Eq. 4).
        h = self.encoder.forward(x)
        mu = self.mu_head.forward(h)
        logvar = self.logvar_head.forward(h)
        std = np.exp(0.5 * logvar)
        z = mu + std * eps
        xhat = self.decoder.forward(z)

        recon, dxhat = mse_loss(xhat, x)
        kl, dmu_kl, dlogvar_kl = gaussian_kl(mu, logvar)

        # Backward: decoder -> dz -> (mu, logvar) heads -> encoder trunk.
        dz = self.decoder.backward(dxhat)
        dmu = dz + self.beta * dmu_kl
        dlogvar = dz * eps * 0.5 * std + self.beta * dlogvar_kl
        dh = self.mu_head.backward(dmu) + self.logvar_head.backward(dlogvar)
        self.encoder.backward(dh)

        optimizer.step(self.named_params(), self.named_grads())
        return recon + self.beta * kl, recon, kl

    def fit(
        self,
        x: np.ndarray,
        *,
        epochs: int = 400,
        batch_size: int = 256,
        learning_rate: float = 1e-4,
        validation_data: np.ndarray | None = None,
        optimizer: Optimizer | None = None,
        patience: int | None = None,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Minibatch training on (healthy) samples.

        Defaults match the paper's starred hyperparameters (Table 3): Adam
        with lr 1e-4 and batch size 256.  ``patience`` enables early
        stopping on the validation reconstruction error.

        Runs on the fused fast path: preallocated kernels
        (:class:`_FusedTrainer`), hoisted parameter/gradient dicts, and the
        shared :class:`~repro.nn.minibatch.MinibatchIterator` — bit-identical
        for a fixed seed to the frozen ``ReferenceVAETrainer`` in
        ``tests/oracles/nn.py`` (pinned by tests).
        Each epoch is recorded as one ``train_epoch`` instrumentation stage.
        """
        x = check_matrix(x, name="X")
        if x.shape[1] != self.input_dim:
            raise ValueError(f"X has {x.shape[1]} features, model expects {self.input_dim}")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        opt = optimizer if optimizer is not None else Adam(learning_rate)
        history = TrainingHistory()
        n = x.shape[0]
        if self._fused is None:
            self._fused = _FusedTrainer(self)
        trainer = self._fused
        params = trainer.packed_params
        grads = trainer.packed_grads
        batches = MinibatchIterator(x, batch_size, rng=self._rng, shuffle=shuffle)
        inst = get_instrumentation()
        best_val = np.inf
        best_params: dict[str, np.ndarray] | None = None
        stale = 0
        stop = False
        for _ in range(epochs):
            with inst.stage("train_epoch", items=n):
                ep_loss = ep_recon = ep_kl = 0.0
                n_batches = 0
                for batch in batches.epoch():
                    loss, recon, kl = trainer.step(batch)
                    opt.step(params, grads)
                    ep_loss += loss
                    ep_recon += recon
                    ep_kl += kl
                    n_batches += 1
                history.loss.append(ep_loss / n_batches)
                history.reconstruction.append(ep_recon / n_batches)
                history.kl.append(ep_kl / n_batches)
                if validation_data is not None:
                    val = float(np.mean(self.reconstruction_error(validation_data)))
                    history.val_reconstruction.append(val)
                    if patience is not None:
                        if val < best_val - 1e-9:
                            best_val = val
                            best_params = {
                                k: v.copy() for k, v in self.named_params().items()
                            }
                            stale = 0
                        else:
                            stale += 1
                            if stale > patience:
                                stop = True
            if stop:
                break
        if best_params is not None:
            self.load_params(best_params)
        return history
