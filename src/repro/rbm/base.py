"""Shared RBM machinery: parameters, Gibbs sampling and CD-k statistics.

An RBM is parameterised by the weight matrix ``W`` (``n_visible x n_hidden``),
the visible bias ``a`` and the hidden bias ``b`` (Eq. 1).  The hidden
conditional is always ``p(h_j = 1 | v) = sigmoid(b_j + sum_i v_i w_ij)``
(Eq. 2); the visible conditional differs between the binary
(:class:`~repro.rbm.rbm.BernoulliRBM`) and Gaussian
(:class:`~repro.rbm.grbm.GaussianRBM`) models and is supplied by subclasses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.estimator import EstimatorMixin
from repro.exceptions import NotFittedError, ValidationError
from repro.rbm.initialization import initialize_weights, visible_bias_from_data
from repro.utils.numerics import sigmoid
from repro.utils.rng import check_random_state
from repro.utils.validation import check_array, check_positive_int

__all__ = ["BaseRBM", "CDStatistics"]


@dataclass(frozen=True)
class CDStatistics:
    """Sufficient statistics of one contrastive-divergence step.

    Attributes
    ----------
    visible_data, hidden_data : ndarray
        Positive-phase visible batch and hidden probabilities driven by it.
    visible_recon, hidden_recon : ndarray
        Negative-phase (reconstructed) visible batch and its hidden
        probabilities.
    grad_weights, grad_visible_bias, grad_hidden_bias : ndarray
        The CD-k likelihood-gradient estimates
        ``<v h>_data - <v h>_recon`` etc. (Eq. 7-9), already averaged over the
        batch.
    """

    visible_data: np.ndarray
    hidden_data: np.ndarray
    visible_recon: np.ndarray
    hidden_recon: np.ndarray
    grad_weights: np.ndarray
    grad_visible_bias: np.ndarray
    grad_hidden_bias: np.ndarray

    @property
    def reconstruction_error(self) -> float:
        """Mean squared reconstruction error of the batch."""
        diff = self.visible_data - self.visible_recon
        return float(np.mean(diff**2))


class BaseRBM(EstimatorMixin, abc.ABC):
    """Common implementation shared by all four RBM variants.

    Parameters
    ----------
    n_hidden : int
        Number of binary hidden units.
    learning_rate : float
        CD learning rate ``epsilon`` (Eq. 7).
    n_epochs : int
        Training epochs over the full dataset.
    batch_size : int
        Minibatch size.
    cd_steps : int, default 1
        Number of Gibbs half-steps ``k`` in CD-k; the paper uses CD-1.
    weight_sigma : float, default 0.01
        Standard deviation of the initial Gaussian weights.
    momentum : float, default 0.0
        Classical momentum applied to all parameter updates.
    weight_decay : float, default 0.0
        L2 penalty coefficient on the weights.
    sample_hidden_states : bool, default True
        Whether to binarise hidden states between the positive and negative
        phase (standard CD-1).  The hidden *probabilities* are always used for
        the gradient statistics, as recommended by Hinton's practical guide.
    dtype : {"float64", "float32"} or numpy dtype, default "float64"
        Compute/storage precision of the parameters, activations and
        gradients.  float32 halves memory traffic and roughly doubles matmul
        throughput on most CPUs; CD training is stochastic-noise dominated,
        so the reduced precision does not measurably change feature quality
        (see the README "Performance" section for the trade-offs).
    random_state : int, Generator or None
        Seed controlling initialisation and sampling.
    verbose : bool, default False
        Print one line per epoch when fitting through :class:`RBMTrainer`.
    """

    def __init__(
        self,
        n_hidden: int,
        *,
        learning_rate: float = 1e-3,
        n_epochs: int = 20,
        batch_size: int = 64,
        cd_steps: int = 1,
        weight_sigma: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        sample_hidden_states: bool = True,
        dtype="float64",
        random_state=None,
        verbose: bool = False,
    ) -> None:
        self.n_hidden = check_positive_int(n_hidden, name="n_hidden")
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.n_epochs = check_positive_int(n_epochs, name="n_epochs")
        self.batch_size = check_positive_int(batch_size, name="batch_size")
        self.cd_steps = check_positive_int(cd_steps, name="cd_steps")
        if weight_sigma <= 0:
            raise ValidationError(f"weight_sigma must be positive, got {weight_sigma}")
        self.weight_sigma = float(weight_sigma)
        if not 0.0 <= momentum < 1.0:
            raise ValidationError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        if weight_decay < 0:
            raise ValidationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.weight_decay = float(weight_decay)
        self.sample_hidden_states = bool(sample_hidden_states)
        try:
            self.dtype = np.dtype(dtype)
        except TypeError as exc:
            raise ValidationError(f"dtype {dtype!r} is not a numpy dtype") from exc
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValidationError(
                f"dtype must be float32 or float64, got {self.dtype.name!r}"
            )
        self.random_state = random_state
        self.verbose = bool(verbose)

    #: Registry key of the concrete variant ("rbm", "grbm", "sls_rbm",
    #: "sls_grbm"); used by :mod:`repro.persistence` to rebuild the right
    #: class from an artifact manifest.
    model_kind: str = ""

    # -------------------------------------------------------------- properties
    @property
    def is_fitted(self) -> bool:
        return hasattr(self, "weights_")

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )

    # ------------------------------------------------------------ initialisation
    def initialize(self, data: np.ndarray) -> None:
        """Initialise parameters for data with ``data.shape[1]`` visible units."""
        data = check_array(data, name="data")
        self._rng = check_random_state(self.random_state)
        self.n_visible_ = data.shape[1]
        self.weights_ = initialize_weights(
            self.n_visible_,
            self.n_hidden,
            sigma=self.weight_sigma,
            random_state=self._rng,
        ).astype(self.dtype, copy=False)
        self.visible_bias_ = visible_bias_from_data(
            data, binary=self._binary_visible
        ).astype(self.dtype, copy=False)
        self.hidden_bias_ = np.zeros(self.n_hidden, dtype=self.dtype)
        self._velocity_weights = np.zeros_like(self.weights_)
        self._velocity_visible_bias = np.zeros_like(self.visible_bias_)
        self._velocity_hidden_bias = np.zeros_like(self.hidden_bias_)

    # -------------------------------------------------------------- conditionals
    def hidden_probabilities(self, visible: np.ndarray) -> np.ndarray:
        """``p(h = 1 | v) = sigmoid(b + v W)`` (Eq. 2), row per sample."""
        self._check_fitted()
        visible = np.atleast_2d(np.asarray(visible, dtype=self.dtype))
        pre_activation = visible @ self.weights_
        pre_activation += self.hidden_bias_
        return sigmoid(pre_activation, out=pre_activation)

    def sample_hidden(self, hidden_probabilities: np.ndarray) -> np.ndarray:
        """Bernoulli sample of the hidden units from their probabilities."""
        self._check_fitted()
        return (
            self._rng.random(hidden_probabilities.shape) < hidden_probabilities
        ).astype(self.dtype)

    @property
    @abc.abstractmethod
    def _binary_visible(self) -> bool:
        """Whether the visible layer is binary (affects bias initialisation)."""

    @abc.abstractmethod
    def visible_reconstruction(self, hidden: np.ndarray) -> np.ndarray:
        """Deterministic reconstruction of the visible layer from hidden units.

        Binary models use the sigmoid transformation (Eq. 3); Gaussian models
        use the linear transformation ``h W^T + a`` (Eq. 5 with unit variance).
        """

    @abc.abstractmethod
    def sample_visible(self, hidden: np.ndarray) -> np.ndarray:
        """Stochastic reconstruction of the visible layer from hidden units."""

    @abc.abstractmethod
    def free_energy(self, visible: np.ndarray) -> np.ndarray:
        """Free energy ``F(v)`` per sample (lower is more probable)."""

    # ------------------------------------------------------------------ CD step
    def contrastive_divergence(self, batch: np.ndarray) -> CDStatistics:
        """Run CD-k on one minibatch and return the gradient statistics."""
        self._check_fitted()
        batch = np.atleast_2d(np.asarray(batch, dtype=self.dtype))

        hidden_data = self.hidden_probabilities(batch)
        hidden_states = (
            self.sample_hidden(hidden_data) if self.sample_hidden_states else hidden_data
        )

        visible_recon = batch
        hidden_recon = hidden_data
        for step in range(self.cd_steps):
            visible_recon = self.visible_reconstruction(hidden_states)
            hidden_recon = self.hidden_probabilities(visible_recon)
            if step + 1 < self.cd_steps:
                hidden_states = self.sample_hidden(hidden_recon)

        batch_size = batch.shape[0]
        grad_weights = (batch.T @ hidden_data - visible_recon.T @ hidden_recon) / batch_size
        grad_visible_bias = (batch - visible_recon).mean(axis=0)
        grad_hidden_bias = (hidden_data - hidden_recon).mean(axis=0)

        return CDStatistics(
            visible_data=batch,
            hidden_data=hidden_data,
            visible_recon=visible_recon,
            hidden_recon=hidden_recon,
            grad_weights=grad_weights,
            grad_visible_bias=grad_visible_bias,
            grad_hidden_bias=grad_hidden_bias,
        )

    # ----------------------------------------------------------- parameter update
    def apply_update(
        self,
        grad_weights: np.ndarray,
        grad_visible_bias: np.ndarray,
        grad_hidden_bias: np.ndarray,
    ) -> None:
        """Gradient-ascent step with momentum and weight decay.

        The gradients are likelihood gradients (to be *added*); any descent
        direction must be passed already negated.
        """
        self._check_fitted()
        step_w = self.learning_rate * (grad_weights - self.weight_decay * self.weights_)
        step_a = self.learning_rate * grad_visible_bias
        step_b = self.learning_rate * grad_hidden_bias

        if self.momentum > 0.0:
            self._velocity_weights = self.momentum * self._velocity_weights + step_w
            self._velocity_visible_bias = (
                self.momentum * self._velocity_visible_bias + step_a
            )
            self._velocity_hidden_bias = (
                self.momentum * self._velocity_hidden_bias + step_b
            )
            self.weights_ += self._velocity_weights
            self.visible_bias_ += self._velocity_visible_bias
            self.hidden_bias_ += self._velocity_hidden_bias
        else:
            self.weights_ += step_w
            self.visible_bias_ += step_a
            self.hidden_bias_ += step_b

    def partial_fit(self, batch: np.ndarray) -> float:
        """One CD update on one minibatch; returns its reconstruction error.

        Subclasses with extra loss terms (the sls models) override this to
        inject the supervision gradients.
        """
        stats = self.contrastive_divergence(batch)
        self.apply_update(
            stats.grad_weights, stats.grad_visible_bias, stats.grad_hidden_bias
        )
        return stats.reconstruction_error

    # ------------------------------------------------------------------ fitting
    def fit(self, data, **fit_params) -> "BaseRBM":
        """Train the model; delegated to :class:`repro.rbm.trainer.RBMTrainer`."""
        from repro.rbm.trainer import RBMTrainer  # local import to avoid a cycle

        trainer = RBMTrainer(self, verbose=self.verbose)
        trainer.fit(data, **fit_params)
        self.training_history_ = trainer.history_
        return self

    def transform(self, data) -> np.ndarray:
        """Hidden-layer features (probabilities) for ``data``."""
        self._check_fitted()
        data = check_array(data, name="data")
        if data.shape[1] != self.n_visible_:
            raise ValidationError(
                f"data has {data.shape[1]} features but the model was trained "
                f"with {self.n_visible_} visible units"
            )
        return self.hidden_probabilities(data)

    def fit_transform(self, data, **fit_params) -> np.ndarray:
        """Fit the model and return the hidden features of ``data``."""
        return self.fit(data, **fit_params).transform(data)

    def reconstruct(self, data) -> np.ndarray:
        """Deterministic one-step reconstruction of ``data``."""
        self._check_fitted()
        data = check_array(data, name="data")
        hidden = self.hidden_probabilities(data)
        return self.visible_reconstruction(hidden)

    def reconstruction_error(self, data) -> float:
        """Mean squared one-step reconstruction error over ``data``."""
        data = check_array(data, name="data")
        return float(np.mean((data - self.reconstruct(data)) ** 2))

    def score(self, data) -> float:
        """Average negative free energy (higher means the data is more probable
        under the model); a cheap proxy for the log-likelihood."""
        data = check_array(data, name="data")
        return float(-np.mean(self.free_energy(data)))

    # ------------------------------------------------------------- persistence
    def get_config(self) -> dict:
        """Constructor keyword arguments reproducing this estimator.

        The JSON-safe twin of ``get_params(deep=False)``: the ``dtype`` is
        returned by name and a ``random_state`` given as a
        ``numpy.random.Generator`` cannot be round-tripped, so it is replaced
        by ``None``.
        """
        config = self.get_params(deep=False)
        config["dtype"] = self.dtype.name
        if not isinstance(config["random_state"], (int, type(None))):
            config["random_state"] = None
        return config

    def get_state(self) -> dict:
        """Complete fitted state of the model, split by storage medium.

        Returns a dictionary with:

        * ``"arrays"`` — mapping of name to ndarray (weights, biases and the
          momentum velocities), suitable for ``numpy.savez``;
        * ``"history"`` — :meth:`TrainingHistory.to_dict` payload or ``None``
          when the model was initialised but never trained through the
          trainer;
        * ``"supervision"`` — always ``None`` for the plain models; the sls
          mixin overrides this with the attached supervision state.

        (Before the unified estimator protocol this was called
        ``get_params()``; ``get_params`` now returns the constructor
        parameters as everywhere else in the package.)
        """
        self._check_fitted()
        history = getattr(self, "training_history_", None)
        return {
            "arrays": {
                "weights": self.weights_.copy(),
                "visible_bias": self.visible_bias_.copy(),
                "hidden_bias": self.hidden_bias_.copy(),
                "velocity_weights": self._velocity_weights.copy(),
                "velocity_visible_bias": self._velocity_visible_bias.copy(),
                "velocity_hidden_bias": self._velocity_hidden_bias.copy(),
            },
            "history": history.to_dict() if history is not None else None,
            "supervision": None,
        }

    def set_state(self, params: dict) -> "BaseRBM":
        """Restore the state captured by :meth:`get_state`.

        Inference (:meth:`transform`, :meth:`reconstruct`, :meth:`score`) is
        bitwise-identical after a round-trip; the sampling stream is reseeded
        from ``random_state``, so stochastic continuations may diverge from an
        uninterrupted run.
        """
        from repro.rbm.trainer import TrainingHistory  # local import, avoids a cycle

        arrays = params["arrays"]
        weights = np.asarray(arrays["weights"], dtype=self.dtype)
        if weights.ndim != 2:
            raise ValidationError(f"weights must be 2-D, got shape {weights.shape}")
        if weights.shape[1] != self.n_hidden:
            raise ValidationError(
                f"weights have {weights.shape[1]} hidden columns but the model "
                f"was constructed with n_hidden={self.n_hidden}"
            )
        self.n_visible_ = weights.shape[0]
        self.weights_ = weights
        self.visible_bias_ = np.asarray(arrays["visible_bias"], dtype=self.dtype)
        self.hidden_bias_ = np.asarray(arrays["hidden_bias"], dtype=self.dtype)
        if self.visible_bias_.shape != (self.n_visible_,):
            raise ValidationError(
                f"visible_bias has shape {self.visible_bias_.shape}, "
                f"expected ({self.n_visible_},)"
            )
        if self.hidden_bias_.shape != (self.n_hidden,):
            raise ValidationError(
                f"hidden_bias has shape {self.hidden_bias_.shape}, "
                f"expected ({self.n_hidden},)"
            )
        self._velocity_weights = np.asarray(
            arrays.get("velocity_weights", np.zeros_like(weights)), dtype=self.dtype
        )
        self._velocity_visible_bias = np.asarray(
            arrays.get("velocity_visible_bias", np.zeros_like(self.visible_bias_)),
            dtype=self.dtype,
        )
        self._velocity_hidden_bias = np.asarray(
            arrays.get("velocity_hidden_bias", np.zeros_like(self.hidden_bias_)),
            dtype=self.dtype,
        )
        self._rng = check_random_state(self.random_state)
        history = params.get("history")
        if history is not None:
            self.training_history_ = TrainingHistory.from_dict(history)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_hidden={self.n_hidden}, "
            f"learning_rate={self.learning_rate}, n_epochs={self.n_epochs}, "
            f"batch_size={self.batch_size}, cd_steps={self.cd_steps})"
        )
