"""The EM engine (paper §2.2, §6, Algorithm 1).

:class:`EMRunner` owns one mixture (prior + M/U block Gaussians) and one
posterior vector over a fixed feature matrix, and exposes separate
:meth:`m_step` / :meth:`e_step` methods. Keeping the steps separate is what
lets the record-linkage trainer interleave three runners exactly as §5
prescribes (``F.M, F.E, calibrate, Fl.M, Fl.E, Fr.M, Fr.E``), with the
transitivity calibrator mutating posteriors between steps.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ZeroERConfig
from repro.core.covariance import pooled_correlation, rescale_to_correlation, weighted_covariance
from repro.core.gaussian import BlockDiagonalGaussian, stacked_logpdf
from repro.core.initialization import magnitude_initialization
from repro.core.regularization import apply_regularization, penalty_diagonal
from repro.obs import add_counter, histogram_of, observe, set_gauge, span, telemetry_active
from repro.reliability.checkpoint import CheckpointError, FitControls
from repro.reliability.health import (
    EM_NON_CONVERGENCE,
    EM_RESUMED_FROM_CHECKPOINT,
    EM_TIME_BUDGET_EXHAUSTED,
    record_condition,
)
from repro.utils.validation import check_feature_groups, check_feature_matrix

__all__ = [
    "MixtureParameters",
    "EMHistory",
    "EMRunner",
    "mixture_state",
    "mixture_from_state",
    "frozen_scorer_state",
    "frozen_scorer_parts",
    "match_probability_histogram",
    "emit_fit_metrics",
]


@dataclass
class MixtureParameters:
    """The learned generative model: prior π_M and the two distributions."""

    prior_match: float
    match: BlockDiagonalGaussian
    unmatch: BlockDiagonalGaussian


def mixture_state(params: MixtureParameters) -> dict:
    """Array-valued state of a learned mixture (for artifact persistence)."""
    return {
        "prior_match": float(params.prior_match),
        "match_mean": np.asarray(params.match.mean, dtype=np.float64),
        "match_blocks": [np.asarray(b, dtype=np.float64) for b in params.match.blocks],
        "unmatch_mean": np.asarray(params.unmatch.mean, dtype=np.float64),
        "unmatch_blocks": [np.asarray(b, dtype=np.float64) for b in params.unmatch.blocks],
    }


def mixture_from_state(state: dict, groups: list[list[int]]) -> MixtureParameters:
    """Rebuild :class:`MixtureParameters` from :func:`mixture_state` output."""
    groups = [list(g) for g in groups]
    return MixtureParameters(
        prior_match=float(state["prior_match"]),
        match=BlockDiagonalGaussian(state["match_mean"], groups, list(state["match_blocks"])),
        unmatch=BlockDiagonalGaussian(
            state["unmatch_mean"], groups, list(state["unmatch_blocks"])
        ),
    )


def frozen_scorer_state(
    kind: str,
    config: ZeroERConfig,
    runner: "EMRunner",
    normalizer,
    impute_means,
) -> dict:
    """Assemble the inference-only state shared by every frozen matcher.

    One schema for :class:`~repro.core.model.ZeroER` and
    :class:`~repro.core.linkage.ZeroERLinkage` — only ``kind`` differs —
    so the artifact layer and both models cannot drift apart.
    """
    return {
        "kind": kind,
        "config": dataclasses.asdict(config),
        "groups": [list(g) for g in runner.groups],
        "norm_mins": np.asarray(normalizer.mins_),
        "norm_maxs": np.asarray(normalizer.maxs_),
        "impute_means": np.asarray(impute_means),
        "mixture": mixture_state(runner.params),
    }


def frozen_scorer_parts(state: dict, name: str = "model"):
    """Disassemble :func:`frozen_scorer_state` output.

    Returns ``(config, normalizer, impute_means, runner)`` with the runner
    frozen via :meth:`EMRunner.from_params`.
    """
    from repro.features.normalize import MinMaxNormalizer

    config = ZeroERConfig(**state["config"])
    normalizer = MinMaxNormalizer()
    normalizer.mins_ = np.asarray(state["norm_mins"], dtype=np.float64)
    normalizer.maxs_ = np.asarray(state["norm_maxs"], dtype=np.float64)
    impute_means = np.asarray(state["impute_means"], dtype=np.float64)
    groups = [list(g) for g in state["groups"]]
    params = mixture_from_state(state["mixture"], groups)
    return config, normalizer, impute_means, EMRunner.from_params(params, groups, config, name)


@dataclass
class EMHistory:
    """Per-fit diagnostics used by tests and the scalability benchmark."""

    log_likelihoods: list[float] = field(default_factory=list)
    iteration_seconds: list[float] = field(default_factory=list)
    transitivity_adjustments: list[int] = field(default_factory=list)
    converged: bool = False
    #: Per-iteration histograms of the posterior γ (drift-detection signal);
    #: populated only on traced fits — see :mod:`repro.obs`.
    match_probability_histograms: list[dict] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.log_likelihoods)


def match_probability_histogram(gamma: np.ndarray) -> dict:
    """Ten-bin histogram of a posterior vector over [0, 1] (plain dict)."""
    return histogram_of(gamma)


def emit_fit_metrics(name: str, history: EMHistory, gamma: np.ndarray) -> None:
    """Export one EM fit's convergence signals into the metrics registry.

    Shared by :meth:`EMRunner.run` and the record-linkage trainer's manual
    loop, so both fit paths publish identical metric names: iteration
    counts, final log likelihood and delta, convergence flag, and the final
    posterior distribution.
    """
    add_counter("em.iterations", history.n_iterations)
    set_gauge(f"em.converged.{name}", float(history.converged))
    if history.log_likelihoods:
        set_gauge(f"em.log_likelihood.{name}", history.log_likelihoods[-1])
        if len(history.log_likelihoods) > 1:
            set_gauge(
                f"em.log_likelihood_delta.{name}",
                history.log_likelihoods[-1] - history.log_likelihoods[-2],
            )
    if gamma.size:
        observe("em.match_probability", gamma)


class EMRunner:
    """EM over one candidate pair set.

    Parameters
    ----------
    X:
        Normalized, imputed feature matrix (``n_pairs × d``).
    feature_groups:
        Per-attribute feature index lists. The effective block structure
        follows ``config.covariance``: ``grouped`` uses these groups,
        ``independent`` one block per feature, ``full`` a single block.
    config:
        Hyperparameters; see :class:`~repro.core.config.ZeroERConfig`.
    """

    def __init__(
        self,
        X: np.ndarray,
        feature_groups: list[list[int]] | None,
        config: ZeroERConfig,
        name: str = "model",
    ):
        # feature-major: the M-step's weighted scatter and the E-step's GEMM
        # then stream over columns that are contiguous in the pairs
        self.X = np.asfortranarray(check_feature_matrix(X))
        self.config = config
        self.name = name
        d = self.X.shape[1]
        declared = check_feature_groups(feature_groups, d)
        if config.covariance == "full":
            self.groups = [list(range(d))]
        elif config.covariance == "independent":
            self.groups = [[j] for j in range(d)]
        else:
            self.groups = declared
        self.gamma = magnitude_initialization(self.X, config.init_threshold)
        self.params: MixtureParameters | None = None
        self.history = EMHistory()
        # Iteration-loop state lives on the instance (not as locals in
        # :meth:`run`) so a fit can be checkpointed mid-loop and resumed
        # bit-identically — see :meth:`capture_loop_state`.
        self._tail: deque[np.ndarray] = deque(maxlen=config.tail_window)
        self._previous_ll: float | None = None
        self._iteration = 0
        # The shared correlation R (§4) depends only on the data, not on the
        # posteriors — estimate it once.
        self._shared_correlation = pooled_correlation(self.X) if config.shared_correlation else None

    @classmethod
    def from_params(
        cls,
        params: MixtureParameters,
        feature_groups: list[list[int]],
        config: ZeroERConfig,
        name: str = "model",
    ) -> "EMRunner":
        """A frozen runner carrying learned parameters but no training data.

        Used when deserializing model artifacts: :meth:`posterior` works
        (it needs only ``params``), while the training-side methods
        (:meth:`m_step`, :meth:`e_step`, :meth:`run`) must not be called —
        there is no feature matrix to re-fit on.
        """
        runner = object.__new__(cls)
        runner.X = np.zeros((0, params.match.n_features))
        runner.config = config
        runner.name = name
        runner.groups = [list(g) for g in feature_groups]
        runner.gamma = np.zeros(0)
        runner.params = params
        runner.history = EMHistory()
        runner._tail = deque(maxlen=config.tail_window)
        runner._previous_ll = None
        runner._iteration = 0
        runner._shared_correlation = None
        return runner

    # -- M-step -----------------------------------------------------------------

    def m_step(self) -> MixtureParameters:
        """Re-estimate π, μ_C, Σ_C from the current posteriors (Eq. 8/11/13/15).

        Both classes' means come from one ``(2 × n) @ (n × d)`` product; the
        group blocks are sliced out of each class's full ``d × d``
        covariance. If one component's effective mass has collapsed below
        ``config.min_component_mass``, its previous parameters are kept (a
        numerical guard; the prior keeps shrinking so EM still converges).
        """
        cfg = self.config
        weights = np.stack([self.gamma, 1.0 - self.gamma])
        masses = weights.sum(axis=1)
        sums = weights @ self.X
        previous = (None, None) if self.params is None else (self.params.match, self.params.unmatch)
        kept = [masses[c] < cfg.min_component_mass and previous[c] is not None for c in (0, 1)]
        means = [previous[c].mean if kept[c] else sums[c] / masses[c] for c in (0, 1)]
        penalty = penalty_diagonal(cfg, means[0], means[1])

        distributions = []
        for c in (0, 1):
            if kept[c]:
                distributions.append(previous[c])
                continue
            cov = weighted_covariance(self.X, weights[c], means[c])
            if self._shared_correlation is not None:
                cov = rescale_to_correlation(cov, self._shared_correlation)
            cov = apply_regularization(cov, penalty)
            blocks = [cov[np.ix_(idx, idx)] for idx in self.groups]
            distributions.append(BlockDiagonalGaussian(means[c], self.groups, blocks))
        prior = float(np.clip(masses[0] / self.X.shape[0], cfg.prior_floor, 1.0 - cfg.prior_floor))
        self.params = MixtureParameters(prior, *distributions)
        return self.params

    # -- E-step -----------------------------------------------------------------

    def _log_joint(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log π_C + log p(x | C)`` for C = M, U, both scored in one pass."""
        log_m, log_u = stacked_logpdf((self.params.match, self.params.unmatch), X)
        return np.log(self.params.prior_match) + log_m, np.log1p(-self.params.prior_match) + log_u

    def e_step(self) -> float:
        """Update posteriors from the current parameters (Equation 3).

        Returns the observed-data log likelihood normalized per pair, which
        is the convergence criterion quantity of §6.
        """
        if self.params is None:
            raise RuntimeError("m_step must run before e_step")
        log_m, log_u = self._log_joint(self.X)
        log_total = np.logaddexp(log_m, log_u)
        gamma = np.exp(log_m - log_total)
        # flush vanishing posteriors to exact zero: subnormal floats in the
        # M-step's weighted sums hit the CPU's slow denormal path (an
        # order-of-magnitude per-iteration slowdown on large candidate sets)
        gamma[gamma < 1e-30] = 0.0
        gamma[gamma > 1.0 - 1e-15] = 1.0
        self.gamma = gamma
        return float(np.mean(log_total))

    # -- checkpointable loop state ------------------------------------------------

    def fingerprint(self) -> dict:
        """What a checkpoint must match to be resumable into this runner.

        Resuming EM state onto a different candidate set, feature space, or
        configuration would silently produce garbage; the fingerprint makes
        that a :class:`~repro.reliability.checkpoint.CheckpointError`.
        """
        return {
            "name": self.name,
            "n_pairs": int(self.X.shape[0]),
            "n_features": int(self.X.shape[1]),
            "groups": [list(g) for g in self.groups],
            "config": dataclasses.asdict(self.config),
        }

    def capture_loop_state(self, prefix: str = "") -> tuple[dict, dict[str, np.ndarray]]:
        """Snapshot the iteration loop: ``(json_meta, named_arrays)``.

        Everything :meth:`restore_loop_state` needs to continue the fit
        bit-identically: posteriors, the tail-averaging window, the learned
        parameters, the likelihood trace, and the loop counters. Array keys
        are prefixed (``"F."`` etc.) so the record-linkage trainer can pack
        three runners into one checkpoint.
        """
        n = int(self.gamma.shape[0])
        arrays: dict[str, np.ndarray] = {
            f"{prefix}gamma": np.asarray(self.gamma, dtype=np.float64),
            f"{prefix}tail": (
                np.stack(self._tail) if self._tail else np.zeros((0, n))
            ),
        }
        meta = {
            "iteration": self._iteration,
            "previous_ll": self._previous_ll,
            "log_likelihoods": list(self.history.log_likelihoods),
            "iteration_seconds": list(self.history.iteration_seconds),
            "transitivity_adjustments": list(self.history.transitivity_adjustments),
            "has_params": self.params is not None,
        }
        if self.params is not None:
            state = mixture_state(self.params)
            meta["prior_match"] = state["prior_match"]
            meta["n_blocks"] = len(state["match_blocks"])
            arrays[f"{prefix}match_mean"] = state["match_mean"]
            arrays[f"{prefix}unmatch_mean"] = state["unmatch_mean"]
            for c in ("match", "unmatch"):
                for g, block in enumerate(state[f"{c}_blocks"]):
                    arrays[f"{prefix}{c}_block_{g}"] = block
        return meta, arrays

    def restore_loop_state(self, meta: dict, arrays, prefix: str = "") -> None:
        """Inverse of :meth:`capture_loop_state`: rewind to the snapshot."""
        self.gamma = np.asarray(arrays[f"{prefix}gamma"], dtype=np.float64)
        tail_stack = np.asarray(arrays[f"{prefix}tail"], dtype=np.float64)
        self._tail = deque(
            (row.copy() for row in tail_stack), maxlen=self.config.tail_window
        )
        self._previous_ll = meta["previous_ll"]
        self._iteration = int(meta["iteration"])
        self.history.log_likelihoods = [float(v) for v in meta["log_likelihoods"]]
        self.history.iteration_seconds = [float(v) for v in meta["iteration_seconds"]]
        self.history.transitivity_adjustments = [
            int(v) for v in meta["transitivity_adjustments"]
        ]
        if meta.get("has_params"):
            n_blocks = int(meta["n_blocks"])
            self.params = mixture_from_state(
                {
                    "prior_match": meta["prior_match"],
                    "match_mean": arrays[f"{prefix}match_mean"],
                    "unmatch_mean": arrays[f"{prefix}unmatch_mean"],
                    "match_blocks": [
                        arrays[f"{prefix}match_block_{g}"] for g in range(n_blocks)
                    ],
                    "unmatch_blocks": [
                        arrays[f"{prefix}unmatch_block_{g}"] for g in range(n_blocks)
                    ],
                },
                self.groups,
            )

    def save_checkpoint(self, store) -> None:
        """Write this runner's loop state through the crash-safe writer."""
        meta, arrays = self.capture_loop_state()
        store.save(
            {
                "format": 1,
                "kind": "em",
                "iteration": self._iteration,
                "fingerprint": self.fingerprint(),
                "runner": meta,
            },
            arrays,
        )

    def resume_from_checkpoint(self, store) -> bool:
        """Restore the latest valid checkpoint; ``False`` if there is none.

        Raises :class:`~repro.reliability.checkpoint.CheckpointError` when
        the stored fingerprint does not match this fit (different data,
        feature space, or configuration).
        """
        loaded = store.latest()
        if loaded is None:
            return False
        meta, arrays = loaded
        if meta.get("kind") != "em" or meta.get("fingerprint") != self.fingerprint():
            raise CheckpointError(
                f"checkpoint in {store.root} does not match this fit "
                "(different data, feature space, or configuration)",
                path=store.root,
            )
        self.restore_loop_state(meta["runner"], arrays)
        record_condition(
            EM_RESUMED_FROM_CHECKPOINT,
            f"{self.name}: resumed EM at iteration {self._iteration}",
            severity="info",
            model=self.name,
            iteration=self._iteration,
        )
        return True

    # -- full loop (single-model case) ------------------------------------------

    def run(self, calibrator=None, controls: FitControls | None = None) -> EMHistory:
        """Algorithm 1: iterate M/E (with optional transitivity calibration).

        On hitting ``max_iter`` without likelihood convergence the posterior
        is replaced by the average of the last ``tail_window`` iterations'
        posteriors (§6's tail averaging). ``controls`` adds the reliability
        behaviors (all off by default): periodic crash-safe checkpoints,
        resuming from the latest checkpoint, and a wall-clock budget that
        stops the loop with best-so-far parameters and ``converged=False``
        instead of running to ``max_iter``.
        """
        cfg = self.config
        traced = telemetry_active()
        store = controls.checkpoint if controls is not None else None
        started_run = time.monotonic()
        with span(
            "em.fit", model=self.name, n_pairs=int(self.X.shape[0]), max_iter=cfg.max_iter
        ) as sp:
            if controls is not None and controls.resume and store is not None:
                self.resume_from_checkpoint(store)
            budget_hit = False
            while self._iteration < cfg.max_iter:
                iteration = self._iteration
                started = time.perf_counter()
                self.m_step()
                ll = self.e_step()
                if calibrator is not None and iteration >= cfg.transitivity_warmup:
                    self.history.transitivity_adjustments.append(
                        calibrator.calibrate(self.gamma)
                    )
                self._tail.append(self.gamma.copy())
                self.history.iteration_seconds.append(time.perf_counter() - started)
                self.history.log_likelihoods.append(ll)
                if traced:
                    self.history.match_probability_histograms.append(
                        match_probability_histogram(self.gamma)
                    )
                self._iteration += 1
                if self._previous_ll is not None and abs(ll - self._previous_ll) < cfg.tol:
                    self.history.converged = True
                    break
                self._previous_ll = ll
                if controls is not None and controls.time_budget_s is not None:
                    budget_hit = time.monotonic() - started_run >= controls.time_budget_s
                # Checkpoints capture the clean loop state *before* any
                # tail-averaging, so a resumed run continues exactly where
                # an uninterrupted one would be.
                if store is not None and (
                    budget_hit or self._iteration % controls.checkpoint_every == 0
                ):
                    self.save_checkpoint(store)
                if budget_hit:
                    record_condition(
                        EM_TIME_BUDGET_EXHAUSTED,
                        f"{self.name}: EM stopped after {self._iteration} iterations "
                        f"on a {controls.time_budget_s:g}s budget; returning "
                        "best-so-far parameters",
                        model=self.name,
                        iteration=self._iteration,
                        time_budget_s=controls.time_budget_s,
                    )
                    break
            if not self.history.converged:
                if not budget_hit:
                    record_condition(
                        EM_NON_CONVERGENCE,
                        f"{self.name}: EM hit max_iter={cfg.max_iter} without "
                        "likelihood convergence; returning the tail-averaged "
                        "posterior",
                        model=self.name,
                        max_iter=cfg.max_iter,
                    )
                if len(self._tail) > 1:
                    self.gamma = np.mean(np.stack(self._tail), axis=0)
            sp.set(
                n_iterations=self.history.n_iterations, converged=self.history.converged
            )
        if traced:
            emit_fit_metrics(self.name, self.history, self.gamma)
        return self.history

    # -- inference on new data ----------------------------------------------------

    def posterior(self, X: np.ndarray) -> np.ndarray:
        """Posterior match probabilities for new (already normalized) rows."""
        if self.params is None:
            raise RuntimeError("model has no parameters; fit first")
        log_m, log_u = self._log_joint(check_feature_matrix(X))
        return np.exp(log_m - np.logaddexp(log_m, log_u))
