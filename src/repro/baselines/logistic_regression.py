"""Binary logistic regression trained with L-BFGS.

The paper's "LR" baseline: a linear classifier with an L2 penalty tuned by
5-fold cross-validation (§7.1). Implemented directly on
``scipy.optimize.minimize`` with an analytic gradient. scipy is an optional
dependency (the ``baselines`` extra), imported only when a model is fitted.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_feature_matrix

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically stable in both tails
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


class LogisticRegression:
    """L2-regularized logistic regression.

    Parameters
    ----------
    l2:
        Penalty strength λ on the weights (the intercept is unpenalized).
    max_iter:
        L-BFGS iteration cap.
    """

    def __init__(self, l2: float = 1.0, max_iter: int = 200):
        if l2 < 0.0:
            raise ValueError(f"l2 must be non-negative, got {l2}")
        self.l2 = float(l2)
        self.max_iter = int(max_iter)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LogisticRegression":
        X = check_feature_matrix(X)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("y must contain only 0/1 labels")
        if len(np.unique(y)) < 2:
            raise ValueError("training data must contain both classes")
        try:
            import scipy.optimize
        except ImportError as exc:
            raise ImportError(
                "LogisticRegression needs scipy; install it with "
                "`pip install 'repro[baselines]'`"
            ) from exc
        n, d = X.shape

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w, b = params[:d], params[d]
            z = X @ w + b
            p = _sigmoid(z)
            # cross-entropy with clipping to avoid log(0)
            p_clip = np.clip(p, 1e-12, 1.0 - 1e-12)
            loss = -np.mean(y * np.log(p_clip) + (1.0 - y) * np.log1p(-p_clip))
            loss += 0.5 * self.l2 * float(w @ w) / n
            residual = p - y
            grad_w = X.T @ residual / n + self.l2 * w / n
            grad_b = float(np.mean(residual))
            return loss, np.concatenate([grad_w, [grad_b]])

        result = scipy.optimize.minimize(
            objective,
            np.zeros(d + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def _check_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("LogisticRegression must be fitted before predicting")

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_feature_matrix(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """P(y = 1 | x) for each row."""
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(np.int64)
