"""Multinomial logistic regression: the linear fingerprinting baseline.

Softmax regression trained by full-batch gradient descent with L2
regularization — deliberately minimal, used by the classifier-ablation
bench to show that even a linear decision surface extracts most of the
fingerprinting signal from the current channel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import (
    require_int_in_range,
    require_non_negative,
    require_positive,
)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegressionClassifier:
    """Softmax regression with gradient descent.

    Features are z-scored with training statistics: raw hwmon readings
    span hundreds of mA, and scaling is essential for a fixed learning
    rate.

    Args:
        learning_rate: gradient step size.
        n_iterations: full-batch steps.
        l2: ridge penalty on the weights (not the bias).
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        n_iterations: int = 300,
        l2: float = 1e-3,
    ):
        self.learning_rate = require_positive(learning_rate, "learning_rate")
        self.n_iterations = require_int_in_range(
            n_iterations, 1, 10_000_000, "n_iterations"
        )
        self.l2 = require_non_negative(l2, "l2")
        self.classes_: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._bias: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def _prepare(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if self._mean is not None:
            X = (X - self._mean) / self._scale
        return X

    def fit(
        self, X: np.ndarray, y: np.ndarray
    ) -> "LogisticRegressionClassifier":
        """Train on (X, y) by full-batch gradient descent."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with one label per row of X")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        self._scale = np.where(scale > 0, scale, 1.0)
        X = self._prepare(X)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        n, d = X.shape
        k = self.classes_.size
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), encoded] = 1.0
        self._weights = np.zeros((d, k))
        self._bias = np.zeros(k)
        for _ in range(self.n_iterations):
            proba = softmax(X @ self._weights + self._bias)
            gradient_logits = (proba - one_hot) / n
            gradient_weights = X.T @ gradient_logits + self.l2 * self._weights
            gradient_bias = gradient_logits.sum(axis=0)
            self._weights -= self.learning_rate * gradient_weights
            self._bias -= self.learning_rate * gradient_bias
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax class probabilities per row."""
        if self._weights is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        X = self._prepare(X)
        if X.shape[1] != self._weights.shape[0]:
            raise ValueError(
                f"X must have {self._weights.shape[0]} features, "
                f"got {X.shape[1]}"
            )
        return softmax(X @ self._weights + self._bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def predict_topk(self, X: np.ndarray, k: int) -> np.ndarray:
        """The k most probable classes per row, best first."""
        k = require_int_in_range(k, 1, self.classes_.size, "k")
        proba = self.predict_proba(X)
        order = np.argsort(-proba, axis=1, kind="stable")[:, :k]
        return self.classes_[order]

    def __repr__(self) -> str:
        return (
            f"LogisticRegressionClassifier(lr={self.learning_rate}, "
            f"iters={self.n_iterations}, l2={self.l2})"
        )
