"""Baseline matchers, implemented from scratch on numpy (scipy for LR only).

Supervised (the paper's §7.1 setup: 50/50 split, match oversampling, 5-fold
CV tuning): logistic regression, random forest, multi-layer perceptron.

Unsupervised: K-Means (standard "SK" and class-weighted "RL" variants),
full-covariance Gaussian mixture with a Tikhonov floor, and the
Fellegi–Sunter ECM classifier.
"""

from repro.baselines.logistic_regression import LogisticRegression
from repro.baselines.tree import DecisionTreeClassifier
from repro.baselines.random_forest import RandomForestClassifier
from repro.baselines.mlp import MLPClassifier
from repro.baselines.kmeans import KMeansMatcher
from repro.baselines.gmm import GaussianMixtureMatcher
from repro.baselines.ecm import ECMClassifier
from repro.baselines.model_selection import (
    grid_search_cv,
    kfold_indices,
    oversample_minority,
    train_test_split,
)

__all__ = [
    "LogisticRegression",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "MLPClassifier",
    "KMeansMatcher",
    "GaussianMixtureMatcher",
    "ECMClassifier",
    "train_test_split",
    "kfold_indices",
    "grid_search_cv",
    "oversample_minority",
]
