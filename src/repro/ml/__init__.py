"""From-scratch ML stack: CART tree, random forest, CV, metrics."""

from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LogisticRegressionClassifier, softmax
from repro.ml.metrics import accuracy, confusion_matrix, top_k_accuracy
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.validation import (
    CrossValidationResult,
    cross_validate,
    stratified_kfold_indices,
)

__all__ = [
    "RandomForestClassifier",
    "LogisticRegressionClassifier",
    "softmax",
    "KNeighborsClassifier",
    "accuracy",
    "confusion_matrix",
    "top_k_accuracy",
    "DecisionTreeClassifier",
    "CrossValidationResult",
    "cross_validate",
    "stratified_kfold_indices",
]
