"""Machine-learning pipeline: rebalancing, splits, classifiers, tuning, AUC."""
from .classifiers import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    GaussianNaiveBayes,
    GradientBoostedTrees,
    KNearestNeighbors,
    LinearSvm,
    RandomForest,
    SgdLogistic,
    make_classifier,
    model_size,
)
from .metrics import auc
from .smote import Smote
from .split import stratified_folds, stratified_split
from .tree import CartTree
from .tune import (
    EvalResult,
    SmoteConfig,
    TunePlan,
    apply_smote_train_only,
    check_kinds,
    tune_kinds,
)

__all__ = [
    "CLASSIFIER_KINDS", "ClassifierSpec", "GaussianNaiveBayes",
    "GradientBoostedTrees", "KNearestNeighbors", "LinearSvm", "RandomForest",
    "SgdLogistic", "make_classifier", "model_size", "auc", "Smote",
    "stratified_folds", "stratified_split", "CartTree",
    "EvalResult", "SmoteConfig", "TunePlan", "apply_smote_train_only",
    "check_kinds", "tune_kinds",
]
