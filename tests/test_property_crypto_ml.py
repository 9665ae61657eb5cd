"""Property-based tests for RSA math and the ML stack."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernels import gini_impurity, square_and_multiply, tree_depth

from repro.crypto.rsa_math import (
    exponent_bits_lsb_first,
    hamming_weight,
    make_exponent_with_weight,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import (
    DecisionTreeClassifier,
    _float_criterion,
    criterion_error_bound,
)


class TestRsaProperties:
    @given(
        st.integers(min_value=0, max_value=2**64),
        st.integers(min_value=1, max_value=2**32),
        st.integers(min_value=2, max_value=2**64),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_builtin_pow(self, base, exponent, modulus):
        width = max(exponent.bit_length(), 1)
        assert square_and_multiply(base, exponent, modulus, width) == pow(
            base, exponent, modulus
        )

    @given(st.integers(min_value=0, max_value=2**128))
    @settings(max_examples=100, deadline=None)
    def test_bits_reconstruct_exponent(self, exponent):
        width = max(exponent.bit_length(), 1)
        bits = exponent_bits_lsb_first(exponent, width)
        rebuilt = sum(bit << i for i, bit in enumerate(bits))
        assert rebuilt == exponent

    @given(st.integers(min_value=0, max_value=2**128))
    @settings(max_examples=100, deadline=None)
    def test_hamming_weight_matches_bits(self, value):
        width = max(value.bit_length(), 1)
        assert hamming_weight(value) == sum(
            exponent_bits_lsb_first(value, width)
        )

    @given(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_constructed_weight_exact(self, weight, seed):
        exponent = make_exponent_with_weight(weight, width=256, seed=seed)
        assert hamming_weight(exponent) == weight
        assert exponent.bit_length() <= 256


class TestGiniProperties:
    """The float criterion the legacy parity tree splits on."""

    @given(st.lists(st.floats(min_value=0, max_value=1e6),
                    min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_gini_bounds(self, counts):
        value = gini_impurity(np.asarray(counts))
        assert -1e-9 <= value <= 1.0

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_uniform_gini_formula(self, count, k):
        counts = np.full(k, count)
        assert np.isclose(gini_impurity(counts), 1.0 - 1.0 / k)

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_pure_node_zero(self, count, k):
        counts = np.zeros(k)
        counts[0] = count
        assert gini_impurity(counts) == 0.0


def _largest_criterion_gap(labels):
    """Largest ``|w − w*|`` over every split position of one node.

    ``labels`` are the node's class codes in value order; ``w`` is the
    shipped float criterion and ``w* = 1 − (S_l/n_l + S_r/n_r)/n`` the
    exact one, ``S`` being the sum of squared class counts.
    """
    n = labels.size
    present = np.unique(labels)
    one_hot = labels[:, np.newaxis] == present
    left = np.cumsum(one_hot, axis=0)[:-1]
    parent = one_hot.sum(axis=0)
    terms = np.stack(
        [left, parent - left, np.broadcast_to(parent, left.shape)]
    ).transpose(2, 0, 1).astype(np.float64)
    n_left = np.arange(1, n)
    sizes = np.stack([n_left, n - n_left, np.full(n - 1, n)])
    weighted, _ = _float_criterion(terms, sizes)
    gap = Fraction(0)
    for position in range(n - 1):
        s_left = int((left[position] ** 2).sum())
        s_right = int(((parent - left[position]) ** 2).sum())
        exact = 1 - (
            Fraction(s_left, int(n_left[position]))
            + Fraction(s_right, n - int(n_left[position]))
        ) / n
        gap = max(gap, abs(Fraction(float(weighted[position])) - exact))
    return gap


class TestCriterionErrorBound:
    """The float-vs-exact bound the split search replays within."""

    @given(
        st.integers(min_value=2, max_value=39),
        st.integers(min_value=2, max_value=240),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_criterion_within_bound(self, n_classes, n_rows, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, size=n_rows)
        labels[:2] = 0, 1
        bound = criterion_error_bound(np.unique(labels).size)
        assert _largest_criterion_gap(labels) <= Fraction(float(bound))

    def test_39_classes_702_rows_within_bound(self):
        rng = np.random.default_rng(0)
        for labels in (
            rng.permutation(np.repeat(np.arange(39), 18)),
            np.repeat(np.arange(39), 18),
            np.sort(rng.integers(0, 39, size=702)),
        ):
            assert labels.size == 702 and np.unique(labels).size == 39
            bound = criterion_error_bound(39)
            assert _largest_criterion_gap(labels) <= Fraction(float(bound))


@st.composite
def small_dataset(draw):
    n_classes = draw(st.integers(min_value=2, max_value=4))
    n_per_class = draw(st.integers(min_value=3, max_value=10))
    d = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=1000))
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d)) * 4
    X = np.vstack(
        [
            centers[c] + rng.normal(size=(n_per_class, d))
            for c in range(n_classes)
        ]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return X, y


class TestClassifierProperties:
    @given(small_dataset())
    @settings(max_examples=30, deadline=None)
    def test_tree_proba_is_distribution(self, data):
        X, y = data
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        proba = tree.predict_proba(X)
        assert np.all(proba >= 0)
        assert np.allclose(proba.sum(axis=1), 1.0)

    @given(small_dataset())
    @settings(max_examples=30, deadline=None)
    def test_tree_predictions_are_known_classes(self, data):
        X, y = data
        tree = DecisionTreeClassifier(seed=0).fit(X, y)
        assert set(tree.predict(X)) <= set(np.unique(y))

    @given(small_dataset(), st.integers(min_value=1, max_value=31))
    @settings(max_examples=20, deadline=None)
    def test_depth_always_respected(self, data, max_depth):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=max_depth, seed=0).fit(X, y)
        assert tree_depth(tree) <= max_depth

    @given(small_dataset())
    @settings(max_examples=15, deadline=None)
    def test_forest_proba_is_distribution(self, data):
        X, y = data
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert np.all(proba >= 0)
        assert np.allclose(proba.sum(axis=1), 1.0)

    @given(small_dataset())
    @settings(max_examples=15, deadline=None)
    def test_forest_topk_rows_are_unique(self, data):
        X, y = data
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        k = forest.classes_.size
        topk = forest.predict_topk(X, k)
        for row in topk:
            assert len(set(row)) == k
