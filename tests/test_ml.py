import copy
import inspect
import random
import re
import warnings
import weakref
from itertools import chain

import numpy as np
import pytest

from convoforge import (
    Classifier,
    Forecaster,
    Tokenizer,
    Utterance,
    build_corpus,
    predict,
    train_classifier,
)
from convoforge import ml
from convoforge.errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptySelectionError,
    NotFittedError,
    NumericOverflowError,
)
from convoforge.ml import LinearModel
from convoforge.model import LEVELS, _level_objects, speaker_history
from convoforge.registry import create_transformer
from convoforge.textprep import utterance_tokens
from helpers import random_corpus, random_text
from reference import (
    logistic_gradient,
    logistic_loss,
    ref_bfs,
    ref_classify,
    ref_fit_vocabulary,
    ref_forecast,
    ref_predict,
    ref_train_classifier,
    ref_vectorize,
)


def fit(documents, **params):
    """The vocabulary a stage fits to the documents."""
    return ml._bag_of_words(documents, None, **params)[0]


def counts_of(vocab, tokens):
    """The tokens' row over the vocabulary, as {column: count}."""
    _, row = ml._bag_of_words([tokens], vocab)
    return dict(zip(row.indices.tolist(), row.data.tolist()))


def csr_of(dict_rows, n_features):
    """{column: value} rows, as ref_vectorize gives them, as ml._Rows with
    each row's entries in dict order."""
    indptr = np.cumsum([0] + [len(row) for row in dict_rows])
    indices = np.array([i for row in dict_rows for i in row], dtype=np.intp)
    data = np.array([v for row in dict_rows for v in row.values()], dtype=float)
    return ml._Rows(indptr, indices, data, n_features)


def level_documents(corpus, level):
    return ml._documents(corpus, level, _level_objects(corpus, level))


class TestVocabulary:
    def test_frequency_then_lexicographic_order(self):
        assert fit([["a", "b"], ["b", "c"]], min_df=1) == {"b": 0, "a": 1, "c": 2}

    def test_min_df_filters(self):
        assert fit([["a", "b"], ["b", "c"]], min_df=2) == {"b": 0}

    def test_max_terms_caps_after_ordering(self):
        assert fit([["a", "b"], ["b", "c"]], max_terms=1) == {"b": 0}

    def test_conversation_documents_concatenate(self):
        corpus = build_corpus([
            Utterance("u0", "s", "c0", "a b", None, 0),
            Utterance("u1", "s", "c0", "b c", "u0", 1),
        ])
        Tokenizer().transform(corpus)
        vocab, rows = ml._bag_of_words(level_documents(corpus, "conversation"))
        assert vocab == {"b": 0, "a": 1, "c": 2}
        assert rows.indptr.tolist() == [0, 3]
        assert rows.indices.tolist() == [1, 0, 2] and rows.data.tolist() == [1.0, 2.0, 1.0]
        # One document holds every term, so no term is in two.
        assert fit(level_documents(corpus, "conversation"), min_df=2) == {}


class TestVectorize:
    def test_counts_and_oov(self):
        vocab = fit([["a", "b"], ["b", "c"]])
        assert counts_of(vocab, ["b", "b", "z"]) == {vocab["b"]: 2.0}

    def test_empty_and_all_oov(self):
        vocab = fit([["a", "b"], ["b", "c"]])
        _, rows = ml._bag_of_words([[], ["zz", "qq"]], vocab)
        assert rows.indptr.tolist() == [0, 0, 0]
        assert rows.shape == (2, 3)

    def test_matches_counting_loops_on_random_corpora(self):
        rng = random.Random(53)
        for i in range(60):
            corpus = random_corpus(rng, max_utterances=40)
            level = LEVELS[i % len(LEVELS)]
            params = {"min_df": 1 + i % 3, "max_terms": None if i % 2 else 5}
            vocab = fit(level_documents(corpus, level), **params)
            expected = ref_fit_vocabulary(corpus, level, **params)
            assert list(vocab.items()) == list(expected.items())
            for utt in corpus.utterances.values():
                tokens = [tok for sentence in utterance_tokens(utt) for tok in sentence]
                tokens += [tok.upper() for tok in tokens[:2]]
                counts = counts_of(vocab, tokens)
                assert list(counts.items()) == list(ref_vectorize(vocab, tokens).items())


class TestExactRows:
    """Each stage fits the vocabulary of the counting loops
    (reference.ref_fit_vocabulary) and builds its rows as ref_vectorize
    would: every index with its type, and every row's entries in the same
    order, which the row's sums follow. A row merely close to the loops'
    would pass TestDenseOracle."""

    def spy_on_rows(self, monkeypatch):
        """Every _Rows a stage builds from its documents, in call order, as
        with_ones_column gives them their bias column, which is the one
        place any stage adds it: a Classifier's in train_classifier and
        predict, a Forecaster's in _utterance_rows for _fit and _transform."""
        seen = []
        with_ones_column = ml._Rows.with_ones_column

        def bias_spy(rows, where):
            seen.append(rows)
            return with_ones_column(rows, where)

        monkeypatch.setattr(ml._Rows, "with_ones_column", bias_spy)
        return seen

    def assert_same_vocabulary(self, vocab, expected):
        assert [(k, type(v), v) for k, v in vocab.items()] == \
            [(k, type(v), v) for k, v in expected.items()]

    def assert_same_rows(self, rows, vocab, documents):
        expected = csr_of([ref_vectorize(vocab, doc) for doc in documents], len(vocab))
        for got, want in ((rows.indptr, expected.indptr), (rows.indices, expected.indices),
                          (rows.data, expected.data)):
            assert got.dtype.kind == want.dtype.kind
            assert got.tolist() == want.tolist()
        assert rows.shape == expected.shape

    def check(self, seen, corpus, min_df, max_terms):
        """Compares every stage whose labels can train; returns how many."""
        params = {"min_df": min_df, "max_terms": max_terms, "epochs": 2}
        compared = 0
        for level in LEVELS:
            objects = _level_objects(corpus, level)
            for i, obj in enumerate(objects):
                obj.meta["label"] = None if i % 3 == 2 else i % 3 == 0
            labelled = [o for o in objects if o.meta["label"] is not None]
            if len({o.meta["label"] for o in labelled}) < 2:
                continue
            seen.clear()
            stage = Classifier("label", level=level, **params)
            stage.fit_transform(corpus)
            expected = ref_fit_vocabulary(corpus, level, lambda o: o.meta["label"] is not None,
                                          min_df, max_terms)
            self.assert_same_vocabulary(stage.vocab, expected)
            assert len(seen) == 2
            self.assert_same_rows(seen[0], expected, ml._documents(corpus, level, labelled))
            self.assert_same_rows(seen[1], expected, ml._documents(corpus, level, objects))
            compared += 1
        for i, convo in enumerate(corpus.conversations.values()):
            convo.meta["label"] = i % 2 == 0
        if len(corpus.conversations) >= 2:
            seen.clear()
            stage = Forecaster("label", **params)
            stage.fit_transform(corpus)
            expected = ref_fit_vocabulary(corpus, "utterance", None, min_df, max_terms)
            walk = [ml._words([utt]) for convo in corpus.conversations.values()
                    for utt in ref_bfs(corpus.utterances_in(convo.id))]
            self.assert_same_vocabulary(stage.vocab, expected)
            for rows in seen:
                self.assert_same_rows(rows, expected, walk)
            assert len(seen) == 2
            compared += 1
        return compared

    def test_stages_on_random_corpora(self, monkeypatch):
        seen = self.spy_on_rows(monkeypatch)
        rng = random.Random(54)
        compared = 0
        for i in range(45):
            corpus = random_corpus(rng, min_utterances=4, max_utterances=40)
            compared += self.check(seen, corpus, min_df=1 + i % 3,
                                   max_terms=[None, 1, 5][i // 3 % 3])
        assert compared >= 120

    def test_documents_without_terms_in_the_vocabulary(self, monkeypatch):
        seen = self.spy_on_rows(monkeypatch)
        empty = build_corpus([
            Utterance(f"c{c}_u{j}", f"s{j % 2}", f"c{c}", "", None if j == 0 else f"c{c}_u0", j)
            for c in range(3) for j in range(3)])
        assert self.check(seen, empty, min_df=1, max_terms=None) == 4
        corpus = random_corpus(random.Random(55), min_utterances=20, max_utterances=40)
        # Above every level's document count, so the vocabulary is empty.
        assert self.check(seen, corpus, min_df=len(corpus.utterances) + 1, max_terms=None) == 4


class TestTrainClassifier:
    def separable(self):
        X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        return X, y

    def test_separable_reaches_perfect_accuracy(self):
        X, y = self.separable()
        model = train_classifier(X, y, l2=0.001, epochs=500, learning_rate=0.5)
        labels, scores = predict(model, X)
        assert (labels == y.astype(bool)).all()
        assert ((scores > 0.5) == (y == 1)).all()

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            train_classifier(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]))

    def test_one_example_is_too_few(self):
        with pytest.raises(DegenerateLabelsError, match="need at least two training examples"):
            train_classifier(np.array([[1.0]]), np.array([1.0]))

    def test_rows_and_labels_must_agree_in_number(self):
        with pytest.raises(DimensionMismatchError, match="^3 rows vs 2 labels$"):
            train_classifier(np.array([[1.0], [2.0], [3.0]]), np.array([0.0, 1.0]))

    def test_duplicated_dataset_same_decision_function(self):
        X, y = self.separable()
        base = train_classifier(X, y, l2=0.1, epochs=50, learning_rate=0.3)
        doubled = train_classifier(np.vstack([X, X]), np.concatenate([y, y]),
                                   l2=0.1, epochs=50, learning_rate=0.3)
        assert np.array_equal(base.weights, doubled.weights)

    def test_loss_trace_non_increasing(self):
        X, y = self.separable()
        model = train_classifier(X, y, l2=0.5, epochs=200, learning_rate=0.05)
        trace = np.array(model.loss_trace)
        assert len(trace) == 201
        assert (np.diff(trace) <= 1e-9).all()

    def test_rows_and_their_dense_array_train_the_same_model(self):
        # The stages pass _Rows; the public form is the dense array.
        X, y = self.separable()
        X[1] = 0.0
        dense = train_classifier(X, y, l2=0.1, epochs=50, learning_rate=0.3)
        rows = train_classifier(ml._csr_rows(X), y, l2=0.1, epochs=50, learning_rate=0.3)
        assert np.array_equal(dense.weights, rows.weights)
        assert dense.loss_trace == rows.loss_trace
        for got, want in zip(predict(rows, ml._csr_rows(X)), predict(dense, X)):
            assert np.array_equal(got, want)

    def test_deterministic(self):
        X, y = self.separable()
        a = train_classifier(X, y, epochs=80)
        b = train_classifier(X, y, epochs=80)
        assert np.array_equal(a.weights, b.weights)

    # Before these arguments went through the stages' rules, each value trained
    # on these rows: with no epoch, to a final loss of 6.6e59, and of -5.0e33.
    @pytest.mark.parametrize("param,value,message", [
        ("epochs", 0, "epochs must be a positive integer, got 0"),
        ("learning_rate", -1.0, "learning_rate must be a positive finite number, got -1.0"),
        ("l2", -5.0, "l2 must be a finite number of at least 0, got -5.0"),
    ])
    def test_argument_its_rule_refuses(self, monkeypatch, param, value, message):
        monkeypatch.setattr(ml, "_descend", lambda *args: pytest.fail("training started"))
        X = np.array([[-1.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_classifier(X, [0, 1, 1], **{param: value})

    @pytest.mark.parametrize("param,value,epoch", [
        ("l2", 1e308, 2), ("learning_rate", 1e308, 1), ("learning_rate", 1e3, 52)])
    def test_a_loss_that_overflows_ends_training_at_its_epoch(self, monkeypatch, param,
                                                               value, epoch):
        # Each epoch's loss is tested once, and none after the first that is
        # not finite is computed; numpy warns of none of the overflows.
        losses = []
        loss_at = ml._loss_at

        def recorded_loss_at(*args):
            losses.append(loss_at(*args))
            return losses[-1]

        monkeypatch.setattr(ml, "_loss_at", recorded_loss_at)
        X, y = self.separable()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError,
                               match=rf"^training loss is (inf|nan) at epoch {epoch} of 100 "):
                train_classifier(X * 10, y, **{param: value})
        assert len(losses) == epoch + 1
        assert all(np.isfinite(losses[:-1])) and not np.isfinite(losses[-1])


LABEL_RULE = "^labels must be a flat sequence of 0s and 1s$"


class TestInputFaults:
    """Rows and labels that cannot form a training set raise
    DimensionMismatchError naming the row or the labels, before any
    arithmetic: a NaN would otherwise train to NaN weights."""

    def test_a_list_is_not_an_array(self, no_training):
        for X in ([[1.0, 0.0], [0.0, 1.0]], [{0: 1.0}, {1: 1.0}], ((1.0,), (0.0,))):
            message = f"^X is a {type(X).__name__}; rows need a 2-D numeric array$"
            with pytest.raises(DimensionMismatchError, match=message):
                train_classifier(X, [0, 1])
            with pytest.raises(DimensionMismatchError, match=message):
                predict(LinearModel(weights=np.zeros(3)), X)

    def test_labels_must_be_flat_and_finite(self):
        for y in ([[0], [1]], [0.0, float("nan")], [float("inf"), 0.0], 1.0):
            with pytest.raises(DimensionMismatchError, match=LABEL_RULE):
                train_classifier(np.eye(2), y)

    def test_labels_must_be_zero_or_one(self, no_training):
        # Before this rule, [0, 1, 2] trained with the default parameters from
        # a loss of 0.693 to -0.141: a cross-entropy below zero.
        X = np.array([[1.0], [2.0], [3.0]])
        for y in ([0, 1, 2], [0.0, 1.0, -1.0], [0.0, 0.5, 1.0], [0, 1, 1e308]):
            with pytest.raises(DimensionMismatchError, match=LABEL_RULE):
                train_classifier(X, y)

    def test_bool_and_float_labels_train_as_their_ints(self):
        X = np.array([[1.0], [2.0], [3.0]])
        expected = train_classifier(X, [0, 1, 1])
        for y in ([False, True, True], [0.0, 1.0, 1.0], [-0.0, 1.0, 1.0],
                  np.array([0, 1, 1], dtype=np.int8)):
            model = train_classifier(X, y)
            assert np.array_equal(model.weights, expected.weights), y
            assert model.loss_trace == expected.loss_trace, y

    @pytest.fixture
    def no_training(self, monkeypatch):
        def fail(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(ml, "_descend", fail)

    def test_string_labels(self, no_training):
        for y in (["a", "b"], ["0", "1"]):
            with pytest.raises(DimensionMismatchError, match=LABEL_RULE):
                train_classifier(np.eye(2), y)

    def test_ragged_labels(self, no_training):
        with pytest.raises(DimensionMismatchError, match=LABEL_RULE):
            train_classifier(np.eye(2), [[0], [1, 2]])

    def test_three_dimensional_rows_in_train_classifier(self, no_training):
        with pytest.raises(DimensionMismatchError, match="^X is 3-D; rows need a 2-D array$"):
            train_classifier(np.ones((2, 2, 2)), [0.0, 1.0])

    def test_three_dimensional_rows_in_predict(self):
        with pytest.raises(DimensionMismatchError, match="^X is 3-D; rows need a 2-D array$"):
            predict(LinearModel(weights=np.zeros(3)), np.ones((2, 2, 2)))

    def test_one_dimensional_rows(self, no_training):
        with pytest.raises(DimensionMismatchError, match="^X is 1-D; rows need a 2-D array$"):
            train_classifier(np.ones(2), [0.0, 1.0])
        with pytest.raises(DimensionMismatchError, match="^X is 1-D; rows need a 2-D array$"):
            predict(LinearModel(weights=np.zeros(3)), np.ones(2))

    def test_string_array(self, no_training):
        X = np.array([["a", "b"], ["c", "d"]])
        with pytest.raises(DimensionMismatchError, match="^X holds <U1, not numbers$"):
            train_classifier(X, [0, 1])
        with pytest.raises(DimensionMismatchError, match="^X holds <U1, not numbers$"):
            predict(LinearModel(weights=np.zeros(3)), X)

    def test_object_array(self, no_training):
        X = np.array([[1.0, None], [0.0, 2.0]])
        with pytest.raises(DimensionMismatchError, match="^X holds object, not numbers$"):
            train_classifier(X, [0, 1])
        with pytest.raises(DimensionMismatchError, match="^X holds object, not numbers$"):
            predict(LinearModel(weights=np.zeros(3)), X)

    def test_non_finite_values_name_their_row(self):
        model = LinearModel(weights=np.zeros(3))
        for bad in (float("nan"), float("inf"), -float("inf")):
            X = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, bad]])
            with pytest.raises(DimensionMismatchError, match=f"^row 2 holds {bad}, not a "):
                train_classifier(X, [0.0, 1.0, 1.0])
            with pytest.raises(DimensionMismatchError, match=f"^row 2 holds {bad}, not a "):
                predict(model, X)

    @pytest.mark.parametrize("rows,row,margin", [
        ([[1.0, 0.0], [1e308, 1e308]], 1, "nan"),  # inf - inf
        ([[1e308, 0.0], [1.0, 0.0]], 0, "inf"),
    ])
    def test_a_margin_that_overflows_names_its_row(self, rows, row, margin):
        # Before, predict warned of the overflow and scored the NaN margin NaN.
        model = LinearModel(weights=np.array([3.0, -3.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError,
                               match=f"^row {row}'s margin overflows to {margin}$"):
                predict(model, np.array(rows))


def assert_gradient_matches_finite_differences(w, Xb, y, l2):
    grad = logistic_gradient(w, Xb, y, l2)
    eps = 1e-6
    for j in range(len(w)):
        bump = np.zeros_like(w)
        bump[j] = eps
        numeric = (logistic_loss(w + bump, Xb, y, l2)
                   - logistic_loss(w - bump, Xb, y, l2)) / (2 * eps)
        denom = max(abs(numeric), abs(grad[j]), 1e-8)
        assert abs(grad[j] - numeric) / denom < 1e-5


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            v = int(rng.integers(1, 10))
            Xb = ml._csr_rows(np.hstack([rng.normal(size=(n, v)), np.ones((n, 1))]))
            y = rng.integers(0, 2, size=n).astype(float)
            if len(set(y.tolist())) < 2:
                y[0] = 1.0 - y[0]
            w = rng.normal(scale=0.5, size=v + 1)
            l2 = float(rng.uniform(0.0, 1.0))
            assert_gradient_matches_finite_differences(w, Xb, y, l2)

    def test_prefix_array_matches_central_finite_differences(self, monkeypatch):
        rng = np.random.default_rng(43)
        for seed, lengths in enumerate(([1, 4, 2, 7, 3], [6, 1, 2], [2, 9, 1, 1, 4, 3])):
            corpus = conversations_of(random.Random(seed), lengths)
            (Xb, y), = forecaster_training(monkeypatch, corpus)
            U, walk_lengths = dense_utterance_rows(corpus)
            assert walk_lengths == lengths
            assert np.array_equal(Xb, block_lower_ones(lengths) @ U)
            assert Xb[:, -1].tolist() == [1.0] * sum(lengths)
            w = rng.normal(scale=0.5, size=Xb.shape[1])
            l2 = float(rng.uniform(0.0, 1.0))
            assert_gradient_matches_finite_differences(w, Xb, y, l2)


def random_sparse(rng, n, v):
    """A random n × v array, mostly zeros, with an empty row and column."""
    U = rng.normal(size=(n, v))
    U[rng.random(size=(n, v)) < 0.6] = 0.0
    U[rng.integers(0, n)] = 0.0
    U[:, rng.integers(0, v)] = 0.0
    return U


def conversations_of(rng, lengths):
    """A tokenized corpus with one conversation of each length, each a
    random reply tree of short texts over a small word list (so terms
    repeat, and some utterances are empty), labelled alternately."""
    utterances = []
    for c, length in enumerate(lengths):
        ids = [f"c{c}_u{j}" for j in range(length)]
        utterances += [Utterance(uid, f"s{j % 3}", f"c{c}", random_text(rng),
                                 None if j == 0 else rng.choice(ids[:j]), j)
                       for j, uid in enumerate(ids)]
    corpus = build_corpus(utterances)
    Tokenizer().transform(corpus)
    for i, convo in enumerate(corpus.conversations.values()):
        convo.meta["label"] = i % 2 == 0
    return corpus


def forecaster_training(monkeypatch, corpus, **params):
    """The (prefix array, labels) that each Forecaster fit on the corpus
    hands to training, seen at _descend."""
    trained = []
    descend = ml._descend

    def spy(Xb, y, *args):
        trained.append((Xb, y))
        return descend(Xb, y, *args)

    monkeypatch.setattr(ml, "_descend", spy)
    Forecaster("label", epochs=1, **params).fit(corpus)
    return trained


def dense_utterance_rows(corpus, min_df=1, max_terms=None):
    """U, the counting loops' dense row of each utterance, conversation by
    conversation in traversal order, with a bias column holding 1.0 on each
    conversation's first utterance only (so that the running sums of that
    column are all ones); and the conversations' lengths."""
    vocab = ref_fit_vocabulary(corpus, "utterance", None, min_df, max_terms)
    walks = [ref_bfs(corpus.utterances_in(convo.id)) for convo in corpus.conversations.values()]
    lengths = [len(walk) for walk in walks]
    U = np.zeros((sum(lengths), len(vocab) + 1))
    for i, utt in enumerate(chain.from_iterable(walks)):
        tokens = [tok for sentence in utterance_tokens(utt) for tok in sentence]
        for j, count in ref_vectorize(vocab, tokens).items():
            U[i, j] = count
    U[np.cumsum(lengths) - lengths, -1] = 1.0
    return U, lengths


def block_lower_ones(lengths):
    """The block lower-triangular matrix of ones with the given block sizes."""
    n = sum(lengths)
    L = np.zeros((n, n))
    start = 0
    for length in lengths:
        L[start:start + length, start:start + length] = np.tril(np.ones((length, length)))
        start += length
    return L


class TestKernels:
    def test_rows_match_dense_products(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n, v = int(rng.integers(1, 30)), int(rng.integers(1, 12))
            U = random_sparse(rng, n, v)
            rows = ml._csr_rows(U)
            w, r = rng.normal(size=v), rng.normal(size=n)
            assert np.allclose(rows @ w, U @ w, rtol=0, atol=1e-12)
            assert np.allclose(r @ rows, U.T @ r, rtol=0, atol=1e-12)

    def test_dense_array_builds_its_nonzero_entries_in_row_order(self):
        dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        rows = ml._csr_rows(dense)
        assert rows.indptr.tolist() == [0, 1, 1, 3]
        assert rows.indices.tolist() == [1, 0, 2]
        assert rows.data.tolist() == [2.0, 1.0, 3.0]
        assert rows.shape == (3, 3)
        assert ml._csr_rows(rows) is rows

    def test_with_ones_column(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n, v = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            U = random_sparse(rng, n, v)
            U[rng.random(size=n) < 0.3] = 0.0
            where = rng.random(size=n) < 0.6
            got = ml._csr_rows(U).with_ones_column(where)
            expected = ml._csr_rows(np.hstack([U, where[:, None].astype(float)]))
            for x, y in ((got.indptr, expected.indptr), (got.indices, expected.indices),
                         (got.data, expected.data)):
                assert x.tolist() == y.tolist()
            assert got.shape == (n, v + 1)

    def test_running_sums_match_block_lower_triangular_products(self):
        rng = np.random.default_rng(42)
        for lengths in ([1], [3], [1, 4, 2, 7, 3], [9, 1, 1, 16, 5], [1, 1, 1]):
            n, v = sum(lengths), 5
            U = random_sparse(rng, n, v)
            L = block_lower_ones(lengths)
            w = rng.normal(size=v)
            assert np.allclose(ml._running_sums(U @ w, lengths), L @ U @ w, rtol=0, atol=1e-12)
            # A block of count rows is summed in place, exactly.
            X = rng.integers(0, 4, size=(n, v)).astype(float)
            expected = L @ X
            assert ml._running_sums(X, lengths) is X
            assert np.array_equal(X, expected)

    def test_running_sums_equal_per_run_cumsum_bit_for_bit(self):
        # The row walk makes np.cumsum's additions in its order, so on floats
        # that round, vectors and blocks alike, the sums are the same bits.
        rng = np.random.default_rng(7)
        for lengths in ([1], [1, 1, 1], [5], [1, 6, 1, 2, 9, 1], [13, 1, 4]):
            for shape in ((sum(lengths),), (sum(lengths), 6)):
                values = rng.normal(scale=1e3, size=shape)
                expected = np.concatenate([np.cumsum(run, axis=0) for run in np.split(
                    values, np.cumsum(lengths)[:-1])])
                assert ml._running_sums(values, lengths) is values
                assert np.array_equal(values, expected)

    def test_running_sums_do_not_cancel_across_conversations(self):
        # A running total carried over from a conversation of huge values
        # would swallow the next conversation's small ones.
        big = [1e17, 1e17, 1e17]
        sums = ml._running_sums(np.array(big + [1.0, 1.0, 1.0]), [3, 3])
        assert sums.tolist()[3:] == [1.0, 2.0, 3.0]


class TestPrefixArray:
    """The forecaster trains on the prefix array L·U: U holds each
    utterance's count row and a bias column of 1.0 on each conversation's
    first utterance, and L is block lower-triangular ones over the
    conversations. On count data every sum is exact, so the array must
    equal the product exactly."""

    def test_one_utterance_conversations_give_the_dense_rows(self, monkeypatch):
        rng = random.Random(45)
        for n in range(2, 22):
            corpus = conversations_of(rng, [1] * n)
            (Xb, _), = forecaster_training(monkeypatch, corpus)
            U, _ = dense_utterance_rows(corpus)
            assert np.array_equal(Xb, U)
        # No utterance holds a term of the vocabulary: only the bias is left.
        corpus = conversations_of(rng, [1, 1, 1])
        (Xb, _), = forecaster_training(monkeypatch, corpus, min_df=4)
        assert Xb.tolist() == [[1.0]] * 3

    def test_matches_block_lower_triangular_products(self, monkeypatch):
        rng = random.Random(42)
        compared = 0
        for i in range(40):
            corpus = random_corpus(rng, max_utterances=50)
            if len(corpus.conversations) < 2:
                continue
            for j, convo in enumerate(corpus.conversations.values()):
                convo.meta["label"] = j % 2 == 0
            params = {"min_df": 1 + i % 2, "max_terms": None if i % 3 else 6}
            (Xb, _), = forecaster_training(monkeypatch, corpus, **params)
            U, lengths = dense_utterance_rows(corpus, **params)
            assert Xb.dtype == np.float64 and Xb.flags.c_contiguous
            assert np.array_equal(Xb, block_lower_ones(lengths) @ U)
            compared += 1
        assert compared >= 30

    def test_fit_drops_its_rows_before_training(self, monkeypatch):
        # The sparse rows have been copied into the prefix array, which is
        # as large as training gets: by then nothing may hold them.
        rows_alive = []
        refs = []
        utterance_rows = Forecaster._utterance_rows
        descend = ml._descend

        def rows_spy(stage, corpus, conversations, vocab=None):
            utterances, lengths, rows = utterance_rows(stage, corpus, conversations, vocab)
            refs.append(weakref.ref(rows))
            return utterances, lengths, rows

        def descend_spy(*args):
            rows_alive.append([ref() is not None for ref in refs])
            return descend(*args)

        monkeypatch.setattr(Forecaster, "_utterance_rows", rows_spy)
        monkeypatch.setattr(ml, "_descend", descend_spy)
        Forecaster("label", epochs=1).fit(conversations_of(random.Random(46), [3, 2, 4]))
        assert rows_alive == [[False]]


class TestPredict:
    def test_zero_weights_give_half(self):
        model = LinearModel(weights=np.zeros(3))
        _, scores = predict(model, np.array([[5.0, -2.0], [0.0, 0.0]]))
        assert (scores == 0.5).all()

    def test_scores_in_open_interval(self):
        X = np.array([[-1.0], [1.0]])
        model = train_classifier(X, np.array([0.0, 1.0]), epochs=300, learning_rate=1.0)
        _, scores = predict(model, np.array([[-100.0], [100.0]]))
        assert (scores > 0.0).all() and (scores < 1.0).all()

    def test_dimension_mismatch(self):
        X = np.array([[-1.0], [1.0]])
        model = train_classifier(X, np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            predict(model, np.array([[1.0, 2.0]]))


def labelled_conversations():
    """Positive conversations contain "x"; negatives never do."""
    utts = []
    texts = {
        "p0": ["we have x today", "more x here", "closing words"],
        "p1": ["x appears immediately", "quiet turn"],
        "n0": ["nothing special", "still nothing", "done now"],
        "n1": ["plain talk", "plain reply"],
    }
    for cid, lines in texts.items():
        for i, line in enumerate(lines):
            utts.append(Utterance(
                f"{cid}_u{i}", f"s{i % 2}", cid, line,
                None if i == 0 else f"{cid}_u{i - 1}", i,
            ))
    corpus = build_corpus(utts)
    for cid, convo in corpus.conversations.items():
        convo.meta["doomed"] = cid.startswith("p")
    return corpus


class TestForecaster:
    def test_planted_signal_scores(self):
        corpus = labelled_conversations()
        forecaster = Forecaster(label_key="doomed", l2=0.001, epochs=400,
                                learning_rate=0.5)
        forecaster.fit(corpus)
        forecaster.transform(corpus)
        # Every prefix of a positive conversation contains "x" from its first
        # utterance, so all positive-prefix scores clear 0.5.
        assert corpus.utterances["p0_u0"].meta["forecast"] > 0.5
        assert corpus.utterances["p1_u1"].meta["forecast"] > 0.5
        assert corpus.utterances["n0_u2"].meta["forecast"] < 0.5
        for cid, convo in corpus.conversations.items():
            last = corpus.utterances[f"{cid}_u{len(convo.utterance_ids) - 1}"]
            assert convo.meta["forecast_final"] == last.meta["forecast"]

    def test_one_training_pair_per_utterance(self):
        corpus = labelled_conversations()
        forecaster = Forecaster(label_key="doomed")
        forecaster.fit(corpus)
        utterances, lengths, rows = forecaster._utterance_rows(corpus,
                                                               corpus.conversations.values())
        assert rows.shape[0] == len(utterances) == sum(lengths) == len(corpus.utterances)

    def test_transform_of_an_empty_corpus(self):
        forecaster = Forecaster(label_key="doomed")
        forecaster.fit(labelled_conversations())
        empty = build_corpus([])
        forecaster.transform(empty)
        assert empty.utterances == {} and empty.conversations == {}

    def test_trains_on_the_labelled_conversations_and_forecasts_every_one(self):
        # Labels true, false, null and absent: the fit is the fit on the
        # corpus without the two unlabelled conversations, bit for bit, and
        # every utterance and conversation is forecast.
        corpus = labelled_conversations()
        corpus.conversations["p1"].meta["doomed"] = None
        del corpus.conversations["n1"].meta["doomed"]
        labelled = build_corpus([utt for utt in labelled_conversations().utterances.values()
                                 if utt.conversation_id in ("p0", "n0")])
        labelled.conversations["p0"].meta["doomed"] = True
        labelled.conversations["n0"].meta["doomed"] = False
        expected = copy.deepcopy(corpus)
        partial, alone = Forecaster("doomed"), Forecaster("doomed")
        partial.fit_transform(corpus)
        alone.fit(labelled)
        assert np.array_equal(partial.model.weights, alone.model.weights)
        assert partial.vocab == alone.vocab
        alone.transform(expected)
        forecasts = {utt.id: utt.meta["forecast"] for utt in corpus.utterances.values()}
        assert len(forecasts) == 10
        assert forecasts == {utt.id: utt.meta["forecast"] for utt in expected.utterances.values()}
        assert [c.meta["forecast_final"] for c in corpus.conversations.values()] == \
            [c.meta["forecast_final"] for c in expected.conversations.values()]

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            Forecaster(label_key="doomed").transform(labelled_conversations())

    def test_single_utterance_conversation(self):
        corpus = build_corpus([
            Utterance("a0", "s", "a", "x marks it", None, 0),
            Utterance("b0", "s", "b", "empty talk", None, 0),
        ])
        for cid, convo in corpus.conversations.items():
            convo.meta["doomed"] = cid == "a"
        forecaster = Forecaster(label_key="doomed", epochs=300, learning_rate=0.5)
        forecaster.fit(corpus)
        forecaster.transform(corpus)
        assert corpus.conversations["a"].meta["forecast_final"] == \
            corpus.utterances["a0"].meta["forecast"]

    def test_causality_suffix_mutation(self):
        corpus = labelled_conversations()
        forecaster = Forecaster(label_key="doomed", epochs=150)
        forecaster.fit(corpus)
        forecaster.transform(corpus)
        before = {u.id: u.meta["forecast"] for u in corpus.utterances.values()}

        mutated = copy.deepcopy(corpus)
        # Rewrite everything after position 1 in p0.
        mutated.utterances["p0_u2"].text = "entirely different suffix words"
        forecaster.transform(mutated)
        for uid in ("p0_u0", "p0_u1"):
            assert mutated.utterances[uid].meta["forecast"] == before[uid]
        assert mutated.utterances["p0_u2"].meta["forecast"] != before["p0_u2"]


class TestClassifierTransformer:
    def test_conversation_level_classification(self):
        corpus = labelled_conversations()
        clf = Classifier(label_key="doomed", level="conversation", l2=0.001,
                         epochs=400, learning_rate=0.5)
        clf.fit(corpus)
        clf.transform(corpus)
        for cid, convo in corpus.conversations.items():
            assert convo.meta["prediction"] == cid.startswith("p")
            assert 0.0 < convo.meta["prediction_score"] < 1.0
        table = clf.summarize(corpus)
        assert len(table.rows) == len(corpus.conversations)

    def test_no_labels_anywhere(self):
        corpus = build_corpus([Utterance("u", "s", "c", "hello")])
        with pytest.raises(EmptySelectionError):
            Classifier(label_key="missing").fit(corpus)

    # A long value is spelled to its first 60 characters, as every refused value is.
    @pytest.mark.parametrize("level, spelled", [
        ("x", '"x"'), ("x" * 100, f'"{"x" * 59}...'), (None, "null"),
        (["utterance"], '["utterance"]'), ("Utterance", '"Utterance"'),
    ], ids=["short", "long", "null", "list", "case"])
    def test_unknown_level_refused_by_the_constructor(self, level, spelled):
        with pytest.raises(ValueError) as refused:
            Classifier(label_key="doomed", level=level)
        assert str(refused.value) == (
            f"level must be one of ('utterance', 'conversation', 'speaker'), got {spelled}")


class TestFitThenTransform:
    """A stage fitted to one corpus and then applied to a copy writes
    exactly the annotations fit_transform writes; the fit writes none."""

    def stages(self):
        return [Classifier("label", level=level, epochs=20) for level in LEVELS] + \
            [Forecaster("label", epochs=20)]

    def annotations(self, corpus):
        return [(obj.id, obj.meta) for obj in (*corpus.utterances.values(),
                                               *corpus.conversations.values(),
                                               *corpus.speakers.values())]

    def test_on_random_corpora(self):
        rng = random.Random(56)
        for _ in range(12):
            corpus = random_corpus(rng, min_utterances=12, max_utterances=40)
            for level in LEVELS:
                for i, obj in enumerate(_level_objects(corpus, level)):
                    obj.meta["label"] = i % 2 == 0
            if min(len(_level_objects(corpus, level)) for level in LEVELS) < 2:
                continue
            for stage, fresh in zip(self.stages(), self.stages()):
                before = copy.deepcopy(self.annotations(corpus))
                applied, expected = copy.deepcopy(corpus), copy.deepcopy(corpus)
                stage.fit(corpus)
                assert self.annotations(corpus) == before
                stage.transform(applied)
                fresh.fit_transform(expected)
                assert self.annotations(applied) == self.annotations(expected) != before

    def test_empty_and_unlabelled_corpora(self):
        unlabelled = labelled_conversations()
        for corpus in (build_corpus([]), unlabelled):
            for stage in [Classifier("label", level=level) for level in LEVELS] + \
                    [Forecaster("label")]:
                with pytest.raises(EmptySelectionError,
                                   match=f"^no {stage.level}s carry label key 'label'$"):
                    stage.fit(corpus)


def test_forecaster_takes_the_classifier_parameters_but_level():
    # One constructor: the same names, order and defaults, so one params
    # dict builds either stage.
    classifier = inspect.signature(Classifier).parameters
    forecaster = inspect.signature(Forecaster).parameters
    assert list(classifier)[:2] == ["label_key", "level"]
    assert [(p.name, p.default) for p in forecaster.values()] == \
        [(p.name, p.default) for p in classifier.values() if p.name != "level"]
    params = {"label_key": "doomed", "min_df": 2, "max_terms": 5, "l2": 0.1, "epochs": 3,
              "learning_rate": 0.01}
    for name in ("classifier", "forecaster"):
        stage = create_transformer(name, params)
        assert {key: getattr(stage, key) for key in params} == params
        assert stage.requires_fit and stage.vocab is None and stage.model is None
    assert create_transformer("classifier", params).level == "utterance"
    assert create_transformer("forecaster", params).level == "conversation"


class TestSpeakerDocuments:
    def speaker_predictions(self, corpus):
        Classifier("label", level="speaker", epochs=20).fit_transform(corpus)
        return [(s.meta["prediction"], s.meta["prediction_score"])
                for s in corpus.speakers.values()]

    def test_matches_per_speaker_history(self, monkeypatch):
        rng = random.Random(11)
        compared = 0
        for _ in range(40):
            corpus = random_corpus(rng, max_utterances=40)
            if len(corpus.speakers) < 2:
                continue
            for i, spk in enumerate(corpus.speakers.values()):
                spk.meta["label"] = i % 2 == 0
            expected = copy.deepcopy(corpus)
            with monkeypatch.context() as patched:
                patched.setattr(ml, "_speaker_histories", lambda c: {
                    sid: speaker_history(c, sid) for sid in c.speakers})
                expected_predictions = self.speaker_predictions(expected)
            assert self.speaker_predictions(corpus) == expected_predictions
            compared += 1
        assert compared > 20


class TestDenseOracle:
    """Classifier and Forecaster against the dense path they replaced
    (reference.ref_classify and ref_forecast): labels exactly, and scores,
    and the Classifier's weights and loss traces, within 1e-9, which
    leaves room for sums taken in another order (about 1e-12 apart on the
    benchmark corpora). The Forecaster trains through the same BLAS
    products on the same prefix array as the oracle, so its weights and
    loss traces must be equal."""

    TOL = 1e-9

    def close(self, a, b):
        return np.allclose(a, b, rtol=0.0, atol=self.TOL)

    def label(self, rng, objects, share=1.0):
        chosen = [o for o in objects if rng.random() < share] or objects
        for obj in chosen:
            obj.meta["label"] = rng.random() < 0.5
        chosen[0].meta["label"] = True
        chosen[-1].meta["label"] = False
        return len(chosen) >= 2

    def check_classifier(self, corpus, level, **params):
        model, expected = ref_classify(corpus, "label", level, **params)
        clf = Classifier("label", level=level, **params)
        clf.fit_transform(corpus)
        assert self.close(clf.model.weights, model.weights)
        assert self.close(clf.model.loss_trace, model.loss_trace)
        for obj in _level_objects(corpus, level):
            label, score = expected[obj.id]
            assert obj.meta["prediction"] is label, (level, obj.id)
            assert abs(obj.meta["prediction_score"] - score) <= self.TOL

    def check_forecaster(self, corpus, **params):
        model, forecasts, finals = ref_forecast(corpus, "label", **params)
        forecaster = Forecaster("label", **params)
        forecaster.fit_transform(corpus)
        assert np.array_equal(forecaster.model.weights, model.weights)
        assert forecaster.model.loss_trace == model.loss_trace
        for utt in corpus.utterances.values():
            assert abs(utt.meta["forecast"] - forecasts[utt.id]) <= self.TOL, utt.id
        for cid, convo in corpus.conversations.items():
            assert abs(convo.meta["forecast_final"] - finals[cid]) <= self.TOL, cid

    def test_classifier_at_every_level_on_random_corpora(self):
        rng = random.Random(51)
        compared = dict.fromkeys(LEVELS, 0)
        for i in range(90):
            level = LEVELS[i % len(LEVELS)]
            corpus = random_corpus(rng, max_utterances=40)
            if not self.label(rng, _level_objects(corpus, level), share=0.8):
                continue
            self.check_classifier(corpus, level, epochs=60,
                                  max_terms=None if i % 2 else 6)
            compared[level] += 1
        assert min(compared.values()) >= 15

    def test_train_classifier_and_predict_on_random_arrays(self):
        # The public form, a dense array: float, integer and bool dtypes, one
        # column or several, with an all-zero row and an all-zero column.
        rng = np.random.default_rng(53)
        dtypes = [np.float64, np.int64, np.int32, np.bool_]
        for i in range(48):
            dtype = dtypes[i % len(dtypes)]
            n, v = int(rng.integers(2, 25)), 1 if i % 3 == 0 else int(rng.integers(2, 9))
            X, Z = (rng.integers(-3, 4, size=(m, v)).astype(dtype) if dtype != np.float64
                    else rng.normal(size=(m, v)) for m in (n, int(rng.integers(1, 12))))
            X[rng.integers(0, n)] = 0
            if v > 1:
                X[:, rng.integers(0, v)] = 0
            y = rng.integers(0, 2, size=n)
            y[0], y[-1] = 1, 0
            params = {"l2": float(rng.uniform(0.0, 0.5)), "epochs": int(rng.integers(1, 60)),
                      "learning_rate": float(rng.uniform(0.05, 0.5))}
            model = train_classifier(X, y, **params)
            expected = ref_train_classifier(X, y, **params)
            assert self.close(model.weights, expected.weights), i
            assert self.close(model.loss_trace, expected.loss_trace), i
            for rows in (X, Z):
                labels, scores = predict(model, rows)
                ref_labels, ref_scores = ref_predict(model, rows)
                assert labels.tolist() == ref_labels.tolist(), i
                assert self.close(scores, ref_scores), i

    def test_forecaster_on_random_corpora(self):
        rng = random.Random(52)
        compared = 0
        for i in range(40):
            corpus = random_corpus(rng, max_utterances=50)
            if not self.label(rng, list(corpus.conversations.values())):
                continue
            self.check_forecaster(corpus, epochs=60, max_terms=None if i % 2 else 6)
            compared += 1
        assert compared >= 25

    def edge_corpus(self):
        """A conversation of one utterance, and utterances with no tokens or
        only out-of-vocabulary ones."""
        corpus = build_corpus([
            Utterance("a0", "s0", "a", "lonely words here", None, 0),
            Utterance("b0", "s1", "b", "x marks it", None, 0),
            Utterance("b1", "s2", "b", "", "b0", 1),
            Utterance("b2", "s1", "b", "x again and x", "b1", 2),
            Utterance("c0", "s2", "c", "", None, 0),
            Utterance("c1", "s0", "c", "rare zebra", "c0", 1),
            Utterance("c2", "s1", "c", "plain words", "c0", 2),
        ])
        for obj in [*corpus.conversations.values(), *corpus.utterances.values(),
                    *corpus.speakers.values()]:
            obj.meta["label"] = obj.id.startswith(("b", "s1"))
        return corpus

    def test_single_utterance_conversation_and_empty_utterances(self):
        for max_terms in (None, 3):
            for level in LEVELS:
                self.check_classifier(self.edge_corpus(), level, epochs=80,
                                      max_terms=max_terms)
            self.check_forecaster(self.edge_corpus(), epochs=80, max_terms=max_terms)
