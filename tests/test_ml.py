import copy
import inspect
import json
import random
import re

import numpy as np
import pytest

from convoforge import (
    Classifier,
    Forecaster,
    Tokenizer,
    Utterance,
    build_corpus,
    fit_vocabulary,
    load_model,
    predict,
    save_model,
    train_classifier,
    vectorize,
)
from convoforge import ml
from convoforge.errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptySelectionError,
    MalformedRecordError,
    MissingFileError,
    MissingLabelError,
    NotFittedError,
    UnserializableValueError,
    UnsupportedVersionError,
)
from convoforge.ml import LinearModel
from convoforge.model import LEVELS, _level_objects, speaker_history
from convoforge.registry import create_transformer
from convoforge.textprep import utterance_tokens
from helpers import random_corpus
from reference import (
    logistic_gradient,
    logistic_loss,
    ref_classify,
    ref_fit_vocabulary,
    ref_forecast,
    ref_vectorize,
)


MODEL_BYTES = """\
{
  "format_version": "1.0",
  "weights": [
    0.5,
    -1.25,
    1e-20
  ],
  "config": {
    "l2": 0.01,
    "epochs": 3
  },
  "vocabulary": {
    "terms": [
      "café",
      "b"
    ],
    "doc_freq": {
      "café": 1,
      "b": 1
    },
    "config": {
      "min_df": 1,
      "max_terms": null,
      "lowercase": true
    }
  }
}
""".encode("utf-8")


def tokenized(texts):
    corpus = build_corpus([
        Utterance(f"u{i}", "s", f"c{i}", text, None, i) for i, text in enumerate(texts)
    ])
    Tokenizer().transform(corpus)
    return corpus


class TestVocabulary:
    def test_frequency_then_lexicographic_order(self):
        vocab = fit_vocabulary(tokenized(["a b", "b c"]), min_df=1)
        assert vocab.terms == ["b", "a", "c"]

    def test_min_df_filters(self):
        vocab = fit_vocabulary(tokenized(["a b", "b c"]), min_df=2)
        assert vocab.terms == ["b"]

    def test_max_terms_caps_after_ordering(self):
        vocab = fit_vocabulary(tokenized(["a b", "b c"]), max_terms=1)
        assert vocab.terms == ["b"]

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            fit_vocabulary(tokenized(["a"]), selector=lambda u: False)

    def test_conversation_documents_concatenate(self):
        corpus = build_corpus([
            Utterance("u0", "s", "c0", "a b", None, 0),
            Utterance("u1", "s", "c0", "b c", "u0", 1),
        ])
        Tokenizer().transform(corpus)
        vocab = fit_vocabulary(corpus, level="conversation", min_df=1)
        assert vocab.doc_freq == {"a": 1, "b": 1, "c": 1}


class TestVectorize:
    def test_counts_and_oov(self):
        vocab = fit_vocabulary(tokenized(["a b", "b c"]))
        counts = vectorize(vocab, ["b", "b", "z"])
        assert counts == {vocab.index["b"]: 2.0}

    def test_empty_and_all_oov(self):
        vocab = fit_vocabulary(tokenized(["a b", "b c"]))
        assert vectorize(vocab, []) == {}
        assert vectorize(vocab, ["zz", "qq"]) == {}

    def test_matches_counting_loops_on_random_corpora(self):
        rng = random.Random(53)
        for i in range(60):
            corpus = random_corpus(rng, max_utterances=40)
            level = LEVELS[i % len(LEVELS)]
            params = {"min_df": 1 + i % 3, "max_terms": None if i % 2 else 5,
                      "lowercase": i % 5 != 0}
            vocab = fit_vocabulary(corpus, level, **params)
            expected = ref_fit_vocabulary(corpus, level, **params)
            assert list(vocab.index.items()) == list(expected.index.items())
            assert list(vocab.doc_freq.items()) == list(expected.doc_freq.items())
            assert vocab.config == expected.config
            for utt in corpus.utterances.values():
                tokens = [tok for sentence in utterance_tokens(utt) for tok in sentence]
                tokens += [tok.upper() for tok in tokens[:2]]
                counts = vectorize(vocab, tokens)
                assert list(counts.items()) == list(ref_vectorize(vocab, tokens).items())


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

    def test_deterministic(self):
        X, y = self.separable()
        a = train_classifier(X, y, epochs=80)
        b = train_classifier(X, y, epochs=80)
        assert np.array_equal(a.weights, b.weights)

    def test_sparse_input(self):
        X = [{0: 1.0}, {}, {0: 2.0}, {1: 1.0}]
        y = [1.0, 0.0, 1.0, 0.0]
        model = train_classifier(X, y, n_features=2, l2=0.001, epochs=400,
                                 learning_rate=0.5)
        labels, _ = predict(model, X)
        assert labels.tolist() == [True, False, True, False]


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
            Xb = ml._csr_rows(np.hstack([rng.normal(size=(n, v)), np.ones((n, 1))]), None)
            y = rng.integers(0, 2, size=n).astype(float)
            if len(set(y.tolist())) < 2:
                y[0] = 1.0 - y[0]
            w = rng.normal(scale=0.5, size=v + 1)
            l2 = float(rng.uniform(0.0, 1.0))
            assert_gradient_matches_finite_differences(w, Xb, y, l2)

    def test_prefix_array_matches_central_finite_differences(self):
        rng = np.random.default_rng(43)
        for lengths in ([1, 4, 2, 7, 3], [6, 1, 2], [2, 9, 1, 1, 4, 3]):
            n, v = sum(lengths), int(rng.integers(1, 8))
            # The bias column of U holds 1.0 on each conversation's first
            # utterance, so that of L·U is all ones.
            first = np.zeros((n, 1))
            first[np.cumsum(lengths) - lengths] = 1.0
            U = np.hstack([random_sparse(rng, n, v), first])
            Xb = ml._DenseRows(ml._running_sums(ml._csr_rows(U, None).to_array(), lengths))
            assert np.allclose(Xb.array, block_lower_ones(lengths) @ U, rtol=0, atol=1e-12)
            assert Xb.array[:, -1].tolist() == [1.0] * n
            y = rng.integers(0, 2, size=n).astype(float)
            y[:2] = [0.0, 1.0]
            w = rng.normal(scale=0.5, size=v + 1)
            l2 = float(rng.uniform(0.0, 1.0))
            assert_gradient_matches_finite_differences(w, Xb, y, l2)


def random_sparse(rng, n, v):
    """A random n × v array, mostly zeros, with an empty row and column."""
    U = rng.normal(size=(n, v))
    U[rng.random(size=(n, v)) < 0.6] = 0.0
    U[rng.integers(0, n)] = 0.0
    U[:, rng.integers(0, v)] = 0.0
    return U


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
            rows = ml._csr_rows(U, None)
            w, r = rng.normal(size=v), rng.normal(size=n)
            assert np.allclose(rows.matvec(w), U @ w, rtol=0, atol=1e-12)
            assert np.allclose(rows.rmatvec(r), U.T @ r, rtol=0, atol=1e-12)

    def test_sparse_and_dense_inputs_build_the_same_rows(self):
        dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        a = ml._csr_rows(dense, None)
        b = ml._csr_rows([{1: 2.0}, {}, {0: 1.0, 2: 3.0}], 3)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert x.tolist() == y.tolist()
        assert a.n_features == b.n_features == 3

    def test_with_ones_column(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n, v = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            U = random_sparse(rng, n, v)
            U[rng.random(size=n) < 0.3] = 0.0
            where = rng.random(size=n) < 0.6
            got = ml._csr_rows(U, None).with_ones_column(where)
            expected = ml._csr_rows(np.hstack([U, where[:, None].astype(float)]), None)
            for x, y in ((got.indptr, expected.indptr), (got.indices, expected.indices),
                         (got.data, expected.data)):
                assert x.tolist() == y.tolist()
            assert got.n_features == v + 1

    def test_feature_index_out_of_range(self):
        for bad in (3, -1):
            with pytest.raises(DimensionMismatchError, match=f"feature index {bad} out"):
                ml._csr_rows([{0: 1.0}, {bad: 1.0}], 3)
        with pytest.raises(DimensionMismatchError, match="n_features is required"):
            ml._csr_rows([{0: 1.0}], None)

    def test_to_array_rebuilds_the_dense_rows(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            U = random_sparse(rng, int(rng.integers(1, 12)), int(rng.integers(1, 6)))
            assert np.array_equal(ml._csr_rows(U, None).to_array(), U)
        assert ml._csr_rows([{}, {}], 3).to_array().tolist() == [[0.0] * 3] * 2

    def test_running_sums_match_block_lower_triangular_products(self):
        rng = np.random.default_rng(42)
        for lengths in ([1], [3], [1, 4, 2, 7, 3], [9, 1, 1, 16, 5], [1, 1, 1]):
            n, v = sum(lengths), 5
            U = random_sparse(rng, n, v)
            L = block_lower_ones(lengths)
            w = rng.normal(size=v)
            assert np.allclose(ml._running_sums(U @ w, lengths), L @ U @ w, rtol=0, atol=1e-12)
            assert np.allclose(ml._running_sums(U.copy(), lengths), L @ U, rtol=0, atol=1e-12)

    def test_running_sums_do_not_cancel_across_conversations(self):
        # A running total carried over from a conversation of huge values
        # would swallow the next conversation's small ones.
        big = [1e17, 1e17, 1e17]
        sums = ml._running_sums(np.array(big + [1.0, 1.0, 1.0]), [3, 3])
        assert sums.tolist()[3:] == [1.0, 2.0, 3.0]


class TestPredict:
    def test_zero_weights_give_half(self):
        from convoforge.ml import LinearModel
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


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = tokenized(["spam spam eggs", "ham eggs", "spam bad", "fine ham"])
        vocab = fit_vocabulary(corpus)
        X = [vectorize(vocab, ["spam", "eggs"]), vectorize(vocab, ["ham"])]
        model = train_classifier(X, [1.0, 0.0], n_features=vocab.size,
                                 l2=0.01, epochs=100)
        path = tmp_path / "model.json"
        save_model(path, model, vocab)
        model2, vocab2 = load_model(path)
        assert vocab2.index == vocab.index
        _, before = predict(model, X)
        _, after = predict(model2, X)
        assert np.array_equal(before, after)

    def test_file_bytes(self, tmp_path):
        # The model file layout: key order, indentation, and non-ASCII
        # terms written as themselves.
        vocab = fit_vocabulary(tokenized(["café b café"]))
        path = tmp_path / "model.json"
        save_model(path, LinearModel(weights=np.array([0.5, -1.25, 1e-20]),
                                     config={"l2": 0.01, "epochs": 3}), vocab)
        assert path.read_bytes() == MODEL_BYTES

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": "9.0"}')
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused_and_nothing_written(self, tmp_path, value):
        vocab = fit_vocabulary(tokenized(["a b"]))
        model = LinearModel(weights=np.array([0.5, value, 0.0]))
        path = tmp_path / "model.json"
        with pytest.raises(UnserializableValueError, match="weight 1"):
            save_model(path, model, vocab)
        assert not path.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_literal_in_model_file_refused(self, tmp_path, literal):
        vocab = fit_vocabulary(tokenized(["a b"]))
        path = tmp_path / "model.json"
        save_model(path, LinearModel(weights=np.array([0.5, -1.0, 0.0])), vocab)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["weights"][1] = "WEIGHT"
        path.write_text(json.dumps(document).replace('"WEIGHT"', literal), encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=re.escape(str(path))):
            load_model(path)

    def test_missing_file_is_missing_file_error(self, tmp_path):
        path = tmp_path / "none.json"
        with pytest.raises(MissingFileError, match=rf"^no such file: {re.escape(str(path))}$"):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("vocabulary"),
        lambda d: d.pop("weights"),
        lambda d: d["vocabulary"].pop("terms"),
        lambda d: d.__setitem__("vocabulary", ["a", "b"]),
        lambda d: d["vocabulary"].__setitem__("terms", 3),
        lambda d: d["vocabulary"]["terms"].__setitem__(1, 7),
        lambda d: d["vocabulary"]["terms"].__setitem__(1, ["b"]),
        # One weight per term and the bias, each term once: the rows that
        # the vocabulary vectorizes must be as wide as the weights.
        lambda d: (d["vocabulary"]["terms"].append("a"), d["weights"].append(0.25)),
        lambda d: d["vocabulary"]["terms"].append("c"),
        lambda d: d["weights"].append(0.25),
        lambda d: d["weights"].__setitem__(1, "heavy"),
        lambda d: d["weights"].__setitem__(1, [1.0]),
        lambda d: d["weights"].__setitem__(1, None),
        lambda d: d["weights"].__setitem__(1, "1.5"),
        lambda d: d["weights"].__setitem__(1, {}),
        lambda d: d.__setitem__("weights", None),
    ], ids=["no-vocabulary", "no-weights", "no-terms", "vocabulary-list", "terms-number",
            "term-number", "term-list", "term-twice", "too-few-weights", "too-many-weights",
            "weight-string", "weight-list", "weight-null", "weight-numeric-string",
            "weight-object", "weights-null"])
    def test_missing_or_mistyped_key_names_the_file(self, tmp_path, edit):
        vocab = fit_vocabulary(tokenized(["a b"]))
        path = tmp_path / "model.json"
        save_model(path, LinearModel(weights=np.array([0.5, -1.0, 0.0])), vocab)
        document = json.loads(path.read_text(encoding="utf-8"))
        edit(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=rf"^{re.escape(str(path))}: "):
            load_model(path)


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
        utterances, lengths, rows = forecaster._utterance_rows(corpus)
        assert rows.n_rows == len(utterances) == sum(lengths) == len(corpus.utterances)

    def test_transform_of_an_empty_corpus(self):
        forecaster = Forecaster(label_key="doomed")
        forecaster.fit(labelled_conversations())
        empty = build_corpus([])
        forecaster.transform(empty)
        assert empty.utterances == {} and empty.conversations == {}

    def test_missing_label(self):
        corpus = labelled_conversations()
        del corpus.conversations["n1"].meta["doomed"]
        with pytest.raises(MissingLabelError, match="n1"):
            Forecaster(label_key="doomed").fit(corpus)

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

    def test_unknown_level_refused_by_the_constructor(self):
        with pytest.raises(ValueError, match=r"^unknown level 'x'; expected one of "):
            Classifier(label_key="doomed", level="x")


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
