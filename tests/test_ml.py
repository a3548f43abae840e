import copy
import random

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
    MissingLabelError,
    NotFittedError,
    UnsupportedVersionError,
)
from convoforge.ml import logistic_gradient, logistic_loss
from convoforge.model import speaker_history
from helpers import random_corpus


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


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            v = int(rng.integers(1, 10))
            Xb = np.hstack([rng.normal(size=(n, v)), np.ones((n, 1))])
            y = rng.integers(0, 2, size=n).astype(float)
            if len(set(y.tolist())) < 2:
                y[0] = 1.0 - y[0]
            w = rng.normal(scale=0.5, size=v + 1)
            l2 = float(rng.uniform(0.0, 1.0))
            grad = logistic_gradient(w, Xb, y, l2)
            eps = 1e-6
            for j in range(v + 1):
                bump = np.zeros_like(w)
                bump[j] = eps
                numeric = (logistic_loss(w + bump, Xb, y, l2)
                           - logistic_loss(w - bump, Xb, y, l2)) / (2 * eps)
                denom = max(abs(numeric), abs(grad[j]), 1e-8)
                assert abs(grad[j] - numeric) / denom < 1e-5


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

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": "9.0"}')
        with pytest.raises(UnsupportedVersionError):
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
        vectors = sum(
            len(forecaster._prefix_vectors(corpus, cid)) for cid in corpus.conversations
        )
        assert vectors == len(corpus.utterances)

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
