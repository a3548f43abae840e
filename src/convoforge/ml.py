"""Bag-of-words vectorization, an in-house logistic regression, and a
conversation-trajectory forecaster.

The classifier is deliberately self-contained: full-batch gradient descent
on the L2-regularized logistic loss, zero-initialized, with a fixed epoch
count, so training is deterministic and its gradient can be checked against
finite differences. The forecaster reuses it over cumulative bag-of-words
prefixes of a conversation, scoring at each utterance the probability that
the conversation's terminal label is positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptySelectionError,
    MissingLabelError,
    UnsupportedVersionError,
)
from .model import LEVELS, Corpus, Utterance, _level_objects, _speaker_histories, traverse
from .textprep import utterance_tokens
from .transform import SummaryTable, Transformer

MODEL_FORMAT_VERSION = "1.0"


@dataclass
class Vocabulary:
    """Deterministic term ordering: descending total frequency, ties broken
    lexicographically, filtered by document frequency and capped."""

    index: dict[str, int]
    doc_freq: dict[str, int]
    config: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.index)

    @property
    def terms(self) -> list[str]:
        ordered = [""] * len(self.index)
        for term, i in self.index.items():
            ordered[i] = term
        return ordered


def _words(utterances) -> list[str]:
    return [tok for utt in utterances for sentence in utterance_tokens(utt) for tok in sentence]


def _documents(corpus: Corpus, level: str, objects: list) -> Iterator[list[str]]:
    """The tokens of each object, in order: conversation documents follow
    traversal order and speaker documents speaker_history order."""
    if level == "utterance":
        groups = ([obj] for obj in objects)
    elif level == "conversation":
        groups = (traverse(corpus, obj.id, "bfs") for obj in objects)
    elif level == "speaker":
        histories = _speaker_histories(corpus)
        groups = (histories.get(obj.id, []) for obj in objects)
    else:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    return (_words(utterances) for utterances in groups)


def fit_vocabulary(
    corpus: Corpus,
    level: str = "utterance",
    selector: Optional[Callable] = None,
    min_df: int = 1,
    max_terms: Optional[int] = None,
    lowercase: bool = True,
) -> Vocabulary:
    """Build a vocabulary from one document per selected object; conversation
    and speaker documents concatenate their utterances."""
    objects = [o for o in _level_objects(corpus, level) if selector is None or selector(o)]
    if not objects:
        raise EmptySelectionError(f"no {level}s selected")
    total: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    for tokens in _documents(corpus, level, objects):
        if lowercase:
            tokens = [t.lower() for t in tokens]
        for tok in tokens:
            total[tok] = total.get(tok, 0) + 1
        for tok in set(tokens):
            doc_freq[tok] = doc_freq.get(tok, 0) + 1
    terms = [t for t in total if doc_freq[t] >= min_df]
    terms.sort(key=lambda t: (-total[t], t))
    if max_terms is not None:
        terms = terms[:max_terms]
    return Vocabulary(
        index={t: i for i, t in enumerate(terms)},
        doc_freq={t: doc_freq[t] for t in terms},
        config={"min_df": min_df, "max_terms": max_terms, "lowercase": lowercase},
    )


def vectorize(vocab: Vocabulary, tokens: Sequence[str]) -> dict[int, float]:
    """Sparse count vector; out-of-vocabulary tokens are dropped."""
    lowercase = vocab.config.get("lowercase", True)
    counts: dict[int, float] = {}
    for tok in tokens:
        if lowercase:
            tok = tok.lower()
        i = vocab.index.get(tok)
        if i is not None:
            counts[i] = counts.get(i, 0.0) + 1.0
    return counts


@dataclass
class LinearModel:
    """Logistic regression weights; the last entry is the bias."""

    weights: np.ndarray
    config: dict = field(default_factory=dict)
    loss_trace: list[float] = field(default_factory=list, repr=False)

    @property
    def n_features(self) -> int:
        return len(self.weights) - 1


def _to_dense(X, n_features: Optional[int]) -> np.ndarray:
    if isinstance(X, np.ndarray):
        dense = np.asarray(X, dtype=float)
        if dense.ndim == 1:
            dense = dense.reshape(1, -1)
        return dense
    if n_features is None:
        raise DimensionMismatchError("n_features is required for sparse inputs")
    dense = np.zeros((len(X), n_features), dtype=float)
    for row, counts in enumerate(X):
        for i, value in counts.items():
            if i >= n_features:
                raise DimensionMismatchError(
                    f"feature index {i} out of range for {n_features} features"
                )
            dense[row, i] = value
    return dense


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def logistic_loss(weights: np.ndarray, Xb: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean log-loss plus (l2/2)||w||^2, bias excluded from the penalty."""
    z = Xb @ weights
    per_example = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    penalty = 0.5 * l2 * float(np.dot(weights[:-1], weights[:-1]))
    return float(per_example.mean() + penalty)


def logistic_gradient(weights: np.ndarray, Xb: np.ndarray, y: np.ndarray,
                      l2: float) -> np.ndarray:
    z = Xb @ weights
    grad = Xb.T @ (_sigmoid(z) - y) / len(y)
    grad[:-1] += l2 * weights[:-1]
    return grad


def train_classifier(
    X,
    y,
    n_features: Optional[int] = None,
    l2: float = 1.0,
    epochs: int = 100,
    learning_rate: float = 0.1,
    decay: float = 0.0,
) -> LinearModel:
    """Full-batch gradient descent from zero weights for a fixed number of
    epochs; learning rate at epoch t is learning_rate / (1 + decay * t).
    Deterministic given the data and config. Records the loss trace."""
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise DegenerateLabelsError("need at least two training examples")
    if len(set(y.tolist())) < 2:
        raise DegenerateLabelsError("training labels are all identical")
    dense = _to_dense(X, n_features)
    if len(dense) != len(y):
        raise DimensionMismatchError(f"{len(dense)} rows vs {len(y)} labels")
    Xb = np.hstack([dense, np.ones((len(dense), 1))])

    weights = np.zeros(Xb.shape[1], dtype=float)
    trace = [logistic_loss(weights, Xb, y, l2)]
    for epoch in range(epochs):
        step = learning_rate / (1.0 + decay * epoch)
        weights = weights - step * logistic_gradient(weights, Xb, y, l2)
        trace.append(logistic_loss(weights, Xb, y, l2))
    return LinearModel(
        weights=weights,
        config={"l2": l2, "epochs": epochs, "learning_rate": learning_rate, "decay": decay},
        loss_trace=trace,
    )


def predict(model: LinearModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels (score >= 0.5) and probability scores for each row.

    Scores are nudged off exact 0 and 1 so extreme activations cannot
    saturate; downstream log-losses stay finite.
    """
    dense = _to_dense(X, model.n_features)
    if dense.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"{dense.shape[1]} features vs model's {model.n_features}"
        )
    scores = _sigmoid(dense @ model.weights[:-1] + model.weights[-1])
    tiny = np.finfo(float).tiny
    scores = np.clip(scores, tiny, 1.0 - np.finfo(float).epsneg)
    return scores >= 0.5, scores


def save_model(path: str | Path, model: LinearModel, vocab: Vocabulary) -> None:
    """Persist model and vocabulary as one format-versioned JSON document."""
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "weights": model.weights.tolist(),
        "config": model.config,
        "vocabulary": {
            "terms": vocab.terms,
            "doc_freq": vocab.doc_freq,
            "config": vocab.config,
        },
    }
    Path(path).write_text(json.dumps(document, ensure_ascii=False, indent=2) + "\n",
                          encoding="utf-8")


def load_model(path: str | Path) -> tuple[LinearModel, Vocabulary]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    version = str(document.get("format_version", ""))
    if version.split(".", 1)[0] != MODEL_FORMAT_VERSION.split(".", 1)[0]:
        raise UnsupportedVersionError(f"unsupported model format version: {version!r}")
    vocab_doc = document["vocabulary"]
    vocab = Vocabulary(
        index={t: i for i, t in enumerate(vocab_doc["terms"])},
        doc_freq=vocab_doc["doc_freq"],
        config=vocab_doc["config"],
    )
    model = LinearModel(weights=np.asarray(document["weights"], dtype=float),
                        config=document["config"])
    return model, vocab


class Classifier(Transformer):
    """Trains on labelled corpus objects (bag-of-words) and annotates every
    object at the chosen level with "prediction" and "prediction_score"."""

    name = "classifier"
    requires_fit = True
    annotation_key = "prediction"

    def __init__(self, label_key: str, level: str = "utterance", min_df: int = 1,
                 max_terms: Optional[int] = None, l2: float = 0.01,
                 epochs: int = 200, learning_rate: float = 0.5):
        super().__init__()
        self.label_key = label_key
        self.level = level
        self.min_df = min_df
        self.max_terms = max_terms
        self.l2 = l2
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.vocab: Optional[Vocabulary] = None
        self.model: Optional[LinearModel] = None

    def _fit(self, corpus: Corpus) -> None:
        labelled = [o for o in _level_objects(corpus, self.level)
                    if self.label_key in o.meta]
        if not labelled:
            raise EmptySelectionError(
                f"no {self.level}s carry label key {self.label_key!r}"
            )
        self.vocab = fit_vocabulary(
            corpus, self.level, selector=lambda o: self.label_key in o.meta,
            min_df=self.min_df, max_terms=self.max_terms,
        )
        X = [vectorize(self.vocab, doc) for doc in _documents(corpus, self.level, labelled)]
        y = [1.0 if o.meta[self.label_key] else 0.0 for o in labelled]
        self.model = train_classifier(X, y, n_features=self.vocab.size, l2=self.l2,
                                      epochs=self.epochs, learning_rate=self.learning_rate)

    def _transform(self, corpus: Corpus) -> None:
        objects = _level_objects(corpus, self.level)
        for obj, doc in zip(objects, _documents(corpus, self.level, objects)):
            counts = vectorize(self.vocab, doc)
            labels, scores = predict(self.model, [counts])
            self._annotate(obj.meta, self.annotation_key, bool(labels[0]),
                           f"{self.level} {obj.id}")
            obj.meta["prediction_score"] = float(scores[0])

    def summarize(self, corpus: Corpus) -> SummaryTable:
        table = SummaryTable(columns=["prediction", "prediction_score"],
                             label_header=self.level)
        for obj, prediction in self._annotations(corpus):
            table.add_row(obj.id, [prediction, obj.meta["prediction_score"]])
        return table


class Forecaster(Transformer):
    """Scores, at every utterance, the probability that the conversation's
    terminal label is positive given only the utterances so far.

    Training builds one example per prefix of each labelled conversation:
    the cumulative bag-of-words of its first k utterances in traversal
    order, labelled with the conversation's terminal label.
    """

    name = "forecaster"
    requires_fit = True
    level = "conversation"
    annotation_key = "forecast_final"

    def __init__(self, label_key: str, min_df: int = 1, max_terms: Optional[int] = None,
                 l2: float = 0.01, epochs: int = 200, learning_rate: float = 0.5):
        super().__init__()
        self.label_key = label_key
        self.min_df = min_df
        self.max_terms = max_terms
        self.l2 = l2
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.vocab: Optional[Vocabulary] = None
        self.model: Optional[LinearModel] = None

    def _prefix_vectors(self, corpus: Corpus,
                        conversation_id: str) -> list[tuple[Utterance, dict[int, float]]]:
        """Each utterance in traversal order with the bag-of-words of the
        prefix that ends at it."""
        pairs = []
        running: dict[int, float] = {}
        for utt in traverse(corpus, conversation_id, "bfs"):
            for i, value in vectorize(self.vocab, _words([utt])).items():
                running[i] = running.get(i, 0.0) + value
            pairs.append((utt, dict(running)))
        return pairs

    def _fit(self, corpus: Corpus) -> None:
        labels: dict[str, float] = {}
        for convo in corpus.conversations.values():
            if self.label_key not in convo.meta:
                raise MissingLabelError(
                    f"conversation {convo.id!r} lacks label key {self.label_key!r}"
                )
            labels[convo.id] = 1.0 if convo.meta[self.label_key] else 0.0
        self.vocab = fit_vocabulary(corpus, "utterance", min_df=self.min_df,
                                    max_terms=self.max_terms)
        X: list[dict[int, float]] = []
        y: list[float] = []
        for convo_id, label in labels.items():
            for _, vector in self._prefix_vectors(corpus, convo_id):
                X.append(vector)
                y.append(label)
        self.model = train_classifier(X, y, n_features=self.vocab.size, l2=self.l2,
                                      epochs=self.epochs, learning_rate=self.learning_rate)

    def _transform(self, corpus: Corpus) -> None:
        for convo in corpus.conversations.values():
            last_score = None
            for utt, vector in self._prefix_vectors(corpus, convo.id):
                _, scores = predict(self.model, [vector])
                last_score = float(scores[0])
                self._annotate(utt.meta, "forecast", last_score, f"utterance {utt.id}")
            convo.meta[self.annotation_key] = last_score

    def summarize(self, corpus: Corpus) -> SummaryTable:
        table = SummaryTable(columns=[self.annotation_key], label_header=self.level)
        for convo, forecast in self._annotations(corpus):
            table.add_row(convo.id, [forecast])
        return table
