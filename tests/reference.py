"""Independent brute-force oracles, re-derived from first principles.

Nothing here calls into the library's traversal or graph code: traversals
are recomputed straight from reply_to fields, and graph statistics by
exhaustive enumeration of node pairs and triples, and politeness counts
by trying every marker entry at every token position. Unit and acceptance
tests compare library output against these. ref_merge_consecutive is the
original fold-and-restart implementation of merge_consecutive, walking the
tree with ref_bfs. ref_build_corpus is build_corpus's assembly alone, with
its duplicate-id refusals and no integrity check, and ref_check_integrity
finds each member's root by following its parents up.
ref_parse_utterance_line is the original reader of one utterances.jsonl
line, which raised MalformedRecordError with the line number itself.
ref_fit_vocabulary and ref_vectorize are the original counting loops,
ref_train_classifier and ref_predict the original dense logistic
regression, which built the full rows × features matrix, and
ref_classify and ref_forecast the original Classifier and Forecaster on
top of them: one predict per object, and one cumulative bag-of-words copy
per conversation prefix. logistic_loss and logistic_gradient are not
oracles: they evaluate ml's own loss and gradient at given weights, for the
finite-difference checks. ref_fit_fw is the original numpy fit of the
FightingWords stage, one vector expression per quantity, and
ref_jensen_shannon the original two-loop divergence, one logarithm per
positive entry of each side.
ref_clean_text, ref_tokenize, ref_word_tokens, ref_ngrams and
ref_count_class are the text layers' original per-character and per-token
loops, and ref_speaker_diversity the original per-token counting under
ref_jensen_shannon.
"""

import html
import json
import logging
import math
import re
import string
import unicodedata
from itertools import combinations, permutations
from typing import Callable

import numpy as np

from convoforge import Conversation, Corpus, FwModel, Speaker, Utterance
from convoforge.corpus_io import UTTERANCES_FILE
from convoforge.errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyClassError,
    EmptyVocabularyError,
    MalformedRecordError,
)
from convoforge.ml import LinearModel, _documents, _gradient_at, _loss_at, _words
from convoforge.model import _level_objects
from convoforge.textprep import (
    ABBREVIATIONS,
    EMAIL_SENTINEL,
    URL_SENTINEL,
    _EMAIL_RE,
    _TAG_RE,
    _URL_RE,
    utterance_tokens,
)

logger = logging.getLogger(__name__)


def _key(utt):
    if utt.timestamp is None:
        return (1, 0, utt.id)
    return (0, utt.timestamp, utt.id)


def _children_of(utterances):
    children = {}
    for utt in utterances:
        if utt.reply_to is not None:
            children.setdefault(utt.reply_to, []).append(utt)
    for kids in children.values():
        kids.sort(key=_key)
    return children


def _root_of(utterances):
    roots = [u for u in utterances if u.reply_to is None]
    assert len(roots) == 1
    return roots[0]


def ref_bfs(utterances):
    children = _children_of(utterances)
    order = [_root_of(utterances)]
    i = 0
    while i < len(order):
        order.extend(children.get(order[i].id, []))
        i += 1
    return order


def ref_dfs(utterances, postorder: bool):
    children = _children_of(utterances)
    out = []

    def visit(utt):
        if not postorder:
            out.append(utt)
        for child in children.get(utt.id, []):
            visit(child)
        if postorder:
            out.append(utt)

    visit(_root_of(utterances))
    return out


def ref_reciprocity(nodes, edges) -> float:
    """edges: set of (source, target) ordered pairs; self-loops ignored."""
    edges = {(s, t) for (s, t) in edges if s != t}
    any_link = 0
    mutual = 0
    for s, t in combinations(sorted(nodes), 2):
        forward = (s, t) in edges
        backward = (t, s) in edges
        if forward or backward:
            any_link += 1
        if forward and backward:
            mutual += 1
    return mutual / any_link if any_link else 0.0


def ref_motifs(nodes, edges) -> dict:
    edges = {(s, t) for (s, t) in edges if s != t}
    nodes = sorted(nodes)
    dyadic = sum(
        1 for s, t in combinations(nodes, 2) if (s, t) in edges and (t, s) in edges
    )
    out_star = 0
    in_star = 0
    for s in nodes:
        for t, r in combinations([n for n in nodes if n != s], 2):
            if (s, t) in edges and (s, r) in edges:
                out_star += 1
            if (t, s) in edges and (r, s) in edges:
                in_star += 1
    transitive = sum(
        1
        for s, t, r in permutations(nodes, 3)
        if (s, t) in edges and (t, r) in edges and (s, r) in edges
    )
    return {
        "motif_dyadic": dyadic,
        "motif_outgoing_star": out_star,
        "motif_incoming_star": in_star,
        "motif_transitive": transitive,
    }


def _matches_at(tokens, position, entry):
    if position + len(entry) > len(tokens):
        return False
    return all(tokens[position + k] == entry[k] for k in range(len(entry)))


def _count_strategy(sentences, strategy):
    count = 0
    for index, sentence in enumerate(sentences):
        if strategy.scope == "utterance_initial" and index > 0:
            break
        for entry in strategy.entries:
            if strategy.scope in ("sentence_initial", "utterance_initial"):
                if _matches_at(sentence, 0, entry):
                    count += 1
            elif strategy.scope == "anywhere":
                for pos in range(len(sentence)):
                    if _matches_at(sentence, pos, entry):
                        count += 1
            else:  # non_initial
                for pos in range(1, len(sentence)):
                    if _matches_at(sentence, pos, entry):
                        count += 1
    return count


def ref_politeness(sentences, strategies):
    """Strategy counts by trying every entry of every strategy at every
    position its scope allows; sentences are token lists in any case."""
    lowered = [[tok.lower() for tok in sentence] for sentence in sentences]
    return {s.name: _count_strategy(lowered, s) for s in strategies}


def _ref_merge_pair(corpus, parent, child):
    parent.text = parent.text + "\n" + child.text
    for key, value in child.meta.items():
        if key in parent.meta:
            if parent.meta[key] != value:
                logger.warning(
                    "merge_consecutive: keeping %r's value for meta key %r, dropping %r's",
                    parent.id, key, child.id,
                )
        else:
            parent.meta[key] = value
    stamps = [t for t in (parent.timestamp, child.timestamp) if t is not None]
    parent.timestamp = min(stamps) if stamps else None
    for utt in corpus.utterances.values():
        if utt.reply_to == child.id:
            utt.reply_to = parent.id
    convo = corpus.conversations[child.conversation_id]
    convo.utterance_ids.remove(child.id)
    del corpus.utterances[child.id]


def ref_merge_consecutive(corpus):
    """Fold the first foldable pair found by a breadth-first walk, then
    start the walk again, until no same-speaker only child is left."""
    for conversation_id in list(corpus.conversations):
        while True:
            merged = False
            for utt in ref_bfs(corpus.utterances_in(conversation_id)):
                children = [
                    corpus.utterances[uid]
                    for uid in corpus.conversations[conversation_id].utterance_ids
                    if corpus.utterances[uid].reply_to == utt.id
                ]
                if len(children) == 1 and children[0].speaker_id == utt.speaker_id:
                    _ref_merge_pair(corpus, utt, children[0])
                    merged = True
                    break
            if not merged:
                break
    return corpus


def ref_build_corpus(utterances, speakers=None, corpus_meta=None):
    """The corpus build_corpus assembles, before its integrity check: a
    repeated speaker or utterance id is DuplicateIdError, and speakers are
    auto-created on first reference."""
    corpus = Corpus(meta=dict(corpus_meta) if corpus_meta else {})

    for spk in speakers or []:
        if spk.id in corpus.speakers:
            raise DuplicateIdError(f"duplicate speaker id: {spk.id!r}")
        corpus.speakers[spk.id] = spk

    for utt in utterances:
        if utt.id in corpus.utterances:
            raise DuplicateIdError(f"duplicate utterance id: {utt.id!r}")
        corpus.utterances[utt.id] = utt
        if utt.speaker_id not in corpus.speakers:
            corpus.speakers[utt.speaker_id] = Speaker(id=utt.speaker_id)
        if utt.conversation_id not in corpus.conversations:
            corpus.conversations[utt.conversation_id] = Conversation(id=utt.conversation_id)
        corpus.conversations[utt.conversation_id].utterance_ids.append(utt.id)
    return corpus


def _ref_reaches_root(utterances, members, uid) -> bool:
    """Whether uid's chain of parents stays among members and ends at a
    root; a chain longer than the member count has gone round a cycle."""
    current = utterances[uid]
    for _ in range(len(members)):
        if current.reply_to is None:
            return True
        if current.reply_to not in members:
            return False
        current = utterances[current.reply_to]
    return False


def ref_check_integrity(corpus):
    """check_integrity's report as (code, ids) pairs, in its order, re-derived
    by brute force: membership by scanning the id lists, and reachability by
    following each member's parent chain instead of walking the tree down.

    Two rules are the library's, copied as they are: an utterance is
    NotInConversation unless its own conversation lists it, and a cycle is
    not reported in a conversation with a dangling reply."""
    utterances, conversations = corpus.utterances, corpus.conversations
    out = []
    for cid, convo in conversations.items():
        ids = convo.utterance_ids
        if cid == "":
            out.append(("EmptyId", (cid,)))
        if not ids:
            out.append(("EmptyConversation", (cid,)))
        for i, uid in enumerate(ids):
            if uid in ids[:i]:
                out.append(("DuplicateMembership", (cid, uid)))
            elif uid not in utterances:
                out.append(("MissingUtterance", (cid, uid)))
            elif utterances[uid].conversation_id != cid:
                out.append(("ConversationMismatch",
                            (uid, cid, utterances[uid].conversation_id)))

    for utt in utterances.values():
        if utt.id == "":
            out.append(("EmptyId", (utt.id,)))
        if utt.speaker_id not in corpus.speakers:
            out.append(("MissingSpeaker", (utt.id, utt.speaker_id)))
        listing = [cid for cid, convo in conversations.items() if utt.id in convo.utterance_ids]
        if utt.conversation_id not in conversations:
            out.append(("MissingConversation", (utt.id, utt.conversation_id)))
        elif utt.conversation_id not in listing:
            out.append(("NotInConversation", (utt.id, utt.conversation_id)))
        if utt.reply_to is not None:
            if utt.reply_to not in utterances:
                out.append(("DanglingReply", (utt.id, utt.reply_to)))
            elif utterances[utt.reply_to].conversation_id != utt.conversation_id:
                out.append(("CrossConversationReply", (utt.id, utt.reply_to)))

    for spk in corpus.speakers.values():
        if spk.id == "":
            out.append(("EmptyId", (spk.id,)))

    for cid, convo in conversations.items():
        members = []
        for uid in convo.utterance_ids:
            if uid in utterances and uid not in members:
                members.append(uid)
        if not members:
            continue
        roots = sorted(uid for uid in members if utterances[uid].reply_to is None)
        if not roots:
            out.append(("NoRoot", (cid,)))
            continue
        if len(roots) > 1:
            out.append(("MultipleRoots", (cid, *roots)))
        if any(utterances[uid].reply_to is not None and utterances[uid].reply_to not in utterances
               for uid in members):
            continue
        stranded = sorted(uid for uid in members
                          if not _ref_reaches_root(utterances, members, uid))
        if stranded:
            out.append(("CycleDetected", (cid, *stranded)))
    return out


def _ref_finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


def _ref_decode(text: str):
    """The JSON value of text, refusing NaN, Infinity and overflowing numbers
    as the library does, and any value that UTF-8 cannot encode, found by
    encoding every value instead of first looking for a surrogate escape."""
    value = json.JSONDecoder(parse_constant=_ref_finite_float,
                             parse_float=_ref_finite_float).decode(text)
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"lone surrogate {exc.object[exc.start]!r} "
                         "cannot be encoded as UTF-8") from None
    return value


def ref_parse_utterance_line(line: str, line_number: int) -> Utterance:
    """The original per-line reader of utterances.jsonl, unchanged but for
    its name and _ref_decode: each fault is a MalformedRecordError that
    states the line itself, in one of two prefixes."""
    try:
        record = _ref_decode(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(
            f"line {line_number}: invalid JSON ({exc.msg})", line_number=line_number
        ) from exc
    except ValueError as exc:
        raise MalformedRecordError(
            f"{UTTERANCES_FILE} line {line_number}: {exc}", line_number=line_number
        ) from exc
    if not isinstance(record, dict):
        raise MalformedRecordError(f"line {line_number}: record is not an object",
                                   line_number=line_number)
    missing = [k for k in ("id", "conversation_id", "reply_to", "speaker",
                           "timestamp", "text", "meta") if k not in record]
    if missing:
        raise MalformedRecordError(
            f"line {line_number}: missing keys {missing}", line_number=line_number
        )
    uid = record["id"]
    if not isinstance(uid, str) or not uid:
        raise MalformedRecordError(f"line {line_number}: bad utterance id",
                                   line_number=line_number)
    reply_to = record["reply_to"]
    if reply_to is not None and not isinstance(reply_to, str):
        raise MalformedRecordError(f"line {line_number}: bad reply_to", line_number=line_number)
    timestamp = record["timestamp"]
    if timestamp is not None and (isinstance(timestamp, bool) or not isinstance(timestamp, int)):
        raise MalformedRecordError(f"line {line_number}: bad timestamp", line_number=line_number)
    if not isinstance(record["speaker"], str) or not isinstance(record["conversation_id"], str):
        raise MalformedRecordError(f"line {line_number}: bad speaker or conversation id",
                                   line_number=line_number)
    if not isinstance(record["text"], str) or not isinstance(record["meta"], dict):
        raise MalformedRecordError(f"line {line_number}: bad text or meta",
                                   line_number=line_number)
    return Utterance(
        id=uid,
        speaker_id=record["speaker"],
        conversation_id=record["conversation_id"],
        text=record["text"],
        reply_to=reply_to,
        timestamp=timestamp,
        meta=record["meta"],
    )


def ref_fit_vocabulary(corpus, level="utterance", selector=None, min_df=1, max_terms=None):
    objects = [o for o in _level_objects(corpus, level) if selector is None or selector(o)]
    total: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    for tokens in _documents(corpus, level, objects):
        tokens = [t.lower() for t in tokens]
        for tok in tokens:
            total[tok] = total.get(tok, 0) + 1
        for tok in set(tokens):
            doc_freq[tok] = doc_freq.get(tok, 0) + 1
    terms = [t for t in total if doc_freq[t] >= min_df]
    terms.sort(key=lambda t: (-total[t], t))
    if max_terms is not None:
        terms = terms[:max_terms]
    return {t: i for i, t in enumerate(terms)}


def ref_vectorize(vocab, tokens) -> dict[int, float]:
    counts: dict[int, float] = {}
    for tok in tokens:
        i = vocab.get(tok.lower())
        if i is not None:
            counts[i] = counts.get(i, 0.0) + 1.0
    return counts


def ref_to_dense(rows: list[dict], n_features: int) -> np.ndarray:
    """{feature index: value} rows, as ref_vectorize gives them, as a dense
    array of n_features columns."""
    dense = np.zeros((len(rows), n_features), dtype=float)
    for row, counts in enumerate(rows):
        for i, value in counts.items():
            dense[row, i] = value
    return dense


def _ref_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def ref_logistic_loss(weights: np.ndarray, Xb: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean log-loss plus (l2/2)||w||^2, bias excluded from the penalty;
    Xb carries the bias as its last column of ones."""
    z = Xb @ weights
    per_example = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    penalty = 0.5 * l2 * float(np.dot(weights[:-1], weights[:-1]))
    return float(per_example.mean() + penalty)


def ref_logistic_gradient(weights: np.ndarray, Xb: np.ndarray, y: np.ndarray,
                          l2: float) -> np.ndarray:
    z = Xb @ weights
    grad = Xb.T @ (_ref_sigmoid(z) - y) / len(y)
    grad[:-1] += l2 * weights[:-1]
    return grad


def logistic_loss(weights: np.ndarray, Xb, y: np.ndarray, l2: float) -> float:
    """ml's mean log-loss plus (l2/2)||w||^2, bias excluded from the penalty.
    Xb is ml rows (_Rows or a dense array) whose last column, the bias, is
    all ones."""
    return _loss_at(Xb @ weights, weights, y, l2)


def logistic_gradient(weights: np.ndarray, Xb, y: np.ndarray, l2: float) -> np.ndarray:
    """The gradient of logistic_loss, through ml's own gradient."""
    return _gradient_at(Xb @ weights, weights, Xb, y, l2)


def ref_train_classifier(X: np.ndarray, y, l2: float = 1.0, epochs: int = 100,
                         learning_rate: float = 0.1) -> LinearModel:
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise DegenerateLabelsError("need at least two training examples")
    if len(set(y.tolist())) < 2:
        raise DegenerateLabelsError("training labels are all identical")
    dense = np.asarray(X, dtype=float)
    if len(dense) != len(y):
        raise DimensionMismatchError(f"{len(dense)} rows vs {len(y)} labels")
    Xb = np.hstack([dense, np.ones((len(dense), 1))])

    weights = np.zeros(Xb.shape[1], dtype=float)
    trace = [ref_logistic_loss(weights, Xb, y, l2)]
    for _ in range(epochs):
        weights = weights - learning_rate * ref_logistic_gradient(weights, Xb, y, l2)
        trace.append(ref_logistic_loss(weights, Xb, y, l2))
    return LinearModel(weights=weights, loss_trace=trace)


def ref_predict(model: LinearModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dense = np.asarray(X, dtype=float)
    if dense.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"{dense.shape[1]} features vs model's {model.n_features}"
        )
    scores = _ref_sigmoid(dense @ model.weights[:-1] + model.weights[-1])
    tiny = np.finfo(float).tiny
    scores = np.clip(scores, tiny, 1.0 - np.finfo(float).epsneg)
    return scores >= 0.5, scores


def ref_classify(corpus, label_key, level, min_df=1, max_terms=None, l2=0.01,
                 epochs=200, learning_rate=0.5):
    """The dense Classifier: trained on the labelled objects of the level,
    then predicting one object at a time. Returns the model and
    {object id: (label, score)} for every object of the level."""
    labelled = [o for o in _level_objects(corpus, level) if label_key in o.meta]
    vocab = ref_fit_vocabulary(corpus, level, selector=lambda o: label_key in o.meta,
                               min_df=min_df, max_terms=max_terms)
    X = ref_to_dense([ref_vectorize(vocab, doc) for doc in _documents(corpus, level, labelled)],
                     len(vocab))
    y = [1.0 if o.meta[label_key] else 0.0 for o in labelled]
    model = ref_train_classifier(X, y, l2=l2, epochs=epochs, learning_rate=learning_rate)
    objects = _level_objects(corpus, level)
    predictions = {}
    for obj, doc in zip(objects, _documents(corpus, level, objects)):
        labels, scores = ref_predict(model, ref_to_dense([ref_vectorize(vocab, doc)], len(vocab)))
        predictions[obj.id] = (bool(labels[0]), float(scores[0]))
    return model, predictions


def ref_prefix_vectors(corpus, vocab, conversation_id):
    """Each utterance in breadth-first order with a copy of the cumulative
    bag-of-words of the prefix that ends at it."""
    pairs = []
    running: dict[int, float] = {}
    for utt in ref_bfs(corpus.utterances_in(conversation_id)):
        for i, value in ref_vectorize(vocab, _words([utt])).items():
            running[i] = running.get(i, 0.0) + value
        pairs.append((utt, dict(running)))
    return pairs


def ref_forecast(corpus, label_key, min_df=1, max_terms=None, l2=0.01, epochs=200,
                 learning_rate=0.5):
    """The dense Forecaster: one training row per conversation prefix, then
    one predict per prefix. Returns the model, {utterance id: forecast} and
    {conversation id: forecast_final}."""
    vocab = ref_fit_vocabulary(corpus, "utterance", min_df=min_df, max_terms=max_terms)
    X, y = [], []
    for convo in corpus.conversations.values():
        for _, vector in ref_prefix_vectors(corpus, vocab, convo.id):
            X.append(vector)
            y.append(1.0 if convo.meta[label_key] else 0.0)
    model = ref_train_classifier(ref_to_dense(X, len(vocab)), y, l2=l2, epochs=epochs,
                                 learning_rate=learning_rate)
    forecasts, finals = {}, {}
    for convo in corpus.conversations.values():
        for utt, vector in ref_prefix_vectors(corpus, vocab, convo.id):
            _, scores = ref_predict(model, ref_to_dense([vector], len(vocab)))
            forecasts[utt.id] = finals[convo.id] = float(scores[0])
    return model, forecasts, finals


def ref_fit_fw(
    corpus: Corpus,
    class1: Callable[[Utterance], bool],
    class2: Callable[[Utterance], bool],
    ngram_max: int = 1,
    min_count: int = 1,
    alpha: float = 0.01,
) -> FwModel:
    """The numpy fit: the same vocabulary and errors, and every per-term
    quantity computed as one vector expression."""
    utts1 = [u for u in corpus.utterances.values() if class1(u)]
    utts2 = [u for u in corpus.utterances.values() if class2(u)]
    if not utts1:
        raise EmptyClassError("class 1 selects no utterances")
    if not utts2:
        raise EmptyClassError("class 2 selects no utterances")
    overlap = {u.id for u in utts1} & {u.id for u in utts2}
    if overlap:
        logger.warning("fighting words: %d utterances fall in both classes", len(overlap))

    counts1 = ref_count_class(utts1, ngram_max)
    counts2 = ref_count_class(utts2, ngram_max)
    if not counts1:
        raise EmptyClassError("class 1 selects utterances but no word tokens")
    if not counts2:
        raise EmptyClassError("class 2 selects utterances but no word tokens")
    vocab = sorted(
        term
        for term in set(counts1) | set(counts2)
        if counts1.get(term, 0) + counts2.get(term, 0) >= min_count
    )
    if len(vocab) < 2:
        # With one term the rest-of-vocabulary mass is exactly zero and the
        # log-odds degenerate to +/-inf; there is nothing to contrast.
        raise EmptyVocabularyError(
            f"{len(vocab)} term(s) reach min_count; need at least two for a contrast"
        )

    y1 = np.array([counts1.get(t, 0) for t in vocab], dtype=float)
    y2 = np.array([counts2.get(t, 0) for t in vocab], dtype=float)
    n1 = float(y1.sum())
    n2 = float(y2.sum())

    alpha_vec = np.full(len(vocab), alpha, dtype=float)
    alpha0 = float(alpha_vec.sum())

    deltas = (
        np.log((y1 + alpha_vec) / (n1 + alpha0 - y1 - alpha_vec))
        - np.log((y2 + alpha_vec) / (n2 + alpha0 - y2 - alpha_vec))
    )
    sigma2 = 1.0 / (y1 + alpha_vec) + 1.0 / (y2 + alpha_vec)
    zscores = deltas / np.sqrt(sigma2)

    return FwModel(vocab=vocab, y1=y1, y2=y2, deltas=deltas, zscores=zscores)


def ref_jensen_shannon(p: dict[str, float], q: dict[str, float]) -> float:
    """JSD between two term -> probability maps: one p·ln(p/m) term per
    positive entry of each side."""
    divergence = 0.0
    for dist, other in ((p, q), (q, p)):
        for term, prob in dist.items():
            if prob <= 0.0:
                continue
            mid = (prob + other.get(term, 0.0)) / 2.0
            divergence += 0.5 * prob * math.log(prob / mid)
    return divergence


# Text layers as they were before their loops moved onto str and re builtins:
# a fixed-point markup pass run twice, a character walk for sentence ends,
# and one character at a time for punctuation peeling.

_REF_WS_RE = re.compile(r"\s+")
_REF_PUNCT = frozenset(string.punctuation)


def _ref_strip_markup(text: str) -> str:
    for _ in range(25):
        stripped = html.unescape(_TAG_RE.sub(" ", text))
        if stripped == text:
            break
        text = stripped
    return text


def _ref_replace_sentinels(text: str) -> str:
    text = _URL_RE.sub(URL_SENTINEL, text)
    return _EMAIL_RE.sub(EMAIL_SENTINEL, text)


def ref_clean_text(raw: str) -> str:
    text = _ref_strip_markup(raw)
    text = _ref_replace_sentinels(text)
    text = unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")
    text = _ref_strip_markup(text)
    text = _ref_replace_sentinels(text)
    return _REF_WS_RE.sub(" ", text).strip()


def ref_split_sentences(text: str) -> list[str]:
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".!?" and i + 1 < n and text[i + 1].isspace():
            if ch == ".":
                # Word ending at this period, e.g. "dr." or "e.g."
                j = i
                while j > start and not text[j - 1].isspace():
                    j -= 1
                if text[j:i + 1].lower() in ABBREVIATIONS:
                    i += 1
                    continue
            sentences.append(text[start:i + 1])
            i += 1
            while i < n and text[i].isspace():
                i += 1
            start = i
            continue
        i += 1
    if start < n:
        sentences.append(text[start:])
    return [s for s in sentences if s.strip()]


def _ref_split_tokens(chunk: str) -> list[str]:
    leading = []
    while chunk and chunk[0] in _REF_PUNCT:
        leading.append(chunk[0])
        chunk = chunk[1:]
    trailing = []
    while chunk and chunk[-1] in _REF_PUNCT:
        trailing.append(chunk[-1])
        chunk = chunk[:-1]
    tokens = leading
    if chunk:
        tokens.append(chunk)
    tokens.extend(reversed(trailing))
    return tokens


def ref_tokenize(text: str) -> list[list[str]]:
    """Token sentences, as tokenize(text) returns them."""
    sentences = []
    for sentence in ref_split_sentences(text):
        tokens: list[str] = []
        for chunk in sentence.split():
            tokens.extend(_ref_split_tokens(chunk))
        if tokens:
            sentences.append(tokens)
    return sentences


def ref_word_tokens(sentences: list[list[str]]) -> list[str]:
    # Lowercased, with pure-punctuation tokens dropped.
    out = []
    for sentence in sentences:
        for tok in sentence:
            if not all(ch in _REF_PUNCT for ch in tok):
                out.append(tok.lower())
    return out


def ref_ngrams(tokens: list[str], ngram_max: int) -> list[str]:
    grams = []
    for n in range(1, ngram_max + 1):
        for i in range(len(tokens) - n + 1):
            grams.append(" ".join(tokens[i:i + n]))
    return grams


def ref_count_class(utterances: list[Utterance], ngram_max: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for utt in utterances:
        for gram in ref_ngrams(ref_word_tokens(utterance_tokens(utt)), ngram_max):
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def ref_speaker_diversity(corpus: Corpus, min_tokens_per_convo: int = 1) -> dict[str, dict]:
    """speaker id -> {"value", "n_conversations"}: per-conversation counts
    one token at a time, and ref_jensen_shannon over every pair."""
    grouped: dict[str, dict[str, dict[str, int]]] = {}
    for utt in corpus.utterances.values():
        counts = grouped.setdefault(utt.speaker_id, {}).setdefault(utt.conversation_id, {})
        for sentence in utterance_tokens(utt):
            for tok in sentence:
                tok = tok.lower()
                counts[tok] = counts.get(tok, 0) + 1
    scores = {}
    for speaker_id in corpus.speakers:
        distributions = []
        for counts in grouped.get(speaker_id, {}).values():
            total = float(sum(counts.values()))
            if total >= min_tokens_per_convo:
                distributions.append({t: c / total for t, c in counts.items()})
        n = len(distributions)
        value = None
        if n >= 2:
            pairs = [ref_jensen_shannon(distributions[i], distributions[j])
                     for i in range(n) for j in range(i + 1, n)]
            value = sum(pairs) / len(pairs)
        scores[speaker_id] = {"value": value, "n_conversations": n}
    return scores
