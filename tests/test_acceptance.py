"""Acceptance suite: one test per release criterion, each printing a
PASS line with its stated tolerance once its assertions hold.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import copy
import json
import math
import random
import time
from itertools import product

import numpy as np
import pytest

from convoforge import (
    Forecaster,
    ResponseGraph,
    SpeakerDiversity,
    Tokenizer,
    Utterance,
    build_corpus,
    extract_strategies,
    load,
    predict,
    save,
    train_classifier,
    traverse,
)
from convoforge.cli import main
from convoforge.datasets import load_toy_movie, toy_movie_path
from convoforge.hyperconvo import extract_features
from convoforge.ml import _csr_rows
from convoforge.politeness import strategy_names
from helpers import corpus_equal_strict, random_corpus
from reference import (
    logistic_gradient,
    logistic_loss,
    ref_bfs,
    ref_dfs,
    ref_motifs,
    ref_reciprocity,
)
from test_fightingwords import GOLDEN_Z_A, GOLDEN_Z_B, by_cls, fw_model, worked_example_corpus
from test_politeness import FIXTURE, tokenized_utterance, vector


def test_round_trip_200_random_corpora(tmp_path):
    rng = random.Random(1)
    started = time.monotonic()
    for i in range(200):
        corpus = random_corpus(rng, max_utterances=50)
        target = tmp_path / f"c{i}"
        save(corpus, target)
        assert corpus_equal_strict(load(target), corpus)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"round-trip run took {elapsed:.2f}s"
    print(f"\nACCEPTANCE round-trip (200 corpora, exact equality, {elapsed:.2f}s < 10s): PASS")


def test_tree_navigation_500_random_trees():
    rng = random.Random(2)
    trees = 0
    while trees < 500:
        size = rng.randint(1, 20)
        ids = [f"u{j}" for j in range(size)]
        utts = [
            Utterance(
                uid, f"s{rng.randint(0, 3)}", "c", "",
                None if j == 0 else rng.choice(ids[:j]),
                rng.randint(0, 999) if rng.random() < 0.7 else None,
            )
            for j, uid in enumerate(ids)
        ]
        corpus = build_corpus(utts)
        members = [corpus.utterances[u] for u in corpus.conversations["c"].utterance_ids]
        walks = {
            "bfs": traverse(corpus, "c", "bfs"),
            "dfs_preorder": traverse(corpus, "c", "dfs_preorder"),
            "dfs_postorder": traverse(corpus, "c", "dfs_postorder"),
        }
        assert [u.id for u in walks["bfs"]] == [u.id for u in ref_bfs(members)]
        assert [u.id for u in walks["dfs_preorder"]] == \
            [u.id for u in ref_dfs(members, postorder=False)]
        assert [u.id for u in walks["dfs_postorder"]] == \
            [u.id for u in ref_dfs(members, postorder=True)]
        for order in ("bfs", "dfs_preorder"):
            position = {u.id: k for k, u in enumerate(walks[order])}
            assert sorted(position) == sorted(ids)
            for u in walks[order]:
                if u.reply_to is not None:
                    assert position[u.reply_to] < position[u.id]
        trees += 1
    print("\nACCEPTANCE tree navigation (500 trees, oracle-exact, parent-first): PASS")


def test_fighting_words_antisymmetry_and_golden():
    corpus = load_toy_movie()
    rng = random.Random(3)
    ids = list(corpus.utterances)
    for _ in range(100):
        split = {uid for uid in ids if rng.random() < 0.5}
        if not split or len(split) == len(ids):
            split = {ids[0]}
        in_a = lambda u, s=frozenset(split): u.id in s  # noqa: E731
        in_b = lambda u, s=frozenset(split): u.id not in s  # noqa: E731
        forward = fw_model(corpus, in_a, in_b)
        backward = fw_model(corpus, in_b, in_a)
        assert forward.vocab == backward.vocab
        assert np.all(np.abs(np.asarray(forward.zscores) + np.asarray(backward.zscores)) <= 1e-12)
    same = fw_model(corpus, lambda u: True, lambda u: True)
    assert np.all(np.asarray(same.zscores) == 0.0)
    golden = fw_model(worked_example_corpus(), by_cls(1), by_cls(2), alpha=0.01)
    assert golden.zscore("a") == pytest.approx(GOLDEN_Z_A, abs=1e-9)
    assert golden.zscore("b") == pytest.approx(GOLDEN_Z_B, abs=1e-9)
    print("\nACCEPTANCE fighting words (100 swaps within 1e-12, zeros, golden 1e-9): PASS")


def test_hyperconvo_exhaustive_oracle_up_to_4_nodes():
    started = time.monotonic()
    checked = 0
    for n in range(1, 5):
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        for mask in product([0, 1], repeat=len(pairs)):
            edges = [pair for pair, keep in zip(pairs, mask) if keep]
            graph = ResponseGraph(nodes=list(nodes))
            for s, t in edges:
                graph.add_edge(s, t)
            features = extract_features(graph)
            expected = ref_motifs(nodes, set(edges))
            for name, value in expected.items():
                assert features[name] == value, (n, edges, name)
            assert features["reciprocity"] == ref_reciprocity(nodes, set(edges))
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 1 + 4 + 64 + 4096
    assert elapsed < 60.0, f"exhaustive oracle took {elapsed:.2f}s"
    print(f"\nACCEPTANCE hyperconvo oracle ({checked} graphs, exact, {elapsed:.2f}s < 60s): PASS")


def test_diversity_bounds_100_random_speakers():
    rng = random.Random(5)
    words = ["w0", "w1", "w2", "w3", "w4", "w5"]
    ln2 = math.log(2)
    for i in range(100):
        n_convos = rng.randint(2, 5)
        utts = []
        for c in range(n_convos):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 15)))
            utts.append(Utterance(f"c{c}_u", "spk", f"c{c}", text, None, c))
        corpus = build_corpus(utts)
        Tokenizer().transform(corpus)
        SpeakerDiversity().transform(corpus)
        value = corpus.speakers["spk"].meta["convo_diversity"]["value"]
        assert 0.0 <= value <= ln2 + 1e-12
    identical = build_corpus([
        Utterance("a", "spk", "c0", "same words here", None, 0),
        Utterance("b", "spk", "c1", "same words here", None, 1),
    ])
    Tokenizer().transform(identical)
    SpeakerDiversity().transform(identical)
    assert identical.speakers["spk"].meta["convo_diversity"]["value"] == 0.0
    disjoint = build_corpus([
        Utterance("a", "spk", "c0", "apple pear", None, 0),
        Utterance("b", "spk", "c1", "rock stone", None, 1),
    ])
    Tokenizer().transform(disjoint)
    SpeakerDiversity().transform(disjoint)
    assert disjoint.speakers["spk"].meta["convo_diversity"]["value"] == \
        pytest.approx(ln2, abs=1e-12)
    print("\nACCEPTANCE diversity (100 speakers in [0, ln2]; 0 and ln2 exact to 1e-12): PASS")


def test_classifier_gradient_and_separable_accuracy():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        v = int(rng.integers(1, 11))
        Xb = _csr_rows(np.hstack([rng.normal(size=(n, v)), np.ones((n, 1))]))
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
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_classifier(X, y, l2=0.001, epochs=500, learning_rate=0.5)
    labels, _ = predict(model, X)
    assert (labels == y.astype(bool)).all()
    print("\nACCEPTANCE classifier (20 gradient checks at 1e-5 rel; separable acc 1.0): PASS")


def test_forecaster_causality_50_random_conversations():
    rng = random.Random(7)
    words = ["alpha", "beta", "gamma", "delta", "omega", "zeta"]

    def random_line():
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))

    utts = []
    for c in range(50):
        size = rng.randint(2, 6)
        ids = [f"c{c}_u{j}" for j in range(size)]
        for j, uid in enumerate(ids):
            utts.append(Utterance(
                uid, f"s{rng.randint(0, 2)}", f"c{c}", random_line(),
                None if j == 0 else rng.choice(ids[:j]), j,
            ))
    corpus = build_corpus(utts)
    for i, convo in enumerate(corpus.conversations.values()):
        convo.meta["label"] = (i % 2 == 0)

    forecaster = Forecaster(label_key="label", epochs=120, learning_rate=0.3)
    forecaster.fit(corpus)
    forecaster.transform(corpus)
    baseline = {u.id: u.meta["forecast"] for u in corpus.utterances.values()}

    for cid in corpus.conversations:
        walk = [u.id for u in traverse(corpus, cid, "bfs")]
        cut = rng.randint(0, len(walk) - 2)
        mutated = copy.deepcopy(corpus)
        for uid in walk[cut + 1:]:
            mutated.utterances[uid].text = random_line() + " mutated entirely"
        forecaster.transform(mutated)
        for uid in walk[: cut + 1]:
            assert mutated.utterances[uid].meta["forecast"] == baseline[uid], (cid, uid)
    print("\nACCEPTANCE forecaster causality (50 conversations, prefix scores unchanged): PASS")


def test_figure_workflow_reproduction(tmp_path, capsys):
    prepared = tmp_path / "prepared"
    config = {
        "input": str(toy_movie_path()),
        "output": str(prepared),
        "stages": [
            {"name": "text_cleaner"},
            {"name": "tokenizer"},
            {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
        ],
    }
    config_path = tmp_path / "prep.json"
    config_path.write_text(json.dumps(config))
    assert main(["--quiet", "run", str(config_path)]) == 0

    def run_comparison() -> str:
        code = main([
            "--corpus", str(prepared), "fightingwords",
            "--class1", "mixed=true", "--class2", "mixed=false", "--top-k", "5",
        ])
        assert code == 0
        return capsys.readouterr().out

    first = run_comparison()
    second = run_comparison()
    assert first == second, "summary table must be byte-identical across runs"
    rows = [line.split("\t") for line in first.strip().splitlines()[1:]]
    assert rows[0][0] == "alpha" and rows[0][1] == "class1"
    assert float(rows[0][4]) > 0
    class2_terms = [r[0] for r in rows if r[1] == "class2"]
    assert "ledger" in class2_terms
    print("\nACCEPTANCE workflow reproduction (planted ranking, byte-identical output): PASS")


def test_politeness_fixture_exact_and_empty_vector():
    for i, (text, expected) in enumerate(FIXTURE):
        assert extract_strategies(tokenized_utterance(text, uid=f"f{i}")) == \
            vector(text, **expected), text
    empty = extract_strategies(tokenized_utterance("", uid="empty"))
    assert len(empty) == 18 and set(empty.values()) == {0}
    assert list(empty) == strategy_names()
    print("\nACCEPTANCE politeness (10-utterance hand fixture exact; empty all-zero 18): PASS")
