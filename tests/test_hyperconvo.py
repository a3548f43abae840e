import math
import random
from itertools import product

import pytest

from convoforge import (
    HyperConvo,
    ResponseGraph,
    Utterance,
    build_corpus,
    build_response_graph,
    extract_features,
)
from convoforge.hyperconvo import FEATURE_NAMES
from helpers import random_corpus
from reference import ref_motifs, ref_reciprocity


def graph_from(nodes, edges):
    g = ResponseGraph(nodes=sorted(nodes))
    for s, t in edges:
        g.add_edge(s, t)
    return g


class TestBuildGraph:
    def test_single_utterance(self):
        corpus = build_corpus([Utterance("u0", "A", "c0")])
        g = build_response_graph(corpus, "c0")
        assert g.nodes == ["A"] and g.edges == {}

    def test_back_and_forth(self):
        corpus = build_corpus([
            Utterance("u0", "A", "c0", "", None, 0),
            Utterance("u1", "B", "c0", "", "u0", 1),
            Utterance("u2", "A", "c0", "", "u1", 2),
        ])
        g = build_response_graph(corpus, "c0")
        assert g.edges == {("B", "A"): 1, ("A", "B"): 1}

    def test_self_reply_is_self_loop(self):
        corpus = build_corpus([
            Utterance("u0", "A", "c0"),
            Utterance("u1", "A", "c0", "", "u0", 1),
        ])
        g = build_response_graph(corpus, "c0")
        assert g.edges == {("A", "A"): 1}

    def test_add_edge_counts_one_reply_per_call(self):
        g = graph_from("AB", [("A", "B"), ("A", "B"), ("B", "A")])
        assert g.edges == {("A", "B"): 2, ("B", "A"): 1}
        with pytest.raises(TypeError):
            g.add_edge("A", "B", weight=3)
        assert g.edges == {("A", "B"): 2, ("B", "A"): 1}

    def test_edge_weights_sum_to_replies(self):
        rng = random.Random(17)
        for _ in range(25):
            corpus = random_corpus(rng, max_utterances=30)
            for cid, convo in corpus.conversations.items():
                g = build_response_graph(corpus, cid)
                assert sum(g.edges.values()) == len(convo.utterance_ids) - 1


class TestFeatures:
    def test_trivial_graph_all_zero(self):
        features = extract_features(graph_from(["A"], []))
        assert set(features) == set(FEATURE_NAMES)
        assert all(v == 0 for v in features.values())

    def test_graph_without_nodes_all_zero(self):
        features = extract_features(ResponseGraph(nodes=[]))
        assert list(features) == list(FEATURE_NAMES)
        assert list(features.values()) == [0] * 15

    def test_mutual_dyad(self):
        features = extract_features(graph_from("AB", [("A", "B"), ("B", "A")]))
        assert features["reciprocity"] == 1.0
        assert features["motif_dyadic"] == 1
        assert features["motif_outgoing_star"] == 0
        assert features["motif_incoming_star"] == 0
        assert features["motif_transitive"] == 0

    def test_derived_four_speaker_example(self):
        # Edges A->B, B->A, A->C, C->D; pair/triple counts enumerated by hand.
        features = extract_features(
            graph_from("ABCD", [("A", "B"), ("B", "A"), ("A", "C"), ("C", "D")])
        )
        assert features["reciprocity"] == 1 / 3
        assert features["motif_outgoing_star"] == 1
        assert features["motif_incoming_star"] == 0
        assert features["motif_transitive"] == 0
        assert features["motif_dyadic"] == 1
        # Out-degrees (2,1,1,0): hand-computed stats.
        assert features["outdeg_max"] == 2
        assert features["outdeg_mean"] == 1.0
        assert features["outdeg_mean_nonzero"] == 4 / 3
        assert features["outdeg_prop_nonzero"] == 3 / 4
        assert features["outdeg_entropy"] == 1.5 * math.log(2)
        # In-degrees (1,1,1,1): uniform.
        assert features["indeg_max"] == 1
        assert features["indeg_entropy"] == math.log(4)

    def test_self_loops_in_degrees_not_motifs(self):
        features = extract_features(graph_from("AB", [("A", "A"), ("A", "B"), ("B", "A")]))
        assert features["outdeg_max"] == 2  # self-loop counted
        assert features["reciprocity"] == 1.0
        assert features["motif_dyadic"] == 1

    def test_entropy_bounds(self):
        rng = random.Random(23)
        for _ in range(50):
            nodes = list("ABCDE")[: rng.randint(1, 5)]
            edges = [(s, t) for s in nodes for t in nodes
                     if s != t and rng.random() < 0.4]
            features = extract_features(graph_from(nodes, edges))
            assert 0.0 <= features["reciprocity"] <= 1.0
            nonzero = features["outdeg_prop_nonzero"] * len(nodes)
            if nonzero > 0:
                assert features["outdeg_entropy"] <= math.log(nonzero) + 1e-12
            assert features["outdeg_entropy"] >= 0.0

    def test_permutation_invariance(self):
        edges = [("A", "B"), ("B", "A"), ("A", "C"), ("C", "D")]
        relabel = {"A": "z9", "B": "k2", "C": "m5", "D": "a1"}
        renamed = [(relabel[s], relabel[t]) for s, t in edges]
        assert extract_features(graph_from("ABCD", edges)) == \
            extract_features(graph_from(relabel.values(), renamed))

    def test_exhaustive_three_node_oracle(self):
        nodes = ["a", "b", "c"]
        pairs = [(s, t) for s in nodes for t in nodes if s != t]
        for mask in product([0, 1], repeat=len(pairs)):
            edges = [pair for pair, keep in zip(pairs, mask) if keep]
            features = extract_features(graph_from(nodes, edges))
            expected = ref_motifs(nodes, set(edges))
            for name, value in expected.items():
                assert features[name] == value, (edges, name)
            assert features["reciprocity"] == ref_reciprocity(nodes, set(edges))


class TestTransformer:
    def test_annotates_conversations(self):
        corpus = build_corpus([
            Utterance("u0", "A", "c0"),
            Utterance("u1", "B", "c0", "", "u0", 1),
        ])
        hc = HyperConvo()
        hc.fit_transform(corpus)
        features = corpus.conversations["c0"].meta["hyperconvo"]
        assert set(features) == set(FEATURE_NAMES)
        table = hc.summarize(corpus)
        assert table.columns == list(FEATURE_NAMES)
        assert len(table.rows) == 1


def test_feature_count_is_fifteen():
    assert len(FEATURE_NAMES) == 15
    assert len(set(FEATURE_NAMES)) == 15
