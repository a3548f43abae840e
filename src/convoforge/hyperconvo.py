"""Structural conversation features from speaker response graphs.

Replying induces a directed weighted graph per conversation: edge s -> t
counts s's replies to t's utterances (self-replies allowed). From it we
extract degree-distribution statistics, reciprocity, and triad motif
counts; self-loops count toward degrees but are ignored for reciprocity
and motifs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .model import Corpus
from .transform import SummaryTable, Transformer

FEATURE_NAMES = (
    "outdeg_max",
    "outdeg_mean",
    "outdeg_mean_nonzero",
    "outdeg_prop_nonzero",
    "outdeg_entropy",
    "indeg_max",
    "indeg_mean",
    "indeg_mean_nonzero",
    "indeg_prop_nonzero",
    "indeg_entropy",
    "reciprocity",
    "motif_dyadic",
    "motif_outgoing_star",
    "motif_incoming_star",
    "motif_transitive",
)


@dataclass
class ResponseGraph:
    """Directed weighted speaker-response graph for one conversation."""

    nodes: list[str]
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def add_edge(self, source: str, target: str) -> None:
        """Count one more reply from source to target."""
        self.edges[(source, target)] = self.edges.get((source, target), 0) + 1


def build_response_graph(corpus: Corpus, conversation_id: str) -> ResponseGraph:
    """Edge speaker(child) -> speaker(parent) for every reply in the
    conversation; nodes are all speakers with at least one utterance."""
    members = corpus.utterances_in(conversation_id)
    nodes = sorted({u.speaker_id for u in members})
    graph = ResponseGraph(nodes=nodes)
    by_id = {u.id: u for u in members}
    for utt in members:
        if utt.reply_to is not None and utt.reply_to in by_id:
            graph.add_edge(utt.speaker_id, by_id[utt.reply_to].speaker_id)
    return graph


def _degree_stats(degrees: Iterable[float]) -> list[float]:
    values = list(degrees)
    if not values:
        return [0.0, 0.0, 0.0, 0.0, 0.0]
    total = float(sum(values))
    nonzero = [v for v in values if v > 0]
    entropy = 0.0
    if total > 0:
        for v in nonzero:
            p = v / total
            entropy -= p * math.log(p)
    return [
        float(max(values)),
        total / len(values),
        (sum(nonzero) / len(nonzero)) if nonzero else 0.0,
        len(nonzero) / len(values),
        entropy,
    ]


def extract_features(graph: ResponseGraph) -> dict[str, float]:
    """The fixed 15-feature vector for one response graph."""
    out_degree = {node: 0.0 for node in graph.nodes}
    in_degree = {node: 0.0 for node in graph.nodes}
    for (source, target), weight in graph.edges.items():
        out_degree[source] = out_degree.get(source, 0.0) + weight
        in_degree[target] = in_degree.get(target, 0.0) + weight

    values = _degree_stats(out_degree.values()) + _degree_stats(in_degree.values())

    simple = {(s, t) for (s, t) in graph.edges if s != t}
    pairs_any = {(s, t) if s < t else (t, s) for s, t in simple}
    mutual = sum(1 for s, t in simple if s < t and (t, s) in simple)
    reciprocity = mutual / len(pairs_any) if pairs_any else 0.0

    out_neighbors: dict[str, set[str]] = {}
    in_neighbors: dict[str, set[str]] = {}
    for s, t in simple:
        out_neighbors.setdefault(s, set()).add(t)
        in_neighbors.setdefault(t, set()).add(s)
    outgoing_star, incoming_star = (
        sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in neighbors.values())
        for neighbors in (out_neighbors, in_neighbors))
    transitive = 0
    for s, t in simple:
        for r in out_neighbors.get(t, ()):
            if r != s and (s, r) in simple:
                transitive += 1

    values += [reciprocity, float(mutual), float(outgoing_star),
               float(incoming_star), float(transitive)]
    return dict(zip(FEATURE_NAMES, values))


class HyperConvo(Transformer):
    """Annotates each conversation with its response-structure features."""

    name = "hyperconvo"
    level = "conversation"
    annotation_key = "hyperconvo"

    def _transform(self, corpus: Corpus) -> None:
        for convo in corpus.conversations.values():
            graph = build_response_graph(corpus, convo.id)
            self._annotate(convo, extract_features(graph))

    def summarize(self, corpus: Corpus) -> SummaryTable:
        table = SummaryTable(columns=list(FEATURE_NAMES), label_header=self.level)
        for convo, features in self._annotations(corpus):
            table.add_row(convo.id, [features[name] for name in FEATURE_NAMES])
        return table
