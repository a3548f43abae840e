"""Independent brute-force oracles, re-derived from first principles.

Nothing here calls into the library's traversal or graph code: traversals
are recomputed straight from reply_to fields, and graph statistics by
exhaustive enumeration of node pairs and triples, and politeness counts
by trying every marker entry at every token position. Unit and acceptance
tests compare library output against these. ref_merge_consecutive is the
original fold-and-restart implementation of merge_consecutive, walking the
tree with ref_bfs. ref_build_corpus is the original build_corpus, which
checked the tree rules itself instead of through check_integrity.
"""

import logging
from collections import deque
from itertools import combinations, permutations

from convoforge import Conversation, Corpus, Speaker
from convoforge.errors import (
    CrossConversationReplyError,
    CycleDetectedError,
    DanglingReplyError,
    DuplicateIdError,
    MultipleRootsError,
    NoRootError,
    UnknownSpeakerError,
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


def _ref_reachable_from(root_id, members):
    children = _children_of(members)
    seen = {root_id}
    queue = deque([root_id])
    while queue:
        uid = queue.popleft()
        for child in children.get(uid, []):
            if child.id not in seen:
                seen.add(child.id)
                queue.append(child.id)
    return seen


def ref_build_corpus(utterances, speakers=None, corpus_meta=None, strict_speakers=False):
    """build_corpus as it was before it raised check_integrity's first
    violation: every tree rule checked here, in this order."""
    utterances = list(utterances)
    corpus = Corpus(meta=dict(corpus_meta) if corpus_meta else {})

    for spk in speakers or []:
        if spk.id in corpus.speakers:
            raise DuplicateIdError(f"duplicate speaker id: {spk.id!r}")
        corpus.speakers[spk.id] = spk

    for utt in utterances:
        if not utt.id:
            raise DuplicateIdError("utterance with empty id")
        if utt.id in corpus.utterances:
            raise DuplicateIdError(f"duplicate utterance id: {utt.id!r}")
        corpus.utterances[utt.id] = utt
        if utt.speaker_id not in corpus.speakers:
            if strict_speakers:
                raise UnknownSpeakerError(
                    f"utterance {utt.id!r} names unregistered speaker {utt.speaker_id!r}"
                )
            corpus.speakers[utt.speaker_id] = Speaker(id=utt.speaker_id)
        convo = corpus.conversations.get(utt.conversation_id)
        if convo is None:
            convo = Conversation(id=utt.conversation_id)
            corpus.conversations[utt.conversation_id] = convo
        convo.utterance_ids.append(utt.id)

    for utt in utterances:
        if utt.reply_to is None:
            continue
        parent = corpus.utterances.get(utt.reply_to)
        if parent is None:
            raise DanglingReplyError(f"{utt.id!r} replies to unknown utterance {utt.reply_to!r}")
        if parent.conversation_id != utt.conversation_id:
            raise CrossConversationReplyError(
                f"{utt.id!r} (conversation {utt.conversation_id!r}) replies to "
                f"{utt.reply_to!r} (conversation {parent.conversation_id!r})"
            )

    for convo in corpus.conversations.values():
        members = [corpus.utterances[uid] for uid in convo.utterance_ids]
        roots = [u for u in members if u.reply_to is None]
        if not roots:
            raise NoRootError(f"conversation {convo.id!r} has no root utterance")
        if len(roots) > 1:
            raise MultipleRootsError(
                f"conversation {convo.id!r} has multiple roots: "
                + ", ".join(sorted(u.id for u in roots))
            )
        reached = _ref_reachable_from(roots[0].id, members)
        if len(reached) != len(members):
            stranded = sorted(set(convo.utterance_ids) - reached)
            raise CycleDetectedError(
                f"conversation {convo.id!r} has utterances unreachable from the root "
                f"(cycle): {', '.join(stranded)}"
            )

    return corpus
