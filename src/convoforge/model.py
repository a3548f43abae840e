"""Core data model: a corpus of conversations made of utterances by speakers.

Each utterance optionally names the utterance it replies to; the tree
rules those links obey are stated once, beside ``_tree``. Metadata is a
schemaless string-keyed table available at every level of the hierarchy.

Navigation (traversal, per-speaker history) is deterministic: siblings are
visited in ascending (timestamp, id) order, with missing timestamps sorting
last. Determinism is what makes golden-file tests of downstream analyzers
possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    DuplicateIdError,
    IntegrityViolationError,
    NoRootError,
    UnknownConversationError,
    UnknownSpeakerError,
)

TRAVERSAL_ORDERS = ("bfs", "dfs_preorder", "dfs_postorder")

LEVELS = ("utterance", "conversation", "speaker")


@dataclass
class Utterance:
    """One message. ``reply_to`` of None marks the conversation root."""

    id: str
    speaker_id: str
    conversation_id: str
    text: str = ""
    reply_to: Optional[str] = None
    timestamp: Optional[int] = None
    meta: dict = field(default_factory=dict)


@dataclass
class Speaker:
    id: str
    meta: dict = field(default_factory=dict)


@dataclass
class Conversation:
    """Groups utterance ids in insertion order; the tree lives in reply_to links."""

    id: str
    utterance_ids: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class Corpus:
    speakers: dict[str, Speaker] = field(default_factory=dict)
    conversations: dict[str, Conversation] = field(default_factory=dict)
    utterances: dict[str, Utterance] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def utterances_in(self, conversation_id: str) -> list[Utterance]:
        convo = self.conversations.get(conversation_id)
        if convo is None:
            raise UnknownConversationError(f"unknown conversation: {conversation_id!r}")
        return [self.utterances[uid] for uid in convo.utterance_ids]


def _field(cell: str, delimiter: str) -> str:
    """One cell of a delimited line (a table, a violation's ids, a row of
    corpus_io.export_tabular): as it is, or, when it holds the delimiter, a
    double quote, CR or LF, quoted as RFC 4180 does, its quotes doubled. By
    hand, as the csv module's quoting of a lone CR varies with the Python
    version, so the bytes are the same on every one."""
    if frozenset(delimiter + '"\r\n').isdisjoint(cell):
        return cell
    return '"' + cell.replace('"', '""') + '"'


@dataclass(frozen=True)
class Violation:
    """One integrity violation: a code plus the offending object ids, which
    print space-delimited, each through _field."""

    code: str
    ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.code}: {' '.join(_field(i, ' ') for i in self.ids)}"


class _Violations(list):
    # ok and violations are read only by benchmarks/check.py (ROADMAP item 1).
    ok = property(lambda self: not self)
    violations = property(lambda self: self)


def _sibling_key(utt: Utterance):
    # Ascending (timestamp, id); missing timestamps after all present ones.
    return (utt.timestamp is None, utt.timestamp if utt.timestamp is not None else 0, utt.id)


def build_corpus(
    utterances: Iterable[Utterance],
    speakers: Optional[Iterable[Speaker]] = None,
    corpus_meta: Optional[dict] = None,
) -> Corpus:
    """Assemble a corpus from utterances, inferring conversations by grouping.

    Speakers not in ``speakers`` are auto-created with empty metadata on
    first reference. A repeated speaker or utterance id is DuplicateIdError,
    since a dict cannot hold it; any other defect, such as a reply to a
    missing utterance, is _require_integrity's IntegrityViolationError.
    """
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
        convo = corpus.conversations.get(utt.conversation_id)
        if convo is None:
            convo = Conversation(id=utt.conversation_id)
            corpus.conversations[utt.conversation_id] = convo
        convo.utterance_ids.append(utt.id)

    _require_integrity(corpus, "corpus")
    return corpus


def _tree(utterances: Iterable[Utterance]
          ) -> tuple[list[Utterance], dict[str, list[Utterance]]]:
    """The roots among ``utterances`` and the replies to each id, siblings
    in _sibling_key order. The tree rules: a root has no ``reply_to``; any
    other utterance replies to one parent in its own conversation; each
    conversation has one root, from which _level_order reaches every member."""
    roots: list[Utterance] = []
    children: dict[str, list[Utterance]] = {}
    for utt in utterances:
        if utt.reply_to is None:
            roots.append(utt)
        else:
            children.setdefault(utt.reply_to, []).append(utt)
    for kids in children.values():
        kids.sort(key=_sibling_key)
    return roots, children


def _rooted_tree(corpus: Corpus, conversation_id: str
                 ) -> tuple[list[Utterance], dict[str, list[Utterance]]]:
    """_tree of one conversation, read through Corpus.utterances_in; NoRootError
    unless it has exactly one root, which the one-item roots list holds."""
    roots, children = _tree(corpus.utterances_in(conversation_id))
    if len(roots) != 1:
        raise NoRootError(f"conversation {conversation_id!r} does not have exactly one root")
    return roots, children


def _level_order(roots: list[Utterance], children: dict[str, list[Utterance]]) -> list[Utterance]:
    """What _tree's roots reach, level by level. A reply has one parent, so with
    each member passed to _tree once, none is reached twice, and one on a cycle never."""
    order = list(roots)
    for utt in order:  # the list is its own queue: it grows while it is read
        order.extend(children.get(utt.id, ()))
    return order


def traverse(corpus: Corpus, conversation_id: str, order: str = "bfs") -> list[Utterance]:
    """Visit every utterance of a conversation once, in the requested order.

    ``bfs`` is level order; the dfs variants visit a node before (preorder)
    or after (postorder) its subtrees. Children are always taken in
    ascending (timestamp, id) order.
    """
    if order not in TRAVERSAL_ORDERS:
        raise ValueError(f"unknown traversal order {order!r}; expected one of {TRAVERSAL_ORDERS}")
    roots, children = _rooted_tree(corpus, conversation_id)
    if order == "bfs":
        return _level_order(roots, children)

    # Explicit stack, so reply chains deeper than the recursion limit work.
    # Postorder is the reverse of a preorder that takes children last-first.
    postorder = order == "dfs_postorder"
    out = []
    stack = roots
    while stack:
        utt = stack.pop()
        out.append(utt)
        kids = children.get(utt.id, [])
        stack.extend(kids if postorder else reversed(kids))
    if postorder:
        out.reverse()
    return out


def speaker_history(corpus: Corpus, speaker_id: str) -> list[Utterance]:
    """All utterances by one speaker across the corpus, oldest first.

    Sort key is (timestamp, id); utterances without a timestamp come last,
    ordered by id.
    """
    if speaker_id not in corpus.speakers:
        raise UnknownSpeakerError(f"unknown speaker: {speaker_id!r}")
    owned = [u for u in corpus.utterances.values() if u.speaker_id == speaker_id]
    owned.sort(key=_sibling_key)
    return owned


def _speaker_histories(corpus: Corpus) -> dict[str, list[Utterance]]:
    """speaker_history of every speaker with an utterance, in one pass."""
    histories: dict[str, list[Utterance]] = {}
    for utt in corpus.utterances.values():
        histories.setdefault(utt.speaker_id, []).append(utt)
    for owned in histories.values():
        owned.sort(key=_sibling_key)
    return histories


def _level_objects(corpus: Corpus, level: str) -> list:
    """Every utterance, conversation or speaker of the corpus, in insertion
    order; a level is one of LEVELS, as the stages' level rule ensures."""
    return list({"utterance": corpus.utterances, "conversation": corpus.conversations,
                 "speaker": corpus.speakers}[level].values())


def check_integrity(corpus: Corpus) -> list[Violation]:
    """Validate every structural invariant; violations are data, not errors.

    Returns them as a list, empty iff the corpus is well formed. Never mutates.
    """
    violations = _Violations()
    add = violations.append

    # Utterance id -> its conversation id, where that conversation lists it.
    listed_in: dict[str, str] = {}
    # The tree rules below see each conversation's existing members once.
    members_of: dict[str, list[Utterance]] = {}
    for convo in corpus.conversations.values():
        if not convo.id:
            add(Violation("EmptyId", (convo.id,)))
        if not convo.utterance_ids:
            add(Violation("EmptyConversation", (convo.id,)))
        members = members_of[convo.id] = []
        seen_here: set[str] = set()
        for uid in convo.utterance_ids:
            if uid in seen_here:
                add(Violation("DuplicateMembership", (convo.id, uid)))
                continue
            seen_here.add(uid)
            utt = corpus.utterances.get(uid)
            if utt is None:
                add(Violation("MissingUtterance", (convo.id, uid)))
                continue
            if utt.conversation_id != convo.id:
                add(Violation("ConversationMismatch", (uid, convo.id, utt.conversation_id)))
            else:
                listed_in[uid] = convo.id
            members.append(utt)

    for utt in corpus.utterances.values():
        if not utt.id:
            add(Violation("EmptyId", (utt.id,)))
        if utt.speaker_id not in corpus.speakers:
            add(Violation("MissingSpeaker", (utt.id, utt.speaker_id)))
        convo = corpus.conversations.get(utt.conversation_id)
        if convo is None:
            add(Violation("MissingConversation", (utt.id, utt.conversation_id)))
        elif utt.id not in listed_in:
            add(Violation("NotInConversation", (utt.id, utt.conversation_id)))
        if utt.reply_to is not None:
            parent = corpus.utterances.get(utt.reply_to)
            if parent is None:
                add(Violation("DanglingReply", (utt.id, utt.reply_to)))
            elif parent.conversation_id != utt.conversation_id:
                add(Violation("CrossConversationReply", (utt.id, utt.reply_to)))

    for spk in corpus.speakers.values():
        if not spk.id:
            add(Violation("EmptyId", (spk.id,)))

    for cid, members in members_of.items():
        if not members:
            continue
        roots, children = _tree(members)
        if not roots:
            add(Violation("NoRoot", (cid,)))
            continue
        if len(roots) > 1:
            add(Violation("MultipleRoots", (cid, *sorted(u.id for u in roots))))
        # A dangling reply is reported as such, not again as a cycle.
        if all(parent in corpus.utterances for parent in children):
            reached = _level_order(roots, children)
            if len(reached) < len(members):
                unreached = {u.id for u in members}.difference(u.id for u in reached)
                add(Violation("CycleDetected", (cid, *sorted(unreached))))

    return violations


def _require_integrity(corpus: Corpus, what: str) -> None:
    """IntegrityViolationError carrying check_integrity's list, its message naming
    the corpus as ``what`` and the first violation, unless the corpus is well formed."""
    violations = check_integrity(corpus)
    if violations:
        count = len(violations)
        raise IntegrityViolationError(
            f"{what} fails integrity checks ({count} violation{'s' * (count > 1)}); "
            f"first: {violations[0]}",
            violations=violations,
        )
