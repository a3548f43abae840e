"""Core data model: a corpus of conversations made of utterances by speakers.

Each utterance optionally names the utterance it replies to; within a
conversation those links form a tree with exactly one root. Metadata is a
schemaless string-keyed table available at every level of the hierarchy.

Navigation (traversal, per-speaker history) is deterministic: siblings are
visited in ascending (timestamp, id) order, with missing timestamps sorting
last. Determinism is what makes golden-file tests of downstream analyzers
possible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    ConvoForgeError,
    CrossConversationReplyError,
    CycleDetectedError,
    DanglingReplyError,
    DuplicateIdError,
    IntegrityViolationError,
    MultipleRootsError,
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
    # Populated by merge(); diagnostic only, excluded from equality and
    # serialization so merge(x, x) == x holds.
    merge_log: list = field(default_factory=list, compare=False, repr=False)

    def utterances_in(self, conversation_id: str) -> list[Utterance]:
        convo = self.conversations.get(conversation_id)
        if convo is None:
            raise UnknownConversationError(f"unknown conversation: {conversation_id!r}")
        return [self.utterances[uid] for uid in convo.utterance_ids]


@dataclass(frozen=True)
class Violation:
    """One integrity violation: a code plus the offending object ids."""

    code: str
    ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.code}: {' '.join(self.ids)}"


@dataclass
class IntegrityReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "\n".join(str(v) for v in self.violations)


def _sibling_key(utt: Utterance):
    # Ascending (timestamp, id); missing timestamps after all present ones.
    return (utt.timestamp is None, utt.timestamp if utt.timestamp is not None else 0, utt.id)


def build_corpus(
    utterances: Iterable[Utterance],
    speakers: Optional[Iterable[Speaker]] = None,
    corpus_meta: Optional[dict] = None,
    strict_speakers: bool = False,
) -> Corpus:
    """Assemble a corpus from utterances, inferring conversations by grouping.

    Speakers not in ``speakers`` are auto-created with empty metadata unless
    ``strict_speakers`` is set, in which case an unregistered speaker_id is an
    error. Raises on any structural defect: duplicate or empty ids, then the
    first violation check_integrity reports (dangling or cross-conversation
    replies, cycles, conversations without exactly one root).
    """
    corpus = Corpus(meta=dict(corpus_meta) if corpus_meta else {})

    for spk in speakers or []:
        if spk.id in corpus.speakers:
            raise DuplicateIdError(f"duplicate speaker id: {spk.id!r}")
        corpus.speakers[spk.id] = spk

    # A dict cannot hold a duplicate, so id checks happen during assembly.
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

    report = check_integrity(corpus)
    if not report.ok:
        raise _structure_error(corpus, report)
    return corpus


def _structure_error(corpus: Corpus, report: IntegrityReport) -> ConvoForgeError:
    """The exception build_corpus raises for the first violation of ``report``."""
    first = report.violations[0]
    code, ids = first.code, first.ids
    if code == "DanglingReply":
        return DanglingReplyError(f"{ids[0]!r} replies to unknown utterance {ids[1]!r}")
    if code == "CrossConversationReply":
        child, parent = corpus.utterances[ids[0]], corpus.utterances[ids[1]]
        return CrossConversationReplyError(
            f"{child.id!r} (conversation {child.conversation_id!r}) replies to "
            f"{parent.id!r} (conversation {parent.conversation_id!r})"
        )
    if code == "NoRoot":
        return NoRootError(f"conversation {ids[0]!r} has no root utterance")
    if code == "MultipleRoots":
        return MultipleRootsError(
            f"conversation {ids[0]!r} has multiple roots: " + ", ".join(ids[1:])
        )
    if code == "CycleDetected":
        return CycleDetectedError(
            f"conversation {ids[0]!r} has utterances unreachable from the root "
            f"(cycle): {', '.join(ids[1:])}"
        )
    return IntegrityViolationError(
        f"corpus fails integrity checks ({len(report.violations)} violations); "
        f"first: {first.code} {first.ids}",
        violations=report.violations,
    )


def _children_map(corpus: Corpus, utterance_ids: Iterable[str]) -> dict[str, list[Utterance]]:
    children: dict[str, list[Utterance]] = {}
    for uid in utterance_ids:
        utt = corpus.utterances[uid]
        if utt.reply_to is not None:
            children.setdefault(utt.reply_to, []).append(utt)
    for kids in children.values():
        kids.sort(key=_sibling_key)
    return children


def _root_of(corpus: Corpus, convo: Conversation) -> Utterance:
    """The conversation's one root; NoRootError when it has none or several."""
    roots = [corpus.utterances[uid] for uid in convo.utterance_ids
             if corpus.utterances[uid].reply_to is None]
    if len(roots) != 1:
        raise NoRootError(f"conversation {convo.id!r} does not have exactly one root")
    return roots[0]


def _reachable_from(corpus: Corpus, root_ids: Iterable[str],
                    utterance_ids: Iterable[str]) -> set[str]:
    """Ids reachable from any of root_ids over the reply links among utterance_ids."""
    children = _children_map(corpus, utterance_ids)
    seen = set(root_ids)
    queue = deque(seen)
    while queue:
        uid = queue.popleft()
        for child in children.get(uid, []):
            if child.id not in seen:
                seen.add(child.id)
                queue.append(child.id)
    return seen


def traverse(corpus: Corpus, conversation_id: str, order: str = "bfs") -> list[Utterance]:
    """Visit every utterance of a conversation once, in the requested order.

    ``bfs`` is level order; the dfs variants visit a node before (preorder)
    or after (postorder) its subtrees. Children are always taken in
    ascending (timestamp, id) order.
    """
    if order not in TRAVERSAL_ORDERS:
        raise ValueError(f"unknown traversal order {order!r}; expected one of {TRAVERSAL_ORDERS}")
    convo = corpus.conversations.get(conversation_id)
    if convo is None:
        raise UnknownConversationError(f"unknown conversation: {conversation_id!r}")

    root = _root_of(corpus, convo)
    children = _children_map(corpus, convo.utterance_ids)

    if order == "bfs":
        out: list[Utterance] = []
        queue = deque([root])
        while queue:
            utt = queue.popleft()
            out.append(utt)
            queue.extend(children.get(utt.id, []))
        return out

    # Explicit stack, so reply chains deeper than the recursion limit work.
    # Postorder is the reverse of a preorder that takes children last-first.
    postorder = order == "dfs_postorder"
    out = []
    stack = [root]
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
    """Every utterance, conversation or speaker of the corpus, in insertion order."""
    if level == "utterance":
        return list(corpus.utterances.values())
    if level == "conversation":
        return list(corpus.conversations.values())
    if level == "speaker":
        return list(corpus.speakers.values())
    raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")


def check_integrity(corpus: Corpus) -> IntegrityReport:
    """Validate every structural invariant; violations are data, not errors.

    Returns an empty report iff the corpus is well formed. Never mutates.
    """
    report = IntegrityReport()
    add = report.violations.append

    listed_in: dict[str, str] = {}
    for convo in corpus.conversations.values():
        if not convo.utterance_ids:
            add(Violation("EmptyConversation", (convo.id,)))
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
            listed_in[uid] = convo.id

    for utt in corpus.utterances.values():
        if not utt.id:
            add(Violation("EmptyId", (utt.id,)))
        if utt.speaker_id not in corpus.speakers:
            add(Violation("MissingSpeaker", (utt.id, utt.speaker_id)))
        convo = corpus.conversations.get(utt.conversation_id)
        if convo is None:
            add(Violation("MissingConversation", (utt.id, utt.conversation_id)))
        elif listed_in.get(utt.id) != utt.conversation_id:
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

    for convo in corpus.conversations.values():
        members = [
            corpus.utterances[uid] for uid in convo.utterance_ids if uid in corpus.utterances
        ]
        if not members:
            continue
        roots = [u for u in members if u.reply_to is None]
        if not roots:
            add(Violation("NoRoot", (convo.id,)))
            continue
        if len(roots) > 1:
            add(Violation("MultipleRoots", tuple([convo.id] + sorted(u.id for u in roots))))
        member_ids = [u.id for u in members]
        # Only meaningful when the reply links stay inside the conversation.
        if all(
            u.reply_to is None or corpus.utterances.get(u.reply_to) is not None
            for u in members
        ):
            reached = _reachable_from(corpus, [u.id for u in roots], member_ids)
            unreachable = sorted(set(member_ids) - reached)
            if unreachable:
                add(Violation("CycleDetected", tuple([convo.id] + unreachable)))

    return report

