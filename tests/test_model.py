import copy
import random

import pytest

from convoforge import (
    Speaker,
    Utterance,
    Violation,
    build_corpus,
    check_integrity,
    speaker_history,
    traverse,
)
from convoforge.datasets import load_toy_movie
from convoforge.errors import (
    DuplicateIdError,
    IntegrityViolationError,
    NoRootError,
    UnknownConversationError,
    UnknownSpeakerError,
)
from helpers import random_corpus
from reference import ref_bfs, ref_build_corpus, ref_check_integrity, ref_dfs


def utt(uid, conv="c0", reply=None, ts=None, speaker="s", text=""):
    return Utterance(id=uid, speaker_id=speaker, conversation_id=conv,
                     text=text, reply_to=reply, timestamp=ts)


def chain3():
    return [utt("u0"), utt("u1", reply="u0"), utt("u2", reply="u1")]


def build_violations(utterances, speakers=None, strict_speakers=False):
    """The (code, ids) report of build_corpus's IntegrityViolationError."""
    with pytest.raises(IntegrityViolationError) as err:
        build_corpus(utterances, speakers, strict_speakers=strict_speakers)
    return [(v.code, v.ids) for v in err.value.violations]


class TestBuildCorpus:
    def test_minimal(self):
        corpus = build_corpus([utt("u0")])
        assert len(corpus.conversations) == 1
        assert len(corpus.speakers) == 1
        assert corpus.utterances["u0"].reply_to is None

    def test_chain_topology(self):
        corpus = build_corpus(chain3())
        order = traverse(corpus, "c0", "bfs")
        assert [u.id for u in order] == ["u0", "u1", "u2"]

    def test_dangling_reply(self):
        with pytest.raises(IntegrityViolationError, match=r"\(1 violation\); "
                           r"first: DanglingReply: u1 u9$"):
            build_corpus([utt("u0"), utt("u1", reply="u9")])

    def test_duplicate_utterance_id(self):
        with pytest.raises(DuplicateIdError):
            build_corpus([utt("u0"), utt("u0")])

    def test_duplicate_speaker_id(self):
        with pytest.raises(DuplicateIdError):
            build_corpus([utt("u0")], [Speaker("s"), Speaker("s")])

    def test_cross_conversation_reply(self):
        assert build_violations([utt("u0", conv="c0"), utt("u1", conv="c1", reply="u0")]) == [
            ("CrossConversationReply", ("u1", "u0")), ("NoRoot", ("c1",))]

    def test_multiple_roots(self):
        assert build_violations([utt("u0"), utt("u1")]) == [
            ("MultipleRoots", ("c0", "u0", "u1"))]

    def test_no_root_cycle_pair(self):
        # Two utterances replying to each other: no root at all.
        assert build_violations([utt("u0", reply="u1"), utt("u1", reply="u0")]) == [
            ("NoRoot", ("c0",))]

    def test_cycle_detached_from_root(self):
        assert build_violations([utt("u0"), utt("u1", reply="u2"), utt("u2", reply="u1")]) == [
            ("CycleDetected", ("c0", "u1", "u2"))]

    def test_empty_ids(self):
        # An empty utterance or conversation id is reported as an empty speaker id is.
        assert build_violations([utt("")]) == [("EmptyId", ("",))]
        assert build_violations([utt("u0", conv="")]) == [("EmptyId", ("",))]
        assert build_violations([utt("u0", speaker="")]) == [("EmptyId", ("",))]

    def test_speakers_auto_created(self):
        corpus = build_corpus([utt("u0", speaker="ghost")])
        assert corpus.speakers["ghost"].meta == {}

    def test_strict_speakers(self):
        assert build_violations([utt("u0", speaker="ghost")], [Speaker("s")],
                                strict_speakers=True) == [("MissingSpeaker", ("u0", "ghost"))]
        corpus = build_corpus([utt("u0", speaker="s")], [Speaker("s")],
                              strict_speakers=True)
        assert "s" in corpus.speakers


def defective_inputs(rng, n_defects):
    """build_corpus arguments: a random forest of 2-4 conversations with
    ``n_defects`` structural defects drawn with repetition."""
    speaker_ids = [f"s{i}" for i in range(rng.randint(1, 4))]
    utterances = []
    for c in range(rng.randint(2, 4)):
        ids = [f"c{c}_u{j}" for j in range(rng.randint(1, 6))]
        for j, uid in enumerate(ids):
            utterances.append(utt(uid, conv=f"c{c}", reply=rng.choice(ids[:j]) if j else None,
                                  ts=rng.choice([None, rng.randint(0, 5)]),
                                  speaker=rng.choice(speaker_ids)))
    speakers = [Speaker(sid) for sid in speaker_ids] if rng.random() < 0.5 else None
    strict = False
    for k in range(n_defects):
        defect = rng.choice(["dangling", "cross", "no_root", "multiple_roots", "cycle",
                             "empty_id", "duplicate_id", "unknown_speaker"])
        victim = rng.choice(utterances)
        members = [u for u in utterances if u.conversation_id == victim.conversation_id]
        if defect == "dangling":
            victim.reply_to = f"ghost{k}"
        elif defect == "cross":
            victim.reply_to = rng.choice(
                [u for u in utterances if u.conversation_id != victim.conversation_id]).id
        elif defect == "no_root":
            for member in members:
                if member.reply_to is None:
                    member.reply_to = rng.choice(members).id
        elif defect == "multiple_roots":
            utterances.append(utt(f"r{k}", conv=victim.conversation_id, speaker="s0"))
        elif defect == "cycle":
            ring = [f"y{k}_{i}" for i in range(rng.randint(1, 3))]
            utterances.extend(utt(uid, conv=victim.conversation_id, speaker="s0",
                                  reply=ring[i - 1]) for i, uid in enumerate(ring))
        elif defect == "empty_id":
            victim.id = ""
        elif defect == "duplicate_id":
            utterances.append(utt(victim.id, conv=rng.choice(["c0", "c1"]), speaker="s0"))
            if speakers and rng.random() < 0.5:
                speakers.append(Speaker(rng.choice(speaker_ids)))
        else:
            strict = True
            victim.speaker_id = "stranger"
    if rng.random() < 0.5:
        rng.shuffle(utterances)
    return utterances, speakers, strict


def build_outcome(utterances, speakers, strict):
    """The corpus build_corpus returns, the (type, message) of its DuplicateIdError,
    or the (code, ids) report of its IntegrityViolationError."""
    utterances, speakers = copy.deepcopy((utterances, speakers))
    try:
        return build_corpus(utterances, speakers, strict_speakers=strict)
    except DuplicateIdError as exc:
        return DuplicateIdError, str(exc)
    except IntegrityViolationError as exc:
        return [(v.code, v.ids) for v in exc.violations]


def reference_outcome(utterances, speakers, strict):
    """build_outcome by the reference: its assembly, then ref_check_integrity."""
    utterances, speakers = copy.deepcopy((utterances, speakers))
    try:
        corpus = ref_build_corpus(utterances, speakers, strict_speakers=strict)
    except DuplicateIdError as exc:
        return DuplicateIdError, str(exc)
    return ref_check_integrity(corpus) or corpus


class TestBuildCorpusMatchesReference:
    """build_corpus refuses a repeated id, then raises check_integrity's whole
    report; the reference assembles the corpus and checks it by brute force."""

    def test_single_and_multiple_defects(self):
        rng = random.Random(404)
        seen = set()
        for i in range(2000):
            args = defective_inputs(rng, 1 if i % 2 == 0 else rng.randint(1, 3))
            expected = reference_outcome(*args)
            assert build_outcome(*args) == expected, (i, expected)
            if isinstance(expected, tuple):
                seen.add(DuplicateIdError)
            elif isinstance(expected, list):
                seen.update(code for code, _ in expected)
        assert seen == {DuplicateIdError, "DanglingReply", "CrossConversationReply", "NoRoot",
                        "MultipleRoots", "CycleDetected", "EmptyId", "MissingSpeaker"}

    def test_valid_inputs(self):
        rng = random.Random(405)
        for _ in range(200):
            args = defective_inputs(rng, 0)
            built = build_outcome(*args)
            assert built == reference_outcome(*args)
            assert list(built.conversations) == list(reference_outcome(*args).conversations)


class TestTraverse:
    def test_chain_any_order(self):
        corpus = build_corpus(chain3())
        for order in ("bfs", "dfs_preorder", "dfs_postorder"):
            ids = [u.id for u in traverse(corpus, "c0", order)]
            if order == "dfs_postorder":
                assert ids == ["u2", "u1", "u0"]
            else:
                assert ids == ["u0", "u1", "u2"]

    def test_deep_chain_does_not_recurse(self):
        depth = 3000
        ids = [f"u{i}" for i in range(depth)]
        corpus = build_corpus(
            [utt(ids[0])] + [utt(ids[i], reply=ids[i - 1]) for i in range(1, depth)]
        )
        assert [u.id for u in traverse(corpus, "c0", "dfs_preorder")] == ids
        assert [u.id for u in traverse(corpus, "c0", "dfs_postorder")] == ids[::-1]

    def test_star_sibling_order_by_timestamp(self):
        corpus = build_corpus([
            utt("u0", ts=1),
            utt("u1", reply="u0", ts=5),
            utt("u2", reply="u0", ts=3),
        ])
        assert [u.id for u in traverse(corpus, "c0", "bfs")] == ["u0", "u2", "u1"]

    def test_postorder_four_node_tree(self):
        # u0 <- {u1 <- {u3}, u2}, timestamps u1=1, u2=2, u3=3.
        corpus = build_corpus([
            utt("u0", ts=0),
            utt("u1", reply="u0", ts=1),
            utt("u2", reply="u0", ts=2),
            utt("u3", reply="u1", ts=3),
        ])
        assert [u.id for u in traverse(corpus, "c0", "dfs_postorder")] == \
            ["u3", "u1", "u2", "u0"]

    def test_missing_timestamps_sort_last_by_id(self):
        corpus = build_corpus([
            utt("u0", ts=1),
            utt("b", reply="u0", ts=None),
            utt("a", reply="u0", ts=None),
            utt("z", reply="u0", ts=9),
        ])
        assert [u.id for u in traverse(corpus, "c0", "bfs")] == ["u0", "z", "a", "b"]

    def test_unknown_conversation(self):
        corpus = build_corpus([utt("u0")])
        with pytest.raises(UnknownConversationError):
            traverse(corpus, "nope", "bfs")

    def test_unknown_order(self):
        corpus = build_corpus([utt("u0")])
        with pytest.raises(ValueError):
            traverse(corpus, "c0", "sideways")

    @pytest.mark.parametrize("order", ["bfs", "dfs_preorder", "dfs_postorder"])
    def test_two_roots_is_no_root_error(self, order):
        # build_corpus refuses a second root, so it is made by hand.
        corpus = build_corpus(chain3())
        corpus.utterances["u1"].reply_to = None
        with pytest.raises(NoRootError, match="conversation 'c0' does not have exactly one root"):
            traverse(corpus, "c0", order)


class TestSpeakerHistory:
    def test_empty_history(self):
        corpus = build_corpus([utt("u0", speaker="a")], [Speaker("b")])
        assert speaker_history(corpus, "b") == []

    def test_sorted_across_conversations(self):
        corpus = build_corpus([
            utt("ua", conv="c1", ts=10, speaker="s"),
            utt("ub", conv="c2", ts=2, speaker="s"),
        ])
        assert [u.id for u in speaker_history(corpus, "s")] == ["ub", "ua"]

    def test_id_tiebreak(self):
        corpus = build_corpus([
            utt("b", conv="c1", ts=5, speaker="s"),
            utt("a", conv="c2", ts=5, speaker="s"),
        ])
        assert [u.id for u in speaker_history(corpus, "s")] == ["a", "b"]

    def test_unknown_speaker(self):
        corpus = build_corpus([utt("u0")])
        with pytest.raises(UnknownSpeakerError):
            speaker_history(corpus, "nobody")

    def test_union_of_histories_is_utterance_set(self):
        rng = random.Random(7)
        for _ in range(20):
            corpus = random_corpus(rng, max_utterances=30)
            seen = []
            for sid in corpus.speakers:
                seen.extend(u.id for u in speaker_history(corpus, sid))
            assert sorted(seen) == sorted(corpus.utterances)


class TestCheckIntegrity:
    def test_valid_corpus_empty_report(self):
        assert check_integrity(build_corpus(chain3())) == []

    def test_missing_speaker_after_mutation(self):
        corpus = build_corpus(chain3())
        del corpus.speakers["s"]
        violations = check_integrity(corpus)
        assert [v.code for v in violations] == ["MissingSpeaker"] * 3

    def test_multiple_roots_violation(self):
        # u2 hangs under the second root: reachable, so not a cycle.
        corpus = build_corpus(chain3())
        corpus.utterances["u1"].reply_to = None
        violations = check_integrity(corpus)
        assert [(v.code, v.ids) for v in violations] == [("MultipleRoots", ("c0", "u0", "u1"))]

    def test_dangling_reply_violation(self):
        corpus = build_corpus(chain3())
        corpus.utterances["u2"].reply_to = "gone"
        codes = [v.code for v in check_integrity(corpus)]
        assert "DanglingReply" in codes

    @pytest.mark.parametrize("uid,shown", [
        ("u_1", "u_1"), ("", ""), ("u,1", "u,1"), ("u\t1", "u\t1"),
        ("u 1", '"u 1"'), ('u"1', '"u""1"'), ("u\r1", '"u\r1"'), ("u\n1", '"u\n1"'),
    ])
    def test_violation_quotes_an_id_that_would_split_its_line(self, uid, shown):
        assert str(Violation("DanglingReply", (uid, "ghost"))) == f"DanglingReply: {shown} ghost"

    def test_empty_conversation_violation(self):
        corpus = build_corpus(chain3())
        corpus.conversations["c0"].utterance_ids.clear()
        codes = [v.code for v in check_integrity(corpus)]
        assert "EmptyConversation" in codes
        assert "NotInConversation" in codes

    def test_root_listed_twice_is_one_duplicate_not_two_roots(self):
        # The tree rules see each member once, so a repeated root is not
        # a second root.
        corpus = build_corpus(chain3())
        corpus.conversations["c0"].utterance_ids.append("u0")
        violations = check_integrity(corpus)
        assert [(v.code, v.ids) for v in violations] == [("DuplicateMembership", ("c0", "u0"))]

    def test_utterance_also_listed_by_a_later_conversation(self):
        # m1 lists m1_0, so it is in its conversation; m2 listing it too is
        # a mismatch, and m1_0 is a second root among m2's members.
        corpus = load_toy_movie()
        corpus.conversations["m2"].utterance_ids.append("m1_0")
        violations = check_integrity(corpus)
        assert [(v.code, v.ids) for v in violations] == [
            ("ConversationMismatch", ("m1_0", "m2", "m1")),
            ("MultipleRoots", ("m2", "m1_0", "m2_0")),
        ]
        assert ref_check_integrity(corpus) == [(v.code, v.ids) for v in violations]

    def test_never_mutates(self):
        corpus = build_corpus(chain3())
        del corpus.speakers["s"]
        before = repr(corpus)
        check_integrity(corpus)
        assert repr(corpus) == before


class TestRandomTrees:
    def test_traversals_match_reference(self):
        rng = random.Random(13)
        for _ in range(100):
            corpus = random_corpus(rng, max_utterances=25)
            for cid, convo in corpus.conversations.items():
                members = [corpus.utterances[u] for u in convo.utterance_ids]
                assert [u.id for u in traverse(corpus, cid, "bfs")] == \
                    [u.id for u in ref_bfs(members)]
                assert [u.id for u in traverse(corpus, cid, "dfs_preorder")] == \
                    [u.id for u in ref_dfs(members, postorder=False)]
                assert [u.id for u in traverse(corpus, cid, "dfs_postorder")] == \
                    [u.id for u in ref_dfs(members, postorder=True)]

    def test_traversal_is_permutation_with_order_contracts(self):
        rng = random.Random(99)
        for _ in range(50):
            corpus = random_corpus(rng, max_utterances=25)
            for cid, convo in corpus.conversations.items():
                expected = sorted(convo.utterance_ids)
                for order in ("bfs", "dfs_preorder", "dfs_postorder"):
                    walk = traverse(corpus, cid, order)
                    assert sorted(u.id for u in walk) == expected
                    position = {u.id: i for i, u in enumerate(walk)}
                    for u in walk:
                        if u.reply_to is None:
                            continue
                        if order in ("bfs", "dfs_preorder"):
                            assert position[u.reply_to] < position[u.id]
                        else:
                            assert position[u.reply_to] > position[u.id]

    def test_build_then_check_is_clean(self):
        rng = random.Random(4242)
        for _ in range(50):
            assert check_integrity(random_corpus(rng, max_utterances=40)) == []


def _subtree(corpus, uid):
    """uid and every utterance below it, by repeated scans of reply_to; an
    earlier corruption may have made a cycle already."""
    below = [uid]
    for parent in below:
        below.extend(u.id for u in corpus.utterances.values()
                     if u.reply_to == parent and u.id not in below)
    return below


def _rename_utterance(corpus, old, new):
    target = corpus.utterances.pop(old)
    target.id = new
    corpus.utterances[new] = target
    for other in corpus.utterances.values():
        if other.reply_to == old:
            other.reply_to = new
    for convo in corpus.conversations.values():
        convo.utterance_ids = [new if uid == old else uid for uid in convo.utterance_ids]


def corrupt(rng, corpus):
    """Break one structural rule of corpus at random, in place."""
    utts = list(corpus.utterances.values())
    if not utts:
        return
    pick = rng.choice(utts)
    convo = rng.choice(list(corpus.conversations.values()))
    # An earlier corruption may have moved pick out of every conversation.
    home = corpus.conversations.get(pick.conversation_id, convo)
    others = [u for u in utts if u.conversation_id != pick.conversation_id]
    kind = rng.randrange(15)
    if kind == 0:  # duplicated membership, in its own or another conversation
        target = convo if rng.random() < 0.3 else home
        target.utterance_ids.insert(rng.randint(0, len(target.utterance_ids)), pick.id)
    elif kind == 1:  # missing membership
        home.utterance_ids = [uid for uid in home.utterance_ids if uid != pick.id]
    elif kind == 2:  # a listed utterance that does not exist
        convo.utterance_ids.append(rng.choice(["ghost", pick.id + "x"]))
    elif kind == 3:  # an utterance that is gone but still listed
        del corpus.utterances[pick.id]
    elif kind == 4:
        convo.utterance_ids.clear()
    elif kind == 5:
        pick.reply_to = "ghost"
    elif kind == 6 and others:
        pick.reply_to = rng.choice(others).id
    elif kind == 7:  # an extra root
        pick.reply_to = None
    elif kind == 8:  # a removed root: it replies to a member, maybe itself
        root = rng.choice([u for u in utts if u.reply_to is None] or [pick])
        root.reply_to = rng.choice(
            [u.id for u in utts if u.conversation_id == root.conversation_id])
    elif kind == 9:  # a cycle through pick and its subtree
        pick.reply_to = rng.choice(_subtree(corpus, pick.id))
    elif kind == 10:
        pick.conversation_id = rng.choice([convo.id, "nowhere"])
    elif kind == 11:
        if rng.random() < 0.5:
            corpus.speakers.pop(pick.speaker_id, None)
        else:
            pick.speaker_id = "nobody"
    elif kind == 12 and "" not in corpus.utterances:
        _rename_utterance(corpus, pick.id, "")
    elif kind == 13 and corpus.speakers and "" not in corpus.speakers:
        sid = rng.choice(list(corpus.speakers))
        corpus.speakers[""] = corpus.speakers.pop(sid)
        corpus.speakers[""].id = ""
        for u in utts:
            if u.speaker_id == sid:
                u.speaker_id = ""
    elif kind == 14 and "" not in corpus.conversations:
        cid = convo.id
        corpus.conversations = {("" if key == cid else key): value
                                for key, value in corpus.conversations.items()}
        convo.id = ""
        for u in utts:
            if u.conversation_id == cid:
                u.conversation_id = ""


class TestCheckIntegrityOracle:
    def test_corrupted_corpora_match_reference(self):
        rng = random.Random(31)
        codes = set()
        for _ in range(800):
            corpus = random_corpus(rng, max_utterances=20)
            for _ in range(rng.randint(0, 3)):
                corrupt(rng, corpus)
            report = [(v.code, v.ids) for v in check_integrity(corpus)]
            assert report == ref_check_integrity(corpus)
            codes.update(code for code, _ in report)
        assert codes == {
            "EmptyConversation", "DuplicateMembership", "MissingUtterance",
            "ConversationMismatch", "EmptyId", "MissingSpeaker", "MissingConversation",
            "NotInConversation", "DanglingReply", "CrossConversationReply", "NoRoot",
            "MultipleRoots", "CycleDetected",
        }
