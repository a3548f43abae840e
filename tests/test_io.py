import copy
import csv
import gc
import json
import os
import random
import re
import shutil

import pytest

from convoforge import (
    Speaker,
    Utterance,
    build_corpus,
    check_integrity,
    export_tabular,
    identity_mapping,
    import_tabular,
    load,
    merge,
    save,
)
from convoforge import corpus_io, model
from convoforge.corpus_io import ImportMapping
from convoforge.datasets import toy_movie_path
from convoforge.errors import (
    CountMismatchError,
    IntegrityViolationError,
    IoFailureError,
    IrreconcilableCollisionError,
    MalformedRecordError,
    MissingColumnError,
    MissingFileError,
    UnsupportedVersionError,
    UnserializableValueError,
)
from helpers import corpus_equal_strict, random_corpus, write_non_object_meta
from reference import ref_parse_utterance_line

MANIFEST_BYTES = """\
{
  "format_version": "1.0",
  "utterance_count": 1,
  "conversation_count": 1,
  "speaker_count": 1,
  "corpus_meta": {
    "name": "naïve",
    "n": 1,
    "x": 0.5,
    "nested": {
      "a": [
        1,
        null,
        true
      ]
    }
  }
}
""".encode("utf-8")


def small_corpus():
    return build_corpus(
        [
            Utterance("u0", "ann", "c0", "naïve 😀 hello", None, 5, {"n": 3}),
            Utterance("u1", "bob", "c0", "ok", "u0", 6, {"x": 3.0}),
            Utterance("u2", "ann", "c1", "next topic", None, None),
        ],
        [Speaker("ann", {"age": 30}), Speaker("bob")],
        corpus_meta={"title": "small"},
    )


NON_FINITE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]


def write_meta_literal(directory, name, literal):
    """Put a raw JSON number literal into one metadata table of a saved
    small_corpus(): corpus meta, speaker 'ann', conversation 'c0' or
    utterance 'u1' (line 2 of utterances.jsonl)."""
    path = directory / name
    if name == "utterances.jsonl":
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["meta"]["bad"] = "SENTINEL"
        lines[1] = json.dumps(record)
        text = "\n".join(lines) + "\n"
    else:
        document = json.loads(path.read_text())
        meta = {"manifest.json": lambda d: d["corpus_meta"],
                "speakers.json": lambda d: d["ann"]["meta"],
                "conversations.json": lambda d: d["c0"]["meta"]}[name](document)
        meta["bad"] = "SENTINEL"
        text = json.dumps(document)
    path.write_text(text.replace('"SENTINEL"', literal))


class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        reloaded = load(tmp_path / "c")
        assert reloaded == corpus
        assert corpus_equal_strict(reloaded, corpus)

    def test_unicode_text_preserved(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        reloaded = load(tmp_path / "c")
        assert reloaded.utterances["u0"].text.encode("utf-8") == \
            "naïve 😀 hello".encode("utf-8")

    def test_int_float_distinction_survives(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        reloaded = load(tmp_path / "c")
        assert type(reloaded.utterances["u0"].meta["n"]) is int
        assert type(reloaded.utterances["u1"].meta["x"]) is float

    def test_empty_meta_manifest(self, tmp_path):
        corpus = build_corpus([Utterance("u0", "s", "c0")])
        save(corpus, tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["corpus_meta"] == {}
        assert manifest["utterance_count"] == 1

    def test_manifest_bytes(self, tmp_path):
        # The manifest layout is part of the format: key order, indentation,
        # and non-ASCII text written as itself.
        corpus = build_corpus([Utterance("u0", "s", "c0")],
                              corpus_meta={"name": "naïve", "n": 1, "x": 0.5,
                                           "nested": {"a": [1, None, True]}})
        save(corpus, tmp_path / "c")
        assert (tmp_path / "c" / "manifest.json").read_bytes() == MANIFEST_BYTES

    def test_save_refuses_invalid_corpus(self, tmp_path):
        corpus = small_corpus()
        del corpus.speakers["bob"]
        with pytest.raises(IntegrityViolationError):
            save(corpus, tmp_path / "c")

    @pytest.mark.parametrize("entry", [
        lambda corpus, path: build_corpus(corpus.utterances.values(), corpus.speakers.values()),
        lambda corpus, path: save(corpus, path),
        lambda corpus, path: (path.mkdir(), corpus_io._write_files(corpus, path), load(path)),
        lambda corpus, path: merge(corpus, build_corpus([])),
    ], ids=["build_corpus", "save", "load", "merge"])
    def test_every_entry_raises_the_whole_report(self, tmp_path, entry):
        # A dangling reply and a second root in c0, which no entry accepts.
        corpus = small_corpus()
        corpus.utterances["u1"].reply_to = "u9"
        corpus.utterances["u3"] = Utterance("u3", "bob", "c0", "again", None, 7)
        corpus.conversations["c0"].utterance_ids.append("u3")
        violations = check_integrity(corpus).violations
        with pytest.raises(IntegrityViolationError) as err:
            entry(corpus, tmp_path / "c")
        assert err.value.violations == violations
        assert str(err.value).endswith(
            "fails integrity checks (2 violations); first: DanglingReply: u1 u9")

    def test_save_is_byte_stable(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "a")
        save(corpus, tmp_path / "b")
        for name in ("manifest.json", "utterances.jsonl", "speakers.json",
                     "conversations.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_load_hand_written_fixture(self, tmp_path):
        # Fixture authored directly against the documented layout.
        directory = tmp_path / "fixture"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({
            "format_version": "1.0",
            "utterance_count": 2,
            "conversation_count": 1,
            "speaker_count": 2,
            "corpus_meta": {"source": "handmade"},
        }))
        (directory / "utterances.jsonl").write_text(
            '{"id":"r","conversation_id":"t","reply_to":null,"speaker":"a",'
            '"timestamp":1,"text":"hi","meta":{}}\n'
            '{"id":"s","conversation_id":"t","reply_to":"r","speaker":"b",'
            '"timestamp":2,"text":"yo","meta":{"k":true}}\n'
        )
        (directory / "speakers.json").write_text('{"a":{"meta":{}},"b":{"meta":{}}}')
        (directory / "conversations.json").write_text('{"t":{"meta":{}}}')
        corpus = load(directory)
        assert len(corpus.utterances) == 2
        assert len(corpus.conversations) == 1
        assert corpus.utterances["s"].reply_to == "r"
        assert check_integrity(corpus).ok

    def test_count_mismatch(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        manifest["utterance_count"] = 99
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CountMismatchError):
            load(tmp_path / "c")

    @pytest.mark.parametrize("key", ["utterance_count", "conversation_count", "speaker_count"])
    @pytest.mark.parametrize("literal", ['"1"', "null", "1.0", "true", "absent"])
    def test_count_must_be_an_integer(self, tmp_path, key, literal):
        # Each value but "absent" equals the true count of 1 under ==; none is
        # a JSON integer, and a bool is not a count.
        save(build_corpus([Utterance("u0", "ann", "c0", "hi", None, 1)]), tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        if literal != "absent":
            manifest[key] = json.loads(literal)
        path.write_text(json.dumps(manifest))
        with pytest.raises(MalformedRecordError,
                           match=f"^manifest.json: '{key}' is not an integer$"):
            load(tmp_path / "c")

    def test_truncated_line_names_line_number(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        path = tmp_path / "c" / "utterances.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError) as err:
            load(tmp_path / "c")
        assert err.value.line_number == 2

    def test_duplicate_utterance_id_names_its_line(self, tmp_path):
        save(small_corpus(), tmp_path / "c")
        path = tmp_path / "c" / "utterances.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines, lines[1]]) + "\n")
        with pytest.raises(MalformedRecordError, match=re.escape(
                "utterances.jsonl line 4: duplicate utterance id 'u1'")) as err:
            load(tmp_path / "c")
        assert err.value.line_number == 4

    def test_truncated_line_names_the_file(self, tmp_path):
        target = tmp_path / "toy"
        shutil.copytree(toy_movie_path(), target)
        path = target / "utterances.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecordError,
                           match=r"^utterances\.jsonl line 2: invalid JSON \(") as err:
            load(target)
        assert err.value.line_number == 2

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        # ED A0 80 is U+D800 encoded as UTF-8, which strict UTF-8 refuses.
        target = tmp_path / "toy"
        shutil.copytree(toy_movie_path(), target)
        path = target / "utterances.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"text":"', b'"text":"\xed\xa0\x80', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(MalformedRecordError) as err:
            load(target)
        assert err.value.line_number == 3
        assert str(err.value).startswith("utterances.jsonl line 3: ")

    def test_crlf_line_ends_load_as_lf(self, tmp_path):
        save(small_corpus(), tmp_path / "c")
        path = tmp_path / "c" / "utterances.jsonl"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert corpus_equal_strict(load(tmp_path / "c"), small_corpus())

    @pytest.mark.parametrize("name", ["manifest.json", "utterances.jsonl", "speakers.json",
                                      "conversations.json"])
    def test_missing_corpus_file_is_named(self, tmp_path, name):
        save(small_corpus(), tmp_path / "c")
        (tmp_path / "c" / name).unlink()
        with pytest.raises(MissingFileError,
                           match=rf"^no such file: .*{re.escape(name)}$"):
            load(tmp_path / "c")

    def test_unsupported_version(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        manifest["format_version"] = "2.0"
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(UnsupportedVersionError):
            load(tmp_path / "c")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load(tmp_path / "nothing")
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        (tmp_path / "c" / "speakers.json").unlink()
        with pytest.raises(MissingFileError):
            load(tmp_path / "c")

    @pytest.mark.parametrize("name", ["manifest.json", "speakers.json",
                                      "conversations.json"])
    def test_json_file_that_is_not_an_object(self, tmp_path, name):
        target = tmp_path / "toy"
        shutil.copytree(toy_movie_path(), target)
        (target / name).write_text("[]")
        with pytest.raises(MalformedRecordError, match=name):
            load(target)

    @pytest.mark.parametrize("name", ["speakers.json", "conversations.json"])
    def test_record_that_is_not_an_object(self, tmp_path, name):
        target = tmp_path / "toy"
        shutil.copytree(toy_movie_path(), target)
        records = json.loads((target / name).read_text())
        records[next(iter(records))] = []
        (target / name).write_text(json.dumps(records))
        with pytest.raises(MalformedRecordError, match=name):
            load(target)

    @pytest.mark.parametrize("name", ["speakers.json", "conversations.json", "manifest.json"])
    @pytest.mark.parametrize("value", [5, "M", ["M"], None], ids=["int", "str", "list", "null"])
    def test_meta_that_is_not_an_object(self, tmp_path, name, value):
        # Utterance lines refuse a non-object meta; so do the other files,
        # before any analyzer meets it.
        owner = write_non_object_meta(tmp_path / "toy", name, value)
        with pytest.raises(MalformedRecordError,
                           match=rf"^{re.escape(name)}: .*{owner}.* is not an object$"):
            load(tmp_path / "toy")

    @pytest.mark.parametrize("name", ["utterances.jsonl", "manifest.json", "speakers.json",
                                      "conversations.json"])
    @pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
    def test_non_finite_number_is_refused(self, tmp_path, name, literal):
        save(small_corpus(), tmp_path / "c")
        write_meta_literal(tmp_path / "c", name, literal)
        with pytest.raises(MalformedRecordError, match=f"{name}.*{re.escape(literal)}") as err:
            load(tmp_path / "c")
        if name == "utterances.jsonl":
            assert err.value.line_number == 2
            assert "line 2" in str(err.value)

    @pytest.mark.parametrize("name", ["utterances.jsonl", "manifest.json", "speakers.json",
                                      "conversations.json"])
    @pytest.mark.parametrize("literal", ['"\\ud800"', '"x\\udfff"', '"\\ude00\\ud83d"',
                                         '{"\\uDBFF": 1}'])
    def test_lone_surrogate_is_refused(self, tmp_path, name, literal):
        # json decodes each of these to a str that UTF-8 cannot encode.
        save(small_corpus(), tmp_path / "c")
        write_meta_literal(tmp_path / "c", name, literal)
        with pytest.raises(MalformedRecordError,
                           match=rf"^{re.escape(name)}.*lone surrogate") as err:
            load(tmp_path / "c")
        if name == "utterances.jsonl":
            assert err.value.line_number == 2
            assert "line 2" in str(err.value)

    def test_escaped_surrogate_pair_round_trips(self, tmp_path):
        # small_corpus's u0 text holds U+1F600, written raw; as the escaped
        # UTF-16 pair it loads as the same code point and saves as before.
        save(small_corpus(), tmp_path / "c")
        path = tmp_path / "c" / "utterances.jsonl"
        before = path.read_bytes()
        path.write_text(path.read_text(encoding="utf-8").replace("😀", "\\ud83d\\ude00"),
                        encoding="utf-8")
        assert b"\\ud83d\\ude00" in path.read_bytes()
        corpus = load(tmp_path / "c")
        assert corpus_equal_strict(corpus, small_corpus())
        save(corpus, tmp_path / "again")
        assert (tmp_path / "again" / "utterances.jsonl").read_bytes() == before

    @pytest.mark.parametrize("where", ["text", "meta", "speaker"])
    def test_save_refuses_lone_surrogate(self, tmp_path, where):
        corpus = small_corpus()
        if where == "text":
            corpus.utterances["u1"].text = "ok\ud800"
        elif where == "meta":
            corpus.utterances["u1"].meta["x"] = ["\udc00"]
        else:
            corpus.speakers["bob"].meta["nick"] = "\ud800"
        with pytest.raises(UnserializableValueError, match="lone surrogate"):
            save(corpus, tmp_path / "c")
        assert list(tmp_path.iterdir()) == []

    def test_largest_finite_float_loads(self, tmp_path):
        save(small_corpus(), tmp_path / "c")
        write_meta_literal(tmp_path / "c", "utterances.jsonl", "-1.7976931348623157e308")
        assert load(tmp_path / "c").utterances["u1"].meta["bad"] == -1.7976931348623157e308

    def test_round_trip_randomized(self, tmp_path):
        rng = random.Random(2024)
        for i in range(30):
            corpus = random_corpus(rng, max_utterances=30)
            target = tmp_path / f"r{i}"
            save(corpus, target)
            assert corpus_equal_strict(load(target), corpus)


UTTERANCE_KEYS = ("id", "conversation_id", "reply_to", "speaker", "timestamp", "text", "meta")
ODD_VALUES = [None, True, False, 0, 7, -3, 2.5, "", "x", [], ["a"], {}, {"a": 1}]


class TestLoadSharesIds:
    """A loaded utterance's ids are the objects its owners hold."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ids_are_their_owners_objects(self, tmp_path, seed):
        # random_corpus lists every parent before its replies.
        save(random_corpus(random.Random(seed), min_utterances=10), tmp_path / "c")
        corpus = load(tmp_path / "c")
        replies = 0
        for utt in corpus.utterances.values():
            assert utt.speaker_id is corpus.speakers[utt.speaker_id].id
            assert utt.conversation_id is corpus.conversations[utt.conversation_id].id
            if utt.reply_to is not None:
                assert utt.reply_to is corpus.utterances[utt.reply_to].id
                replies += 1
        assert replies

    @pytest.mark.parametrize("seed", range(6))
    def test_child_before_parent_loads_an_equal_corpus(self, tmp_path, seed):
        corpus = random_corpus(random.Random(seed), min_utterances=10)
        save(corpus, tmp_path / "c")
        path = tmp_path / "c" / "utterances.jsonl"
        path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))
        reloaded = load(tmp_path / "c")
        assert list(reloaded.utterances) == list(reversed(corpus.utterances))
        for convo in reloaded.conversations.values():
            convo.utterance_ids.reverse()
        reloaded.utterances = {uid: reloaded.utterances[uid] for uid in corpus.utterances}
        assert corpus_equal_strict(reloaded, corpus)


def random_utterance_line(rng):
    """One utterances.jsonl line, as _load decodes it: a valid record, or one
    with a key missing or of a wrong type, a bool timestamp, a non-object, a
    non-finite number, a lone surrogate escape, or JSON cut off or run on."""
    record = {
        "id": rng.choice(["u1", "ü", "x y", "\U0001F600"]),
        "conversation_id": rng.choice(["c0", "c 1"]),
        "reply_to": rng.choice([None, "u0"]),
        "speaker": rng.choice(["s", "ann"]),
        "timestamp": rng.choice([None, 0, 5, -2, 10**20]),
        "text": rng.choice(["", "hi", "naïve \n"]),
        "meta": rng.choice([{}, {"k": 1}, {"n": {"x": [1.5, None]}}]),
    }
    fault = rng.randrange(9)
    if fault == 1:
        for key in rng.sample(UTTERANCE_KEYS, rng.randint(1, 3)):
            del record[key]
    elif fault == 2:
        record[rng.choice(UTTERANCE_KEYS)] = rng.choice(ODD_VALUES)
    elif fault == 3:
        record["timestamp"] = rng.choice([True, False])
    elif fault == 4:
        record = rng.choice([[record], "text", 3, None, True])
    elif fault == 5:
        keys = list(record)
        rng.shuffle(keys)
        record = {key: record[key] for key in keys}
        record["extra"] = "ignored"
    elif fault == 6:
        record["meta"] = {"x": [1, "NON_FINITE"]}
    line = json.dumps(record, ensure_ascii=rng.random() < 0.5)
    line = line.replace('"NON_FINITE"', rng.choice(NON_FINITE_LITERALS))
    if fault == 7:
        spot = rng.choice(['"text": "', '"meta": {"', '"id": "'])
        line = line.replace(spot, spot + rng.choice(["\\ud800", "\\uDFFF", "\\ude00\\ud83d"]), 1)
    elif fault == 8:
        line = rng.choice([line[: rng.randrange(len(line))], line + line, line + ",", "{" + line])
    return line + rng.choice(["\n", "\r\n", "", " \n"])


class TestUtteranceOracle:
    """_utterance against ref_parse_utterance_line, the reader it replaced."""

    def test_random_lines_match_reference(self):
        rng = random.Random(15)
        reasons, accepted = set(), 0
        for number in range(1, 3001):
            line = random_utterance_line(rng)
            try:
                expected = ref_parse_utterance_line(line, number)
            except MalformedRecordError as exc:
                assert exc.line_number == number
                expected = re.sub(r"^(utterances\.jsonl )?line \d+: ", "", str(exc), count=1)
            try:
                actual = corpus_io._utterance(line)
            except ValueError as exc:
                actual = str(exc)
            assert type(actual) is type(expected) and actual == expected, line
            if isinstance(actual, str):
                reasons.add(re.sub(r" ?[(\[].*", "", actual))
            else:
                accepted += 1
        assert accepted > 300
        assert {"invalid JSON", "non-finite number NaN", "record is not an object",
                "missing keys", "bad utterance id", "bad reply_to", "bad timestamp",
                "bad speaker or conversation id", "bad text or meta"} <= reasons
        assert any(r.startswith("lone surrogate") for r in reasons)

    def test_missing_keys_are_listed_in_format_order(self):
        line = json.dumps({"meta": {}, "text": "hi", "speaker": "s", "id": "u1"})
        with pytest.raises(ValueError) as info:
            corpus_io._utterance(line)
        assert str(info.value) == "missing keys ['conversation_id', 'reply_to', 'timestamp']"


class TestLoadPausesGc:
    """load() builds the corpus with the cyclic GC off and then puts back
    whatever state the caller had."""

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_off_while_building(self, tmp_path, monkeypatch):
        save(small_corpus(), tmp_path / "c")
        seen = []

        def spy(corpus):
            seen.append(gc.isenabled())
            return check_integrity(corpus)

        monkeypatch.setattr(model, "check_integrity", spy)
        gc.enable()
        load(tmp_path / "c")
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("malformed", [False, True])
    def test_state_restored(self, tmp_path, enabled, malformed):
        save(small_corpus(), tmp_path / "c")
        if malformed:
            (tmp_path / "c" / "utterances.jsonl").write_text("{not json\n")
        (gc.enable if enabled else gc.disable)()
        if malformed:
            with pytest.raises(MalformedRecordError):
                load(tmp_path / "c")
        else:
            load(tmp_path / "c")
        assert gc.isenabled() is enabled


class TestAtomicSave:
    def saved(self, tmp_path):
        target = tmp_path / "c"
        save(small_corpus(), target)
        return target

    def bigger_corpus(self):
        corpus = small_corpus()
        extra = Utterance("u3", "bob", "c1", "more", "u2", 7, {"k": 1})
        corpus.utterances["u3"] = extra
        corpus.conversations["c1"].utterance_ids.append("u3")
        return corpus

    def test_failure_mid_write_keeps_previous_corpus(self, tmp_path, monkeypatch):
        target = self.saved(tmp_path)
        calls = []
        original = corpus_io._utterance_record

        def failing(utt):
            calls.append(utt.id)
            if len(calls) == 2:
                raise OSError("disk full")
            return original(utt)

        monkeypatch.setattr(corpus_io, "_utterance_record", failing)
        with pytest.raises(IoFailureError, match="disk full"):
            save(self.bigger_corpus(), target)
        assert corpus_equal_strict(load(target), small_corpus())
        assert [p.name for p in tmp_path.iterdir()] == ["c"]

    def test_unserializable_meta_writes_nothing(self, tmp_path):
        target = self.saved(tmp_path)
        corpus = self.bigger_corpus()
        corpus.utterances["u3"].meta["tags"] = {"a", "b"}
        with pytest.raises(UnserializableValueError, match="'u3'.*'tags'"):
            save(corpus, target)
        with pytest.raises(UnserializableValueError):
            save(corpus, tmp_path / "fresh")
        assert corpus_equal_strict(load(target), small_corpus())
        assert [p.name for p in tmp_path.iterdir()] == ["c"]

    @pytest.mark.parametrize("owner, value", [
        ("corpus", float("nan")), ("speaker", float("inf")),
        ("conversation", [1.0, float("-inf")]), ("utterance", {"k": float("nan")}),
    ])
    def test_non_finite_float_is_refused(self, tmp_path, owner, value):
        corpus = small_corpus()
        meta, name = {
            "corpus": (corpus.meta, "corpus"),
            "speaker": (corpus.speakers["bob"].meta, "speaker 'bob'"),
            "conversation": (corpus.conversations["c1"].meta, "conversation 'c1'"),
            "utterance": (corpus.utterances["u1"].meta, "utterance 'u1'"),
        }[owner]
        meta["score"] = value
        with pytest.raises(UnserializableValueError, match=f"{name} meta key 'score'"):
            save(corpus, tmp_path / "c")
        assert list(tmp_path.iterdir()) == []

    def test_refuses_to_replace_directory_with_other_files(self, tmp_path):
        target = self.saved(tmp_path)
        (target / "notes.txt").write_text("keep me")
        with pytest.raises(IoFailureError, match="notes.txt"):
            save(self.bigger_corpus(), target)
        assert (target / "notes.txt").read_text() == "keep me"
        assert corpus_equal_strict(load(target), small_corpus())

    def test_refuses_to_replace_a_regular_file(self, tmp_path):
        target = tmp_path / "c"
        target.write_text("keep me")
        with pytest.raises(IoFailureError, match=f"cannot write corpus to .*: not a directory$"):
            save(small_corpus(), target)
        assert target.read_text() == "keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["c"]

    def test_replaces_previous_corpus(self, tmp_path):
        target = self.saved(tmp_path)
        save(self.bigger_corpus(), target)
        assert corpus_equal_strict(load(target), self.bigger_corpus())
        assert [p.name for p in tmp_path.iterdir()] == ["c"]


class TestMerge:
    def test_merge_with_empty_is_identity(self):
        corpus = small_corpus()
        empty = build_corpus([])
        assert merge(corpus, empty) == corpus
        assert merge(empty, corpus) == corpus

    def test_merge_idempotent(self):
        corpus = small_corpus()
        merged = merge(corpus, corpus)
        assert merged == corpus
        assert merged.merge_log == []

    def test_meta_conflict_b_wins_and_logged(self):
        a = build_corpus([Utterance("u0", "s", "c0")], [Speaker("s", {"age": 3})])
        b = build_corpus([Utterance("u0", "s", "c0")], [Speaker("s", {"age": 4})])
        merged = merge(a, b)
        assert merged.speakers["s"].meta["age"] == 4
        assert len(merged.merge_log) == 1
        assert merged.merge_log[0].key == "age"

    def test_disjoint_merge_is_union(self):
        a = build_corpus([Utterance("u0", "s", "c0", "x")])
        b = build_corpus([Utterance("u1", "t", "c1", "y")])
        merged = merge(a, b)
        assert set(merged.utterances) == {"u0", "u1"}
        assert set(merged.conversations) == {"c0", "c1"}
        assert check_integrity(merged).ok

    def test_structural_collision_is_error(self):
        a = build_corpus([Utterance("u0", "s", "c0", "one text")])
        b = build_corpus([Utterance("u0", "s", "c0", "another text")])
        with pytest.raises(IrreconcilableCollisionError):
            merge(a, b)

    def test_merge_does_not_alias_inputs(self):
        a = small_corpus()
        merged = merge(a, build_corpus([]))
        merged.utterances["u0"].meta["added"] = 1
        assert "added" not in a.utterances["u0"].meta

    def test_merge_does_not_alias_nested_meta(self):
        # Shared and one-sided speakers, conversations and utterances, with
        # nested values in every meta table, on both sides.
        def side(tag):
            corpus = build_corpus(
                [Utterance("u0", "s", "c0", "x", None, 1, {"n": {tag: [1]}, tag: [1]}),
                 Utterance(f"u_{tag}", f"s_{tag}", f"c_{tag}", "y", None, 2,
                           {"n": {tag: [2]}})],
                [Speaker("s", {"n": {tag: [3]}, tag: [3]}),
                 Speaker(f"s_{tag}", {"n": {tag: [4]}})],
                corpus_meta={"n": {tag: [5]}, tag: {"deep": [5]}},
            )
            for convo in corpus.conversations.values():
                convo.meta.update({"n": {tag: [6]}, tag: {"deep": [6]}})
            return corpus

        def mutate(value):
            if isinstance(value, dict):
                for item in value.values():
                    mutate(item)
                value["mutated"] = True
            elif isinstance(value, list):
                for item in value:
                    mutate(item)
                value.append("mutated")

        a, b = side("a"), side("b")
        before = copy.deepcopy((a, b))
        merged = merge(a, b)
        mutate(merged.meta)
        for table in (merged.speakers, merged.conversations, merged.utterances):
            for obj in table.values():
                mutate(obj.meta)
        for convo in merged.conversations.values():
            convo.utterance_ids.append("mutated")
        assert (a, b) == before


class TestTabular:
    def test_export_refuses_lone_surrogate_and_leaves_no_file(self, tmp_path):
        corpus = small_corpus()
        corpus.utterances["u2"].text = "next \ud800"
        with pytest.raises(UnserializableValueError, match="lone surrogate"):
            export_tabular(corpus, tmp_path / "t.csv")
        assert list(tmp_path.iterdir()) == []

    def test_export_refuses_a_file_descriptor(self):
        read_end, write_end = os.pipe()
        try:
            for path in (write_end, True):
                with pytest.raises(TypeError):
                    export_tabular(small_corpus(), path)
                os.fstat(path)  # still open
            os.set_blocking(read_end, False)
            with pytest.raises(BlockingIOError):
                os.read(read_end, 1)  # nothing was written
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_rows_without_reply_mapping_are_roots(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,who,conv,body\nr1,a,x,hello\nr2,b,y,bye\n")
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who",
                        "conversation_id": "conv", "text": "body"}
        )
        corpus = import_tabular(path, mapping)
        assert len(corpus.conversations) == 2
        assert all(u.reply_to is None for u in corpus.utterances.values())

    def test_reply_chain(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,who,conv,body,parent\nr1,a,x,first,\nr2,b,x,second,r1\nr3,a,x,third,r2\n"
        )
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who", "conversation_id": "conv",
                        "text": "body", "reply_to": "parent"}
        )
        corpus = import_tabular(path, mapping)
        assert len(corpus.conversations) == 1
        assert corpus.utterances["r3"].reply_to == "r2"

    def test_empty_id_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,who,conv,body\n,a,x,hello\n")
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who",
                        "conversation_id": "conv", "text": "body"}
        )
        with pytest.raises(MalformedRecordError):
            import_tabular(path, mapping)

    def test_bad_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,speaker_id,conversation_id,text\nr1,a,x,hello\nr2,b,x\n")
        with pytest.raises(MalformedRecordError,
                           match=rf"^{re.escape(str(path))} line 3: expected 4 fields, got 3$"
                           ) as err:
            import_tabular(path, identity_mapping(with_optional=False))
        assert err.value.line_number == 3

    @pytest.mark.parametrize("text,line,message", [
        ("", 1, "empty file: no header row"),
        ("id,speaker_id,conversation_id,reply_to,timestamp,text\nr1,a,x,,soon,hi\n", 2,
         "timestamp is not an integer"),
        ("id,speaker_id,conversation_id,reply_to,timestamp,text\n"
         "a,s,x,,,hi\nb,s,y,,,yo\na,s,z,,,hey\n", 4, "duplicate utterance id 'a'"),
    ], ids=["empty-file", "timestamp", "repeated-id"])
    def test_bad_file_names_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(MalformedRecordError,
                           match=rf"^{re.escape(str(path))} line {line}: {message}$") as err:
            import_tabular(path, identity_mapping())
        assert err.value.line_number == line

    @pytest.mark.parametrize("line", [1, 3])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, line):
        # Line 1 is the header; line 3 is the second row. The file is larger
        # than one read buffer, so a reader that decodes whole buffers meets
        # the bad bytes before it reaches their line.
        rows = ["id,speaker_id,conversation_id,text"]
        rows += [f"r{i},a,c{i},{'hello ' * 20}" for i in range(200)]
        data = ("\n".join(rows) + "\n").encode("utf-8").split(b"\n")
        data[line - 1] = data[line - 1].replace(b"e", b"\xed\xa0\x80", 1)
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join(data))
        with pytest.raises(MalformedRecordError,
                           match=rf"^{re.escape(str(path))} line {line}: ") as err:
            import_tabular(path, identity_mapping(with_optional=False))
        assert err.value.line_number == line

    def test_cell_over_the_field_limit_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,speaker_id,conversation_id,text\n"
                        f"r1,a,c1,{'x' * (csv.field_size_limit() + 1)}\n")
        with pytest.raises(MalformedRecordError,
                           match=rf"^{re.escape(str(path))} line 2: .*field limit"):
            import_tabular(path, identity_mapping(with_optional=False))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "none.csv"
        with pytest.raises(MissingFileError, match=rf"^no such file: {re.escape(str(path))}$"):
            import_tabular(path, identity_mapping())

    def test_empty_speaker_id_cell_is_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,who,conv,body\nr1,,x,hello\n")
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who",
                        "conversation_id": "conv", "text": "body"}
        )
        with pytest.raises(IntegrityViolationError) as err:
            import_tabular(path, mapping)
        assert [v.code for v in err.value.violations] == ["EmptyId"]

    def test_structural_fault_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,speaker_id,conversation_id,reply_to,timestamp,text\n"
                        "r1,a,x,r9,,hi\nr2,b,x,r9,,yo\n")
        with pytest.raises(IntegrityViolationError) as err:
            import_tabular(path, identity_mapping())
        assert str(err.value) == (f"{path}: corpus fails integrity checks (3 violations); "
                                  "first: DanglingReply: r1 r9")
        assert [str(v) for v in err.value.violations] == [
            "DanglingReply: r1 r9", "DanglingReply: r2 r9", "NoRoot: x"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,who,conv\n1,a,x\n")
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who",
                        "conversation_id": "conv", "text": "body"}
        )
        with pytest.raises(MissingColumnError):
            import_tabular(path, mapping)

    @pytest.mark.parametrize("meta_columns,message", [
        ([], "column 'speaker_id' (for speaker_id) not in header"),
        (["genre"], "meta column 'genre' not in header"),
    ], ids=["field", "meta"])
    def test_missing_column_names_the_file(self, tmp_path, meta_columns, message):
        path = tmp_path / "t.csv"
        path.write_text("id,who\n1,a\n" if not meta_columns else
                        "id,speaker_id,conversation_id,text\n1,a,x,hi\n")
        mapping = identity_mapping(with_optional=False)
        mapping.meta_columns = meta_columns
        with pytest.raises(MissingColumnError) as err:
            import_tabular(path, mapping)
        assert str(err.value) == f"{path}: {message}"

    def test_mandatory_mapping_enforced(self):
        with pytest.raises(MissingColumnError):
            ImportMapping(column_for={"id": "id"})

    def test_unknown_mapped_field_is_refused(self):
        column_for = {name: name for name in corpus_io.MANDATORY_TABULAR_FIELDS}
        with pytest.raises(MissingColumnError, match=re.escape("unknown mapped fields: ['lang']")):
            ImportMapping(column_for={**column_for, "lang": "lang"})

    def test_meta_columns_become_string_meta(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,who,conv,body,genre\n1,a,x,hello,drama\n")
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who",
                        "conversation_id": "conv", "text": "body"},
            meta_columns=["genre"],
        )
        corpus = import_tabular(path, mapping)
        assert corpus.utterances["1"].meta == {"genre": "drama"}

    @pytest.mark.parametrize("delimiter", ["", "::", '"', "\r", "\n"])
    def test_export_refuses_a_bad_delimiter_before_opening(self, tmp_path, delimiter):
        target = tmp_path / "dump.csv"
        with pytest.raises(ValueError, match="delimiter must be one character"):
            export_tabular(small_corpus(), target, delimiter=delimiter)
        assert not target.exists()

    @pytest.mark.parametrize("delimiter", ["", "::", '"', "\r", "\n"])
    def test_mapping_refuses_a_bad_delimiter(self, delimiter):
        with pytest.raises(ValueError, match="delimiter must be one character"):
            identity_mapping(delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", [",", "\t", ";", "|"])
    def test_one_character_delimiters_round_trip(self, tmp_path, delimiter):
        path = tmp_path / "dump.csv"
        export_tabular(small_corpus(), path, delimiter=delimiter)
        rebuilt = import_tabular(path, identity_mapping(delimiter=delimiter))
        assert [u.text for u in rebuilt.utterances.values()] == [
            "naïve 😀 hello", "ok", "next topic"]

    def test_export_then_import_reconstructs(self, tmp_path):
        rng = random.Random(31)
        corpus = random_corpus(rng, max_utterances=25)
        path = tmp_path / "dump.csv"
        export_tabular(corpus, path)
        rebuilt = import_tabular(path, identity_mapping())
        assert set(rebuilt.utterances) == set(corpus.utterances)
        for uid, utt in corpus.utterances.items():
            other = rebuilt.utterances[uid]
            assert other.text == utt.text
            assert other.reply_to == utt.reply_to
            assert other.timestamp == utt.timestamp
            assert other.speaker_id == utt.speaker_id
            assert other.conversation_id == utt.conversation_id
