import copy
import csv
import gc
import io
import json
import os
import random
import re
import shutil
import sys
from pathlib import Path

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
from convoforge.corpus_io import MANDATORY_TABULAR_FIELDS, ImportMapping
from convoforge.datasets import toy_movie_path
from convoforge.errors import (
    ConvoForgeError,
    IntegrityViolationError,
    IoFailureError,
    IrreconcilableCollisionError,
    MalformedRecordError,
    MissingFileError,
    UnserializableValueError,
)
from helpers import corpus_equal_strict, random_corpus, write_non_object_meta
from reference import ref_parse_utterance_line

MANIFEST_BYTES = (
    '{"format_version":"1.0","utterance_count":1,"conversation_count":1,"speaker_count":1,'
    '"corpus_meta":{"name":"naïve","n":1,"x":0.5,"nested":{"a":[1,null,true]}}}\n'
).encode("utf-8")


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


# An int of more digits than this Python's int-to-str limit has no text form.
INT_STR_LIMIT = pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                                   reason="this Python has no int-to-str digit limit")

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
        # The manifest layout is part of the format: key order, one line of
        # compact JSON ending in a newline, and non-ASCII text written as itself.
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
        violations = check_integrity(corpus)
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

    def test_indented_corpus_loads_equal_to_its_compact_save(self, tmp_path):
        # The bundled toy corpus keeps the indented layout that earlier saves
        # wrote; load reads either layout, and save writes the compact one.
        indented = tmp_path / "indented"
        shutil.copytree(toy_movie_path(), indented)
        assert (indented / "speakers.json").read_text(encoding="utf-8").count("\n") > 1
        corpus = load(indented)
        save(corpus, tmp_path / "a")
        reloaded = load(tmp_path / "a")
        assert reloaded == corpus
        assert corpus_equal_strict(reloaded, corpus)
        save(reloaded, tmp_path / "b")
        for name in corpus_io.CORPUS_FILES:
            compact = (tmp_path / "a" / name).read_bytes()
            assert compact == (tmp_path / "b" / name).read_bytes()
            if name.endswith(".json"):
                assert compact.count(b"\n") == 1 and compact.endswith(b"\n")
                assert json.loads(compact) == json.loads((indented / name).read_bytes())

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
        assert check_integrity(corpus) == []

    def test_count_mismatch(self, tmp_path):
        corpus = small_corpus()
        save(corpus, tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        manifest["utterance_count"] = 99
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(MalformedRecordError, match=r"^manifest\.json: 'utterance_count' is "
                                                       r"99, but utterances\.jsonl holds \d+$"):
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
        fault = (f"missing keys ['{key}']" if literal == "absent"
                 else f"'{key}' must be an integer, got {literal}")
        with pytest.raises(MalformedRecordError, match=f"^manifest.json: {re.escape(fault)}$"):
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

    def test_blank_lines_are_skipped_and_faults_keep_their_line(self, tmp_path):
        save(small_corpus(), tmp_path / "c")
        path = tmp_path / "c" / "utterances.jsonl"
        first, second, third = path.read_bytes().splitlines(keepends=True)
        # Empty, whitespace-only and \r-only lines before line 1, between
        # records and at the end; the third record is on line 7.
        path.write_bytes(b"\n" + b"  \r\n" + first + b"\r\n" + second + b" \t\n" + third
                         + b"\n\r\n   ")
        assert corpus_equal_strict(load(tmp_path / "c"), small_corpus())
        path.write_bytes(path.read_bytes().replace(third, b"{" + third))
        with pytest.raises(MalformedRecordError, match=r"^utterances.jsonl line 7: invalid JSON"):
            load(tmp_path / "c")

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
        with pytest.raises(MalformedRecordError,
                           match="^manifest.json: 'format_version' must be "):
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
        spelled = json.dumps(value, separators=(",", ":"))
        with pytest.raises(MalformedRecordError, match=(
                rf"^{re.escape(name)}: .*{owner}.* must be an object, got {re.escape(spelled)}$")):
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

    @pytest.mark.parametrize("where, message", [
        ("text", "utterance 'u1' cannot be saved as JSON: lone surrogate '\\ud800'"),
        ("meta", "utterance 'u1' meta key 'x' cannot be saved as JSON: lone surrogate '\\udc00'"),
        ("speaker", "speaker 'bob' meta key 'nick' cannot be saved as JSON: "
                    "lone surrogate '\\ud800'"),
    ], ids=["text", "meta", "speaker"])
    def test_save_refuses_lone_surrogate(self, tmp_path, where, message):
        corpus = small_corpus()
        if where == "text":
            corpus.utterances["u1"].text = "ok\ud800"
        elif where == "meta":
            corpus.utterances["u1"].meta["x"] = ["\udc00"]
        else:
            corpus.speakers["bob"].meta["nick"] = "\ud800"
        with pytest.raises(UnserializableValueError) as err:
            save(corpus, tmp_path / "c")
        assert str(err.value) == f"{message} cannot be encoded as UTF-8"
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


# The keys each field-level reason of ref_parse_utterance_line covers; the
# format rules name the one key at fault instead.
REASON_KEYS = {"bad utterance id": {"id"}, "bad reply_to": {"reply_to"},
               "bad timestamp": {"timestamp"},
               "bad speaker or conversation id": {"speaker", "conversation_id"},
               "bad text or meta": {"text", "meta"}}


class TestUtteranceOracle:
    """_utterance against ref_parse_utterance_line, the reader it replaced:
    the same lines are refused, for the same reason or, where the reference
    names a field, with a message naming one key that reason covers."""

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
            assert type(actual) is type(expected), line
            if isinstance(expected, str) and expected in REASON_KEYS:
                named = re.fullmatch(r"'(\w+)' must be [^,]+, got .+", actual)
                assert named and named.group(1) in REASON_KEYS[expected], (line, actual)
            else:
                assert actual == expected, line
            if isinstance(actual, str):
                reasons.add(re.sub(r" ?[(\[].*", "", expected))
            else:
                accepted += 1
        assert accepted > 300
        assert {"invalid JSON", "non-finite number NaN", "record is not an object",
                "missing keys", *REASON_KEYS} <= reasons
        assert any(r.startswith("lone surrogate") for r in reasons)

    def test_missing_keys_are_listed_in_format_order(self):
        line = json.dumps({"meta": {}, "text": "hi", "speaker": "s", "id": "u1"})
        with pytest.raises(ValueError) as info:
            corpus_io._utterance(line)
        assert str(info.value) == "missing keys ['conversation_id', 'reply_to', 'timestamp']"


# Each value every format rule is probed with; MISSING leaves the key out.
MISSING = object()
FORMAT_POOL = [None, True, 0, -1, 1.5, "", "x", "1.0", [], {}, MISSING]
STRINGS = ["", "x", "1.0"]

# The values of FORMAT_POOL that each key's rule accepts, spelled out here, from
# README's "Corpus directory format", as the oracle for corpus_io._FORMAT_RULES.
FORMAT_ACCEPTS = {
    ("manifest.json", "format_version"): ["1.0"],
    ("manifest.json", "utterance_count"): [0, -1],
    ("manifest.json", "conversation_count"): [0, -1],
    ("manifest.json", "speaker_count"): [0, -1],
    ("manifest.json", "corpus_meta"): [{}],
    ("utterances.jsonl", "id"): ["x", "1.0"],
    ("utterances.jsonl", "conversation_id"): STRINGS,
    ("utterances.jsonl", "reply_to"): [None, *STRINGS],
    ("utterances.jsonl", "speaker"): STRINGS,
    ("utterances.jsonl", "timestamp"): [None, 0, -1],
    ("utterances.jsonl", "text"): STRINGS,
    ("utterances.jsonl", "meta"): [{}],
    ("speakers.json", "meta"): [{}],
    ("conversations.json", "meta"): [{}],
}

# Keys whose accepted values still fail a later check: no pool count equals the
# toy corpus's, and these ids name no utterance, conversation or speaker there.
LATER_CHECKS = {"utterance_count": MalformedRecordError,
                "conversation_count": MalformedRecordError,
                "speaker_count": MalformedRecordError, "conversation_id": IntegrityViolationError,
                "reply_to": IntegrityViolationError, "speaker": IntegrityViolationError}


def _same_value(a, b) -> bool:
    return type(a) is type(b) and a == b


def write_format_value(directory, name, key, value, rng) -> tuple:
    """Copy the toy corpus to directory with value under key in name's one
    object (manifest.json) or in one record drawn by rng: a reply that has no
    reply, so that a new id leaves none behind and a null reply_to makes a
    second root, or a speaker or conversation.
    Returns where an error names the record (or "") and the record's id."""
    shutil.copytree(toy_movie_path(), directory)
    path = directory / name
    if name == "utterances.jsonl":
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        parents = {r["reply_to"] for r in records}
        index = rng.choice([i for i, r in enumerate(records)
                            if r["id"] not in parents and r["reply_to"] is not None])
        record, where = records[index], f" line {index + 1}"
        owner = record["id"]
    else:
        document = json.loads(path.read_text(encoding="utf-8"))
        owner = "" if name == "manifest.json" else rng.choice(sorted(document))
        record = document if name == "manifest.json" else document[owner]
        where = f": record {owner!r}" if owner else ""
    del record[key]
    if value is not MISSING:
        record[key] = value
    if name == "utterances.jsonl":
        lines[index] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path.write_text(json.dumps(document), encoding="utf-8")
    return where, owner


def _format_cases() -> list:
    return [pytest.param(name, key, value, id=f"{name}-{key}-" + (
                "missing" if value is MISSING else json.dumps(value)))
            for name, rules in corpus_io._FORMAT_RULES.items() for key in rules
            for value in FORMAT_POOL]


class TestFormatRules:
    """Every key of the four corpus files, given each value of one pool: a
    value is refused, naming the file, the key and the line or record,
    exactly when its rule refuses it, and every other value loads."""

    def test_the_oracle_covers_every_rule(self):
        assert list(FORMAT_ACCEPTS) == [(name, key) for name, rules in
                                        corpus_io._FORMAT_RULES.items() for key in rules]

    def test_readme_table_states_every_rule(self):
        # Each row names a file and its keys, in order, and starts its value
        # cell with the rule's wording.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Corpus directory format", 1)[1].split("\n## ", 1)[0]
        stated = []
        for line in section.splitlines():
            if line.startswith("| `"):
                name, keys, value = (cell.strip() for cell in line.split("|")[1:4])
                for key in re.findall(r"`(\w+)`", keys):
                    wording = corpus_io._FORMAT_RULES[name.strip("`")][key][2]
                    assert value.replace("`", "").startswith(wording), line
                    stated.append((name.strip("`"), key))
        assert stated == list(FORMAT_ACCEPTS)

    @pytest.mark.parametrize("version,refused", [
        (1.5, True), (1, True), ("1.x", True), ("1", True), ("1.", True), (" 1.0", True),
        ("1.0\n", True), ("\u0661.\u0660", True), ("2.0", True), ("0.9", True), ("01.0", True),
        ("11.0", True), ("1.7", False), ("1.10", False),
    ], ids=repr)
    def test_format_version_is_the_major_a_dot_and_digits(self, tmp_path, version, refused):
        # Arabic-Indic digits are digits to str.isdigit, but not to the format.
        write_format_value(tmp_path / "toy", "manifest.json", "format_version", version,
                           random.Random(0))
        if not refused:
            load(tmp_path / "toy")
        else:
            with pytest.raises(MalformedRecordError, match="^manifest.json: 'format_version' must "
                                                           "be a string of the form 1.<digits>, "):
                load(tmp_path / "toy")

    @pytest.mark.parametrize("length,spelled", [
        (58, '"' + "a" * 58 + '"'), (59, '"' + "a" * 59 + "..."), (20000, '"' + "a" * 59 + "...")])
    def test_a_long_refused_value_is_cut_to_60_characters(self, tmp_path, length, spelled):
        write_format_value(tmp_path / "toy", "manifest.json", "format_version", "a" * length,
                           random.Random(0))
        with pytest.raises(MalformedRecordError, match=f"^manifest.json: 'format_version' must "
                                                       f"be .*, got {re.escape(spelled)}$"):
            load(tmp_path / "toy")

    def test_validate_spells_a_20000_item_text_in_one_short_line(self, tmp_path, capsys):
        from convoforge.cli import main

        shutil.copytree(toy_movie_path(), tmp_path / "toy")
        path = tmp_path / "toy" / "utterances.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["text"] = list(range(20000))
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["--corpus", str(tmp_path / "toy"), "validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: utterances.jsonl line 1: 'text' must be a string, got "
                                "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,...\n")

    @pytest.mark.parametrize("name,key,value", _format_cases())
    def test_value_is_refused_exactly_when_its_rule_refuses_it(self, tmp_path, name, key,
                                                                  value):
        rng = random.Random(f"format rules {name} {key}")
        where, owner = write_format_value(tmp_path / "toy", name, key, value, rng)
        accepted = value is not MISSING and any(
            _same_value(value, ok) for ok in FORMAT_ACCEPTS[name, key])
        if not accepted:
            with pytest.raises(MalformedRecordError) as err:
                load(tmp_path / "toy")
            message = str(err.value)
            if value is MISSING:
                assert message == f"{name}{where}: missing keys [{key!r}]"
            else:
                spelled = json.dumps(value, separators=(",", ":"))
                assert message.startswith(f"{name}{where}: {key!r} must be "), message
                assert message.endswith(f", got {spelled}"), message
            if name == "utterances.jsonl":
                assert err.value.line_number == int(where.split()[-1])
        elif key in LATER_CHECKS:
            with pytest.raises(LATER_CHECKS[key]):
                load(tmp_path / "toy")
        else:
            corpus = load(tmp_path / "toy")
            if name == "utterances.jsonl":
                uid = value if key == "id" else owner
                utt = corpus.utterances[uid]
                held = {"timestamp": utt.timestamp, "text": utt.text, "meta": utt.meta,
                        "id": utt.id}[key]
            elif name == "manifest.json":
                held = corpus.meta if key == "corpus_meta" else value
            else:
                objects = corpus.speakers if name == "speakers.json" else corpus.conversations
                held = objects[owner].meta
            assert _same_value(held, value)


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

    @pytest.mark.parametrize("name, value", [
        ("timestamp", {"a"}), ("timestamp", float("nan")), ("timestamp", float("inf")),
        ("text", {"a"})], ids=["set-timestamp", "nan-timestamp", "inf-timestamp", "set-text"])
    def test_unserializable_field_names_the_utterance_and_writes_nothing(self, tmp_path, name,
                                                                         value):
        target = self.saved(tmp_path)
        corpus = self.bigger_corpus()
        setattr(corpus.utterances["u3"], name, value)
        with pytest.raises(UnserializableValueError,
                           match=r"^utterance 'u3' cannot be saved as JSON: "):
            save(corpus, target)
        assert corpus_equal_strict(load(target), small_corpus())
        assert [p.name for p in tmp_path.iterdir()] == ["c"]

    @pytest.mark.parametrize("owner, utterance", [
        ("speaker 's\\ud800'", Utterance("u0", "s\ud800", "c0", "hi")),
        ("conversation 'c\\ud800'", Utterance("u0", "s0", "c\ud800", "hi")),
        ("utterance 'u\\ud800'", Utterance("u\ud800", "s0", "c0", "hi")),
    ], ids=["speaker", "conversation", "utterance"])
    def test_unsaveable_id_names_its_record_and_writes_nothing(self, tmp_path, owner,
                                                               utterance):
        target = self.saved(tmp_path)
        with pytest.raises(UnserializableValueError) as err:
            save(build_corpus([utterance]), target)
        assert str(err.value) == (f"{owner} cannot be saved as JSON: "
                                  "lone surrogate '\\ud800' cannot be encoded as UTF-8")
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

    # With two faults, the one named is in the record being written: u0's line
    # comes before u1's, and speakers.json before utterances.jsonl.
    @pytest.mark.parametrize("first, second, message", [
        (("utterance", "u0", "timestamp"), ("utterance", "u1", "k"),
         "utterance 'u0' cannot be saved as JSON"),
        (("speaker", "bob", "k"), ("utterance", "u0", "k"),
         "speaker 'bob' meta key 'k' cannot be saved as JSON"),
    ], ids=["utterance-field", "speaker-meta"])
    def test_fault_is_named_in_the_record_being_written(self, tmp_path, first, second,
                                                         message):
        corpus = small_corpus()
        for kind, oid, key in (first, second):
            obj = (corpus.speakers if kind == "speaker" else corpus.utterances)[oid]
            if key == "timestamp":
                obj.timestamp = {"a"}
            else:
                obj.meta[key] = {"a"}
        with pytest.raises(UnserializableValueError) as err:
            save(corpus, tmp_path / "c")
        assert str(err.value) == f"{message}: Object of type set is not JSON serializable"
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

    def test_merge_idempotent(self, caplog):
        corpus = small_corpus()
        with caplog.at_level("DEBUG", logger="convoforge"):
            merged = merge(corpus, corpus)
        assert merged == corpus
        assert caplog.records == []

    def test_meta_conflict_b_wins_and_logged(self, caplog):
        a = build_corpus([Utterance("u0", "s", "c0")], [Speaker("s", {"age": 3})])
        b = build_corpus([Utterance("u0", "s", "c0")], [Speaker("s", {"age": 4})])
        with caplog.at_level("DEBUG", logger="convoforge"):
            merged = merge(a, b)
        assert merged.speakers["s"].meta["age"] == 4
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("DEBUG", "merge: keeping the second corpus's value for speaker 's' meta key 'age'"),
            ("WARNING", "merge: 1 metadata conflicts kept the second corpus's value")]

    @staticmethod
    def meta_tables(corpus):
        """(owner, meta) of every table, owners spelled as merge logs them."""
        return [("corpus", corpus.meta),
                *((f"speaker {i!r}", o.meta) for i, o in corpus.speakers.items()),
                *((f"conversation {i!r}", o.meta) for i, o in corpus.conversations.items()),
                *((f"utterance {i!r}", o.meta) for i, o in corpus.utterances.items())]

    def test_seeded_conflicts_warn_once_and_log_each_at_debug(self, caplog):
        rng = random.Random(34)
        for _ in range(30):
            a = random_corpus(rng, max_utterances=20)
            for owner, meta in self.meta_tables(a):
                meta.setdefault("shared", rng.randint(0, 3))  # each level can conflict
            b = copy.deepcopy(a)
            changed, levels_seen = [], set()
            for index, (owner, meta) in enumerate(self.meta_tables(b)):
                level = owner.split()[0]
                if level not in levels_seen or rng.random() < 0.3:  # each level conflicts
                    levels_seen.add(level)
                    key = rng.choice(list(meta))
                    meta[key] = ["changed", meta[key]]
                    changed.append((owner, key))
                if rng.random() < 0.3:
                    meta[f"new{index}"] = index
                items = list(meta.items())
                rng.shuffle(items)
                meta.clear()
                meta.update(items)
            expected = [(owner, list({**meta_a, **meta_b}.items()))
                        for (owner, meta_a), (_, meta_b)
                        in zip(self.meta_tables(a), self.meta_tables(b))]
            caplog.clear()
            with caplog.at_level("DEBUG", logger="convoforge"):
                merged = merge(a, b)
            assert [(owner, list(meta.items())) for owner, meta
                    in self.meta_tables(merged)] == expected
            levels = [r.levelname for r in caplog.records]
            assert levels.count("WARNING") == 1 and set(levels) == {"DEBUG", "WARNING"}
            assert caplog.records[-1].getMessage() == (
                f"merge: {len(changed)} metadata conflicts kept the second corpus's value")
            assert sorted(r.getMessage() for r in caplog.records[:-1]) == sorted(
                f"merge: keeping the second corpus's value for {owner} meta key {key!r}"
                for owner, key in changed)
            caplog.clear()
            with caplog.at_level("DEBUG", logger="convoforge"):
                assert merge(a, a) == a
            assert caplog.records == []

    def test_disjoint_merge_is_union(self):
        a = build_corpus([Utterance("u0", "s", "c0", "x")])
        b = build_corpus([Utterance("u1", "t", "c1", "y")])
        merged = merge(a, b)
        assert set(merged.utterances) == {"u0", "u1"}
        assert set(merged.conversations) == {"c0", "c1"}
        assert check_integrity(merged) == []

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


# One-character delimiters, regular expression metacharacters among them.
DELIMITERS = [",", "\t", ";", "|", ".", "\\", "^", "]", "-", " ", "x"]
HEADER = "id,speaker_id,conversation_id,reply_to,timestamp,text\n"


def awkward_alphabet(delimiter: str) -> list:
    return [delimiter, '"', "\r", "\n", " ", "é", "a"]


def awkward_cell(rng: random.Random, delimiter: str) -> str:
    """0 to 6 characters, each the delimiter, a double quote, CR, LF, a
    space, a non-ASCII letter or an ASCII one."""
    return "".join(rng.choice(awkward_alphabet(delimiter)) for _ in range(rng.randint(0, 6)))


def awkward_corpus(rng: random.Random, delimiter: str, columns=()):
    """60 conversations of 1 to 5 utterances whose ids, texts and string meta
    values are awkward cells, each utterance holding a random subset of the
    meta ``columns``."""
    def cell():
        return awkward_cell(rng, delimiter)

    utterances = []
    for c in range(60):
        cid, ids = cell() + f"c{c}", []
        for _ in range(rng.randint(1, 5)):
            ids.append(cell() + f"u{len(utterances)}")
            meta = {column: rng.choice([cell(), 7, None, True, {"k": cell()}])
                    for column in columns if rng.random() < 0.7}
            utterances.append(Utterance(
                ids[-1], cell() + f"s{rng.randint(0, 9)}", cid, cell(),
                rng.choice(ids[:-1]) if len(ids) > 1 else None,
                rng.choice([None, rng.randint(-10**12, 10**12)]), meta))
    return build_corpus(utterances)


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
        # Blank lines, ended by LF, CRLF and CR, are no rows.
        path.write_bytes(b"id,who,conv,body\nr1,a,x,hello\n\n\r\n\rr2,b,y,bye\n")
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
            import_tabular(path, ImportMapping({n: n for n in MANDATORY_TABULAR_FIELDS}))
        assert err.value.line_number == 3

    @pytest.mark.parametrize("text,line,message", [
        ("", 1, "empty file: no header row"),
        (HEADER + "r1,a,x,,soon,hi\n", 2, "timestamp is not an integer"),
        *((HEADER + f"r1,a,x,,{stamp},hi\n", 2, "timestamp is not an integer")
          for stamp in ["١٢", " 1_0 ", "+1", "01"]),
        (HEADER + "a,s,x,,,hi\nb,s,y,,,yo\na,s,z,,,hey\n", 4, "duplicate utterance id 'a'"),
        # Blank lines are no rows, but they are lines.
        (HEADER + "a,s,x,,,hi\n\r\nb,s,y,,,yo\r\ra,s,z,,,hey\n", 6,
         "duplicate utterance id 'a'"),
        # A record ends on the line of its last break, and a fault names that line.
        (HEADER + 'a,s,x,,,"two\nlines"\nb,s,y,,yo\n', 4, "expected 6 fields, got 5"),
        (HEADER + 'a,s,x,,,hi\nb,s,y,,,"hi"there\nc,s,z,,,yo\n', 3, "malformed quoting"),
        (HEADER + 'a,s,x,,,hi\r\nb,s,y,,,"y"  \r\n', 3, "malformed quoting"),
        (HEADER + 'a,s,x,,,hi\nb,s,y,,,"oops\n', 3, "malformed quoting"),
        (HEADER + 'a,s,x,,,hi\nb,s,y,,,say "hi" now\nc,s,z,,,yo\n', 3, "malformed quoting"),
    ], ids=["empty-file", "timestamp", "arabic-indic-digits", "spaces-and-underscore",
            "plus-sign", "leading-zero", "repeated-id", "after-blank-lines",
            "multiline-record", "text-after-quote", "spaces-after-quote", "unterminated-quote",
            "quote-in-bare-cell"])
    def test_bad_file_names_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
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
            import_tabular(path, ImportMapping({n: n for n in MANDATORY_TABULAR_FIELDS}))
        assert err.value.line_number == line

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
        with pytest.raises(MalformedRecordError):
            import_tabular(path, mapping)

    @pytest.mark.parametrize("meta_columns,message", [
        ([], "column 'speaker_id' (for speaker_id) not in header"),
        (["genre"], "meta column 'genre' not in header"),
    ], ids=["field", "meta"])
    def test_missing_column_names_the_file(self, tmp_path, meta_columns, message):
        path = tmp_path / "t.csv"
        path.write_text("id,who\n1,a\n" if not meta_columns else
                        "id,speaker_id,conversation_id,text\n1,a,x,hi\n")
        mapping = ImportMapping({n: n for n in MANDATORY_TABULAR_FIELDS})
        mapping.meta_columns = meta_columns
        with pytest.raises(MalformedRecordError) as err:
            import_tabular(path, mapping)
        assert str(err.value) == f"{path} line 1: {message}"
        assert err.value.line_number == 1

    def test_mandatory_mapping_enforced(self):
        with pytest.raises(ValueError,
                           match="^mapping for mandatory field 'speaker_id' is missing$"):
            ImportMapping(column_for={"id": "id"})

    def test_unknown_mapped_field_is_refused(self):
        column_for = {name: name for name in corpus_io.MANDATORY_TABULAR_FIELDS}
        with pytest.raises(ValueError, match=re.escape("unknown mapped fields: ['lang']")):
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

    @pytest.mark.parametrize("delimiter", DELIMITERS)
    def test_one_character_delimiters_round_trip(self, tmp_path, delimiter):
        path = tmp_path / "dump.csv"
        export_tabular(small_corpus(), path, delimiter=delimiter)
        rebuilt = import_tabular(path, identity_mapping(delimiter=delimiter))
        assert [u.text for u in rebuilt.utterances.values()] == [
            "naïve 😀 hello", "ok", "next topic"]

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_export_then_import_reconstructs(self, tmp_path, seed):
        # Every field, under every delimiter, of cells holding the delimiter,
        # quotes, CR, LF and CRLF, and of one text longer than the csv
        # module's 131,072-character field limit.
        rng = random.Random(seed)
        path = tmp_path / "dump.csv"
        for delimiter in DELIMITERS:
            corpus = awkward_corpus(rng, delimiter)
            utterances = list(corpus.utterances.values())
            rng.choice(utterances).text = "".join(rng.choices(awkward_alphabet(delimiter),
                                                              k=200_000))
            assert any("\r\n" in utt.text for utt in utterances)
            export_tabular(corpus, path, delimiter=delimiter)
            rebuilt = import_tabular(path, identity_mapping(delimiter))
            assert list(rebuilt.utterances.values()) == utterances

    def test_export_writes_meta_values_as_their_json_text(self, tmp_path):
        # A string is itself; any other value is the compact JSON text that
        # utterances.jsonl holds, so null, true and the string "None" differ.
        meta = {"none": None, "word": "None", "flag": True, "obj": {"k": 1},
                "list": [1, "café"], "n": 3, "x": 2.5, "big": 10**20}
        corpus = build_corpus([Utterance("u0", "ann", "c0", "hi", None, 5, meta),
                               Utterance("u1", "bob", "c0", "ok", "u0", 6)])
        path = tmp_path / "dump.csv"
        export_tabular(corpus, path, meta_columns=list(meta))
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][6:] == ["null", "None", "true", '{"k":1}', '[1,"café"]', "3", "2.5",
                               "100000000000000000000"]
        assert rows[2][6:] == [""] * len(meta)  # keys the utterance lacks

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), {1, 2},
                                       pytest.param(10**5000, marks=INT_STR_LIMIT)],
                             ids=["nan", "inf", "set", "long-int"])
    def test_export_refuses_a_meta_value_json_cannot_hold(self, tmp_path, value):
        corpus = small_corpus()
        corpus.utterances["u1"].meta["bad"] = value
        with pytest.raises(UnserializableValueError,
                           match=r"^utterance 'u1' meta key 'bad' cannot be exported as JSON"):
            export_tabular(corpus, tmp_path / "t.csv", meta_columns=["n", "bad"])
        assert list(tmp_path.iterdir()) == []

    @INT_STR_LIMIT
    def test_export_refuses_a_timestamp_json_cannot_hold(self, tmp_path):
        # As save does: the writer names the utterance, and no file is left.
        corpus = build_corpus([Utterance("u0", "s", "c", "hi", None, 10**5000)])
        with pytest.raises(UnserializableValueError,
                           match=r"^utterance 'u0' timestamp cannot be exported as JSON: "):
            export_tabular(corpus, tmp_path / "t.csv")
        with pytest.raises(UnserializableValueError,
                           match=r"^utterance 'u0' cannot be saved as JSON: "):
            save(corpus, tmp_path / "saved")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", "x", " "])
    def test_export_bytes_equal_the_csv_writer(self, tmp_path, delimiter):
        rng = random.Random(f"export {delimiter}")
        columns = [awkward_cell(rng, delimiter) + f"m{i}" for i in range(3)]
        corpus = awkward_corpus(rng, delimiter, columns)

        def meta_cell(utt, column):
            value = utt.meta.get(column, "")
            return value if isinstance(value, str) else json.dumps(
                value, ensure_ascii=False, separators=(",", ":"))

        expected = io.StringIO(newline="")
        writer = csv.writer(expected, delimiter=delimiter, lineterminator="\r\n")
        writer.writerow([*corpus_io.TABULAR_FIELDS, *columns])
        for utt in corpus.utterances.values():
            writer.writerow([utt.id, utt.speaker_id, utt.conversation_id, utt.reply_to,
                             utt.timestamp, utt.text, *(meta_cell(utt, c) for c in columns)])
        path = tmp_path / "dump.csv"
        export_tabular(corpus, path, delimiter=delimiter, meta_columns=columns)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


def _manifest_fault(key, value):
    """A toy corpus whose manifest holds value under key, or, for an int,
    its count that much off; the load, and the start of its message."""
    def make(directory):
        shutil.copytree(toy_movie_path(), directory)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(value, str):
            manifest[key], start = value, f"manifest.json: {key!r} must be "
        else:
            actual = manifest[key]
            manifest[key] += value
            file = {"utterance_count": "utterances.jsonl", "conversation_count":
                    "conversations.json", "speaker_count": "speakers.json"}[key]
            start = f"manifest.json: {key!r} is {actual + value}, but {file} holds {actual}"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return lambda: load(directory), start
    return make


def _header_fault(meta_columns):
    """A table whose header lacks a mapped column, or a meta column; the
    import, and the start of its message."""
    def make(directory):
        directory.mkdir()
        path = directory / "t.csv"
        path.write_text("id,speaker_id,conversation_id,text\n1,a,x,hi\n" if meta_columns
                        else "id,speaker_id,text\n1,a,hi\n", encoding="utf-8")
        mapping = ImportMapping({n: n for n in MANDATORY_TABULAR_FIELDS}, meta_columns)
        return lambda: import_tabular(path, mapping), f"{path} line 1: "
    return make


# The input faults that had error classes of their own before they joined the
# one rule: a manifest version or count the loader does not bear out, and a
# table header without a mapped column.
INPUT_FAULTS = {
    "format_version-2.0": _manifest_fault("format_version", "2.0"),
    "format_version-0.9": _manifest_fault("format_version", "0.9"),
    **{f"{key}{step:+d}": _manifest_fault(key, step) for key in
       ("utterance_count", "conversation_count", "speaker_count") for step in (1, -1)},
    "mapped-column": _header_fault([]),
    "meta-column": _header_fault(["genre"]),
}


@pytest.mark.parametrize("fault", INPUT_FAULTS.values(), ids=INPUT_FAULTS)
def test_every_input_fault_is_a_malformed_record_naming_its_file(tmp_path, fault):
    read, start = fault(tmp_path / "input")
    with pytest.raises(ConvoForgeError) as err:
        read()
    assert type(err.value) is MalformedRecordError
    assert err.value.exit_code == 2
    assert str(err.value).startswith(start), str(err.value)
