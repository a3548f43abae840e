import copy
import gc
import json
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
from convoforge import corpus_io
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

    def test_save_refuses_invalid_corpus(self, tmp_path):
        corpus = small_corpus()
        del corpus.speakers["bob"]
        with pytest.raises(IntegrityViolationError):
            save(corpus, tmp_path / "c")

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

        monkeypatch.setattr(corpus_io, "check_integrity", spy)
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

    def test_missing_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,who,conv\n1,a,x\n")
        mapping = ImportMapping(
            column_for={"id": "id", "speaker_id": "who",
                        "conversation_id": "conv", "text": "body"}
        )
        with pytest.raises(MissingColumnError):
            import_tabular(path, mapping)

    def test_mandatory_mapping_enforced(self):
        with pytest.raises(MissingColumnError):
            ImportMapping(column_for={"id": "id"})

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
