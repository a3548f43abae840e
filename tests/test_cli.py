import csv
import gc
import inspect
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from convoforge import (Speaker, Utterance, build_corpus, import_tabular, identity_mapping,
                        load, save, tokenize)
from convoforge import cli, corpus_io, errors
from convoforge.cli import main
from convoforge.datasets import toy_movie_path
from convoforge.model import _level_objects
from helpers import child_env, random_corpus, write_non_object_meta


def run_child(argv, **kwargs):
    """The command line in a fresh interpreter, with its own logging set-up
    and standard streams."""
    kwargs.setdefault("env", child_env())
    return subprocess.run([sys.executable, "-m", "convoforge.cli", *argv],
                          timeout=120, **kwargs)


@pytest.fixture
def chain_dir(tmp_path):
    corpus = build_corpus([
        Utterance("u0", "a", "c0", "first words", None, 1),
        Utterance("u1", "b", "c0", "second words", "u0", 2),
        Utterance("u2", "a", "c0", "third words", "u1", 3),
    ])
    target = tmp_path / "chain"
    save(corpus, target)
    return target


@pytest.fixture
def broken_dir(tmp_path, chain_dir):
    target = tmp_path / "broken"
    target.mkdir()
    for name in ("manifest.json", "utterances.jsonl", "speakers.json",
                 "conversations.json"):
        (target / name).write_bytes((chain_dir / name).read_bytes())
    lines = (target / "utterances.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["reply_to"] = "ghost"
    lines[2] = json.dumps(record, separators=(",", ":"))
    (target / "utterances.jsonl").write_text("\n".join(lines) + "\n")
    return target


@pytest.fixture
def surrogate_dir(chain_dir):
    """chain_dir with a lone surrogate escape in the text of its third line."""
    path = chain_dir / "utterances.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace('"text":"', '"text":"\\ud800', 1)
    path.write_text("\n".join(lines) + "\n")
    return chain_dir


@pytest.mark.parametrize("command", ["validate", "run", "export"])
def test_lone_surrogate_exits_2_and_writes_nothing(tmp_path, surrogate_dir, command, capsys):
    out = tmp_path / "out"
    argv = {"validate": ["--corpus", str(surrogate_dir), "validate"],
            "export": ["--corpus", str(surrogate_dir), "export", "--output", str(out)],
            "run": ["run", str(tmp_path / "pipeline.json")]}[command]
    (tmp_path / "pipeline.json").write_text(json.dumps({
        "input": str(surrogate_dir), "output": str(out),
        "stages": [{"name": "text_cleaner"}, {"name": "tokenizer"}]}))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: utterances.jsonl line 3: lone surrogate '\\ud800' cannot be encoded as UTF-8"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain", "pipeline.json"]


class TestValidate:
    def test_bundled_corpus_is_valid(self, capsys):
        assert main(["--corpus", str(toy_movie_path()), "validate"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_dangling_reply_exits_1_with_one_line(self, broken_dir, capsys):
        assert main(["--corpus", str(broken_dir), "validate"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("DanglingReply")

    def test_nonexistent_path_exits_2(self, tmp_path):
        assert main(["--corpus", str(tmp_path / "missing"), "validate"]) == 2

    def test_invalid_utf8_exits_2_naming_file_and_line(self, tmp_path, capsys):
        target = tmp_path / "toy"
        shutil.copytree(toy_movie_path(), target)
        path = target / "utterances.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"text":"', b'"text":"\xed\xa0\x80', 1)
        path.write_bytes(b"\n".join(lines))
        assert main(["--corpus", str(target), "validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: utterances.jsonl line 3: "), err

    @pytest.mark.parametrize("name", ["manifest.json", "speakers.json",
                                      "conversations.json"])
    def test_json_file_that_is_not_an_object_exits_2(self, tmp_path, name, capsys):
        target = tmp_path / "toy"
        shutil.copytree(toy_movie_path(), target)
        (target / name).write_text("[]")
        assert main(["--corpus", str(target), "validate"]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["speakers.json", "conversations.json", "manifest.json"])
    def test_meta_that_is_not_an_object_exits_2(self, tmp_path, name, capsys):
        owner = write_non_object_meta(tmp_path / "toy", name, 5)
        assert main(["--corpus", str(tmp_path / "toy"), "validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name}: ")
        assert owner in lines[0]

    def test_missing_corpus_flag_exits_2(self, capsys):
        assert main(["validate"]) == 2
        assert "--corpus" in capsys.readouterr().err

    def test_seed_flag_accepted(self, capsys):
        assert main(["--seed", "7", "--corpus", str(toy_movie_path()), "validate"]) == 0

    def test_global_flags_accepted_after_subcommand(self, capsys):
        assert main(["validate", "--corpus", str(toy_movie_path()), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_leading_global_flag_not_clobbered_by_subcommand(self, capsys):
        assert main(["--quiet", "validate", "--corpus", str(toy_movie_path())]) == 0
        assert capsys.readouterr().out == ""


class TestStats:
    def test_chain_stats(self, chain_dir, capsys):
        assert main(["--corpus", str(chain_dir), "stats"]) == 0
        out = dict(
            line.split("\t") for line in capsys.readouterr().out.strip().splitlines()[1:]
        )
        assert out["utterances"] == "3"
        assert out["conversations"] == "1"
        assert out["mean_conversation_depth"] == "3"
        assert out["speakers"] == "2"


class TestRun:
    def make_config(self, tmp_path, stages, input_dir, output_dir):
        config = {"input": input_dir and str(input_dir), "output": str(output_dir),
                  "stages": stages}
        path = tmp_path / "pipeline.json"
        path.write_text(json.dumps(config))
        return path

    def test_pipeline_annotates_and_roundtrips(self, tmp_path, capsys):
        out_dir = tmp_path / "annotated"
        config = self.make_config(
            tmp_path,
            [{"name": "text_cleaner"}, {"name": "tokenizer"}, {"name": "politeness"}],
            toy_movie_path(), out_dir,
        )
        assert main(["--quiet", "run", str(config)]) == 0
        from convoforge import load
        annotated = load(out_dir)
        assert all("politeness_strategies" in u.meta
                   for u in annotated.utterances.values())
        assert main(["--corpus", str(out_dir), "validate"]) == 0

    def test_rerun_on_own_output_is_byte_identical(self, tmp_path):
        first = tmp_path / "out1"
        second = tmp_path / "out2"
        config1 = self.make_config(
            tmp_path, [{"name": "text_cleaner"}, {"name": "tokenizer"}],
            toy_movie_path(), first,
        )
        assert main(["--quiet", "run", str(config1)]) == 0
        config2 = self.make_config(
            tmp_path, [{"name": "text_cleaner"}, {"name": "tokenizer"}], first, second
        )
        assert main(["--quiet", "run", str(config2)]) == 0
        for name in ("manifest.json", "utterances.jsonl", "speakers.json",
                     "conversations.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_rerun_writes_one_stderr_line_per_stage(self, tmp_path):
        stages = [{"name": "text_cleaner"}, {"name": "tokenizer"}]
        first = tmp_path / "out1"
        second = tmp_path / "out2"
        results = []
        for source, target in ((toy_movie_path(), first), (first, second)):
            config = self.make_config(tmp_path, stages, source, target)
            result = run_child(["run", str(config)], capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert result.stdout == f"wrote {target}\n"
            results.append(result)
        assert results[0].stderr == ""
        assert results[1].stderr.splitlines() == [
            "WARNING convoforge.transform: text_cleaner: overwrote 14 existing "
            "'clean_text' annotations",
            "WARNING convoforge.transform: tokenizer: overwrote 14 existing "
            "'tokens' annotations",
        ]

    def test_output_equal_to_input(self, tmp_path, chain_dir, capsys):
        config = self.make_config(tmp_path, [{"name": "tokenizer"}], chain_dir, chain_dir)
        assert main(["--quiet", "run", str(config)]) == 0
        from convoforge import load
        assert all("tokens" in u.meta for u in load(chain_dir).utterances.values())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain", "pipeline.json"]

    def test_non_finite_meta_exits_2_and_writes_nothing(self, tmp_path, chain_dir, capsys):
        lines = (chain_dir / "utterances.jsonl").read_text().splitlines()
        lines[1] = lines[1].replace('"meta":{}', '"meta":{"score":NaN}')
        (chain_dir / "utterances.jsonl").write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        config = self.make_config(tmp_path, [{"name": "tokenizer"}], chain_dir, out_dir)
        assert main(["--quiet", "run", str(config)]) == 2
        assert "utterances.jsonl line 2: non-finite number NaN" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain", "pipeline.json"]

    def test_unknown_stage_exits_2_naming_it(self, tmp_path, capsys):
        config = self.make_config(
            tmp_path, [{"name": "definitely_not_real"}], toy_movie_path(),
            tmp_path / "out",
        )
        assert main(["run", str(config)]) == 2
        assert "definitely_not_real" in capsys.readouterr().err

    def test_bad_params_exit_2_naming_stage(self, tmp_path, capsys):
        config = self.make_config(
            tmp_path, [{"name": "tokenizer", "params": {"bogus": 1}}],
            toy_movie_path(), tmp_path / "out",
        )
        assert main(["run", str(config)]) == 2
        assert "stage 0 (tokenizer)" in capsys.readouterr().err

    def test_stage_domain_error_exits_1_with_index(self, tmp_path, capsys):
        config = self.make_config(
            tmp_path,
            [{"name": "tokenizer"},
             {"name": "fighting_words",
              "params": {"class1": "nope=1", "class2": "nope=2"}}],
            toy_movie_path(), tmp_path / "out",
        )
        assert main(["run", str(config)]) == 1
        assert "stage 1 (fighting_words)" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,command", [
        ("politeness", "politeness"), ("speaker_diversity", "diversity")])
    def test_token_reading_stage_tokenizes_first(self, tmp_path, stage, command):
        # The same corpus as the single-analyzer command, which tokenizes first.
        by_command = tmp_path / "by_command"
        assert main(["--quiet", "--corpus", str(toy_movie_path()), command,
                     "--output", str(by_command)]) == 0
        by_run = tmp_path / "by_run"
        config = self.make_config(tmp_path, [{"name": stage}], toy_movie_path(), by_run)
        assert main(["--quiet", "run", str(config)]) == 0
        for name in ("manifest.json", "utterances.jsonl", "speakers.json",
                     "conversations.json"):
            assert (by_run / name).read_bytes() == (by_command / name).read_bytes(), name

    def test_tokenizer_stage_before_token_reader_is_not_preceded(self, tmp_path):
        # An explicit tokenizer stage runs on untokenized input: the pre-pass
        # would leave it overwriting 14 annotations, and it warns of none.
        config = self.make_config(
            tmp_path, [{"name": "tokenizer"}, {"name": "politeness"}],
            toy_movie_path(), tmp_path / "out")
        result = run_child(["run", str(config)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    def test_bad_filter_exits_2_before_load(self, tmp_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(corpus_io, "load", lambda path: loaded.append(path))
        config = self.make_config(
            tmp_path,
            [{"name": "tokenizer"},
             {"name": "fighting_words", "params": {"class1": "x", "class2": "a=1"}}],
            toy_movie_path(), tmp_path / "out",
        )
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 1 (fighting_words): bad filter clause 'x'; expected key=value\n")
        assert loaded == []
        assert not (tmp_path / "out").exists()

    def test_unknown_classifier_level_exits_2_before_load(self, tmp_path, capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(corpus_io, "load", lambda path: loaded.append(path))
        config = self.make_config(
            tmp_path, [{"name": "classifier", "params": {"label_key": "y", "level": "x"}}],
            toy_movie_path(), tmp_path / "out",
        )
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 0 (classifier): unknown level 'x'; expected one of "
            "('utterance', 'conversation', 'speaker')\n")
        assert loaded == []
        assert not (tmp_path / "out").exists()

    def test_bad_prior_exits_2_naming_stage(self, tmp_path, capsys):
        config = self.make_config(
            tmp_path,
            [{"name": "fighting_words",
              "params": {"class1": "a=1", "class2": "a=2", "alpha": 0}}],
            toy_movie_path(), tmp_path / "out",
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert "stage 0 (fighting_words)" in err and "alpha must be a positive" in err
        assert not (tmp_path / "out").exists()

    def test_speaker_mix_on_object_and_array_values(self, tmp_path, capsys):
        # Lists and objects compare by canonical JSON (key order ignored);
        # hashable values keep comparing as themselves, so 1 and 1.0 agree.
        cast = {
            "c0": [("s0", {"a": 1, "b": [2]}), ("s1", {"b": [2], "a": 1})],
            "c1": [("s0", {"a": 1, "b": [2]}), ("s2", {"a": 2})],
            "c2": [("s3", [1, "x"]), ("s4", "[1, \"x\"]")],
            "c3": [("s5", 1), ("s6", 1.0)],
            "c4": [("s3", [1, "x"]), ("s3", [1, "x"]), ("s7", None)],
        }
        speakers = {sid: Speaker(sid, {"gender": value})
                    for parts in cast.values() for sid, value in parts}
        utterances = []
        for cid, parts in cast.items():
            for j, (sid, _) in enumerate(parts):
                utterances.append(Utterance(f"{cid}_{j}", sid, cid, "hi",
                                            None if j == 0 else f"{cid}_0", j))
        source = tmp_path / "cast"
        save(build_corpus(utterances, list(speakers.values())), source)
        out = tmp_path / "out"
        config = self.make_config(
            tmp_path, [{"name": "speaker_mix", "params": {"speaker_key": "gender"}}],
            source, out)
        assert main(["--quiet", "run", str(config)]) == 0
        assert capsys.readouterr().err == ""
        from convoforge import load
        mixed = {cid: convo.meta["mixed"] for cid, convo in load(out).conversations.items()}
        assert mixed == {"c0": False, "c1": True, "c2": True, "c3": False, "c4": False}

    def test_no_input_corpus_exits_2(self, tmp_path, capsys):
        # One check for every command: neither --corpus nor the config's input.
        config = self.make_config(tmp_path, [{"name": "tokenizer"}], None, tmp_path / "out")
        assert main(["run", str(config)]) == 2
        assert capsys.readouterr().err == "error: no corpus directory given; use --corpus DIR\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: no such file: {path}\n"

    @pytest.mark.parametrize("text,message", [
        ("[]", "top-level value is not an object"),
        ('"x"', "top-level value is not an object"),
        ("{", "invalid JSON"),
        ('{"input": 5, "output": OUT, "stages": [{"name": "tokenizer"}]}',
         "config 'input' must be a path string"),
        ('{"output": [OUT], "stages": [{"name": "tokenizer"}]}',
         "config 'output' must be a path string"),
        ('{"output": OUT, "stages": [{"name": "tokenizer", "params": {"x": NaN}}]}',
         "non-finite number NaN"),
    ], ids=["list", "string", "invalid", "input-number", "output-list", "nan"])
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        path = tmp_path / "pipeline.json"
        path.write_text(text.replace("OUT", json.dumps(str(out))))
        assert main(["--corpus", str(toy_movie_path()), "run", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert not out.exists()


# Every JSON value a key that a stage reads but does not own can hold: each
# type, empty and falsy ones, and strings that a truthiness test misreads.
FOREIGN_VALUES = ["null", "5", "-1", "1.5", '""', '"x"', "[]", "{}", "true", "false",
                  "[[1, 2]]", '["a"]', '[["a", null]]', '{"a": 1}', '"false"', "0"]


@pytest.mark.parametrize("stage", ["tokenizer", "politeness"])
@pytest.mark.parametrize("literal", FOREIGN_VALUES)
def test_clean_text_is_a_string_or_missing(tmp_path, capsys, literal, stage):
    # A stored clean_text is tokenized in place of the text; null is missing
    # and falls back to the text, as an absent key does. Any other value is
    # one stage error naming the utterance and the key.
    value = json.loads(literal)
    source = tmp_path / "in"
    shutil.copytree(toy_movie_path(), source)
    path = source / "utterances.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    target = random.Random(FOREIGN_VALUES.index(literal)).choice(records)
    target["meta"]["clean_text"] = value
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    config = tmp_path / "pipeline.json"
    out = tmp_path / "out"
    config.write_text(json.dumps({"output": str(out), "stages": [{"name": stage}]}))
    code = main(["--quiet", "--corpus", str(source), "run", str(config)])
    err = capsys.readouterr().err
    if value is None or isinstance(value, str):
        assert (code, err) == (0, "")
        if stage == "tokenizer":
            assert load(out).utterances[target["id"]].meta["tokens"] == \
                tokenize(target["text"] if value is None else value)
    else:
        assert code == 1
        assert err.splitlines() == [f"error: stage 0 ({stage}): utterance {target['id']!r}: "
                                    "'clean_text' is not a string"]
        assert not out.exists()


class TestFightingWordsCommand:
    @pytest.fixture
    def mixed_dir(self, tmp_path):
        out = tmp_path / "mixed"
        config = {
            "input": str(toy_movie_path()),
            "output": str(out),
            "stages": [
                {"name": "text_cleaner"},
                {"name": "tokenizer"},
                {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
            ],
        }
        path = tmp_path / "prep.json"
        path.write_text(json.dumps(config))
        assert main(["--quiet", "run", str(path)]) == 0
        return out

    def test_planted_token_ranks_top(self, mixed_dir, capsys):
        assert main([
            "--corpus", str(mixed_dir), "fightingwords",
            "--class1", "mixed=true", "--class2", "mixed=false", "--top-k", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "term\tclass\ty1\ty2\tzscore"
        first = lines[1].split("\t")
        assert first[0] == "alpha" and first[1] == "class1"

    def test_identical_filters_give_zero_z(self, mixed_dir, capsys):
        assert main([
            "--corpus", str(mixed_dir), "fightingwords",
            "--class1", "mixed=true", "--class2", "mixed=true", "--top-k", "2",
        ]) == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            assert line.split("\t")[4] == "0"

    def test_empty_class_exits_1(self, mixed_dir, capsys):
        assert main([
            "--corpus", str(mixed_dir), "fightingwords",
            "--class1", "mixed=maybe", "--class2", "mixed=false",
        ]) == 1
        assert capsys.readouterr().err == (
            "error: stage 0 (fighting_words): class 1 selects no utterances\n")

    def test_non_positive_alpha_exits_2(self, mixed_dir, capsys):
        assert main([
            "--corpus", str(mixed_dir), "fightingwords",
            "--class1", "mixed=true", "--class2", "mixed=false", "--alpha", "0",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: stage 0 (fighting_words): "
                                "alpha must be a positive finite number, got 0.0\n")

    @pytest.mark.parametrize("top_k", ["0", "-1", "-60"])
    def test_non_positive_top_k_exits_2_before_load(self, mixed_dir, capsys, monkeypatch,
                                                    top_k):
        loaded = []
        monkeypatch.setattr(corpus_io, "load", lambda path: loaded.append(path))
        assert main([
            "--corpus", str(mixed_dir), "fightingwords",
            "--class1", "mixed=true", "--class2", "mixed=false", "--top-k", top_k,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: stage 0 (fighting_words): "
                                f"top_k must be a positive integer, got {top_k}\n")
        assert loaded == []

    def test_rerun_on_tagged_corpus_warns_once(self, mixed_dir, tmp_path):
        # The command runs the stage's transform as run does, so it writes
        # fw_class in memory and reports the overwrites in one line.
        tagged = tmp_path / "tagged"
        config = tmp_path / "fw.json"
        config.write_text(json.dumps({
            "input": str(mixed_dir), "output": str(tagged),
            "stages": [{"name": "fighting_words",
                        "params": {"class1": "mixed=true", "class2": "mixed=false"}}]}))
        assert main(["--quiet", "run", str(config)]) == 0
        result = run_child(["--corpus", str(tagged), "fightingwords", "--class1", "mixed=true",
                            "--class2", "mixed=false"], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == TOY_STDOUT["fightingwords"]
        assert result.stderr == ("WARNING convoforge.transform: fighting_words: "
                                 "overwrote 14 existing 'fw_class' annotations\n")

    def test_export_full_ranking(self, mixed_dir, tmp_path, capsys):
        target = tmp_path / "ranking.csv"
        assert main([
            "--corpus", str(mixed_dir), "fightingwords",
            "--class1", "mixed=true", "--class2", "mixed=false",
            "--export", str(target),
        ]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "term,y1,y2,zscore"
        assert lines[1].startswith("alpha,")


    def test_export_quotes_a_cell_holding_the_delimiter(self, tmp_path, capsys):
        source = tmp_path / "priced"
        save(build_corpus([
            Utterance("u0", "a", "c0", "it cost 1,000 dollars", None, 0, {"side": "a"}),
            Utterance("u1", "b", "c0", "too much", "u0", 1, {"side": "b"}),
        ]), source)
        target = tmp_path / "ranking.csv"
        assert main(["--corpus", str(source), "fightingwords", "--class1", "side=a",
                     "--class2", "side=b", "--export", str(target)]) == 0
        with open(target, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["term", "y1", "y2", "zscore"]
        assert {len(row) for row in rows} == {4}
        assert ["1,000", "1", "0"] in [row[:3] for row in rows]
        # Standard output stays unquoted.
        assert "\n1,000\tclass1\t1\t0\t" in capsys.readouterr().out

@pytest.fixture
def speaker_mix_dir(tmp_path):
    """The toy corpus after speaker_mix on gender: conversations m1 and m2
    are mixed=true, f1 and g1 mixed=false."""
    out = tmp_path / "speaker_mix"
    config = tmp_path / "speaker_mix.json"
    config.write_text(json.dumps({
        "input": str(toy_movie_path()), "output": str(out),
        "stages": [{"name": "speaker_mix", "params": {"speaker_key": "gender"}}],
    }))
    assert main(["--quiet", "run", str(config)]) == 0
    return out


# The full fighting-words ranking of the toy corpus, mixed=true against
# mixed=false, as `fightingwords --export` writes it with "," as delimiter.
TOY_RANKING = (
    "term,y1,y2,zscore\n"
    "alpha,6,0,0.649499\n"
    "then,2,1,0.564235\n"
    "me,2,0,0.530966\n"
    "protocol,2,0,0.530966\n"
    "a,1,0,0.459244\n"
    "about,1,0,0.459244\n"
    "always,1,0,0.459244\n"
    "answer,1,0,0.459244\n"
    "archive,1,0,0.459244\n"
    "but,1,0,0.459244\n"
    "crates,1,0,0.459244\n"
    "files,1,0,0.459244\n"
    "fine,1,0,0.459244\n"
    "from,1,0,0.459244\n"
    "have,1,0,0.459244\n"
    "idea,1,0,0.459244\n"
    "keep,1,0,0.459244\n"
    "leaves,1,0,0.459244\n"
    "list,1,0,0.459244\n"
    "mine,1,0,0.459244\n"
    "missing,1,0,0.459244\n"
    "moved,1,0,0.459244\n"
    "nothing,1,0,0.459244\n"
    "owe,1,0,0.459244\n"
    "real,1,0,0.459244\n"
    "room,1,0,0.459244\n"
    "safe,1,0,0.459244\n"
    "tell,1,0,0.459244\n"
    "this,1,0,0.459244\n"
    "tonight,1,0,0.459244\n"
    "was,1,0,0.459244\n"
    "who,1,0,0.459244\n"
    "will,1,0,0.459244\n"
    "you,1,0,0.459244\n"
    "your,1,0,0.459244\n"
    "is,1,1,-0.0138909\n"
    "we,1,1,-0.0138909\n"
    "add,0,1,-0.463097\n"
    "again,0,1,-0.463097\n"
    "against,0,1,-0.463097\n"
    "arrive,0,1,-0.463097\n"
    "burned,0,1,-0.463097\n"
    "check,0,1,-0.463097\n"
    "do,0,1,-0.463097\n"
    "early,0,1,-0.463097\n"
    "entirely,0,1,-0.463097\n"
    "in,0,1,-0.463097\n"
    "late,0,1,-0.463097\n"
    "move,0,1,-0.463097\n"
    "numbers,0,1,-0.463097\n"
    "or,0,1,-0.463097\n"
    "remember,0,1,-0.463097\n"
    "schedule,0,1,-0.463097\n"
    "skip,0,1,-0.463097\n"
    "stays,0,1,-0.463097\n"
    "too,0,1,-0.463097\n"
    "until,0,1,-0.463097\n"
    "up,0,1,-0.463097\n"
    "were,0,1,-0.463097\n"
    "buyers,0,2,-0.534867\n"
    "dawn,0,2,-0.534867\n"
    "logs,0,2,-0.534867\n"
    "night,0,2,-0.534867\n"
    "vault,0,2,-0.534867\n"
    "not,1,2,-0.596608\n"
    "ledger,0,4,-0.608614\n"
    "the,6,10,-1.20827\n"
)


# The standard output of each analyzer command on the toy corpus;
# fightingwords compares mixed=true against mixed=false after speaker_mix.
TOY_STDOUT = {
    "politeness": (
        "strategy\tmean\n"
        "gratitude\t0\n"
        "apologizing\t0\n"
        "please\t0\n"
        "please_start\t0\n"
        "greeting\t0\n"
        "deference\t0\n"
        "indirect_btw\t0\n"
        "direct_question\t0\n"
        "direct_start\t0.357143\n"
        "counterfactual_modal\t0\n"
        "indicative_modal\t0\n"
        "hedges\t0\n"
        "factuality\t0\n"
        "first_person\t0.0714286\n"
        "first_person_start\t0\n"
        "first_person_plural\t0.142857\n"
        "second_person\t0.142857\n"
        "second_person_start\t0\n"
    ),
    "diversity": (
        "speaker\tdiversity\tn_conversations\n"
        "tyler\t0.603474\t2\n"
        "marla\t0.471311\t2\n"
        "ilsa\t\t1\n"
        "rick\t\t1\n"
        "sam\t\t1\n"
        "vivian\t\t1\n"
    ),
    "hyperconvo": (
        "conversation\toutdeg_max\toutdeg_mean\toutdeg_mean_nonzero\toutdeg_prop_nonzero"
        "\toutdeg_entropy\tindeg_max\tindeg_mean\tindeg_mean_nonzero\tindeg_prop_nonzero"
        "\tindeg_entropy\treciprocity\tmotif_dyadic\tmotif_outgoing_star"
        "\tmotif_incoming_star\tmotif_transitive\n"
        "m1\t2\t1.5\t1.5\t1\t0.636514\t2\t1.5\t1.5\t1\t0.636514\t1\t1\t0\t0\t0\n"
        "m2\t1\t1\t1\t1\t0.693147\t1\t1\t1\t1\t0.693147\t1\t1\t0\t0\t0\n"
        "f1\t1\t1\t1\t1\t0.693147\t1\t1\t1\t1\t0.693147\t1\t1\t0\t0\t0\n"
        "g1\t2\t1.5\t1.5\t1\t0.636514\t2\t1.5\t1.5\t1\t0.636514\t1\t1\t0\t0\t0\n"
    ),
    "fightingwords": (
        "term\tclass\ty1\ty2\tzscore\n"
        "alpha\tclass1\t6\t0\t0.649499\n"
        "then\tclass1\t2\t1\t0.564235\n"
        "me\tclass1\t2\t0\t0.530966\n"
        "protocol\tclass1\t2\t0\t0.530966\n"
        "a\tclass1\t1\t0\t0.459244\n"
        "about\tclass1\t1\t0\t0.459244\n"
        "always\tclass1\t1\t0\t0.459244\n"
        "answer\tclass1\t1\t0\t0.459244\n"
        "archive\tclass1\t1\t0\t0.459244\n"
        "but\tclass1\t1\t0\t0.459244\n"
        "the\tclass2\t6\t10\t-1.20827\n"
        "ledger\tclass2\t0\t4\t-0.608614\n"
        "not\tclass2\t1\t2\t-0.596608\n"
        "buyers\tclass2\t0\t2\t-0.534867\n"
        "dawn\tclass2\t0\t2\t-0.534867\n"
        "logs\tclass2\t0\t2\t-0.534867\n"
        "night\tclass2\t0\t2\t-0.534867\n"
        "vault\tclass2\t0\t2\t-0.534867\n"
        "add\tclass2\t0\t1\t-0.463097\n"
        "again\tclass2\t0\t1\t-0.463097\n"
    ),
}


class TestTableBytes:
    def test_stats_stdout(self, speaker_mix_dir, capsys):
        assert main(["--corpus", str(speaker_mix_dir), "stats"]) == 0
        assert capsys.readouterr().out == (
            "metric\tvalue\n"
            "speakers\t6\n"
            "conversations\t4\n"
            "utterances\t14\n"
            "mean_conversation_size\t3.5\n"
            "mean_conversation_depth\t3\n"
        )

    @pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
    def test_fightingwords_export_file(self, speaker_mix_dir, tmp_path, capsys, delimiter):
        target = tmp_path / "ranking"
        assert main(["--corpus", str(speaker_mix_dir), "fightingwords",
                     "--class1", "mixed=true", "--class2", "mixed=false",
                     "--export", str(target), "--delimiter", delimiter]) == 0
        assert target.read_bytes() == TOY_RANKING.replace(",", delimiter).encode()
        assert capsys.readouterr().out == TOY_STDOUT["fightingwords"]


class TestAnalyzerCommands:
    def test_politeness_prints_inventory_rows(self, chain_dir, capsys):
        assert main(["--corpus", str(chain_dir), "politeness"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "strategy\tmean"
        assert len(lines) == 19

    def test_hyperconvo_export(self, chain_dir, tmp_path, capsys):
        target = tmp_path / "features.tsv"
        assert main(["--corpus", str(chain_dir), "hyperconvo",
                     "--export", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("conversation\toutdeg_max")
        assert len(lines) == 2

    def test_diversity_save_output(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "with_diversity"
        assert main(["--quiet", "--corpus", str(chain_dir), "diversity",
                     "--output", str(out)]) == 0
        from convoforge import load
        annotated = load(out)
        assert all("convo_diversity" in s.meta
                   for s in annotated.speakers.values())

    @pytest.mark.parametrize("command", [
        pytest.param("politeness", id="politeness-True"),
        pytest.param("diversity", id="diversity-True"),
        pytest.param("hyperconvo", id="hyperconvo-False")])
    def test_token_reading_commands_tokenize_first(self, tmp_path, capsys, command):
        # A command writes only its own annotation: on an untokenized corpus
        # it saves no "tokens" key, and prints the table that a copy
        # tokenized beforehand gives.
        from convoforge import Tokenizer, load
        pretokenized = tmp_path / "pretokenized"
        save(Tokenizer().transform(load(toy_movie_path())), pretokenized)
        assert main(["--quiet", "--corpus", str(pretokenized), command]) == 0
        expected = capsys.readouterr().out
        assert expected == TOY_STDOUT[command]
        out = tmp_path / "annotated"
        assert main(["--quiet", "--corpus", str(toy_movie_path()), command,
                     "--output", str(out)]) == 0
        assert capsys.readouterr().out == expected
        assert not any("tokens" in u.meta for u in load(out).utterances.values())

    def test_partly_tokenized_corpus_keeps_its_tokens(self, tmp_path):
        # One utterance without tokens is tokenized on the fly; the stored
        # tokens of the others are read as they are and never rewritten.
        from convoforge import Tokenizer, load
        corpus = Tokenizer().transform(load(toy_movie_path()))
        del corpus.utterances["m1_0"].meta["tokens"]
        corpus.utterances["m2_0"].meta["tokens"] = [["thank", "you"]]
        source = tmp_path / "partly"
        save(corpus, source)
        out = tmp_path / "annotated"
        result = run_child(["--corpus", str(source), "politeness", "--output", str(out)],
                           capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "overwrote" not in result.stderr
        annotated = load(out).utterances
        assert "tokens" not in annotated["m1_0"].meta
        assert annotated["m2_0"].meta["tokens"] == [["thank", "you"]]
        assert annotated["m2_0"].meta["politeness_strategies"]["gratitude"] == 1
        assert all(annotated[uid].meta["tokens"] == utt.meta["tokens"]
                   for uid, utt in corpus.utterances.items() if uid != "m1_0")


    def test_analyzer_export_quotes_cells(self, tmp_path, capsys):
        source = tmp_path / "speakers"
        save(build_corpus([
            Utterance("u0", "x,y", "c0", "alpha beta", None, 0),
            Utterance("u1", "x,y", "c1", "gamma", None, 1),
        ]), source)
        target = tmp_path / "diversity.csv"
        assert main(["--corpus", str(source), "diversity", "--export", str(target),
                     "--delimiter", ","]) == 0
        assert target.read_text() == \
            'speaker,diversity,n_conversations\n"x,y",0.693147,2\n'


class TestExport:
    def test_export_reimports(self, chain_dir, tmp_path):
        target = tmp_path / "dump.csv"
        assert main(["--quiet", "--corpus", str(chain_dir), "export",
                     "--output", str(target)]) == 0
        rebuilt = import_tabular(target, identity_mapping())
        assert set(rebuilt.utterances) == {"u0", "u1", "u2"}
        assert rebuilt.utterances["u2"].reply_to == "u1"

    def test_deterministic_output(self, chain_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--quiet", "--corpus", str(chain_dir), "export", "--output", str(a)]) == 0
        assert main(["--quiet", "--corpus", str(chain_dir), "export", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("delimiter", ["", "::", '"', "\n"])
    def test_export_delimiter_must_be_one_plain_character(self, tmp_path, capsys, delimiter):
        with pytest.raises(SystemExit) as exit_info:
            main(["--corpus", str(toy_movie_path()), "export",
                  "--output", str(tmp_path / "out.csv"), "--delimiter", delimiter])
        assert exit_info.value.code == 2
        assert "--delimiter" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["export", "hyperconvo", "fightingwords"])
def test_unwritable_output_path_exits_2_without_traceback(tmp_path, command):
    source = tmp_path / "corpus"
    save(build_corpus([
        Utterance("u0", "a", "c0", "first words", None, 1, {"side": 1}),
        Utterance("u1", "b", "c0", "second words", "u0", 2, {"side": 2}),
    ]), source)
    missing = str(tmp_path / "missing_dir" / "x.tsv")
    argv = {
        "export": ["export", "--output", str(tmp_path)],  # a directory
        "hyperconvo": ["hyperconvo", "--export", missing],
        "fightingwords": ["fightingwords", "--class1", "side=1", "--class2", "side=2",
                          "--export", missing],
    }[command]
    result = run_child(["--corpus", str(source), *argv], capture_output=True, text=True)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_2_without_traceback(unbuffered):
    # Unbuffered, the table's print() meets the closed pipe; buffered, the
    # small table waits in the buffer and the flush at exit meets it.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_child(["--corpus", str(toy_movie_path()), "hyperconvo"], env=env,
                           stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert result.returncode == 2


# Each analyzer command and the one-stage run config that it stands for.
ANALYZER_STAGES = {
    "politeness": ([], {"name": "politeness"}),
    "hyperconvo": ([], {"name": "hyperconvo"}),
    "diversity": ([], {"name": "speaker_diversity"}),
    "fightingwords": (["--class1", "mixed=true", "--class2", "mixed=false"],
                      {"name": "fighting_words",
                       "params": {"class1": "mixed=true", "class2": "mixed=false"}}),
}


# Malformed "tokens" annotations: a number, lists of numbers, and a string
# and a flat list of strings, which iterate as if they were token lists.
TOKEN_FAULTS = {"tokens-5": 5, "tokens-nested": [[1, 2]], "tokens-string": "abc",
                "tokens-flat": ["a", "b"]}


def _with_tokens(source, target, tokens):
    """A copy of the corpus at source whose utterance m1_0 has these tokens."""
    shutil.copytree(source, target)
    path = target / "utterances.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        if record["id"] == "m1_0":
            record["meta"]["tokens"] = tokens
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return target


@pytest.mark.parametrize("command,fault", [
    *((command, fault) for command in ANALYZER_STAGES for fault in TOKEN_FAULTS),
    ("fightingwords", "empty-class"),
    ("fightingwords", "bad-filter"),
    ("fightingwords", "bad-top-k"),
])
def test_analyzer_command_fails_as_its_run_config(tmp_path, speaker_mix_dir, command, fault):
    # A command runs its stage exactly as run does: the same exit code and the
    # same single error line, and never a traceback.
    argv, stage = ANALYZER_STAGES[command]
    source = speaker_mix_dir
    if fault.startswith("tokens"):
        source = _with_tokens(speaker_mix_dir, tmp_path / "bad_tokens", TOKEN_FAULTS[fault])
    elif fault == "bad-top-k":
        argv = [*argv, "--top-k", "-1"]
        stage = {**stage, "params": {**stage["params"], "top_k": -1}}
    else:
        class1 = "mixed=maybe" if fault == "empty-class" else "x"
        argv = ["--class1", class1, *argv[2:]]
        stage = {**stage, "params": {**stage["params"], "class1": class1}}
    config = tmp_path / "one_stage.json"
    config.write_text(json.dumps({"input": str(source), "output": str(tmp_path / "out"),
                                  "stages": [stage]}))
    by_command = run_child(["--corpus", str(source), command, *argv],
                           capture_output=True, text=True)
    by_run = run_child(["run", str(config)], capture_output=True, text=True)
    assert "Traceback" not in by_command.stderr + by_run.stderr
    assert by_command.returncode == by_run.returncode
    assert by_command.stderr == by_run.stderr
    if command == "hyperconvo":
        # It reads no tokens.
        assert by_command.returncode == 0 and by_command.stderr == ""
    else:
        assert by_command.returncode == (2 if fault.startswith("bad") else 1)
        lines = by_command.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: stage 0 ("), lines
        if fault.startswith("bad"):
            # Refused while the stage is built, before the corpus is read.
            assert by_command.stdout == by_run.stdout == ""
            assert not (tmp_path / "out").exists()
        if fault in TOKEN_FAULTS:
            assert lines[0].endswith(
                "): utterance 'm1_0': 'tokens' is not a list of token lists"), lines


# The optional stage flags of a command, each given, and the params they
# stand for; together they change the command's output on the speaker-mixed
# toy corpus.
STAGE_FLAGS = {
    "diversity": (["--min-tokens", "10"], {"min_tokens_per_convo": 10}),
    "fightingwords": (["--top-k", "3", "--ngram-max", "2", "--min-count", "2", "--alpha", "0.5"],
                      {"top_k": 3, "ngram_max": 2, "min_count": 2, "alpha": 0.5}),
}


@pytest.mark.parametrize("flagged", [False, True], ids=["no-flags", "every-flag"])
@pytest.mark.parametrize("command", list(STAGE_FLAGS))
def test_analyzer_command_prints_the_summary_of_its_run_config(speaker_mix_dir, capsys,
                                                                command, flagged):
    # A flag left out means the constructor's default, as a config without
    # that param does; a flag given is that param.
    argv, stage = ANALYZER_STAGES[command]
    flags, params = STAGE_FLAGS[command] if flagged else ([], {})
    if params:
        stage = {**stage, "params": {**stage.get("params", {}), **params}}
    stages = cli._build_stages([stage])
    corpus = cli._run_stages(stages, speaker_mix_dir, None)
    expected = stages[0].summarize(corpus).to_delimited() + "\n"
    assert main(["--corpus", str(speaker_mix_dir), command, *argv, *flags]) == 0
    assert capsys.readouterr().out == expected
    if flagged:
        assert main(["--corpus", str(speaker_mix_dir), command, *argv]) == 0
        assert capsys.readouterr().out != expected


USAGE_ERROR_NAMES = {"MissingFileError", "MalformedRecordError", "CountMismatchError",
                     "UnsupportedVersionError", "IoFailureError", "MissingColumnError"}


def _error_classes():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.ConvoForgeError)]


def test_exit_code_table():
    classes = _error_classes()
    assert USAGE_ERROR_NAMES <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert cls.exit_code == (2 if cls.__name__ in USAGE_ERROR_NAMES else 1), cls


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_main_exits_with_the_declared_code(cls, monkeypatch, capsys):
    error = cls(0, "stage", "boom") if cls is errors.PipelineStageError else cls("boom")

    def command(args):
        raise error

    monkeypatch.setattr(cli, "cmd_stats", command)
    assert main(["stats"]) == (2 if cls.__name__ in USAGE_ERROR_NAMES else 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


# The stage chains of the benchmark workloads, as benchmarks/corpora.py runs them.
WORKLOAD_STAGES = {
    "annotate": [{"name": "text_cleaner"}, {"name": "tokenizer"}, {"name": "politeness"},
                 {"name": "hyperconvo"},
                 {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
                 {"name": "speaker_diversity"},
                 {"name": "fighting_words",
                  "params": {"class1": "mixed=true", "class2": "mixed=false"}}],
    "forecast": [{"name": "tokenizer"},
                 {"name": "classifier",
                  "params": {"label_key": "derailed", "level": "conversation"}},
                 {"name": "classifier", "params": {"label_key": "troll", "level": "speaker"}},
                 {"name": "forecaster", "params": {"label_key": "derailed"}}],
    "fold": [{"name": "merge_consecutive"}, {"name": "hyperconvo"},
             {"name": "speaker_mix", "params": {"speaker_key": "gender"}}],
}


@pytest.mark.parametrize("spec", WORKLOAD_STAGES["forecast"][1:],
                         ids=["classifier-conversation", "classifier-speaker", "forecaster"])
@pytest.mark.parametrize("literal", FOREIGN_VALUES)
def test_label_is_a_boolean_or_missing(tmp_path, capsys, literal, spec):
    # The other objects alternate true and false, so both classes stay. A
    # null label is missing: the classifier predicts as if the key were
    # absent, and the forecaster, which needs every conversation's label,
    # refuses it. Any other value that is not a bool is one stage error
    # naming the object and the key.
    level = spec["params"].get("level", "conversation")
    key = spec["params"]["label_key"]
    value = json.loads(literal)

    def run(meta_of_target, name):
        source = tmp_path / f"in-{name}"
        shutil.copytree(toy_movie_path(), source)
        file = source / f"{level}s.json"
        objects = json.loads(file.read_text())
        for i, record in enumerate(objects.values()):
            record["meta"][key] = i % 2 == 0
        meta_of_target(objects[target]["meta"])
        file.write_text(json.dumps(objects))
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"output": str(tmp_path / name), "stages": [spec]}))
        return main(["--quiet", "--corpus", str(source), "run", str(config)])

    def predictions(name):
        return {o.id: (o.meta["prediction"], o.meta["prediction_score"])
                for o in _level_objects(load(tmp_path / name), level)}

    target = random.Random(FOREIGN_VALUES.index(literal)).choice(
        sorted(json.loads((toy_movie_path() / f"{level}s.json").read_text())))
    code = run(lambda meta: meta.update({key: value}), "out")
    err = capsys.readouterr().err
    if isinstance(value, bool) or (value is None and spec["name"] == "classifier"):
        assert (code, err) == (0, "")
        if value is None:
            assert run(lambda meta: meta.pop(key), "absent") == 0
            assert predictions("out") == predictions("absent")
    else:
        assert code == 1
        problem = (f"{level} {target!r} lacks label key {key!r}" if value is None
                   else f"{level} {target!r}: {key!r} is not a boolean")
        assert err.splitlines() == [f"error: stage 0 ({spec['name']}): {problem}"]
        assert not (tmp_path / "out").exists()


class TestMainPausesGc:
    """main() runs the whole command with the cyclic GC off and then puts
    back whatever state the caller had (corpus_io._paused_gc)."""

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def argv(self, tmp_path, command, code, good_dir, broken_dir):
        """The argv of command that exits with code: 1 from a failing stage
        or an invalid corpus, 2 from a bad config or a missing corpus."""
        if command == "hyperconvo":
            corpus = {0: good_dir, 1: broken_dir, 2: tmp_path / "missing"}[code]
            return ["--corpus", str(corpus), "hyperconvo"]
        stages = {0: [{"name": "hyperconvo"}],
                  1: [{"name": "fighting_words",
                       "params": {"class1": "nope=1", "class2": "nope=2"}}],
                  2: []}[code]
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"input": str(good_dir), "output": str(tmp_path / "out"),
                                      "stages": stages}))
        return ["run", str(config)]

    @pytest.mark.parametrize("command", ["run", "hyperconvo"])
    def test_no_collection_inside_main(self, tmp_path, command, capsys):
        # Big enough that the corpus alone would fill the youngest generation.
        source = tmp_path / "random"
        save(random_corpus(random.Random(1), max_utterances=300, min_utterances=300), source)
        argv = self.argv(tmp_path, command, 0, source, None)
        starts = []

        def spy(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.collect()  # so that what main allocates before the pause cannot start one
        gc.callbacks.append(spy)
        try:
            code = main(argv)
            collections = len(starts)  # read before anything here can allocate
        finally:
            gc.callbacks.remove(spy)
        assert code == 0
        assert collections == 0

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("code", [0, 1, 2])
    @pytest.mark.parametrize("command", ["run", "hyperconvo"])
    def test_state_restored(self, tmp_path, chain_dir, broken_dir, command, code, enabled,
                            capsys):
        argv = self.argv(tmp_path, command, code, chain_dir, broken_dir)
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_repeated_commands_leave_no_cyclic_garbage(self, command, capsys):
        # The parser is built once per process, so a caller that runs many
        # commands with the collector off is left none of their garbage. The
        # first call may build it and import modules, so it is left out.
        gc.collect()
        gc.disable()
        garbage = []
        for _ in range(5):
            assert main(["--quiet", "--corpus", str(toy_movie_path()), command]) == 0
            garbage.append(gc.collect())
        assert garbage[1:] == [0, 0, 0, 0]

    @pytest.mark.parametrize("workload", list(WORKLOAD_STAGES))
    def test_cyclic_garbage_does_not_grow_with_the_corpus(self, tmp_path, workload):
        # The pause is safe because a command's data is acyclic: what it leaves
        # for the collector (its argument parser, say) is the same for a corpus
        # four times larger. The first run imports the stage modules, whose
        # own garbage is left out.
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({"output": str(tmp_path / "out"),
                                      "stages": WORKLOAD_STAGES[workload]}))

        def garbage(utterances):
            corpus = random_corpus(random.Random(utterances), max_utterances=utterances,
                                   min_utterances=utterances)
            for i, speaker in enumerate(corpus.speakers.values()):
                speaker.meta.update(gender=i % 2, troll=i % 3 == 0)
            for i, convo in enumerate(corpus.conversations.values()):
                convo.meta["derailed"] = i % 2 == 0
            source = tmp_path / f"in-{utterances}"
            save(corpus, source)
            gc.collect()
            gc.disable()
            assert main(["--quiet", "--corpus", str(source), "run", str(config)]) == 0
            return gc.collect()

        garbage(40)
        assert garbage(160) <= garbage(40)
