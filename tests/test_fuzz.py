"""The command-line contract over mutated corpora, after Miller et al. 1990
("An Empirical Study of the Reliability of UNIX Utilities", CACM).

The base corpus is the toy corpus after speaker_mix on gender, which gives
fighting words a "mixed" key to compare on. Each copy mutates one of its
four files, either as JSON tokens (1-3 inserted, deleted or replaced) or as
parsed values (1-2 replaced from a pool, or deleted), drawn by a seeded
random.Random. Eight commands run on every copy through cli.main, in
process. Each one succeeds, or exits 1 or 2 with one ``error:`` line on
stderr and no output: no stdout, and no file where an output was asked
for. It never raises. ``validate`` prints its violations on stdout instead.
"""

import json
import random
import re
import shutil

import pytest

from convoforge.cli import main
from convoforge.corpus_io import CORPUS_FILES
from convoforge.datasets import toy_movie_path

COPIES = 200

# Every mixed=true and mixed=false utterance, compared; seven stages in a run.
FW_FLAGS = ["--class1", "mixed=true", "--class2", "mixed=false"]
RUN_STAGES = [{"name": "text_cleaner"}, {"name": "tokenizer"}, {"name": "politeness"},
              {"name": "hyperconvo"},
              {"name": "speaker_mix", "params": {"speaker_key": "gender"}},
              {"name": "speaker_diversity"},
              {"name": "fighting_words",
               "params": {"class1": "mixed=true", "class2": "mixed=false"}}]

# One JSON string, or a run of other non-space, non-structural characters
# (a number or a literal), or one structural character, or white space.
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s"{}\[\]:,]+|[{}\[\]:,]|\s+')
TOKEN_POOL = ["{", "}", "[", "]", ":", ",", "null", "true", "0", "-1", "1e999", "NaN",
              '""', '"x"', "\n"]
VALUE_POOL = [None, True, False, 0, 1, -1, 1.5, -0.0, 1e308, 2 ** 64, float("inf"), "",
              "x", "1.0", "true", "\t", [], {}, ["x"], {"gender": "F"}]
DELETE = object()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The four files of the base corpus, as text by name."""
    root = tmp_path_factory.mktemp("fuzz_base")
    config = root / "speaker_mix.json"
    config.write_text(json.dumps({
        "input": str(toy_movie_path()), "output": str(root / "corpus"),
        "stages": [{"name": "speaker_mix", "params": {"speaker_key": "gender"}}]}))
    assert main(["--quiet", "run", str(config)]) == 0
    return {name: (root / "corpus" / name).read_text(encoding="utf-8")
            for name in CORPUS_FILES}


def mutate_tokens(rng: random.Random, text: str) -> tuple[str, list]:
    tokens = TOKEN.findall(text)
    assert "".join(tokens) == text
    done = []
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens))
        op = rng.choice(["insert", "delete", "replace"])
        new = rng.choice(TOKEN_POOL + [rng.choice(tokens)])
        if op == "insert":
            tokens.insert(at, new)
        elif op == "delete":
            new = tokens.pop(at)
        else:
            tokens[at] = new
        done.append((op, at, new))
    return "".join(tokens), done


def _paths(value, path=()):
    """The path of every value inside ``value``, itself excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def mutate_values(rng: random.Random, name: str, text: str, ids: list) -> tuple[str, list]:
    jsonl = name.endswith(".jsonl")
    data = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    done = []
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_paths(data)))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        new = rng.choice(VALUE_POOL + [rng.choice(ids), DELETE])
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
        done.append((path, "deleted" if new is DELETE else new))
        if not list(_paths(data)):
            break
    if jsonl:
        return "".join(json.dumps(record, separators=(",", ":")) + "\n"
                       for record in data), done
    return json.dumps(data, separators=(",", ":")), done


def commands(corpus, work) -> dict:
    """Each command's argv and the output path it must not leave on failure."""
    config = work / "run.json"
    config.write_text(json.dumps({"output": str(work / "out"), "stages": RUN_STAGES}))
    return {name: (["--quiet", "--corpus", str(corpus), *argv], output) for name, argv, output in (
        ("validate", ["validate"], None),
        ("stats", ["stats"], None),
        ("export", ["export", "--meta-columns", "gender", "--output", str(work / "export.csv")],
         work / "export.csv"),
        ("run", ["run", str(config)], work / "out"),
        ("politeness", ["politeness"], None),
        ("hyperconvo", ["hyperconvo"], None),
        ("diversity", ["diversity"], None),
        ("fightingwords", ["fightingwords", *FW_FLAGS], None),
    )}


def breaches(command: str, code, out: str, err: str, output) -> list[str]:
    """How one command's outcome breaks the contract; empty when it holds."""
    if isinstance(code, BaseException):
        return [f"raised {type(code).__name__}: {code}"]
    if code == 0:
        return []
    found = [] if code in (1, 2) else [f"exit {code}"]
    if command == "validate" and code == 1:  # integrity violations, on stdout by design
        if err:
            found.append(f"stderr {err[:300]!r}")
        if not out:
            found.append("no violation printed")
    else:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            found.append(f"stderr {err[:300]!r}")
        if out:
            found.append(f"stdout {out[:300]!r}")
    if output is not None and output.exists():
        found.append(f"left {output.name}")
    return found


@pytest.mark.parametrize("kind", ["token", "value"])
def test_every_command_keeps_the_contract_on_mutated_corpora(tmp_path, capsys, base, kind):
    rng = random.Random(f"fuzz {kind}")
    # Ids that exist, so that a replaced reference can point at the wrong object.
    ids = sorted({record[key] for line in base["utterances.jsonl"].splitlines()
                  for record in [json.loads(line)] for key in ("id", "conversation_id", "speaker")})
    corpus, work = tmp_path / "corpus", tmp_path / "work"
    corpus.mkdir()
    work.mkdir()
    argvs = commands(corpus, work)
    succeeded = dict.fromkeys(argvs, 0)
    problems = []
    for copy in range(COPIES):
        name = rng.choice(sorted(base))
        text = base[name]
        if kind == "token":
            mutated, done = mutate_tokens(rng, text)
        else:
            mutated, done = mutate_values(rng, name, text, ids)
        for file_name, file_text in base.items():
            (corpus / file_name).write_text(mutated if file_name == name else file_text,
                                            encoding="utf-8")
        for command, (argv, output) in argvs.items():
            try:
                code = main(argv)
            except Exception as exc:  # a traceback, were it a program run
                code = exc
            captured = capsys.readouterr()
            found = breaches(command, code, captured.out, captured.err, output)
            problems += [f"copy {copy} ({name} {done}), {command}: {problem}"
                         for problem in found]
            succeeded[command] += code == 0
            if output is not None and output.is_dir():
                shutil.rmtree(output)
            elif output is not None:
                output.unlink(missing_ok=True)
    assert problems == []
    # A command that fails on every copy tests nothing.
    assert all(succeeded.values()), succeeded
