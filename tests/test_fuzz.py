"""The command-line contract over mutated corpora and over stage
parameters, after Miller et al. 1990 ("An Empirical Study of the
Reliability of UNIX Utilities", CACM).

The base corpus is the toy corpus after speaker_mix on gender, which gives
fighting words a "mixed" key to compare on. Each copy mutates one of its
four files, either as JSON tokens (1-3 inserted, deleted or replaced) or as
parsed values (1-2 replaced from a pool, or deleted), drawn by a seeded
random.Random. Eight commands run on every copy through cli.main, in
process. Each one succeeds, or exits 1 or 2 with one ``error:`` line on
stderr and no output: no stdout, and no file where an output was asked
for. It never raises. ``validate`` prints its violations on stdout instead.

fuzz_corpora runs one kind on any seed and number of copies; CI runs more
copies, on seeds tier-1 does not draw, by calling it from ``python -c``.

The tabular half mutates an exported table byte by byte (fuzz_table): each
copy either imports or raises a ConvoForgeError.

The config half runs one ``run`` per value of every parameter of every
registered stage, on the base corpus with boolean "derailed" labels on its
conversations, under the same contract.

The kernel half (fuzz_kernels) calls the public kernels jensen_shannon,
train_classifier and predict on drawn values: each call returns finite
values or raises a ConvoForgeError or a ValueError.
"""

import inspect
import io
import json
import math
import random
import re
import shutil
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from convoforge import (LinearModel, export_tabular, identity_mapping, import_tabular,
                        jensen_shannon, load, predict, train_classifier)
from convoforge.cli import main
from convoforge.corpus_io import CORPUS_FILES
from convoforge.datasets import toy_movie_path
from convoforge.errors import ConvoForgeError

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


def base_corpus(root: Path) -> dict:
    """The four files of the base corpus, made under ``root``, as text by name."""
    config = root / "speaker_mix.json"
    root.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps({
        "input": str(toy_movie_path()), "output": str(root / "base"),
        "stages": [{"name": "speaker_mix", "params": {"speaker_key": "gender"}}]}))
    assert main(["--quiet", "run", str(config)]) == 0
    return {name: (root / "base" / name).read_text(encoding="utf-8")
            for name in CORPUS_FILES}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return base_corpus(tmp_path_factory.mktemp("fuzz_base"))


def run_main(argv: list) -> tuple:
    """cli.main's exit code, or the exception it raised, then its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback, were it a program run
            code = exc
    return code, out.getvalue(), err.getvalue()


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


def fuzz_corpora(base: dict, kind: str, seed: str, copies: int, root: Path) -> dict:
    """Run every command on ``copies`` copies of ``base``, each mutated by
    ``kind``, drawn from random.Random(seed), in fresh directories under
    ``root``. AssertionError on any breach of the contract, or when a command
    succeeds on no copy, since such a command tests nothing; else each
    command's count of successes."""
    rng = random.Random(seed)
    # Ids that exist, so that a replaced reference can point at the wrong object.
    ids = sorted({record[key] for line in base["utterances.jsonl"].splitlines()
                  for record in [json.loads(line)] for key in ("id", "conversation_id", "speaker")})
    corpus, work = root / "corpus", root / "work"
    corpus.mkdir(parents=True)
    work.mkdir()
    argvs = commands(corpus, work)
    succeeded = dict.fromkeys(argvs, 0)
    problems = []
    for copy in range(copies):
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
            code, out, err = run_main(argv)
            problems += [f"copy {copy} ({name} {done}), {command}: {problem}"
                         for problem in breaches(command, code, out, err, output)]
            succeeded[command] += code == 0
            if output is not None and output.is_dir():
                shutil.rmtree(output)
            elif output is not None:
                output.unlink(missing_ok=True)
    assert problems == []
    assert all(succeeded.values()), succeeded
    return succeeded


@pytest.mark.parametrize("kind", ["token", "value"])
def test_every_command_keeps_the_contract_on_mutated_corpora(tmp_path, base, kind):
    fuzz_corpora(base, kind, f"fuzz {kind}", COPIES, tmp_path)


# Each stage's required parameters, and the classifier's level: labels are
# on conversations.
BASE_PARAMS = {"label_key": "derailed", "speaker_key": "gender", "class1": "mixed=true",
               "class2": "mixed=false", "level": "conversation"}
# Beyond the refused pools: the largest double, a negative zero, an int that
# fits no C integer, and a line break that must not reach stderr raw.
EDGE_VALUES = [1e308, -0.0, 2 ** 64, "line\nbreak"]


def config_cases() -> list:
    """(stage, parameter, value, params): every parameter of every registered
    stage, set in turn to its base value (BASE_PARAMS, else its default), to
    each value of the refused pools of test_cli's parameter contract, and to
    EDGE_VALUES; the others keep their base values. ``epochs`` takes no int
    above 2**63, as training time is linear in it and the rules set no bound."""
    from convoforge.registry import REGISTRY
    from test_cli import SILENT_ACCEPTS, _bad_pool

    rng = random.Random("config fuzz")
    cases = []
    for stage, cls in REGISTRY.items():
        signature = inspect.signature(cls).parameters
        base_params = {param: BASE_PARAMS.get(param, spec.default)
                       for param, spec in signature.items()}
        for param in signature:
            values = [base_params[param], *_bad_pool(rng, param),
                      *SILENT_ACCEPTS.get((stage, param), ()), *EDGE_VALUES]
            for value in values:
                if param == "epochs" and type(value) is int and value > 2 ** 63:
                    continue
                cases.append((stage, param, value, {**base_params, param: value}))
    return cases


def test_every_stage_parameter_keeps_the_contract(tmp_path, base):
    corpus, output = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    for name, text in base.items():
        if name == "conversations.json":
            conversations = json.loads(text)
            for index, record in enumerate(conversations.values()):
                record["meta"]["derailed"] = index % 2 == 0
            text = json.dumps(conversations)
        (corpus / name).write_text(text, encoding="utf-8")
    config = tmp_path / "run.json"
    succeeded, problems = {}, []
    for stage, param, value, params in config_cases():
        config.write_text(json.dumps({"output": str(output),
                                      "stages": [{"name": stage, "params": params}]}))
        code, out, err = run_main(["--quiet", "--corpus", str(corpus), "run", str(config)])
        problems += [f"{stage} {param}={value!r}: {problem}"
                     for problem in breaches("run", code, out, err, output)]
        succeeded[stage] = succeeded.get(stage, 0) + (code == 0)
        shutil.rmtree(output, ignore_errors=True)
    assert problems == []
    # A stage that fails on every value tests nothing.
    assert all(succeeded.values()), succeeded


# The bytes that tabular quoting turns on, and one that is never UTF-8.
TABLE_POOL = [b'"', b",", b"\r", b"\n", b"\xff"]


def base_table(root: Path) -> bytes:
    """The toy corpus exported as a table under ``root``, every third text
    ending in a quoted phrase, a comma, CRLF, LF and CR, so that quoted
    cells span lines."""
    corpus = load(toy_movie_path())
    for utt in list(corpus.utterances.values())[::3]:
        utt.text += ' He said "no",\r\nthen\nleft\r.'
    root.mkdir(parents=True, exist_ok=True)
    export_tabular(corpus, root / "base.csv")
    return (root / "base.csv").read_bytes()


def fuzz_table(table: bytes, seed: str, copies: int, root: Path) -> Counter:
    """Import ``copies`` copies of ``table`` through identity_mapping(), each
    with 1-3 mutations drawn from random.Random(seed): a byte of TABLE_POOL
    inserted anywhere, or one of the table's own TABLE_POOL bytes deleted or
    replaced by one. AssertionError when anything but a ConvoForgeError
    escapes, or when no copy imports or none is refused, since such a run
    tests nothing; else the count of each outcome."""
    rng = random.Random(seed)
    path = root / "table.csv"
    root.mkdir(parents=True, exist_ok=True)
    outcomes, problems = Counter(), []
    for copy in range(copies):
        data, done = bytearray(table), []
        for _ in range(rng.randint(1, 3)):
            op, new = rng.choice(["insert", "delete", "replace"]), rng.choice(TABLE_POOL)
            if op == "insert":
                at = rng.randrange(len(data) + 1)
                data[at:at] = new
            else:
                at = rng.choice([i for i, byte in enumerate(data) if bytes([byte]) in TABLE_POOL])
                data[at:at + 1] = b"" if op == "delete" else new
            done.append((op, at, new))
        path.write_bytes(data)
        try:
            import_tabular(path, identity_mapping())
            outcomes["imported"] += 1
        except ConvoForgeError as exc:
            outcomes[type(exc).__name__] += 1
        except Exception as exc:
            problems.append(f"copy {copy} {done}: raised {type(exc).__name__}: {exc}")
    assert problems == []
    assert outcomes["imported"] and len(outcomes) > 1, outcomes
    return outcomes


def test_tabular_import_refuses_or_imports_mutated_tables(tmp_path):
    fuzz_table(base_table(tmp_path / "base"), "fuzz table", COPIES, tmp_path)


# Values beyond the kernels' rules: negatives (for a mass or a label), the
# largest and smallest doubles, NaN, infinities, bools, strings, None.
KERNEL_EDGES = [-1, -0.5, 1e308, -1e308, 5e-324, float("nan"), float("inf"), -float("inf"),
                True, False, "x", "1", None]


def _draw(rng: random.Random, valid: list):
    """One of KERNEL_EDGES one time in ten, else one of ``valid``."""
    return rng.choice(KERNEL_EDGES) if rng.random() < 0.1 else rng.choice(valid)


def _kernel_rows(rng: random.Random):
    """0-4 rows of 1-3 values, one row a value longer or shorter at times:
    a numpy array when they form one, else the lists; and the width."""
    width = rng.randint(1, 3)
    rows = [[_draw(rng, [0, 1, -1, 0.5, 3, -2.5]) for _ in range(width)]
            for _ in range(rng.randint(0, 4))]
    if rows and rng.random() < 0.1:
        rows[rng.randrange(len(rows))] = [0.5] * rng.choice([0, width + 1])
    try:
        return np.array(rows), width
    except ValueError:  # ragged
        return rows, width


def _kernel_calls(rng: random.Random):
    """(kernel, call, its result's values that must be finite) for one drawn
    input to each kernel."""
    masses = [{f"t{i}": _draw(rng, [0, 0.5, 1, 3, 2.5]) for i in range(rng.randint(0, 4))}
              for _ in range(2)]
    if rng.random() < 0.1:  # p or q not a mapping
        masses[rng.randrange(2)] = rng.choice([[*masses[0].items()], None, "ab", 1.0])
    yield "jensen_shannon", lambda: jensen_shannon(*masses), lambda jsd: [jsd]
    X, width = _kernel_rows(rng)
    n = len(X) if rng.random() < 0.8 else rng.randint(0, 4)
    y = [_draw(rng, [0, 1, 0.0, 1.0]) for _ in range(n)]
    if y and rng.random() < 0.05:
        y[0] = [0, 1]  # ragged labels
    params = {"epochs": rng.randint(1, 20), "learning_rate": rng.choice([0.1, 0.5, 1e308])}
    yield ("train_classifier", lambda: train_classifier(X, y, **params),
           lambda model: [*model.weights, *model.loss_trace])
    model = LinearModel(weights=np.array([rng.uniform(-3, 3) for _ in range(width + 1)]))
    yield "predict", lambda: predict(model, X), lambda result: result[1]


def fuzz_kernels(seed: str, copies: int) -> Counter:
    """Call each public kernel on ``copies`` inputs drawn from
    random.Random(seed) through _draw: two maps of 0-4 masses for
    jensen_shannon, one at times not a mapping at all, and rows and labels
    for train_classifier and predict.
    AssertionError when a call returns a value that is not finite or raises
    anything but a ConvoForgeError or a ValueError, or when no call of a
    kernel returns or none raises, since such a run tests nothing; else the
    count of each kernel's outcomes."""
    rng = random.Random(seed)
    outcomes, problems = Counter(), []
    for copy in range(copies):
        for kernel, call, values in _kernel_calls(rng):
            try:
                result = call()
            except (ConvoForgeError, ValueError) as exc:
                outcomes[kernel, type(exc).__name__] += 1
                continue
            except Exception as exc:
                problems.append(f"copy {copy} {kernel}: raised {type(exc).__name__}: {exc}")
                continue
            outcomes[kernel, "returned"] += 1
            if not all(math.isfinite(value) for value in values(result)):
                problems.append(f"copy {copy} {kernel}: returned {result!r}")
    assert problems == []
    for kernel in ("jensen_shannon", "train_classifier", "predict"):
        kinds = {kind for name, kind in outcomes if name == kernel}
        assert "returned" in kinds and len(kinds) > 1, outcomes
    return outcomes


def test_the_kernels_return_finite_values_or_refuse_their_input():
    fuzz_kernels("fuzz kernels", COPIES)
