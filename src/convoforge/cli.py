"""The convoforge command line.

Subcommands operate on a corpus directory given with the global --corpus
flag: validate, stats, run (pipeline config), fightingwords, politeness,
hyperconvo, diversity, export. Each analyzer command is a one-stage config:
it builds, loads, runs and saves as ``run`` does, so a failing stage is
reported as ``stage 0 (<name>): ...``, and then prints the stage's summary.
Its flags are the stage's parameters; a flag left out means the stage's
constructor default, which the CLI does not restate.
Tables print as tab-separated text, and --export writes them to a file, both
through ``SummaryTable.to_delimited``, so output is byte-stable and diffable.

Exit codes: 0 success; otherwise one ``error:`` line and the code that the
error's class declares in ``exit_code`` (1 for a domain failure, 2 for I/O
or format), or 2 for a usage fault (``ValueError``) or an ``OSError``,
including a standard output closed early (as by ``| head``).

Parsing the arguments loads nothing of the package but ``errors``; each
command imports the modules it uses, and ``run`` only those of the stages
its config names. A command runs with the cyclic garbage collector paused
(``corpus_io._paused_gc`` says why that is safe). ``main`` then gives the
caller's state back; run as a program (``console_main``), it leaves the
collector off until the process ends.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import os
import sys

from .errors import ConvoForgeError, IntegrityViolationError, MissingFileError


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_corpus(path):
    from .corpus_io import load

    if not path:
        raise MissingFileError("no corpus directory given; use --corpus DIR")
    return load(path)


def _build_stages(config_stages: list) -> list:
    """One transformer per config entry ({"name": ..., "params": {...}}).
    A fault is a ValueError naming the entry's index and stage, raised
    before any corpus is read."""
    from .registry import create_transformer

    stages = []
    for index, stage in enumerate(config_stages):
        name = stage.get("name") if isinstance(stage, dict) else None
        if not name:
            raise ValueError(f"stage {index}: missing transformer name")
        params = stage.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"stage {index} ({name}): params must be an object")
        try:
            stages.append(create_transformer(name, params))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"stage {index} ({name}): {exc}") from exc
    return stages


def _run_stages(stages: list, corpus_path, output_path):
    """Load the corpus, run the stages through one Pipeline, and save the
    result where an output path is given. A failing stage raises
    PipelineStageError."""
    from .corpus_io import save
    from .transform import Pipeline

    corpus = Pipeline(stages).run(_load_corpus(corpus_path), fit_first=True)
    if output_path:
        save(corpus, output_path)
    return corpus


def cmd_validate(args) -> int:
    # load() runs check_integrity and raises with every violation it finds.
    try:
        _load_corpus(args.corpus)
    except IntegrityViolationError as exc:
        for violation in exc.violations:
            print(violation)
        return 1
    if not args.quiet:
        print("ok")
    return 0


def cmd_stats(args) -> int:
    from .model import traverse
    from .transform import SummaryTable

    corpus = _load_corpus(args.corpus)
    depths = []
    sizes = []
    for convo in corpus.conversations.values():
        sizes.append(len(convo.utterance_ids))
        depth = {}
        for utt in traverse(corpus, convo.id, "bfs"):
            depth[utt.id] = 1 if utt.reply_to is None else depth[utt.reply_to] + 1
        depths.append(max(depth.values()))  # a loaded conversation is never empty
    n = len(sizes)
    table = SummaryTable(columns=["value"], label_header="metric")
    for name, value in (
        ("speakers", len(corpus.speakers)),
        ("conversations", len(corpus.conversations)),
        ("utterances", len(corpus.utterances)),
        ("mean_conversation_size", sum(sizes) / n if n else 0.0),
        ("mean_conversation_depth", sum(depths) / n if n else 0.0),
    ):
        table.add_row(name, [value])
    print(table.to_delimited())
    return 0


def cmd_run(args) -> int:
    from pathlib import Path

    from .corpus_io import _decode_object

    config_path = Path(args.config)
    config = _decode_object(config_path, f"config {config_path}")
    for key in ("input", "output"):
        if config.get(key) is not None and not isinstance(config[key], str):
            raise ValueError(f"config '{key}' must be a path string")
    if not isinstance(config.get("stages"), list) or not config["stages"]:
        raise ValueError("config needs a non-empty 'stages' list")
    stages = _build_stages(config["stages"])
    output_path = config.get("output")
    if not output_path:
        raise ValueError("config needs an 'output' corpus path")
    _run_stages(stages, args.corpus or config.get("input"), output_path)
    if not args.quiet:
        print(f"wrote {output_path}")
    return 0


def cmd_analyze(args) -> int:
    """Run the command's stage as a one-stage config and print its summary;
    --export writes the summary or, for fightingwords, the full ranking."""
    from .transform import SummaryTable

    params = {name: getattr(args, name) for name in args.stage_params if name in args}
    stages = _build_stages([{"name": args.stage, "params": params}])
    corpus = _run_stages(stages, args.corpus, args.output)
    table = stages[0].summarize(corpus)
    print(table.to_delimited())
    if args.export:
        if args.stage == "fighting_words":
            table = SummaryTable(columns=["y1", "y2", "zscore"], label_header="term")
            for term, y1, y2, z in stages[0].model.ranking():
                table.add_row(term, [y1, y2, z])
        text = table.to_delimited(args.delimiter)  # first, so a failed render leaves no file
        with open(args.export, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    if args.output and not args.quiet:
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_export(args) -> int:
    from .corpus_io import export_tabular

    corpus = _load_corpus(args.corpus)
    meta_columns = [c for c in (args.meta_columns or "").split(",") if c]
    export_tabular(corpus, args.output, delimiter=args.delimiter, meta_columns=meta_columns)
    if not args.quiet:
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _delimiter(value: str) -> str:
    from .corpus_io import check_delimiter

    try:
        return check_delimiter(value)
    except ValueError as exc:
        # argparse names the argument itself: "argument --delimiter: must be ..."
        raise argparse.ArgumentTypeError(str(exc).removeprefix("delimiter ")) from None


def _add_global_flags(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # Registered on the root parser and again on every subcommand so they
    # are accepted in either position; the trailing copies use SUPPRESS
    # defaults so they never clobber values parsed before the subcommand.
    suppress = {"default": argparse.SUPPRESS} if trailing else {}
    parser.add_argument("--corpus", help="corpus directory to operate on",
                        **(suppress or {"default": None}))
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output",
                        **(suppress or {"default": False}))
    parser.add_argument("--seed", type=int,
                        help="reserved; current commands are deterministic",
                        **(suppress or {"default": None}))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call: it is a web of cyclic objects, which a command run with the
    collector paused would otherwise leave behind on every call."""
    parser = argparse.ArgumentParser(
        prog="convoforge",
        description="Analyze threaded conversational corpora.",
    )
    _add_global_flags(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text)
        _add_global_flags(command, trailing=True)
        return command

    add_command("validate", "check corpus integrity").set_defaults(func="cmd_validate")
    add_command("stats", "corpus-level counts").set_defaults(func="cmd_stats")

    run = add_command("run", "execute a pipeline config")
    run.add_argument("config", help="pipeline config JSON file")
    run.set_defaults(func="cmd_run")

    fw = add_command("fightingwords", "compare two metadata-defined classes")
    fw.add_argument("--class1", required=True, help="filter, e.g. mixed=true")
    fw.add_argument("--class2", required=True, help="filter, e.g. mixed=false")
    fw.add_argument("--top-k", type=int, default=argparse.SUPPRESS, dest="top_k")
    fw.add_argument("--ngram-max", type=int, default=argparse.SUPPRESS, dest="ngram_max")
    fw.add_argument("--min-count", type=int, default=argparse.SUPPRESS, dest="min_count")
    fw.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    fw.add_argument("--export", help="write the full ranking to this file")
    fw.add_argument("--delimiter", type=_delimiter, default=",",
                    help="delimiter for --export")
    # An analyzer command runs the registered stage `stage`, passing the
    # constructor parameters named in stage_params from the flags of that dest
    # that were given: a flag left out (default SUPPRESS) is not in args.
    fw.set_defaults(func="cmd_analyze", stage="fighting_words", output=None, stage_params=(
        "class1", "class2", "ngram_max", "min_count", "alpha", "top_k"))

    for name, stage in (("politeness", "politeness"), ("hyperconvo", "hyperconvo"),
                        ("diversity", "speaker_diversity")):
        cmd = add_command(name, f"run the {name} analyzer and print its summary")
        cmd.add_argument("--export", help="write the summary table to this file")
        cmd.add_argument("--delimiter", type=_delimiter, default="\t",
                         help="delimiter for --export")
        cmd.add_argument("--output", help="save the annotated corpus to this directory")
        stage_params = ()
        if name == "diversity":
            cmd.add_argument("--min-tokens", type=int, default=argparse.SUPPRESS,
                             dest="min_tokens_per_convo")
            stage_params = ("min_tokens_per_convo",)
        cmd.set_defaults(func="cmd_analyze", stage=stage, stage_params=stage_params)

    export = add_command("export", "write utterances as a delimited table")
    export.add_argument("--output", required=True)
    export.add_argument("--delimiter", type=_delimiter, default=",")
    export.add_argument("--meta-columns", dest="meta_columns",
                        help="comma-separated utterance meta keys to include")
    export.set_defaults(func="cmd_export")

    return parser


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record comes,
    so that every call of ``main`` writes to its own caller's stream."""

    stream = property(lambda self: sys.stderr)

    def __init__(self) -> None:
        logging.Handler.__init__(self)  # StreamHandler's would assign the stream
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


# Built once, as the parser is, so that a call leaves no handler behind.
_STDERR_HANDLER = _StderrHandler()


def main(argv=None) -> int:
    from .corpus_io import _paused_gc

    with _paused_gc():
        args = build_parser().parse_args(argv)
        # The command's warnings go to this call's standard error alone, at
        # this call's level; the logger is given back as it was found.
        logger = logging.getLogger("convoforge")
        level, propagate = logger.level, logger.propagate
        logger.setLevel(logging.ERROR if args.quiet else logging.WARNING)
        logger.propagate = False
        logger.addHandler(_STDERR_HANDLER)
        try:
            # The parser is built once, so it names the command's function,
            # which is looked up on each call.
            code = globals()[args.func](args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # Python's documented recipe: point stdout at devnull so that the
            # interpreter's final flush cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 2
        except (OSError, ValueError) as exc:
            # An unreadable input or unwritable output path, e.g. a directory, or
            # a bad flag or config value.
            return _fail(str(exc), 2)
        except ConvoForgeError as exc:
            return _fail(str(exc), exc.exit_code)
        finally:
            logger.removeHandler(_STDERR_HANDLER)
            logger.setLevel(level)
            logger.propagate = propagate


def console_main() -> None:
    """``python -m convoforge.cli`` and the ``convoforge`` script. The
    process ends with the command, so the collector stays off after it:
    given back, it would start a collection over everything the command
    left at the next allocation, that of ``SystemExit``, just before the
    interpreter's own collection at exit."""
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    console_main()
