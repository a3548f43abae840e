"""The convoforge command line.

Subcommands operate on a corpus directory given with the global --corpus
flag: validate, stats, run (pipeline config), fightingwords, politeness,
hyperconvo, diversity, export. Tables go to standard output as tab-
separated text with floats pinned to 6 significant digits, so output is
byte-stable and diffable. Exit codes: 0 success, 1 domain failure, 2
usage or I/O failure, including a standard output closed early (as by
``| head``).

Parsing the arguments loads nothing of the package but ``errors``; each
command imports the modules it uses, and ``run`` only those of the stages
its config names.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import (
    ConvoForgeError,
    CountMismatchError,
    IntegrityViolationError,
    IoFailureError,
    MalformedRecordError,
    MissingColumnError,
    MissingFileError,
    PipelineStageError,
    UnsupportedVersionError,
)

USAGE_ERRORS = (
    MissingFileError,
    MalformedRecordError,
    CountMismatchError,
    UnsupportedVersionError,
    IoFailureError,
    MissingColumnError,
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_corpus(args):
    from .corpus_io import load

    if not args.corpus:
        raise MissingFileError("no corpus directory given; use --corpus DIR")
    return load(args.corpus)


def _export_table(table, path: str, delimiter: str) -> None:
    import csv

    # Through the csv module, as export_tabular writes: a cell holding the
    # delimiter, a double quote or a line break is quoted, so that a term
    # such as "1,000" stays one field.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerows(table.cells())


def _emit_table(table, export_path=None, delimiter="\t") -> None:
    print(table.to_delimited())
    if export_path:
        _export_table(table, export_path, delimiter)


def cmd_validate(args) -> int:
    # load() runs check_integrity and raises with every violation it finds.
    try:
        _load_corpus(args)
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

    corpus = _load_corpus(args)
    depths = []
    sizes = []
    for convo in corpus.conversations.values():
        sizes.append(len(convo.utterance_ids))
        depth = {}
        longest = 0
        for utt in traverse(corpus, convo.id, "bfs"):
            depth[utt.id] = 1 if utt.reply_to is None else depth[utt.reply_to] + 1
            longest = max(longest, depth[utt.id])
        depths.append(longest)
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

    from . import corpus_io
    from .registry import create_transformer
    from .transform import Pipeline

    config_path = Path(args.config)
    config = corpus_io._decode_object(config_path, f"config {config_path}")
    for key in ("input", "output"):
        if config.get(key) is not None and not isinstance(config[key], str):
            return _fail(f"config '{key}' must be a path string", 2)

    stages_config = config.get("stages")
    if not isinstance(stages_config, list) or not stages_config:
        return _fail("config needs a non-empty 'stages' list", 2)
    stages = []
    for index, stage in enumerate(stages_config):
        name = stage.get("name") if isinstance(stage, dict) else None
        if not name:
            return _fail(f"stage {index}: missing transformer name", 2)
        params = stage.get("params", {})
        if not isinstance(params, dict):
            return _fail(f"stage {index} ({name}): params must be an object", 2)
        try:
            stages.append(create_transformer(name, params))
        except (ValueError, TypeError) as exc:
            return _fail(f"stage {index} ({name}): {exc}", 2)

    input_path = args.corpus or config.get("input")
    output_path = config.get("output")
    if not input_path:
        return _fail("no input corpus: set 'input' in the config or pass --corpus", 2)
    if not output_path:
        return _fail("config needs an 'output' corpus path", 2)

    corpus = corpus_io.load(input_path)
    try:
        corpus = Pipeline(stages).run(corpus, fit_first=True)
    except PipelineStageError as exc:
        return _fail(str(exc), 1)
    corpus_io.save(corpus, output_path)
    if not args.quiet:
        print(f"wrote {output_path}")
    return 0


def cmd_fightingwords(args) -> int:
    from .fightingwords import fit_fw, summarize_fw
    from .filters import build_meta_predicate
    from .transform import SummaryTable

    corpus = _load_corpus(args)
    class1 = build_meta_predicate(corpus, args.class1)
    class2 = build_meta_predicate(corpus, args.class2)
    model = fit_fw(corpus, class1, class2, ngram_max=args.ngram_max,
                   min_count=args.min_count, alpha=args.alpha)
    print(summarize_fw(model, top_k=args.top_k).to_delimited())
    if args.export:
        ranking = SummaryTable(columns=["y1", "y2", "zscore"], label_header="term")
        for term, y1, y2, z in model.ranking():
            ranking.add_row(term, [y1, y2, z])
        _export_table(ranking, args.export, args.delimiter)
    return 0


def _run_annotator(args, name: str, params: dict) -> int:
    from .corpus_io import save
    from .registry import create_transformer

    transformer = create_transformer(name, params)
    corpus = _load_corpus(args)
    transformer.fit(corpus)
    transformer.transform(corpus)
    _emit_table(transformer.summarize(corpus), args.export, args.delimiter)
    if args.output:
        save(corpus, args.output)
        if not args.quiet:
            print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_politeness(args) -> int:
    return _run_annotator(args, "politeness", {})


def cmd_hyperconvo(args) -> int:
    return _run_annotator(args, "hyperconvo", {})


def cmd_diversity(args) -> int:
    return _run_annotator(args, "speaker_diversity", {"min_tokens_per_convo": args.min_tokens})


def cmd_export(args) -> int:
    from .corpus_io import export_tabular

    corpus = _load_corpus(args)
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


def build_parser() -> argparse.ArgumentParser:
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

    add_command("validate", "check corpus integrity").set_defaults(func=cmd_validate)
    add_command("stats", "corpus-level counts").set_defaults(func=cmd_stats)

    run = add_command("run", "execute a pipeline config")
    run.add_argument("config", help="pipeline config JSON file")
    run.set_defaults(func=cmd_run)

    fw = add_command("fightingwords", "compare two metadata-defined classes")
    fw.add_argument("--class1", required=True, help="filter, e.g. mixed=true")
    fw.add_argument("--class2", required=True, help="filter, e.g. mixed=false")
    fw.add_argument("--top-k", type=int, default=10, dest="top_k")
    fw.add_argument("--ngram-max", type=int, default=1, dest="ngram_max")
    fw.add_argument("--min-count", type=int, default=1, dest="min_count")
    fw.add_argument("--alpha", type=float, default=0.01)
    fw.add_argument("--export", help="write the full ranking to this file")
    fw.add_argument("--delimiter", type=_delimiter, default=",",
                    help="delimiter for --export")
    fw.set_defaults(func=cmd_fightingwords)

    for name, func, extra in (
        ("politeness", cmd_politeness, None),
        ("hyperconvo", cmd_hyperconvo, None),
        ("diversity", cmd_diversity, "min_tokens"),
    ):
        cmd = add_command(name, f"run the {name} analyzer and print its summary")
        cmd.add_argument("--export", help="write the summary table to this file")
        cmd.add_argument("--delimiter", type=_delimiter, default="\t",
                         help="delimiter for --export")
        cmd.add_argument("--output", help="save the annotated corpus to this directory")
        if extra == "min_tokens":
            cmd.add_argument("--min-tokens", type=int, default=1, dest="min_tokens")
        cmd.set_defaults(func=func)

    export = add_command("export", "write utterances as a delimited table")
    export.add_argument("--output", required=True)
    export.add_argument("--delimiter", type=_delimiter, default=",")
    export.add_argument("--meta-columns", dest="meta_columns",
                        help="comma-separated utterance meta keys to include")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.ERROR if args.quiet else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull so that the
        # interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    except OSError as exc:
        # An unreadable input or unwritable output path, e.g. a directory.
        return _fail(str(exc), 2)
    except USAGE_ERRORS as exc:
        return _fail(str(exc), 2)
    except ValueError as exc:
        return _fail(str(exc), 2)
    except ConvoForgeError as exc:
        # Domain failures (empty class, missing annotation, ...) exit 1.
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
