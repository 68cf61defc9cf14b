"""Command-line entry point for the pipeline.

Subcommands: validate, prepare, rank, rerank, evaluate. Every option is one
entry of OPTIONS, read both by the flags and by --config files (flat
key=value lines), so a config key takes exactly its flag's values. Values
resolve as CLI flag > config file > the default in OPTIONS. The only
randomness is prepare's, drawn from --seed, and fixed inputs plus a fixed
seed produce byte-identical output files.

Exit codes: 0 success, 1 validation/content failure, 2 I/O, format, or
usage failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import logging
import os
import sys
from itertools import product, repeat
from pathlib import Path
from typing import Sequence

# OpenBLAS reads its thread count once, as numpy loads it. The CLI's one BLAS
# call, prepare's negative filter, gives the same negatives on any thread
# count, and starting the pool costs each process 70-85 ms on 2 vCPUs, so
# numpy loads with one thread unless the user chose a count. A process that
# loaded numpy before this module keeps its BLAS and its environment as is.
_BLAS_THREADS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in sys.modules and not _BLAS_THREADS & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .corpus import Corpus, load_corpus, validate
from .errors import DataError, FormatError, utf8_blocks

log = logging.getLogger(__name__)


def _lazy(name: str):
    """The layer module name, bound now (in sys.modules and on the package,
    as an import binds it) and executed on its first attribute access, so a
    command executes only the layers it calls."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


dataprep, evaluation, rerank, scorer, textsim = map(
    _lazy, ("dataprep", "evaluation", "rerank", "scorer", "textsim"))


class UsageError(Exception):
    """A required flag or config key is missing for the chosen command."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _depths(text: str) -> tuple[int, ...]:
    """One or more comma-separated re-ranking depths."""
    depths = tuple(_positive_int(part) for part in text.split(",") if part.strip())
    if not depths:
        raise argparse.ArgumentTypeError("needs at least one depth")
    return depths


_ALL = ("validate", "prepare", "rank", "rerank", "evaluate")
_WRITERS = ("prepare", "rank", "rerank", "evaluate")  # all but validate write files
_SWITCH = argparse.BooleanOptionalAction

# key -> (commands that take it, add_argument keywords of its flag --key);
# a config file's key=value line is typed and checked by the same keywords.
# Defaults and choices are the layers' own values (PrepConfig, RerankConfig,
# the scorer and task names), written out so that building the parser
# executes no layer; tests/test_cli.py holds them equal.
OPTIONS: dict[str, tuple[tuple[str, ...], dict]] = {
    "facts": (_ALL, dict(nargs="+", metavar="TSV", help="explanation fact tables")),
    "questions": (_ALL, dict(metavar="TSV", help="annotated question file")),
    "vectors": (_WRITERS, dict(metavar="TXT", help="dense word vectors (word2vec text)")),
    "out": (_WRITERS, dict(default="out", metavar="DIR", help="output directory (default: %(default)s)")),
    "seed": (("prepare",), dict(
        type=int, default=13, help="seed for context sampling (default: %(default)s)")),
    "task": (("prepare",), dict(
        choices=["classification", "regression", "all"], default="classification",
        help="dataset variant(s) to write (default: %(default)s)")),
    "with_context": (("prepare",), dict(
        action=_SWITCH, default=False, help="prepend sampled gold facts as context")),
    "k": (("prepare",), dict(
        type=_positive_int, default=7, help="negatives per gold fact (default: %(default)s)")),
    "m": (("prepare",), dict(
        type=_positive_int, default=3, help="context subsets per size (default: %(default)s)")),
    "method": (("rank", "rerank"), dict(
        choices=["tfidf", "overlap"], default="tfidf",
        help="built-in lexical scorer, used without --scores (default: %(default)s)")),
    "scores": (("rank", "rerank", "evaluate"), dict(
        metavar="TSV", help="externally computed relevance scores, used instead of --method")),
    "depth": (("rerank",), dict(
        type=_positive_int, default=15,
        help="re-ranking depth (default: %(default)s)")),
    "top_m": (("rank", "rerank"), dict(
        type=_positive_int, metavar="N", help="facts kept per question (default: all)")),
    "trace": (("rerank",), dict(
        action=_SWITCH, default=False, help="write each round's candidates to traces.tsv")),
    "predictions": (("evaluate",), dict(metavar="TSV", help="predictions file to evaluate")),
    "sweep": (("evaluate",), dict(
        type=_depths, metavar="N,N,...", help="re-rank --scores at each depth, e.g. 1,3,5,10,15")),
}
_INPUTS = ("questions", "vectors", "scores", "predictions")  # with facts: paths that must exist

_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False,
             "on": True, "off": False, "1": True, "0": False}


def _typed(key: str, raw: str) -> object:
    """raw as the flag of key takes it: a switch's word as a bool, a list
    flag's comma-separated items, anything else through type and choices.
    Raises ValueError or ArgumentTypeError where the flag would refuse."""
    spec = OPTIONS[key][1]
    if spec.get("action") is _SWITCH:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"{raw!r} is not one of {', '.join(_BOOLEANS)}")
        return _BOOLEANS[raw.lower()]
    if "nargs" in spec:
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if not items:
            raise ValueError("needs at least one value")
        return list(map(spec.get("type", str), items))
    value = spec.get("type", str)(raw)
    if value not in spec.get("choices", [value]):
        raise ValueError(f"{value!r} is not one of {', '.join(spec['choices'])}")
    return value


def read_config(path: str | Path) -> dict[str, object]:
    """Flat key=value configuration; keys mirror the flag names, and each
    value is typed and checked as its flag's. A key only other commands
    take is read and checked too. The whole file is decoded first; an
    unknown key, a refused value or a key given twice is a FormatError
    naming the line (both lines for a repeated key)."""
    path = Path(path)
    values: dict[str, object] = {}
    linenos: dict[str, int] = {}
    lines = "".join(text for _, text in utf8_blocks(path)).split("\n")[:-1]
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise FormatError(f"{path} line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise FormatError(f"{path} line {lineno}: unknown key {key!r}")
        if key in linenos:
            raise FormatError(
                f"{path} line {lineno}: key {key!r} already given on line {linenos[key]}"
            )
        linenos[key] = lineno
        try:
            values[key] = _typed(key, raw.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise FormatError(f"{path} line {lineno}: {key}: {exc}") from None
    return values


def _check_usage(args: argparse.Namespace) -> None:
    """UsageError for a missing or unusable flag, before anything is read or
    written."""
    if not args.facts or not args.questions:
        raise UsageError("--facts and --questions are required for this command")
    if args.command == "evaluate":
        if args.predictions is None and args.sweep is None:
            raise UsageError("evaluate needs --predictions and/or --sweep with --scores")
        if args.sweep is not None and not args.scores:
            raise UsageError("--sweep needs --scores with externally computed relevance scores")


def _load(args: argparse.Namespace, *layers) -> Corpus:
    """The corpus, read after executing each layer the command calls (any
    attribute access executes a lazily bound module): a layer executed
    mid-run would add its import to the command's peak."""
    for layer in layers:
        getattr(layer, "__spec__")
    return load_corpus(args.facts, args.questions)


def _provider(args: argparse.Namespace, corpus: Corpus):
    if args.vectors:
        return textsim.load_dense(args.vectors)
    return textsim.default_provider(corpus)


def _table(args: argparse.Namespace, corpus: Corpus, provider=None) -> scorer.RelevanceTable:
    """The --scores table, or lexical scores; the TF-IDF cosine takes provider
    (built if None), token overlap counts terms of the TF-IDF rows of
    provider, or of its own when provider is None or word vectors."""
    if args.scores:
        return scorer.load_scores(args.scores, corpus)
    if provider is None and args.method == scorer.TFIDF_COSINE:
        provider = _provider(args, corpus)
    return scorer.score_lexical(corpus, provider, args.method)


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate(_load(args))
    print(report.format_text())
    return 0 if report.ok else 1


def cmd_prepare(args: argparse.Namespace) -> int:
    corpus = _load(args, textsim, dataprep)
    # one sampler for every variant: fact rows and negatives computed once
    sampler = dataprep.NegativeSampler(corpus, _provider(args, corpus))
    tasks = (dataprep.CLASSIFICATION, dataprep.REGRESSION) if args.task == "all" else (args.task,)
    contexts = (False, True) if args.task == "all" else (args.with_context,)
    stats_sections = []
    for task, with_context in product(tasks, contexts):
        prep = dataprep.PrepConfig(k=args.k, m=args.m, seed=args.seed, with_context=with_context, task=task)
        examples = dataprep.build_dataset(corpus, sampler, prep)
        name = f"dataset_{task}{'_context' if with_context else ''}.tsv"
        out_path = args.out / name
        dataprep.write_dataset(examples, out_path)
        stats = dataprep.dataset_stats(examples)
        stats_sections.append(f"[{name}]\n{stats.format_text()}")
        print(f"wrote {out_path} ({stats.total} examples)")
    stats_path = args.out / "dataset_stats.txt"
    stats_path.write_text("\n\n".join(stats_sections) + "\n", encoding="utf-8")
    print(f"wrote {stats_path}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    table = _table(args, _load(args, textsim, scorer, evaluation))
    scores_path = args.out / "scores.tsv"
    scorer.write_scores(table, scores_path)
    rankings = scorer.all_rankings(table)
    predictions_path = args.out / "predictions.tsv"
    evaluation.write_predictions(rankings, predictions_path, args.top_m)
    print(f"wrote {scores_path}")
    print(f"wrote {predictions_path} ({len(rankings)} questions)")
    return 0


def _trace_lines(trace) -> str:
    """A question's traces.tsv lines: one per candidate per round, floats
    by repr, 1 on the round's pick. A candidate's qa_sim is the same in
    every round it stays in the pool, so each is repr'd once."""
    qa_sim: dict[str, float] = {}
    for rnd in trace.rounds:
        qa_sim.update(zip(rnd.candidates, rnd.qa_sim.tolist()))
    qa_text = dict(zip(qa_sim, map(repr, qa_sim.values())))
    lines = []
    for rnd in trace.rounds:
        picked = ["0\n"] * len(rnd.candidates)
        picked[rnd.candidates.index(rnd.selected)] = "1\n"
        values = (map(repr, rnd.weighted_rel.tolist()), map(qa_text.__getitem__, rnd.candidates),
                  map(repr, rnd.score.tolist()))
        lines += map("\t".join, zip(repeat(f"{trace.qid}\t{rnd.number}"), rnd.candidates, *values, picked))
    return "".join(lines)


def cmd_rerank(args: argparse.Namespace) -> int:
    corpus = _load(args, textsim, scorer, rerank, evaluation)
    provider = _provider(args, corpus)
    table = _table(args, corpus, provider)
    config = rerank.RerankConfig(depth=args.depth)
    rankings, traces = rerank.rerank_all(corpus, provider, table, config, want_trace=args.trace)
    predictions_path = args.out / "reranked_predictions.tsv"
    evaluation.write_predictions(rankings, predictions_path, args.top_m)
    print(f"wrote {predictions_path} ({len(rankings)} questions, depth {args.depth})")
    if args.trace:
        trace_path = args.out / "traces.tsv"
        with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("qid\tround\tfact_uid\tweighted_rel\tqa_sim\tscore\tselected\n")
            for trace in traces.values():
                fh.write(_trace_lines(trace))
        print(f"wrote {trace_path} ({len(traces)} questions)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    layers = [evaluation] if args.predictions is not None else []
    if args.sweep is not None:
        layers += [textsim, scorer, rerank]
    corpus = _load(args, *layers)
    if args.predictions is not None:
        ranked = evaluation.read_predictions(args.predictions)
        report = evaluation.evaluate_rankings(ranked, corpus)
        text = evaluation.format_report(report)
        (args.out / "eval_report.txt").write_text(text + "\n", encoding="utf-8")
        (args.out / "eval_report.kv").write_text(
            evaluation.report_keyvalues(report) + "\n", encoding="utf-8"
        )
        print(text)
    if args.sweep is not None:
        provider = _provider(args, corpus)
        table = scorer.load_scores(args.scores, corpus)
        rows = rerank.depth_sweep(corpus, provider, table, args.sweep)
        sweep_path = args.out / "depth_sweep.tsv"
        with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("depth\tmap\n")
            for depth, value in rows:
                fh.write(f"{depth}\t{value:.6f}\n")
        print(f"wrote {sweep_path}")
        for depth, value in rows:
            print(f"depth {depth:>3}  MAP {value:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explainrank",
        description="Rank explanation facts for science questions: dataset "
        "preparation, relevance scoring, iterative re-ranking, MAP evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
        ("validate", cmd_validate, "check corpus integrity"),
        ("prepare", cmd_prepare, "generate relevance-learner datasets"),
        ("rank", cmd_rank, "score facts and write the initial ranking"),
        ("rerank", cmd_rerank, "iteratively re-rank the top positions"),
        ("evaluate", cmd_evaluate, "MAP reports from predictions"),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, subparser=p)
        p.add_argument("--config", metavar="FILE", help="flat key=value options; flags override")
        for key, (commands, spec) in OPTIONS.items():
            if name in commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **spec)
    return parser


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Flags over --config values over the defaults in OPTIONS. A refused
    flag exits 2 through argparse, a refused config line is a FormatError."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        values = read_config(args.config)
        args.subparser.set_defaults(
            **{key: value for key, value in values.items() if args.command in OPTIONS[key][0]}
        )
        args = parser.parse_args(argv)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    main registers gc.freeze as an atexit hook, once however often it is
    called. The interpreter's last collection then skips every object still
    alive at exit, about 22,500 of numpy and the package. That collection
    took 19-23 ms of each bench command; with the hook a command ends 5-8
    ms after main returns (2 vCPUs, Python 3.11). Nothing changes while the
    command runs, and other atexit hooks and output flushes still run. A
    program that calls main gets the same hook: an object in a reference
    cycle alive at exit is never finalized, so its __del__ does not run
    (Python never promises that it does at exit), and an unclosed file in
    such a cycle is not reported. atexit.unregister(gc.freeze) after the
    call restores the default.
    """
    # imported on the call that registers the hook: importing cli stays as it was
    import atexit
    import gc

    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = parse_args(argv)
        _check_usage(args)
        for input_path in [*args.facts, *map(vars(args).get, _INPUTS)]:
            if input_path is not None and not Path(input_path).exists():
                raise FileNotFoundError(f"input path does not exist: {input_path}")
        if args.command in OPTIONS["out"][0]:
            args.out = Path(args.out)
            args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (FormatError, OSError, UsageError) as exc:
        log.error("%s", exc)
        return 2
    except (DataError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
