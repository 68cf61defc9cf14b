"""Command-line entry point for the pipeline.

Subcommands: validate, prepare, rank, rerank, evaluate. Values resolve as
CLI flag > config file (flat key=value lines) > built-in default. All
randomness flows from --seed, and fixed inputs plus a fixed seed produce
byte-identical output files.

Exit codes: 0 success, 1 validation/content failure, 2 I/O, format, or
usage failure.
"""

from __future__ import annotations

import argparse
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import dataprep, evaluation, rerank, scorer
from .corpus import Corpus, load_corpus, validate
from .errors import DataError, FormatError, read_utf8, text_lines
from .textsim import default_provider, load_dense

log = logging.getLogger(__name__)


class UsageError(Exception):
    """A required flag or config key is missing for the chosen command."""


DEFAULTS = {
    "method": scorer.TFIDF_COSINE,
    "depth": 15,
    "k": 7,
    "m": 3,
    "seed": 13,
    "task": dataprep.CLASSIFICATION,
    "with_context": False,
    "trace": False,
    "out": "out",
}

_INT_KEYS = {"depth", "k", "m", "seed", "top_m"}
_FLAG_KEYS = {"trace", "with_context"}
_LIST_KEYS = {"facts"}


@dataclass(frozen=True)
class RunConfig:
    facts: tuple[str, ...]
    questions: str | None
    scores: str | None
    vectors: str | None
    predictions: str | None
    out: Path
    method: str
    depth: int
    k: int
    m: int
    seed: int
    top_m: int | None
    task: str
    with_context: bool
    trace: bool
    sweep: tuple[int, ...] | None


def read_config(path: str | Path) -> dict[str, object]:
    """Flat key=value configuration; keys mirror the flag names."""
    path = Path(path)
    values: dict[str, object] = {}
    for lineno, line in enumerate(text_lines(read_utf8(path)), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise FormatError(f"{path} line {lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key in _INT_KEYS:
            try:
                values[key] = int(raw)
            except ValueError:
                raise FormatError(f"{path} line {lineno}: {key} needs an integer") from None
        elif key in _FLAG_KEYS:
            values[key] = raw.lower() in ("1", "true", "yes", "on")
        elif key in _LIST_KEYS:
            values[key] = [part.strip() for part in raw.split(",") if part.strip()]
        else:
            values[key] = raw
    return values


def _parse_sweep(raw: object) -> tuple[int, ...]:
    if isinstance(raw, str):
        try:
            return tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError:
            raise UsageError(f"--sweep needs a comma-separated integer list, got {raw!r}") from None
    raise UsageError(f"--sweep needs a comma-separated integer list, got {raw!r}")


def _resolve(args: argparse.Namespace) -> RunConfig:
    config_values = read_config(args.config) if getattr(args, "config", None) else {}

    def pick(key: str, default=None):
        value = getattr(args, key, None)
        if value is None:
            value = config_values.get(key, DEFAULTS.get(key, default))
        return value

    sweep = pick("sweep")
    facts = pick("facts") or ()
    cfg = RunConfig(
        facts=tuple(str(p) for p in facts),
        questions=pick("questions"),
        scores=pick("scores"),
        vectors=pick("vectors"),
        predictions=pick("predictions"),
        out=Path(pick("out")),
        method=pick("method"),
        depth=pick("depth"),
        k=pick("k"),
        m=pick("m"),
        seed=pick("seed"),
        top_m=pick("top_m"),
        task=pick("task"),
        with_context=bool(pick("with_context")),
        trace=bool(pick("trace")),
        sweep=_parse_sweep(sweep) if sweep is not None else None,
    )
    for input_path in (*cfg.facts, cfg.questions, cfg.scores, cfg.vectors, cfg.predictions):
        if input_path is not None and not Path(input_path).exists():
            raise FileNotFoundError(f"input path does not exist: {input_path}")
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg


def _load(cfg: RunConfig) -> Corpus:
    if not cfg.facts or not cfg.questions:
        raise UsageError("--facts and --questions are required for this command")
    return load_corpus(cfg.facts, cfg.questions)


def _provider(cfg: RunConfig, corpus: Corpus):
    if cfg.vectors:
        return load_dense(cfg.vectors)
    return default_provider(corpus)


def _table(cfg: RunConfig, corpus: Corpus, provider) -> scorer.RelevanceTable:
    if cfg.scores:
        return scorer.load_scores(cfg.scores, corpus)
    if cfg.method == "external":
        raise UsageError("--method external needs --scores")
    return scorer.score_lexical(corpus, provider, cfg.method)


def cmd_validate(cfg: RunConfig) -> int:
    report = validate(_load(cfg))
    print(report.format_text())
    return 0 if report.ok else 1


def cmd_prepare(cfg: RunConfig) -> int:
    corpus = _load(cfg)
    # one sampler for every variant: fact rows and negatives computed once
    sampler = dataprep.NegativeSampler(corpus, _provider(cfg, corpus))
    if cfg.task == "all":
        variants = [
            (task, ctx)
            for task in (dataprep.CLASSIFICATION, dataprep.REGRESSION)
            for ctx in (False, True)
        ]
    else:
        variants = [(cfg.task, cfg.with_context)]
    stats_sections = []
    for task, with_context in variants:
        prep = dataprep.PrepConfig(
            k=cfg.k, m=cfg.m, seed=cfg.seed, with_context=with_context, task=task
        )
        examples = dataprep.build_dataset(corpus, sampler, prep)
        name = f"dataset_{task}{'_context' if with_context else ''}.tsv"
        out_path = cfg.out / name
        dataprep.write_dataset(examples, out_path)
        stats = dataprep.dataset_stats(examples)
        stats_sections.append(f"[{name}]\n{stats.format_text()}")
        print(f"wrote {out_path} ({stats.total} examples)")
    stats_path = cfg.out / "dataset_stats.txt"
    stats_path.write_text("\n\n".join(stats_sections) + "\n", encoding="utf-8")
    print(f"wrote {stats_path}")
    return 0


def cmd_rank(cfg: RunConfig) -> int:
    corpus = _load(cfg)
    provider = _provider(cfg, corpus)
    table = _table(cfg, corpus, provider)
    scores_path = cfg.out / "scores.tsv"
    scorer.write_scores(table, scores_path)
    rankings = scorer.all_rankings(table)
    predictions_path = cfg.out / "predictions.tsv"
    evaluation.write_predictions(rankings, predictions_path, cfg.top_m)
    print(f"wrote {scores_path}")
    print(f"wrote {predictions_path} ({len(rankings)} questions)")
    return 0


def cmd_rerank(cfg: RunConfig) -> int:
    corpus = _load(cfg)
    provider = _provider(cfg, corpus)
    table = _table(cfg, corpus, provider)
    config = rerank.RerankConfig(depth=cfg.depth)
    rankings, traces = rerank.rerank_all(corpus, provider, table, config, want_trace=cfg.trace)
    predictions_path = cfg.out / "reranked_predictions.tsv"
    evaluation.write_predictions(rankings, predictions_path, cfg.top_m)
    print(f"wrote {predictions_path} ({len(rankings)} questions, depth {cfg.depth})")
    if cfg.trace:
        trace_dir = cfg.out / "traces"
        trace_dir.mkdir(exist_ok=True)
        for qid, trace in traces.items():
            safe = re.sub(r"[^\w.-]", "_", qid)
            (trace_dir / f"{safe}.trace.txt").write_text(
                "\n".join(trace.format_lines()) + "\n", encoding="utf-8"
            )
        print(f"wrote {len(traces)} trace file(s) under {trace_dir}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    corpus = _load(cfg)
    if cfg.predictions is None and cfg.sweep is None:
        raise UsageError("evaluate needs --predictions and/or --sweep with --scores")
    if cfg.predictions is not None:
        ranked = evaluation.read_predictions(cfg.predictions)
        report = evaluation.evaluate_rankings(ranked, corpus)
        text = evaluation.format_report(report)
        (cfg.out / "eval_report.txt").write_text(text + "\n", encoding="utf-8")
        (cfg.out / "eval_report.kv").write_text(
            evaluation.report_keyvalues(report) + "\n", encoding="utf-8"
        )
        print(text)
    if cfg.sweep is not None:
        if not cfg.scores:
            raise UsageError("--sweep needs --scores with externally computed relevance scores")
        provider = _provider(cfg, corpus)
        table = scorer.load_scores(cfg.scores, corpus)
        rows = rerank.depth_sweep(corpus, provider, table, cfg.sweep)
        sweep_path = cfg.out / "depth_sweep.tsv"
        with open(sweep_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("depth\tmap\n")
            for depth, value in rows:
                fh.write(f"{depth}\t{value:.6f}\n")
        print(f"wrote {sweep_path}")
        for depth, value in rows:
            print(f"depth {depth:>3}  MAP {value:.6f}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explainrank",
        description="Rank explanation facts for science questions: dataset "
        "preparation, relevance scoring, iterative re-ranking, MAP evaluation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--facts", nargs="+", metavar="TSV", help="explanation fact tables")
    common.add_argument("--questions", metavar="TSV", help="annotated question file")
    common.add_argument("--vectors", metavar="TXT", help="dense word vectors (word2vec text)")
    common.add_argument("--config", metavar="FILE", help="flat key=value config; flags override")
    common.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="seed for all randomness (default: 13)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check corpus integrity")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("prepare", parents=[common], help="generate relevance-learner datasets")
    p.add_argument("--task", choices=[dataprep.CLASSIFICATION, dataprep.REGRESSION, "all"])
    p.add_argument("--with-context", dest="with_context", action=argparse.BooleanOptionalAction)
    p.add_argument("--k", type=_positive_int, help="negatives per gold fact (default: 7)")
    p.add_argument("--m", type=_positive_int, help="context subsets per size (default: 3)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("rank", parents=[common], help="score facts and write the initial ranking")
    p.add_argument("--method", choices=[scorer.TFIDF_COSINE, scorer.OVERLAP, "external"])
    p.add_argument("--scores", metavar="TSV", help="externally computed relevance scores")
    p.add_argument("--top-m", dest="top_m", type=_positive_int, help="facts kept per question")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("rerank", parents=[common], help="iteratively re-rank the top positions")
    p.add_argument("--method", choices=[scorer.TFIDF_COSINE, scorer.OVERLAP, "external"])
    p.add_argument("--scores", metavar="TSV", help="relevance scores to re-rank")
    p.add_argument("--depth", type=_positive_int, help="re-ranking depth (default: 15)")
    p.add_argument("--top-m", dest="top_m", type=_positive_int, help="facts kept per question")
    p.add_argument("--trace", action=argparse.BooleanOptionalAction, help="write per-question traces")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("evaluate", parents=[common], help="MAP reports from predictions")
    p.add_argument("--predictions", metavar="TSV", help="predictions file to evaluate")
    p.add_argument("--scores", metavar="TSV", help="relevance scores for the depth sweep")
    p.add_argument("--sweep", metavar="N,N,...", help="re-rank depths to sweep, e.g. 1,3,5,10,15,20,30")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return args.func(_resolve(args))
    except (FormatError, OSError, UsageError) as exc:
        log.error("%s", exc)
        return 2
    except (DataError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
