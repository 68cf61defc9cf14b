#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the explainrank pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload lexical --seed 1 --seconds 40 --trace 0

``--workload all`` runs lexical, external and prepare in turn for the seed.

The benchmark generates a seeded WorldTree-scale corpus (perfbench/gen.py:
5,000 facts, Zipf vocabulary, multi-hop gold chains, an external scores file
and word vectors), then runs one workload's CLI commands one after another,
each in a fresh ``explainrank`` subprocess with default flags (a closed loop
with one client), and repeats the whole sequence until ``--seconds`` have
passed. Every output is checked and hashed; a command counts as failed if it
exits non-zero, fails a check, or writes bytes that differ from the other
runs of the same seed and source tree.

Workloads (the question count is each one's run-length knob):

- lexical:  rank (TF-IDF) -> evaluate --predictions. Exercises vectorising,
  lexical scoring, the scores writer, initial ranking and MAP; never
  re-ranks or prepares datasets.
- external: rerank --scores --depth 15 -> evaluate --predictions ->
  evaluate --scores --sweep 1,3,5,10,15,20,30. The paper's setup: external
  relevance, the scores reader, normalisation, re-ranking and the depth
  sweep; never scores lexically.
- prepare:  prepare --task all --vectors. Hard-negative sampling for four
  dataset variants on the dense word-vector backend; nothing is scored,
  ranked or evaluated.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_s (mean time of one command sequence) and questions_per_s (questions
over wall_s), setup_s (mean of in-process load_corpus plus provider builds,
sampled between repeats) and peak_rss_mb (median over repeats of the highest
peak RSS of any command, written by perfbench/entry.py at exit). The three
times are host-speed-normalised: divided by how much slower than nominal a
reference loop ran, timed in slices before every command over the same
run (perfbench/hostclock.py). The measured times and the loop's slices are
in the results file under ``host``. With ``--trace 1`` the untraced
sequence alternates with a traced one (perfbench/trace_cli.py puts a span
around every layer call the CLI makes), an in-process probe pass calls the
layer functions the workload's commands do not reach on the first
PROBE_QUESTIONS questions, and the last line reports per-layer metrics: self
time per ``<module>.<function>`` span, work counts, the CLI's unaccounted
time and the tracing overhead.

Everything the run writes stays under .perfbench/ in the repository root:
inputs, outputs, command logs, and one results JSON per run recording input
sizes, generation time, the environment, per-command times, MAP values,
output digests and (traced) every span.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from hostclock import NOMINAL_S, HostClock

START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# a run must end within 180 s; no command starts after this point
HARD_LIMIT_S = 160.0
SETUP_REPEATS = 4  # set-up samples before the first repeat and after each
STARTUP_REPEATS = 3
PROBE_QUESTIONS = 10
NEGATIVE_PROBES = 20
DEPTH = 15
SWEEP = (1, 3, 5, 10, 15, 20, 30)
NEGATIVES_PER_GOLD = 7  # the CLI's default --k
VARIANTS = (
    ("classification", False),
    ("classification", True),
    ("regression", False),
    ("regression", True),
)


def variant_name(task: str, with_context: bool) -> str:
    return f"{task}{'_context' if with_context else ''}"


DATASETS = tuple(f"dataset_{variant_name(*variant)}.tsv" for variant in VARIANTS)
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ENTRY = str(BENCH_DIR / "entry.py")  # the console script, plus a peak-RSS exit hook

# questions per workload, sized so one command sequence takes a few seconds
QUESTIONS = {"lexical": 50, "external": 20, "prepare": 10}

E2E_UNITS = {"questions_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "corpus.load_corpus_s": "s",
    "textsim.default_provider_s": "s",
    "textsim.load_dense_s": "s",
    "textsim.vocab_terms": "count",
    "textsim.fact_vectors_s": "s",
    "scorer.score_lexical_s": "s",
    "scorer.pairs_scored": "count",
    "scorer.pairs_per_s": "1/s",
    "scorer.write_scores_s": "s",
    "scorer.scores_mb": "MB",
    "scorer.load_scores_s": "s",
    "scorer.load_scores_mb_per_s": "MB/s",
    "scorer.all_rankings_s": "s",
    "scorer.normalize_s": "s",
    "rerank.rerank_all_s": "s",
    "rerank.upkeep_s": "s",
    "rerank.rounds": "count",
    "rerank.candidates": "count",
    "rerank.us_per_candidate": "us",
    "rerank.depth_sweep_s": "s",
    "rerank.sweep_upkeep_share": "ratio",
    "evaluation.write_predictions_s": "s",
    "evaluation.read_predictions_s": "s",
    "evaluation.evaluate_rankings_s": "s",
    **{f"dataprep.build_dataset_s.{variant_name(*variant)}": "s" for variant in VARIANTS},
    "dataprep.write_dataset_s": "s",
    "dataprep.examples": "count",
    "dataprep.gold_facts": "count",
    "dataprep.sample_negatives_us": "us",
    "cli.startup_s": "s",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """No result can be measured (no program here, no complete traced run)."""


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload and the files it writes under out/."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def workload_steps(workload: str, inputs: dict, out: Path) -> list[Step]:
    common = ("--facts", *inputs["tables"], "--questions", inputs["questions"], "--out", str(out))
    evaluate_kv = ("eval_report.txt", "eval_report.kv")
    if workload == "lexical":
        return [
            Step("rank", ("rank", *common), ("scores.tsv", "predictions.tsv")),
            Step(
                "evaluate",
                ("evaluate", *common, "--predictions", str(out / "predictions.tsv")),
                evaluate_kv,
            ),
        ]
    if workload == "external":
        sweep = ",".join(str(d) for d in SWEEP)
        return [
            Step(
                "rerank",
                ("rerank", *common, "--scores", inputs["scores"], "--depth", str(DEPTH)),
                ("reranked_predictions.tsv",),
            ),
            Step(
                "evaluate",
                ("evaluate", *common, "--predictions", str(out / "reranked_predictions.tsv")),
                evaluate_kv,
            ),
            Step(
                "sweep",
                ("evaluate", *common, "--scores", inputs["scores"], "--sweep", sweep),
                ("depth_sweep.tsv",),
            ),
        ]
    return [
        Step(
            "prepare",
            ("prepare", *common, "--task", "all", "--vectors", inputs["vectors"]),
            (*DATASETS, "dataset_stats.txt"),
        )
    ]


# ---------------------------------------------------------------- inputs


def prepare_inputs(workload: str, seed: int) -> dict:
    """Generate this workload's inputs for the seed, reusing a matching set."""
    import gen

    directory = WORK / workload / "inputs"
    marker = directory / "inputs.json"
    gen_sha = hashlib.sha256((BENCH_DIR / "gen.py").read_bytes()).hexdigest()
    key = {"seed": seed, "questions": QUESTIONS[workload], "generator_sha256": gen_sha}
    if marker.is_file():
        cached = json.loads(marker.read_text(encoding="utf-8"))
        if cached["key"] == key:
            cached["cached"] = True
            return cached
    shutil.rmtree(directory, ignore_errors=True)
    started = time.perf_counter()
    info = gen.generate(seed, QUESTIONS[workload], directory)
    info["generate_s"] = time.perf_counter() - started
    info["key"] = key
    marker.write_text(json.dumps(info, indent=1), encoding="utf-8")
    info["cached"] = False
    return info


@dataclass
class Reference:
    """What the checks compare outputs against, read from the inputs alone."""

    fact_text: dict[str, str]
    text_uid: dict[str, str]
    gold: dict[str, list[str]]  # qid -> gold uids, questions in file order
    initial_map: float | None = None


def read_reference(inputs: dict, with_scores: bool) -> Reference:
    fact_text: dict[str, str] = {}
    for path in inputs["tables"]:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        uid_col = next(i for i, h in enumerate(header) if "UID" in h)
        content = [i for i, h in enumerate(header) if "SKIP" not in h]
        for row in lines[1:]:
            cells = row.split("\t")
            fact_text[cells[uid_col]] = " ".join(w for i in content for w in cells[i].split())
    gold: dict[str, list[str]] = {}
    with open(inputs["questions"], encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        qid_col, expl_col = header.index("QuestionID"), header.index("explanation")
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            gold[cells[qid_col]] = [tok.rpartition("|")[0] for tok in cells[expl_col].split()]
    ref = Reference(fact_text, {text: uid for uid, text in fact_text.items()}, gold)
    if with_scores:
        by_qid: dict[str, list[tuple[float, str]]] = {}
        with open(inputs["scores"], encoding="utf-8") as fh:
            for line in fh:
                qid, uid, score = line.rstrip("\n").split("\t")
                by_qid.setdefault(qid, []).append((-float(score), uid))
        ref.initial_map = mean_ap({q: [u for _, u in sorted(v)] for q, v in by_qid.items()}, gold)
    return ref


def mean_ap(ranked: dict[str, list[str]], gold: dict[str, list[str]]) -> float:
    """MAP over annotated questions, summed in question-file order so the
    result is bit-identical to a correct implementation of the README's AP."""
    total = 0.0
    count = 0
    for qid, uids in gold.items():
        if not uids:
            continue
        relevant = set(uids)
        hits = 0
        acc = 0.0
        for position, uid in enumerate(ranked[qid], start=1):
            if uid in relevant:
                hits += 1
                acc += hits / position
        total += acc / len(relevant)
        count += 1
    return total / count


# ---------------------------------------------------------------- checks


def read_predictions(path: Path, ref: Reference) -> tuple[dict[str, list[str]], list[str]]:
    """Per-question uid lists, plus problems if any is not a full permutation."""
    ranked: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                return ranked, [f"{path.name} line {lineno}: not qid<TAB>fact_uid"]
            ranked.setdefault(fields[0], []).append(fields[1])
    problems = []
    if list(ranked) != list(ref.gold):
        problems.append(f"{path.name}: questions differ from the question file")
    uids = set(ref.fact_text)
    bad = [q for q, u in ranked.items() if len(u) != len(uids) or set(u) != uids]
    if bad:
        problems.append(f"{path.name}: {len(bad)} question(s) not a permutation of all facts")
    return ranked, problems


def report_map(out: Path) -> str | None:
    kv_path = out / "eval_report.kv"
    for line in kv_path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key == "map_overall":
            return value
    return None


def check_map(out: Path, predictions: str, ref: Reference, problems: dict, maps: dict) -> None:
    """evaluate's map_overall must equal our own MAP of the predictions, bit for bit."""
    ranked, bad = read_predictions(out / predictions, ref)
    producer = "rank" if predictions == "predictions.tsv" else "rerank"
    problems[producer].extend(bad)
    if bad:
        return
    own = mean_ap(ranked, ref.gold)
    maps["map"] = own
    reported = report_map(out)
    maps["reported_map"] = reported
    if reported != repr(own):
        problems["evaluate"].append(f"eval_report.kv map_overall={reported}, expected {own!r}")


def check_outputs(workload: str, steps: list[Step], out: Path, ref: Reference) -> tuple[dict, dict]:
    """Problems per step name, and the MAP values read or computed."""
    problems: dict[str, list[str]] = {step.name: [] for step in steps}
    maps: dict[str, object] = {}
    for step in steps:
        missing = [name for name in step.outputs if not (out / name).is_file()]
        if missing:
            problems[step.name].append(f"missing output(s): {', '.join(missing)}")
    if any(problems.values()):
        return problems, maps
    if workload == "lexical":
        lines = (out / "scores.tsv").read_bytes().count(b"\n")
        if lines != len(ref.gold) * len(ref.fact_text):
            problems["rank"].append(f"scores.tsv has {lines} lines, expected full coverage")
        check_map(out, "predictions.tsv", ref, problems, maps)
    elif workload == "external":
        check_map(out, "reranked_predictions.tsv", ref, problems, maps)
        rows = (out / "depth_sweep.tsv").read_text(encoding="utf-8").splitlines()[1:]
        sweep = dict(row.split("\t", 1) for row in rows if "\t" in row)
        maps["sweep"] = sweep
        maps["initial_map"] = ref.initial_map
        if list(sweep) != [str(d) for d in SWEEP]:
            problems["sweep"].append(f"depth_sweep.tsv depths {list(sweep)}")
        elif sweep["1"] != f"{ref.initial_map:.6f}":
            problems["sweep"].append(
                f"depth 1 MAP {sweep['1']} differs from the initial ranking's {ref.initial_map:.6f}"
            )
        elif "map" in maps and sweep[str(DEPTH)] != f"{maps['map']:.6f}":
            problems["sweep"].append(
                f"depth {DEPTH} MAP {sweep[str(DEPTH)]} differs from rerank's {maps['map']:.6f}"
            )
    else:
        problems["prepare"].extend(check_datasets(out, ref))
    return problems, maps


def check_datasets(out: Path, ref: Reference) -> list[str]:
    problems = []
    gold_sets = {qid: set(uids) for qid, uids in ref.gold.items()}
    n_gold = sum(len(uids) for uids in ref.gold.values())
    for name, (_, with_context) in zip(DATASETS, VARIANTS):
        positives = negatives = 0
        with open(out / name, encoding="utf-8") as fh:
            fh.readline()
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 6 or fields[0] not in gold_sets:
                    problems.append(f"{name} line {lineno}: malformed row")
                    break
                qid, _, _, candidate, label, role = fields
                if label not in ("0.0", "0"):
                    positives += 1
                    continue
                negatives += 1
                uid = ref.text_uid.get(candidate)
                if role or uid is None or uid in gold_sets[qid]:
                    problems.append(f"{name}: bad negative {candidate[:40]!r} for {qid}")
                    break
        if positives != negatives:
            problems.append(f"{name}: {positives} positives vs {negatives} negatives")
        if not with_context and positives + negatives != 2 * NEGATIVES_PER_GOLD * n_gold:
            problems.append(f"{name}: {positives + negatives} examples for {n_gold} gold facts")
    stats = (out / "dataset_stats.txt").read_text(encoding="utf-8").splitlines()
    if stats.count("balance (pos:neg): 1.0000") != len(DATASETS):
        problems.append("dataset_stats.txt: a variant's balance is not 1.0")
    return problems


def digests(out: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


# ---------------------------------------------------------------- running


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log_path: Path, peak_path: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one subprocess that
    writes its peak RSS to ``peak_path`` at exit (entry.py, trace_cli.py).

    The child is killed when the run's hard limit comes, so the benchmark
    always ends in time; a killed child reports a negative exit code.
    """
    peak_path.unlink(missing_ok=True)
    remaining = START + HARD_LIMIT_S + 10.0 - time.perf_counter()
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )

        def on_alarm(signum, frame):
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(remaining, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        peak_mb = int(peak_path.read_text(encoding="ascii")) / 1024.0
    except (OSError, ValueError):  # no exit hook ran: wait4's figure, an upper bound
        peak_mb = usage.ru_maxrss / 1024.0
    return proc.returncode, wall, peak_mb


def run_sequence(steps: list[Step], out: Path, traced: bool, clock: HostClock | None) -> dict:
    """Run the workload's commands back to back, keeping the host clock's
    reference loop up with them before each if ``clock`` is given; outputs
    are checked later."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs = out.parent / "logs"
    logs.mkdir(exist_ok=True)
    record: dict = {"traced": traced, "commands": {}, "spans": {}}
    for step in steps:
        if clock is not None:
            clock.keep_up()
        spans_path = logs / f"{step.name}.spans.json"
        peak_path = logs / f"{step.name}.peak"
        spans_path.unlink(missing_ok=True)
        if traced:
            script = [str(BENCH_DIR / "trace_cli.py"), str(spans_path)]
        else:
            script = [ENTRY]
        argv = [sys.executable, *script, str(peak_path), *step.argv]
        code, wall, rss = run_child(argv, logs / f"{step.name}.log", peak_path)
        record["commands"][step.name] = {"exit": code, "wall_s": wall, "peak_rss_mb": rss}
        if clock is not None:
            clock.program_s += wall
        if traced and code == 0:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans[0]["name"] = f"cmd.{step.name}"
            record["spans"][step.name] = spans
    record["wall_s"] = sum(c["wall_s"] for c in record["commands"].values())
    record["peak_rss_mb"] = max(c["peak_rss_mb"] for c in record["commands"].values())
    record["digests"] = digests(out)
    return record


class Outcome:
    """Attempted and failed command counts, with the reason for each failure."""

    def __init__(self, workload: str, steps: list[Step], out: Path, ref: Reference, key: str):
        self.workload, self.steps, self.out, self.ref = workload, steps, out, ref
        self.attempted = 0
        self.failures: list[str] = []
        self.checked: dict[tuple, tuple[dict, dict]] = {}
        self.maps: dict = {}
        self.store = WORK / "digests.json"
        self.key = key
        known = json.loads(self.store.read_text(encoding="utf-8")) if self.store.is_file() else {}
        self.expected: dict[str, str] | None = known.get(self.key)

    def account(self, record: dict) -> None:
        """Count each command of one finished sequence, checking its outputs."""
        got = record["digests"]
        fingerprint = tuple(sorted(got.items()))
        if fingerprint not in self.checked:
            self.checked[fingerprint] = check_outputs(self.workload, self.steps, self.out, self.ref)
        problems, maps = self.checked[fingerprint]
        self.maps = self.maps or maps
        clean = True
        for step in self.steps:
            self.attempted += 1
            reasons = list(problems[step.name])
            code = record["commands"][step.name]["exit"]
            if code != 0:
                reasons.append(f"exit code {code}")
            if self.expected is not None:
                changed = [n for n in step.outputs if got.get(n) != self.expected.get(n)]
                if changed:
                    reasons.append(f"bytes differ from other runs of this seed: {changed}")
            if reasons:
                clean = False
                self.failures.append(f"{step.name}: {'; '.join(reasons)}")
        if self.expected is None and clean:
            self.expected = got
            known = json.loads(self.store.read_text(encoding="utf-8")) if self.store.is_file() else {}
            known[self.key] = got
            self.store.write_text(json.dumps(known, indent=1), encoding="utf-8")


def measure(steps: list[Step], outcome: Outcome, seconds: float, traced: bool,
            clock: HostClock | None = None, between=lambda: None) -> list[dict]:
    """Repeat the sequence until ``seconds`` pass, calling ``between`` after
    each repeat; in traced mode each repeat is an untraced sequence followed
    by a traced one."""
    records: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in (False, True) if traced else (False,):
            record = run_sequence(steps, outcome.out, mode, clock)
            outcome.account(record)
            records.append(record)
        between()
        now = time.perf_counter()
        last = now - round_start
        if now - loop_start + last > seconds or now + last > START + HARD_LIMIT_S:
            return records


# ---------------------------------------------------------------- metrics


def median(values) -> float:
    return statistics.median(list(values))


def setup_times(workload: str, inputs: dict) -> list[float]:
    """In-process cost every command pays before it works: corpus load plus
    the provider build (TF-IDF, or word vectors for prepare)."""
    from explainrank import default_provider, load_corpus, load_dense

    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        corpus = load_corpus(inputs["tables"], inputs["questions"])
        if workload == "prepare":
            load_dense(inputs["vectors"])
        else:
            default_provider(corpus)
        times.append(time.perf_counter() - started)
    return times


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for lo, hi in sorted(children.get(index, [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        name = span["name"]
        if name == "dataprep.build_dataset" and "task" in span["tags"]:
            tags = span["tags"]
            name += "." + variant_name(tags["task"], tags.get("with_context", False))
        totals[name] = totals.get(name, 0.0) + span["end"] - span["start"] - covered
    return totals


class Recorder:
    """In-process spans for the probe pass, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str, /, **tags):
        span = {"name": name, "parent": self.stack[-1] if self.stack else None, "tags": tags}
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()


def probe(workload: str, inputs: dict, seed: int, directory: Path) -> tuple[list[dict], dict]:
    """Call every layer function once on the first PROBE_QUESTIONS questions.

    Supplies the per-layer numbers the workload's own commands cannot: the
    functions they never call, the depth-1 re-ranking upkeep, re-ranking
    round counts from the returned traces, and direct negative sampling.
    Each group starts from a fresh provider, as each CLI command does.
    """
    import explainrank as er

    logging.getLogger("explainrank").setLevel(logging.ERROR)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    rec = Recorder()
    counts: dict[str, float] = {}
    corpus = er.load_corpus(inputs["tables"], inputs["questions"])
    sample = er.Corpus(facts=corpus.facts, questions=corpus.questions[:PROBE_QUESTIONS])

    def provider():
        if workload == "prepare":
            return er.load_dense(inputs["vectors"])
        return er.default_provider(corpus)

    with rec.span("cmd.probe"):
        with rec.span("textsim.default_provider"):
            er.default_provider(corpus)
        with rec.span("textsim.load_dense"):
            er.load_dense(inputs["vectors"])
        fresh = provider()
        with rec.span("textsim.fact_vectors"):
            er.fact_vectors(corpus, fresh)

        fresh = provider()
        with rec.span("scorer.score_lexical"):
            table = er.score_lexical(sample, fresh)
        scores_path = directory / "scores.tsv"
        with rec.span("scorer.write_scores"):
            er.write_scores(table, scores_path)
        counts["pairs_scored"] = scores_path.read_bytes().count(b"\n")
        counts["scores_mb"] = scores_path.stat().st_size / 1e6
        if workload == "external":  # re-rank the external model's scores
            wanted = len(sample.questions) * len(corpus.facts)
            with open(inputs["scores"], "rb") as src, open(scores_path, "wb") as dst:
                dst.writelines(line for _, line in zip(range(wanted), src))
        counts["load_scores_mb"] = scores_path.stat().st_size / 1e6
        with rec.span("scorer.load_scores"):
            table = er.load_scores(scores_path, sample)
        with rec.span("scorer.normalize"):
            er.normalize(table)
        with rec.span("scorer.all_rankings"):
            er.all_rankings(table)

        fresh = provider()
        er.fact_vectors(corpus, fresh)  # vectorise outside both timings alike
        with rec.span("rerank.upkeep"):
            er.rerank_all(sample, fresh, table, er.RerankConfig(depth=1))
        with rec.span("rerank.rerank_all"):
            rankings, traces = er.rerank_all(
                sample, fresh, table, er.RerankConfig(depth=DEPTH), want_trace=True
            )
        counts["rounds"] = sum(len(t.rounds) for t in traces.values())
        counts["candidates"] = sum(len(r.candidates) for t in traces.values() for r in t.rounds)
        with rec.span("rerank.depth_sweep"):
            er.depth_sweep(sample, fresh, table, SWEEP)

        predictions = directory / "predictions.tsv"
        with rec.span("evaluation.write_predictions"):
            er.write_predictions(rankings, predictions)
        with rec.span("evaluation.read_predictions"):
            ranked = er.read_predictions(predictions)
        with rec.span("evaluation.evaluate_rankings"):
            er.evaluate_rankings(ranked, sample)

        fresh = provider()
        counts["examples"] = 0
        for (task, with_context), name in zip(VARIANTS, DATASETS):
            config = er.PrepConfig(task=task, with_context=with_context)
            with rec.span("dataprep.build_dataset", task=task, with_context=with_context):
                examples = er.build_dataset(sample, fresh, config)
            with rec.span("dataprep.write_dataset"):
                er.write_dataset(examples, directory / name)
            counts["examples"] += len(examples)
        counts["gold_facts"] = sum(len(q.gold) for q in sample.questions)

        gold = sorted({(q.qid, uid) for q in corpus.questions for uid, _ in q.gold})
        by_qid = corpus.question_index()
        chosen = random.Random(seed).sample(gold, min(NEGATIVE_PROBES, len(gold)))
        calls = []
        for qid, uid in chosen:
            with rec.span("dataprep.sample_negatives") as span:
                er.sample_negatives(uid, by_qid[qid].gold_uid_set, corpus, fresh, NEGATIVES_PER_GOLD)
            calls.append(span["end"] - span["start"])
        counts["sample_negatives_s"] = median(calls)

        texts = [f.text for f in corpus.facts.values()] + [er.qa_text(q) for q in corpus.questions]
        counts["vocab_terms"] = len({t for text in texts for t in er.tokenize(text, drop_stopwords=True)})
    return rec.spans, counts


def startup_times() -> list[float]:
    """Wall time of ``explainrank --help``: interpreter, imports, parser."""
    times = []
    for _ in range(STARTUP_REPEATS):
        peak_path = WORK / "startup.peak"
        argv = [sys.executable, ENTRY, str(peak_path), "--help"]
        code, wall, _ = run_child(argv, WORK / "startup.log", peak_path)
        if code != 0:
            raise BenchError(f"explainrank --help exited {code}; see {WORK / 'startup.log'}")
        times.append(wall)
    return times


def layer_metrics(records: list[dict], inputs: dict, out: Path,
                  probe_spans: list[dict], counts: dict, startup: list[float]
                  ) -> tuple[dict, dict, dict]:
    """Per-layer metric values, where each was measured, and each command's
    unaccounted time (its wall time minus its layer spans).

    A function the workload's commands call is measured there (median over
    the traced repeats of its summed self time); any other comes from the
    probe pass, so every metric exists on every workload.
    """
    traced = [r for r in records if r["traced"] and len(r["spans"]) == len(r["commands"])]
    plain = [r for r in records if not r["traced"]]
    per_repeat = []
    unaccounted: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    for record in traced:
        totals: dict[str, float] = {}
        for step, spans in record["spans"].items():
            for name, value in self_times(spans).items():
                totals[name] = totals.get(name, 0.0) + value
            for span in spans[1:]:
                calls[span["name"]] = calls.get(span["name"], 0) + 1
            covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
            missing = record["commands"][step]["wall_s"] - covered
            unaccounted.setdefault(step, []).append(missing)
        per_repeat.append(totals)
    cmd = {name: median(t.get(name, 0.0) for t in per_repeat) for name in per_repeat[0]}
    calls = {name: n // len(traced) for name, n in calls.items()}
    prb = self_times(probe_spans)
    values: dict[str, float] = {}
    sources: dict[str, str] = {}

    def take(metric: str, function: str) -> float:
        source, table = ("cmd", cmd) if function in cmd else ("probe", prb)
        values[metric] = table[function]
        sources[metric] = source
        return values[metric]

    take("corpus.load_corpus_s", "corpus.load_corpus")
    take("textsim.default_provider_s", "textsim.default_provider")
    take("textsim.load_dense_s", "textsim.load_dense")
    values["textsim.vocab_terms"] = counts["vocab_terms"]
    take("textsim.fact_vectors_s", "textsim.fact_vectors")

    score_s = take("scorer.score_lexical_s", "scorer.score_lexical")
    take("scorer.write_scores_s", "scorer.write_scores")
    if sources["scorer.write_scores_s"] == "cmd":
        scores = out / "scores.tsv"
        values["scorer.pairs_scored"] = scores.read_bytes().count(b"\n")
        values["scorer.scores_mb"] = scores.stat().st_size / 1e6
    else:
        values["scorer.pairs_scored"] = counts["pairs_scored"]
        values["scorer.scores_mb"] = counts["scores_mb"]
    values["scorer.pairs_per_s"] = values["scorer.pairs_scored"] / score_s
    load_s = take("scorer.load_scores_s", "scorer.load_scores")
    if sources["scorer.load_scores_s"] == "cmd":
        loaded_mb = inputs["sizes"]["scores_mb"] * calls["scorer.load_scores"]
    else:
        loaded_mb = counts["load_scores_mb"]
    values["scorer.load_scores_mb_per_s"] = loaded_mb / load_s
    take("scorer.all_rankings_s", "scorer.all_rankings")
    take("scorer.normalize_s", "scorer.normalize")

    take("rerank.rerank_all_s", "rerank.rerank_all")
    upkeep = take("rerank.upkeep_s", "rerank.upkeep")
    values["rerank.rounds"] = counts["rounds"]
    values["rerank.candidates"] = counts["candidates"]
    greedy = prb["rerank.rerank_all"] - upkeep
    values["rerank.us_per_candidate"] = greedy / max(counts["candidates"], 1) * 1e6
    take("rerank.depth_sweep_s", "rerank.depth_sweep")
    values["rerank.sweep_upkeep_share"] = len(SWEEP) * upkeep / prb["rerank.depth_sweep"]

    take("evaluation.write_predictions_s", "evaluation.write_predictions")
    take("evaluation.read_predictions_s", "evaluation.read_predictions")
    take("evaluation.evaluate_rankings_s", "evaluation.evaluate_rankings")

    for task, with_context in VARIANTS:
        variant = variant_name(task, with_context)
        take(f"dataprep.build_dataset_s.{variant}", f"dataprep.build_dataset.{variant}")
    take("dataprep.write_dataset_s", "dataprep.write_dataset")
    if sources["dataprep.write_dataset_s"] == "cmd":
        values["dataprep.examples"] = sum(
            (out / name).read_bytes().count(b"\n") - 1 for name in DATASETS
        )
        values["dataprep.gold_facts"] = inputs["sizes"]["gold_facts"]
    else:
        values["dataprep.examples"] = counts["examples"]
        values["dataprep.gold_facts"] = counts["gold_facts"]
    values["dataprep.sample_negatives_us"] = counts["sample_negatives_s"] * 1e6
    sources["dataprep.sample_negatives_us"] = "probe"

    values["cli.startup_s"] = median(startup)
    values["cli.unaccounted_s"] = median(map(sum, zip(*unaccounted.values())))
    values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(
        r["wall_s"] for r in plain
    )
    return values, sources, {step: median(v) for step, v in unaccounted.items()}


# ---------------------------------------------------------------- entry point


def environment(src_sha: str) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no git metadata
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": src_sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def source_sha() -> str:
    package = SRC / "explainrank"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no explainrank package under {SRC}: nothing to measure")
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(args: argparse.Namespace) -> dict:
    src_sha = source_sha()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    WORK.mkdir(exist_ok=True)
    workload, traced = args.workload, bool(args.trace)
    inputs = prepare_inputs(workload, args.seed)
    out = WORK / workload / "out"
    steps = workload_steps(workload, inputs, out)
    ref = read_reference(inputs, with_scores=workload == "external")
    # same inputs and same program source must give the same bytes
    key = json.dumps({"inputs": inputs["key"], "src_sha256": src_sha}, sort_keys=True)
    outcome = Outcome(workload, steps, out, ref, key)

    result: dict = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(src_sha),
        "inputs": {
            "sizes": inputs["sizes"],
            "generate_s": inputs["generate_s"],
            "reused": inputs["cached"],
        },
    }
    if traced:
        startup = startup_times()
        records = measure(steps, outcome, args.seconds, traced=True)
        probe_spans, counts = probe(workload, inputs, args.seed, WORK / workload / "probe")
        if not any(r["traced"] and len(r["spans"]) == len(steps) for r in records):
            raise BenchError("every traced sequence had a failed command; no per-layer numbers")
        values, sources, unaccounted = layer_metrics(
            records, inputs, out, probe_spans, counts, startup
        )
        metrics = {name: {"value": values[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
        result["metric_sources"] = sources
        result["unaccounted_s_by_command"] = unaccounted
        result["probe_spans"] = probe_spans
    else:
        # spread the set-up samples over the run, as the repeats are; the
        # host clock ticks before every command, so it samples the same
        # stretch of time as the commands and the set-up do
        clock = HostClock()
        setup = setup_times(workload, inputs)
        records = measure(
            steps, outcome, args.seconds, traced=False, clock=clock,
            between=lambda: setup.extend(setup_times(workload, inputs)),
        )
        # ratios of sums: a slow stretch of the host weighs the same in the
        # program's time and in the reference loop's
        factor = clock.factor()
        wall = statistics.fmean(r["wall_s"] for r in records) / factor
        values = {
            "questions_per_s": QUESTIONS[workload] / wall,
            "wall_s": wall,
            "setup_s": statistics.fmean(setup) / factor,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
        }
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
        result["host"] = {
            "nominal_slice_s": NOMINAL_S,
            "factor": factor,
            "slices_s": clock.slices,
            "measured_wall_s": {
                "mean": statistics.fmean(r["wall_s"] for r in records),
                "median": median(r["wall_s"] for r in records),
            },
            "measured_setup_s": {"mean": statistics.fmean(setup), "median": median(setup)},
        }
        result["setup_s_samples"] = setup

    plain = [r for r in records if not r["traced"]]
    result["commands"] = {
        step.name: {
            "median_wall_s": median(r["commands"][step.name]["wall_s"] for r in plain),
            "median_peak_rss_mb": median(r["commands"][step.name]["peak_rss_mb"] for r in plain),
        }
        for step in steps
    }
    result["repeats"] = records
    result["maps"] = outcome.maps
    result["digests"] = outcome.expected
    result["failures"] = outcome.failures
    result["failed_ratio"] = len(outcome.failures) / outcome.attempted
    result["metrics"] = metrics
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{workload:9} {name:36} {metric['value']:14.6f} {metric['unit']}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    print(f"results: {path.relative_to(ROOT)}")
    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*QUESTIONS, "all"],
        help="one workload, or all of them in turn (metrics then named <workload>.<metric>)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(QUESTIONS) if args.workload == "all" else [args.workload]
    summaries = {}
    try:
        for workload in workloads:
            summaries[workload] = run(argparse.Namespace(**{**vars(args), "workload": workload}))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        summary = summaries[args.workload]
    else:
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, s in summaries.items()
                for name, metric in s["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
