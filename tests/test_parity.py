"""Byte-level parity of every CLI output file against pinned sha256 digests.

The digests in parity_digests.json were recorded from the pipeline's output
on the synthetic corpora below; any change to a single output byte (a score's
last bit, a tie-break, a trace line) fails this test and names the file.

The dense word vectors are integer multiples of 420 = lcm(1..7): every text
here has at most 7 tokens, so every sentence mean, dot product and squared
norm is an exact integer and the dense outputs do not depend on the BLAS
build or the CPU that runs them.

Regenerate the pinned file (only after deciding that a change of output is
intended) with:  PYTHONPATH=src python tests/test_parity.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import explainrank
from explainrank.cli import main
from explainrank.corpus import CENTRAL, Question
from explainrank.dataprep import sample_negatives
from explainrank.textsim import load_dense, tokenize

from synth import chain_corpus, corpus_of, random_corpus, write_corpus_files

DIGESTS = Path(__file__).with_name("parity_digests.json")
SRC = str(Path(explainrank.__file__).resolve().parent.parent)
VECTOR_DIM = 6


def parity_corpora() -> dict[str, Corpus]:
    return {
        "random": random_corpus(n_questions=8, n_facts=40, seed=90, gold_range=(1, 4)),
        "chain": chain_corpus(n_questions=4),
    }


def write_exact_vectors(corpus: Corpus, path: Path, seed: int = 5) -> None:
    """word2vec text vectors for every token of the corpus, components in
    420 * {-3..3} so all dense arithmetic on them is exact."""
    texts = [f.text for f in corpus.facts.values()]
    for q in corpus.questions:
        texts.append(q.stem)
        texts.extend(q.choices.values())
    vocab = sorted({t for text in texts for t in tokenize(text)})
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vocab)} {VECTOR_DIM}\n")
        for word in vocab:
            values = [420 * rng.randint(-3, 3) for _ in range(VECTOR_DIM)]
            fh.write(word + " " + " ".join(str(v) for v in values) + "\n")


def corpus_argv(corpus: Corpus, directory: Path, dense: bool) -> list[str]:
    """Writes the corpus (and, if dense, its vectors) under directory and
    returns the flags that read them."""
    facts, questions = write_corpus_files(corpus, directory / "data")
    base = ["--facts", *map(str, facts), "--questions", str(questions)]
    if dense:
        vectors = directory / "vectors.txt"
        write_exact_vectors(corpus, vectors)
        base += ["--vectors", str(vectors)]
    return base


def pipeline_steps(out: Path) -> list[list]:
    """rank (tfidf, overlap), rerank with traces (own and external scores),
    evaluate predictions, evaluate a depth sweep, prepare all four datasets;
    each step writes to its own directory under out, named by its last value."""
    return [
        ["rank", "--out", out / "rank"],
        ["rank", "--method", "overlap", "--out", out / "overlap"],
        ["rerank", "--depth", 15, "--trace", "--out", out / "rerank"],
        ["rerank", "--scores", out / "overlap" / "scores.tsv", "--depth", 4, "--trace",
         "--out", out / "rerank_external"],
        ["evaluate", "--predictions", out / "rerank_external" / "reranked_predictions.tsv",
         "--out", out / "evaluate"],
        ["evaluate", "--scores", out / "overlap" / "scores.tsv", "--sweep", "1,2,3,5,10",
         "--out", out / "sweep"],
        ["prepare", "--task", "all", "--k", 3, "--m", 2, "--out", out / "prepare"],
    ]


def run_pipeline(corpus: Corpus, directory: Path, dense: bool) -> Path:
    base = corpus_argv(corpus, directory, dense)
    out = directory / "out"
    for command, *args in pipeline_steps(out):
        code = main([command, *base, *map(str, args)])
        assert code == 0, (command, args)
    return out


def digests_under(out: Path, prefix: str) -> dict[str, str]:
    return {
        f"{prefix}/{path.relative_to(out).as_posix()}":
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in out.rglob("*") if p.is_file())
    }


def output_digests(root: Path) -> dict[str, str]:
    digests = {}
    for name, corpus in parity_corpora().items():
        for mode in ("tfidf", "dense"):
            out = run_pipeline(corpus, root / name / mode, dense=mode == "dense")
            digests.update(digests_under(out, f"{name}/{mode}"))
    return digests


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = output_digests(tmp_path)
    assert sorted(got) == sorted(pinned), "set of output files changed"
    changed = [key for key in pinned if got[key] != pinned[key]]
    assert not changed, f"{len(changed)} output file(s) changed: {changed[:10]}"


# the CLI as the console script runs it: explainrank.cli is the process's first
# import of numpy, so the CLI's own BLAS thread setting applies
CLI = "import sys; from explainrank.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("blas_threads", [None, "2"], ids=["cli-default", "user-set-2"])
def test_dense_prepare_and_rank_in_fresh_cli_match_pinned_digests(blas_threads, tmp_path):
    """prepare's negative filter is the CLI's only BLAS product; run in a
    fresh process, on the thread count the CLI picks and on one the user set,
    it gives the pinned bytes."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    for name, corpus in parity_corpora().items():
        base = corpus_argv(corpus, tmp_path / name, dense=True)
        out = tmp_path / name / "out"
        for command, *args in pipeline_steps(out):
            if args[-1].name in ("rank", "prepare"):
                subprocess.run([sys.executable, "-c", CLI, command, *base, *map(str, args)],
                               env=env, check=True, capture_output=True)
        got = digests_under(out, f"{name}/dense")
        assert sorted(got) == sorted(key for key in pinned if key.startswith(
            (f"{name}/dense/rank/", f"{name}/dense/prepare/")))
        changed = [key for key in got if got[key] != pinned[key]]
        assert not changed, f"{len(changed)} output file(s) changed: {changed}"


def test_dense_identical_texts_tie_break_by_uid(tmp_path):
    """Two facts with the same text get the same dense row and so identical
    scores; the initial ranking and the negative sampler order them by uid."""
    facts = {"F3": "frogs eat insects", "F1": "frogs eat insects", "F2": "rocks are hard",
             "F0": "insects fly"}
    question = Question("Q1", "what do frogs eat", {"A": "insects", "B": "rocks"}, "A",
                        (("F0", CENTRAL),))
    corpus = corpus_of(facts, [question])
    facts_paths, questions_path = write_corpus_files(corpus, tmp_path / "data")
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(
        "frogs 0.3 0.1\neat 0.7 0.2\ninsects 0.11 0.9\nrocks -0.5 0.4\nhard 0.2 -0.3\n"
        "fly 0.6 0.6\nwhat 0.05 0.01\ndo 0.02 0.03\nare 0.0 0.1\n",
        encoding="utf-8",
    )
    base = ["--facts", *map(str, facts_paths), "--questions", str(questions_path),
            "--vectors", str(vectors)]
    out = tmp_path / "out"
    assert main(["rank", *base, "--out", str(out)]) == 0
    scores = {}
    for line in (out / "scores.tsv").read_text(encoding="utf-8").splitlines():
        _, uid, value = line.split("\t")
        scores[uid] = value
    assert scores["F1"] == scores["F3"]
    ranked = [line.split("\t")[1] for line in
              (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()]
    assert ranked.index("F1") + 1 == ranked.index("F3")

    negatives = sample_negatives("F0", {"F0"}, corpus, load_dense(vectors), 3)
    assert negatives.index("F1") + 1 == negatives.index("F3")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = output_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} digests to {DIGESTS}", file=sys.stderr)
