"""Peak traced memory of building a score table: load_scores and
score_lexical hold the float64 matrix and little beside it; of loading a
fact table: load_facts keeps columns, not an object per fact; and of
building a dataset: build_dataset keeps columns, not an object per row.
What rankings keep: all_rankings and read_predictions keep an int32 order
per question, not a list of uid references.

numpy registers its data buffers with tracemalloc, so the traced peak
counts the matrix, every temporary array and every Python object made
during the call."""

import random
import sys
import tracemalloc

import numpy as np
import pytest

from explainrank.corpus import load_facts
from explainrank.dataprep import NegativeSampler, PrepConfig, build_dataset
from explainrank.evaluation import read_predictions, write_predictions
from explainrank.scorer import OVERLAP, RelevanceTable, all_rankings, load_scores, score_lexical, write_scores
from explainrank.textsim import default_provider
from synth import WORD_POOL, random_corpus, write_fact_table

N_QUESTIONS, N_FACTS = 300, 400
# the float64 table, one byte per cell while missing pairs are filled, and
# a block of lines or a row of scores at a time
MAX_RATIO = 1.5
# load_facts over the table's bytes: the table's text while it is read, and
# then a uid and a text string, three tuple slots and a dict entry per fact
# (3.77 times the bytes); a dict of one ExplanationFact per fact instead of
# the columns reads 4.24, and 5.16 with the table's text still held
MAX_FACT_TABLE_RATIO = 4.0
# build_dataset per row, with every negative already sampled: a slot in each
# of the six columns (48 bytes) and the lists' spare capacity; the rows of a
# pair block share their strings, tuple and floats. Measured 54 B/row on the
# corpus below and 51-52 on a 300-question slice of the seed-1 perfbench
# corpus; a list of one frozen row object per row, the positive shared within
# its block, reads 83-85 and 82-83
MAX_DATASET_BYTES_PER_ROW = 68
# what all_rankings and read_predictions keep per ranked position: an int32
# index, and per question an array and its dict entry (read back, also the
# spare capacity of the buffer each question's runs were appended to).
# Measured 4.5 and 4.9 B on the corpus below; a list of uid references per
# question keeps 8.3 and 8.7
MAX_RANKING_BYTES_PER_POSITION = 6


def traced(call):
    """call()'s result, the traced peak above what was traced before it,
    and the traced bytes still held above that once it returns."""
    if tracemalloc.is_tracing() or sys.gettrace() is not None:
        pytest.skip("another tracer is running")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - before, held - before
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """call()'s result and the traced peak above what was traced before it."""
    return traced(call)[:2]


@pytest.fixture(scope="module")
def corpus():
    corpus = random_corpus(n_questions=N_QUESTIONS, n_facts=N_FACTS, seed=31)
    assert len(corpus.answerable) == N_QUESTIONS  # built once, outside the traced calls
    return corpus


def test_load_scores_peak_is_about_the_table(corpus, tmp_path):
    rng = np.random.default_rng(31)
    table = RelevanceTable(
        tuple(q.qid for q in corpus.questions), tuple(corpus.facts), rng.normal(size=(N_QUESTIONS, N_FACTS))
    )
    path = tmp_path / "scores.tsv"
    write_scores(table, path)
    # one fact missing per question, so the missing pairs are filled too
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[::N_FACTS]
    path.write_text("".join(lines), encoding="utf-8")
    loaded, peak = traced_peak(lambda: load_scores(path, corpus))
    assert loaded.scores.shape == (N_QUESTIONS, N_FACTS)
    assert peak <= MAX_RATIO * loaded.scores.nbytes, peak / loaded.scores.nbytes


def test_score_lexical_overlap_peak_is_about_the_table(corpus):
    table, peak = traced_peak(lambda: score_lexical(corpus, None, method=OVERLAP))
    assert table.scores.shape == (N_QUESTIONS, N_FACTS)
    assert peak <= MAX_RATIO * table.scores.nbytes, peak / table.scores.nbytes


def test_load_facts_peak_has_no_object_per_fact(tmp_path):
    rng = random.Random(31)
    rows = [
        (
            "-".join(f"{rng.getrandbits(16):04x}" for _ in range(4)),
            " ".join(rng.choices(WORD_POOL, k=rng.randint(4, 14))),
        )
        for _ in range(3000)
    ]
    path = tmp_path / "facts.tsv"
    write_fact_table(path, rows)
    facts, peak = traced_peak(lambda: load_facts([path]))
    assert len(facts) == len(rows)
    size = path.stat().st_size
    assert peak <= MAX_FACT_TABLE_RATIO * size, peak / size


@pytest.mark.parametrize("with_context", [False, True])
def test_build_dataset_peak_has_no_object_per_row(with_context):
    corpus = random_corpus(n_questions=50, n_facts=200, seed=31, gold_range=(2, 6))
    sampler = NegativeSampler(corpus, default_provider(corpus))
    cfg = PrepConfig(k=7, with_context=with_context)
    build_dataset(corpus, sampler, cfg)  # samples and keeps every negative
    data, peak = traced_peak(lambda: build_dataset(corpus, sampler, cfg))
    assert len(data) > 2000
    assert peak <= MAX_DATASET_BYTES_PER_ROW * len(data), peak / len(data)


def test_rankings_keep_an_int32_order_per_question(corpus, tmp_path):
    rng = np.random.default_rng(32)
    table = RelevanceTable(
        tuple(q.qid for q in corpus.questions), corpus.facts.uids, rng.normal(size=(N_QUESTIONS, N_FACTS))
    )
    path = tmp_path / "predictions.tsv"
    write_predictions(all_rankings(table), path)
    positions = N_QUESTIONS * N_FACTS
    for call in (lambda: all_rankings(table), lambda: read_predictions(path)):
        rankings, _, kept = traced(call)
        assert sum(map(len, rankings.values())) == positions
        assert kept <= MAX_RANKING_BYTES_PER_POSITION * positions, kept / positions
