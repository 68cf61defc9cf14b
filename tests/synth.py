"""Synthetic corpora and file writers shared by the test suite.

Everything here is seeded and deterministic: the same arguments always
produce the same corpus, on any machine.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from explainrank.corpus import (
    CENTRAL,
    GROUNDING,
    LEXGLUE,
    Corpus,
    Facts,
    Question,
)

from explainrank.scorer import RelevanceTable

WORD_POOL = [f"word{i:02d}" for i in range(40)]


def corpus_of(texts: Mapping[str, str], questions: Iterable[Question] = (), table: str = "t") -> Corpus:
    """A corpus of the facts uid -> text, in mapping order and all from one
    table, and the questions."""
    return Corpus(Facts(texts, texts.values(), [table] * len(texts)), tuple(questions))


def random_corpus(
    n_questions: int = 50,
    n_facts: int = 200,
    seed: int = 0,
    roles: tuple[str, ...] = (CENTRAL, GROUNDING, LEXGLUE),
    gold_range: tuple[int, int] = (1, 5),
) -> Corpus:
    """Random corpus with unique fact texts and annotated questions.

    Every fact text carries a unique marker token, so text-to-uid lookups in
    tests are unambiguous.
    """
    rng = random.Random(seed)
    facts: dict[str, str] = {}
    for i in range(n_facts):
        words = [f"unique{i:04d}"] + rng.sample(WORD_POOL, rng.randint(3, 6))
        facts[f"F{i:04d}"] = " ".join(words)
    uids = list(facts)
    questions = []
    for i in range(n_questions):
        qid = f"Q{i:03d}"
        stem = " ".join(rng.sample(WORD_POOL, rng.randint(3, 5)))
        choices = {
            "A": " ".join(rng.sample(WORD_POOL, 2)),
            "B": " ".join(rng.sample(WORD_POOL, 2)),
        }
        n_gold = rng.randint(*gold_range)
        gold = tuple(
            (uid, roles[rng.randrange(len(roles))]) for uid in rng.sample(uids, n_gold)
        )
        questions.append(
            Question(qid=qid, stem=stem, choices=choices, answer_key="B", gold=gold)
        )
    return corpus_of(facts, questions, "synth")


def chain_corpus(
    n_questions: int = 20, chain_len: int = 4, n_distractors: int = 6
) -> Corpus:
    """Multi-hop instance: each question's gold facts form a token chain.

    The first gold fact overlaps the question and answer heavily; every later
    gold fact links to its predecessor through chain tokens that never occur
    in the question text, plus one answer token so it still has nonzero
    question/answer similarity. Distractors overlap the question stem
    directly but share nothing with any gold fact, so they outrank the deep
    chain facts in a purely lexical initial ranking while iterative
    re-ranking can walk the chain.
    """
    facts: dict[str, str] = {}
    questions = []
    for i in range(n_questions):
        stem_tokens = [f"qs{i}a", f"qs{i}b", f"qs{i}c", f"qs{i}d"]
        answer = f"ans{i}"
        gold = []
        head_uid = f"q{i:02d}g0"
        facts[head_uid] = f"{stem_tokens[0]} {stem_tokens[1]} {answer} ch{i}x0"
        gold.append((head_uid, CENTRAL))
        for j in range(1, chain_len):
            uid = f"q{i:02d}g{j}"
            facts[uid] = f"{answer} ch{i}x{j - 1} ch{i}x{j}"
            gold.append((uid, GROUNDING))
        for j in range(n_distractors):
            facts[f"q{i:02d}d{j}"] = f"{stem_tokens[2]} {stem_tokens[3]} nz{i}x{j}"
        questions.append(
            Question(
                qid=f"Q{i:03d}",
                stem=" ".join(stem_tokens),
                choices={"A": f"other{i}", "B": answer},
                answer_key="B",
                gold=tuple(gold),
            )
        )
    return corpus_of(facts, questions, "chain")


def write_fact_table(path: Path, rows: list[tuple[str, str]], *, split: bool = True) -> None:
    """Write (uid, text) rows as a fact-table TSV with a skipped UID column."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("first half\tsecond half\t[SKIP] UID\n")
        for uid, text in rows:
            if split:
                words = text.split()
                half = (len(words) + 1) // 2
                left, right = " ".join(words[:half]), " ".join(words[half:])
            else:
                left, right = text, ""
            fh.write(f"{left}\t{right}\t{uid}\n")


def write_corpus_files(corpus: Corpus, directory: Path) -> tuple[list[Path], Path]:
    """Materialize a corpus as one fact table plus a question file."""
    from explainrank.corpus import write_questions

    directory.mkdir(parents=True, exist_ok=True)
    facts_path = directory / "facts.tsv"
    write_fact_table(facts_path, list(zip(corpus.facts.uids, corpus.facts.texts)))
    questions_path = directory / "questions.tsv"
    write_questions(corpus.questions, questions_path)
    return [facts_path], questions_path


def score_table(scores: dict[str, dict[str, float]]) -> RelevanceTable:
    """A score table from qid -> uid -> score; every question must score the
    same uids, which become the columns in the first question's order."""
    qids = tuple(scores)
    uids = tuple(scores[qids[0]]) if qids else ()
    matrix = [[scores[qid][uid] for uid in uids] for qid in qids]
    return RelevanceTable(qids, uids, np.array(matrix, dtype=float).reshape(len(qids), len(uids)))


def table_scores(table: RelevanceTable) -> dict[str, dict[str, float]]:
    """A score table as qid -> uid -> score."""
    return {qid: dict(zip(table.uids, row.tolist())) for qid, row in zip(table.qids, table.scores)}
