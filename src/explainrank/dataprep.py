"""Training-dataset generation for relevance learners.

Four dataset variants: classification or regression targets, each with or
without context facts. Positives are the gold facts repeated once per
sampled negative so the classes stay exactly balanced; negatives are the
corpus facts most similar to each gold fact that are not themselves gold
("hard" negatives). Context variants prepend sampled subsets of the gold
set, which only ever appear in training files: ranking at inference sees
the question and answer alone.
"""

from __future__ import annotations

import logging
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CENTRAL, GROUNDING, LEXGLUE, Corpus, Question, Role
from .errors import DataError, FormatError, read_utf8, text_lines
from .scorer import uid_ranks
from .textsim import Rows, _over_norms, fact_vectors

log = logging.getLogger(__name__)

CLASSIFICATION = "classification"
REGRESSION = "regression"

CONTEXT_SEPARATOR = " [SEP] "

# regression targets by role; every other role gets FALLBACK_TARGET
ROLE_TARGETS = {CENTRAL: 6.0, GROUNDING: 5.0, LEXGLUE: 4.0}
FALLBACK_TARGET = 4.0
NEGATIVE_TARGET = 0.0


@dataclass(frozen=True)
class PrepConfig:
    k: int = 7
    m: int = 3
    seed: int = 13
    with_context: bool = False
    task: str = CLASSIFICATION

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k (negatives per gold fact) must be >= 1")
        if self.m < 1:
            raise ValueError("m (context subsets per size) must be >= 1")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass(frozen=True)
class TrainingExample:
    qid: str
    question_text: str
    context: tuple[str, ...]
    candidate_text: str
    label: float  # 0/1 for classification, {6, 5, 4, 0} for regression
    role: Role | None  # None for sampled negatives


def dense_cut_margin(rows: Rows) -> float | None:
    """How far below the k-th largest approximate cosine a dense candidate
    can sit and still be among the k largest exact ones; None when the
    bound below does not hold for these rows, so no candidate may be cut.

    The exact cosine of rows x and y is Rows.cosines' value
    e = fl(fl(x.y) / D), whose dot product adds the d products left to right,
    with D = fl(|x| |y|) from the stored norms. The filter computes
    a = fl(fl(x.y) / D) with one matrix-vector product, whose dot products
    may add the same d terms in another order and with or without fused
    multiply-adds. Let u = 2^-53 and gamma_d = d u / (1 - d u). Any such dot
    product of d terms, in any order, is within
    gamma_d sum|x_k y_k| <= gamma_d |x| |y| of the real one, plus at most
    d 2^-1074 from products that underflow. So the two dot products differ
    by at most 2 gamma_d |x| |y| + 2 d 2^-1074. Both divide by the same D,
    and each division rounds once:

        |a - e| <= (2 gamma_d |x| |y| + 2 d 2^-1074) / D + 2 u max(|a|, |e|).

    With every nonzero norm within [2^-500, 2^500] and d <= 2^16, no
    product or sum overflows, |x| |y| / D and |a|, |e| are below 1 + 2^-29,
    and 2 d 2^-1074 / D is below u / 8. That gives the per-cosine bound
    delta = 2 gamma_d + 4 u. If the k-th largest exact cosine is c, at least
    k approximate values are >= c - delta, so the k-th largest approximate
    one, c', is >= c - delta; every exact value >= c has an approximate one
    >= c - delta >= c' - 2 delta. The margin is 2 delta = 4 gamma_d + 8 u.
    A zero denominator gives 0.0 on both sides.
    """
    d = rows.dim
    nonzero = rows.norms[rows.norms != 0.0]
    if d > 2**16 or not np.all((nonzero >= 2.0**-500) & (nonzero <= 2.0**500)):
        return None
    u = 2.0**-53
    gamma = d * u / (1 - d * u)
    return 4 * gamma + 8 * u


class NegativeSampler:
    """Hard negatives over one corpus, shared by every dataset variant.

    The fact rows are built once. Each (gold fact, gold set, k) result is
    computed on first use and kept, so the four prepare variants sample
    every question's negatives once, and a result short of k is warned
    about once.

    Dense cosines are first approximated with one BLAS matrix-vector
    product over all facts. Only the non-gold facts within dense_cut_margin
    of the k-th largest approximate value are kept, and they are rescored
    with Rows.cosines before the sort, so the result is the same as sorting
    every exact cosine. TF-IDF cosines come from Rows.cosines already and go
    through the same cut with margin 0.
    """

    def __init__(self, corpus: Corpus, provider):
        self.uids, self.column = corpus.facts.uids, corpus.facts.column
        self.uid_ranks = uid_ranks(self.uids)
        self.rows = fact_vectors(corpus, provider)
        # the choice of filter: a positive margin marks the approximate one
        self._margin = dense_cut_margin(self.rows) if self.rows.dense else 0.0
        self._memo: dict[tuple[str, frozenset[str], int], tuple[str, ...]] = {}

    def negatives(self, gold_uid: str, gold_uids: frozenset[str] | set[str], k: int) -> list[str]:
        key = (gold_uid, frozenset(gold_uids), k)
        best = self._memo.get(key)
        if best is None:
            best = self._memo[key] = self._negatives(*key)
            if len(best) < k:
                log.warning(
                    "gold fact %s: only %d non-gold fact(s) available for k=%d",
                    gold_uid,
                    len(best),
                    k,
                )
        return list(best)

    def _negatives(self, gold_uid: str, gold_uids: frozenset[str], k: int) -> tuple[str, ...]:
        j = self.column.get(gold_uid)
        if j is None:
            raise DataError(f"gold fact {gold_uid!r} not in corpus")
        non_gold = np.ones(len(self.uids), dtype=bool)
        non_gold[[self.column[uid] for uid in gold_uids if uid in self.column]] = False
        candidates = np.flatnonzero(non_gold)
        if self._margin is None or len(candidates) <= k:
            sims = self.rows.cosines(j, among=candidates)
        else:
            sims = self._bulk_cosines(j)[candidates]
            near = sims >= np.partition(sims, -k)[-k] - self._margin
            candidates, sims = candidates[near], sims[near]
            if self._margin:
                sims = self.rows.cosines(j, among=candidates)
        best = candidates[np.lexsort((self.uid_ranks[candidates], -sims))[:k]]
        return tuple(self.uids[i] for i in best)

    def _bulk_cosines(self, j: int) -> np.ndarray:
        """Fact j's cosine with every fact: Rows.cosines' values under margin
        0, else one matrix-vector product divided as Rows.cosines divides,
        within dense_cut_margin of those values."""
        rows = self.rows
        if not self._margin:
            return rows.cosines(j)
        return _over_norms(rows.values @ rows.values[j], rows.norms * rows.norms[j])


def sample_negatives(
    gold_uid: str,
    gold_uids: frozenset[str] | set[str],
    corpus: Corpus,
    provider,
    k: int,
) -> list[str]:
    """The k corpus facts most cosine-similar to one gold fact that are not in
    the question's gold set, similarity descending, ties by uid ascending.

    Returns fewer than k (with a warning) when the corpus is that small.
    This vectorizes the corpus on every call; to sample for many gold facts,
    build one NegativeSampler and call its negatives method, which vectorizes
    once and keeps each result.
    """
    return NegativeSampler(corpus, provider).negatives(gold_uid, gold_uids, k)


def build_dataset(corpus: Corpus, provider, cfg: PrepConfig) -> list[TrainingExample]:
    """Generate one dataset variant over all annotated questions whose
    answer key names one of their choices.

    provider is a vector provider, or a NegativeSampler built over this
    corpus so that several variants share its fact rows and negatives.
    Without context, each gold fact contributes one balanced block of
    positives and negatives. With context, blocks are repeated for m sampled
    gold subsets of every size from 1 to |gold| - 1, the candidate always
    outside its context. Per-question RNG streams are derived from
    (seed, qid), so output does not depend on question processing order.
    """
    if isinstance(provider, NegativeSampler):
        sampler = provider
        if sampler.uids != corpus.facts.uids:
            raise ValueError("the negative sampler was built over a different corpus")
    else:
        sampler = NegativeSampler(corpus, provider)
    examples: list[TrainingExample] = []
    warned_roles: set[str] = set()
    for question, qa in corpus.answerable:
        if not question.gold:
            continue
        examples.extend(_question_examples(question, qa, corpus, sampler, cfg, warned_roles))
    return examples


def _question_examples(
    question: Question,
    qa: str,
    corpus: Corpus,
    sampler: NegativeSampler,
    cfg: PrepConfig,
    warned_roles: set[str],
) -> list[TrainingExample]:
    gold_uids = question.gold_uid_set
    negatives: dict[str, list[str]] = {}
    for uid, _ in question.gold:
        if uid not in negatives:
            negatives[uid] = sampler.negatives(uid, gold_uids, cfg.k)

    out: list[TrainingExample] = []
    if not cfg.with_context:
        for uid, role in question.gold:
            out.extend(
                _pair_block(question.qid, qa, (), uid, role, negatives[uid], corpus, cfg, warned_roles)
            )
        return out

    if len(question.gold) < 2:
        log.info("question %s: single gold fact, contributes no context examples", question.qid)
        return out
    rng = random.Random(f"{cfg.seed}|{question.qid}")
    indices = range(len(question.gold))
    for size in range(1, len(question.gold)):
        for _ in range(cfg.m):
            chosen = sorted(rng.sample(indices, size))
            context = tuple(corpus.facts.text(question.gold[i][0]) for i in chosen)
            chosen_set = set(chosen)
            for i, (uid, role) in enumerate(question.gold):
                if i in chosen_set:
                    continue
                out.extend(
                    _pair_block(
                        question.qid, qa, context, uid, role, negatives[uid], corpus, cfg, warned_roles
                    )
                )
    return out


def _pair_block(
    qid: str,
    qa: str,
    context: tuple[str, ...],
    uid: str,
    role: Role,
    neg_uids: list[str],
    corpus: Corpus,
    cfg: PrepConfig,
    warned_roles: set[str],
) -> list[TrainingExample]:
    """One positive copy per negative, then the negatives; exactly balanced."""
    if cfg.task == CLASSIFICATION:
        pos_label, neg_label = 1.0, 0.0
    else:
        pos_label = ROLE_TARGETS.get(role)
        if pos_label is None:
            if role.label not in warned_roles:
                warned_roles.add(role.label)
                log.warning(
                    "role %s has no regression target, using fallback %s",
                    role.label,
                    FALLBACK_TARGET,
                )
            pos_label = FALLBACK_TARGET
        neg_label = NEGATIVE_TARGET
    text = corpus.facts.text
    positive = TrainingExample(qid, qa, context, text(uid), pos_label, role)
    block = [positive] * len(neg_uids)
    block.extend(
        TrainingExample(qid, qa, context, text(neg_uid), neg_label, None) for neg_uid in neg_uids
    )
    return block


_BLOCK_ROWS = 256  # larger blocks raise the peak RSS, not the speed
_COLUMNS = ("qid", "question_text", "context", "candidate_text", "label_or_target", "role")


class _Cleaned(dict):
    """Field text by raw text, tabs and newlines replaced with spaces; each
    distinct text is cleaned, and warned about, once."""

    def __init__(self, what: str):
        super().__init__()
        self.what = what

    def __missing__(self, text: str) -> str:
        cleaned = text
        if "\t" in text or "\n" in text or "\r" in text:
            log.warning("%s contains tab/newline characters, replaced with spaces", self.what)
            cleaned = re.sub(r"[\t\n\r]", " ", text)
        self[text] = cleaned
        return cleaned


def write_dataset(examples: Sequence[TrainingExample], path: str | Path) -> None:
    """TSV with a header row; context facts joined by the [SEP] marker.
    Rows are joined and written a block at a time."""
    qids, questions = _Cleaned("qid"), _Cleaned("question text")
    candidates = _Cleaned("candidate text")
    contexts = _Cleaned("context")  # by fact; the separator has no tab or newline
    roles = _Cleaned("role")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(_COLUMNS) + "\n")
        for start in range(0, len(examples), _BLOCK_ROWS):
            fh.write("".join([
                f"{qids[ex.qid]}\t{questions[ex.question_text]}\t"
                f"{CONTEXT_SEPARATOR.join(map(contexts.__getitem__, ex.context))}\t"
                f"{candidates[ex.candidate_text]}\t{ex.label!r}\t"
                f"{'' if ex.role is None else roles[ex.role.label]}\n"
                for ex in examples[start : start + _BLOCK_ROWS]
            ]))


def read_dataset(path: str | Path) -> list[TrainingExample]:
    """The examples of a file write_dataset wrote. A row without six fields
    or with a label that is not a finite number is a FormatError naming its
    line."""
    path = Path(path)
    lines = text_lines(read_utf8(path))
    if not lines or lines[0].split("\t") != list(_COLUMNS):
        raise FormatError(f"{path}: missing or wrong dataset header")
    examples: list[TrainingExample] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(_COLUMNS):
            raise FormatError(f"{path} line {lineno}: expected {len(_COLUMNS)} columns")
        qid, question_text, context_text, candidate, label_text, role_label = fields
        try:
            label = float(label_text)
        except ValueError:
            raise FormatError(f"{path} line {lineno}: bad label {label_text!r}") from None
        if not math.isfinite(label):
            raise FormatError(f"{path} line {lineno}: non-finite label {label_text!r}")
        context = tuple(context_text.split(CONTEXT_SEPARATOR)) if context_text else ()
        role = Role.parse(role_label) if role_label else None
        examples.append(TrainingExample(qid, question_text, context, candidate, label, role))
    return examples


@dataclass(frozen=True)
class DatasetStats:
    total: int
    positives: int
    negatives: int
    per_label: dict[float, int]
    per_role: dict[str, int]
    per_question: dict[str, int]

    @property
    def balance(self) -> float | None:
        """positive:negative ratio, None when there are no negatives."""
        if self.negatives == 0:
            return None
        return self.positives / self.negatives

    def format_text(self) -> str:
        ratio = "n/a" if self.balance is None else f"{self.balance:.4f}"
        lines = [
            f"examples: {self.total}",
            f"positives: {self.positives}",
            f"negatives: {self.negatives}",
            f"balance (pos:neg): {ratio}",
            f"questions: {len(self.per_question)}",
            "label histogram:",
        ]
        for label in sorted(self.per_label, reverse=True):
            lines.append(f"  {label:g}: {self.per_label[label]}")
        lines.append("positive role counts:")
        for role_label in sorted(self.per_role):
            lines.append(f"  {role_label}: {self.per_role[role_label]}")
        return "\n".join(lines)


def dataset_stats(examples: Sequence[TrainingExample]) -> DatasetStats:
    per_label: Counter[float] = Counter()
    per_role: Counter[str] = Counter()
    per_question: Counter[str] = Counter()
    positives = 0
    for ex in examples:
        per_label[ex.label] += 1
        per_question[ex.qid] += 1
        if ex.label > 0:
            positives += 1
        if ex.role is not None:
            per_role[ex.role.label] += 1
    return DatasetStats(
        total=len(examples),
        positives=positives,
        negatives=len(examples) - positives,
        per_label=dict(per_label),
        per_role=dict(per_role),
        per_question=dict(per_question),
    )
