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
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .corpus import CENTRAL, GROUNDING, LEXGLUE, Corpus, parse_role
from .errors import DataError, FormatError, split_cell, utf8_blocks
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


@dataclass
class Dataset:
    """One dataset variant as six parallel columns, one entry per row. The
    rows of one pair block share their string and tuple references."""

    qids: list[str] = field(default_factory=list)
    questions: list[str] = field(default_factory=list)  # the Q/A text
    contexts: list[tuple[str, ...]] = field(default_factory=list)  # gold fact texts
    candidates: list[str] = field(default_factory=list)  # a fact text
    # 0/1 for classification, {6, 5, 4, 0} for regression
    labels: list[float] = field(default_factory=list)
    roles: list[str | None] = field(default_factory=list)  # role labels; None for sampled negatives

    def __len__(self) -> int:
        return len(self.labels)


def dense_cut_margin(rows: Rows) -> float | None:
    """How far below the k-th largest approximate cosine a dense candidate
    can sit and still be among the k largest exact ones; None when the
    bound below does not hold for these rows: NegativeSampler then cuts the
    exact cosines at the k-th of them, as it does TF-IDF cosines.

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
    product. The non-gold facts within dense_cut_margin of the k-th largest
    approximate value are rescored with Rows.cosines before the sort, so the
    result is the same as sorting every exact cosine. TF-IDF rows, and dense
    rows outside that margin's bound, take every exact cosine and cut at the
    k-th of them.
    """

    def __init__(self, corpus: Corpus, provider):
        self.uids, self.column = corpus.facts.uids, corpus.facts.column
        self.uid_ranks = np.argsort(np.argsort(np.array(self.uids, dtype=object)))  # tie-break key
        self.rows = fact_vectors(corpus, provider)
        # positive when the cosines are approximated first, 0.0 when exact
        self._margin = (dense_cut_margin(self.rows) or 0.0) if self.rows.dense else 0.0
        self._memo: dict[tuple[str, frozenset[str], int], tuple[str, ...]] = {}

    def negatives(self, gold_uid: str, gold_uids: frozenset[str] | set[str], k: int) -> list[str]:
        key = (gold_uid, frozenset(gold_uids), k)
        best = self._memo.get(key)
        if best is None:
            best = self._memo[key] = self._negatives(*key)
            if len(best) < k:
                log.warning("gold fact %s: only %d non-gold fact(s) available for k=%d", gold_uid, len(best), k)
        return list(best)

    def _negatives(self, gold_uid: str, gold_uids: frozenset[str], k: int) -> tuple[str, ...]:
        j = self.column.get(gold_uid)
        if j is None:
            raise DataError(f"gold fact {gold_uid!r} not in corpus")
        rows, margin = self.rows, self._margin
        non_gold = np.ones(len(self.uids), dtype=bool)
        non_gold[[self.column[uid] for uid in gold_uids if uid in self.column]] = False
        candidates = np.flatnonzero(non_gold)
        if margin:
            sims = _over_norms(rows.values @ rows.values[j], rows.norms * rows.norms[j])[candidates]
        else:
            sims = rows.cosines(j)[candidates]
        if len(candidates) > k:
            near = sims >= np.partition(sims, -k)[-k] - margin
            candidates, sims = candidates[near], sims[near]
        if margin:
            sims = rows.cosines(j, among=candidates)
        best = candidates[np.lexsort((self.uid_ranks[candidates], -sims))[:k]]
        return tuple(self.uids[i] for i in best)


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


def build_dataset(corpus: Corpus, provider, cfg: PrepConfig) -> Dataset:
    """Generate one dataset variant over all annotated questions whose
    answer key names one of their choices.

    provider is a vector provider, or a NegativeSampler built over this
    corpus so that several variants share its fact rows and negatives.
    Without context, each gold fact contributes one balanced block of
    positives and negatives: one positive copy per negative, then the
    negatives. With context, blocks are repeated for m sampled gold subsets
    of every size from 1 to |gold| - 1, the candidate always outside its
    context. Per-question RNG streams are derived from (seed, qid), so
    output does not depend on question processing order.
    """
    if isinstance(provider, NegativeSampler):
        sampler = provider
        if sampler.uids != corpus.facts.uids:
            raise ValueError("the negative sampler was built over a different corpus")
    else:
        sampler = NegativeSampler(corpus, provider)
    text = corpus.facts.text
    positive: dict[str, float] = {}  # each role's training label, looked up once
    negative_label = 0.0 if cfg.task == CLASSIFICATION else NEGATIVE_TARGET
    data = Dataset()
    single: list[str] = []
    for question, qa in corpus.answerable:
        gold = question.gold
        if not gold:
            continue
        gold_uids = question.gold_uid_set
        negatives = {
            uid: [text(n) for n in sampler.negatives(uid, gold_uids, cfg.k)] for uid, _ in gold
        }
        gold_texts = [text(uid) for uid, _ in gold]
        if not cfg.with_context:
            subsets = [[]]
        elif len(gold) < 2:
            single.append(question.qid)
            continue
        else:  # m sorted samples of the gold indices per size
            rng, indices = random.Random(f"{cfg.seed}|{question.qid}"), range(len(gold))
            subsets = [sorted(rng.sample(indices, size))
                       for size in range(1, len(gold)) for _ in range(cfg.m)]
        for chosen in subsets:
            context = tuple(map(gold_texts.__getitem__, chosen))
            for i, (uid, role) in enumerate(gold):
                if i in chosen:
                    continue
                if role not in positive:
                    positive[role] = _positive_label(cfg.task, role)
                block = negatives[uid]
                n = len(block)
                data.qids += [question.qid] * (2 * n)
                data.questions += [qa] * (2 * n)
                data.contexts += [context] * (2 * n)
                data.candidates += [gold_texts[i]] * n + block
                data.labels += [positive[role]] * n + [negative_label] * n
                data.roles += [role] * n + [None] * n
    if single:
        log.info(
            "%d question(s) with a single gold fact contribute no context examples: %s%s",
            len(single),
            ", ".join(single[:5]),
            ", ..." if len(single) > 5 else "",
        )
    return data


def _positive_label(task: str, role: str) -> float:
    """1.0 for classification, else the role's regression target; a role
    without one gets FALLBACK_TARGET and a warning."""
    if task == CLASSIFICATION:
        return 1.0
    if role not in ROLE_TARGETS:
        log.warning("role %s has no regression target, using fallback %s", role, FALLBACK_TARGET)
    return ROLE_TARGETS.get(role, FALLBACK_TARGET)


_BLOCK_ROWS = 256  # larger blocks raise the peak RSS, not the speed
_COLUMNS = ("qid", "question_text", "context", "candidate_text", "label_or_target", "role")


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """TSV with a header row; context facts joined by the [SEP] marker, rows
    written a block at a time. Before the file opens, a ValueError refuses
    unequal columns, or names the column and the cell of a row read_dataset
    would not read back as written (clean tabs and line breaks out first): a
    tab, CR or LF in a text; an empty role, or one parse_role would change; a
    context of one empty fact; a label not finite, or whose repr float() does
    not read back. A context fact that may read back split at the separator
    (it holds it, or ends in it but for its last space) is warned once."""
    columns = [getattr(dataset, column.name) for column in fields(Dataset)]
    if len(set(map(len, columns))) > 1:
        raise ValueError("the dataset's columns differ in length")
    # each distinct cell is checked once
    contexts = dict.fromkeys(dataset.contexts)
    facts = dict.fromkeys(chain.from_iterable(contexts))
    roles = dict.fromkeys(dataset.roles)
    roles.pop(None, None)  # a negative's empty cell
    texts = {"qid": dataset.qids, "question_text": dataset.questions, "context": facts,
             "candidate_text": dataset.candidates, "role": roles}
    reasons = [split_cell(what, dict.fromkeys(cells)) for what, cells in texts.items()]
    reasons += ["context ('',) reads back as ()"] if ("",) in contexts else []
    reasons += [f"role {role!r} reads back as {parse_role(role) or None!r}"
                for role in roles if parse_role(role) != role or not role]
    # keyed by type too: 1.0, True and np.float64(1.0) are one key by value
    labels = dict.fromkeys(zip(dataset.labels, map(type, dataset.labels)))
    reasons += [f"label_or_target {label!r} is not a finite number whose repr reads back as it"
                for label, _ in labels if not _reads_back(label)]
    if reason := next(filter(None, reasons), None):
        raise ValueError(f"{reason}; the dataset would not read back")
    for fact in facts:
        if CONTEXT_SEPARATOR in fact or fact.endswith(CONTEXT_SEPARATOR[:-1]):
            log.warning("context fact %.60r may read back as more than one fact at the %r separator",
                        fact, CONTEXT_SEPARATOR)
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(_COLUMNS) + "\n")
        for _ in range(0, len(dataset), _BLOCK_ROWS):
            fh.write("".join([
                f"{qid}\t{qa}\t{CONTEXT_SEPARATOR.join(context)}\t{candidate}\t{label!r}\t"
                f"{'' if role is None else role}\n"
                for qid, qa, context, candidate, label, role in islice(rows, _BLOCK_ROWS)
            ]))


def _reads_back(label) -> bool:
    """Whether float() reads label's repr back as a finite number equal to label."""
    try:
        return math.isfinite(back := float(repr(label))) and back == label
    except ValueError:
        return False


def read_dataset(path: str | Path) -> Dataset:
    """The dataset of a file write_dataset wrote. A row without six fields
    or with a label that is not a finite number is a FormatError naming its
    line."""
    path = Path(path)
    lines = "".join(text for _, text in utf8_blocks(path)).split("\n")[:-1]
    if not lines or lines[0].split("\t") != list(_COLUMNS):
        raise FormatError(f"{path}: missing or wrong dataset header")
    data = Dataset()
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
        data.qids.append(qid)
        data.questions.append(question_text)
        data.contexts.append(tuple(context_text.split(CONTEXT_SEPARATOR)) if context_text else ())
        data.candidates.append(candidate)
        data.labels.append(label)
        data.roles.append(parse_role(role_label) if role_label else None)
    return data


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


def dataset_stats(dataset: Dataset) -> DatasetStats:
    per_label = Counter(dataset.labels)
    positives = sum(n for label, n in per_label.items() if label > 0)
    per_role = Counter(dataset.roles)
    per_role.pop(None, None)  # a negative
    return DatasetStats(
        total=len(dataset),
        positives=positives,
        negatives=len(dataset) - positives,
        per_label=dict(per_label),
        per_role=dict(per_role),
        per_question=dict(Counter(dataset.qids)),
    )
