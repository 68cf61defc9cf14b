"""Per-text TF-IDF provider: the reference explainrank.textsim.TfidfProvider
is tested against, and the set-based token overlap that
score_lexical(..., OVERLAP) is tested against.

Both tokenise every text they are given with their own regex a text at a
time. The provider builds each row from a Counter, a dict and a sorted
list; the overlap intersects two token sets per (question, fact) pair.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from explainrank.errors import DataError
from explainrank.textsim import STOPWORDS, Rows

TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str, *, drop_stopwords: bool = False) -> list[str]:
    """The reference tokens of a text: the regex over its lowercase."""
    tokens = TOKEN_RE.findall(text.lower())
    return [t for t in tokens if t not in STOPWORDS] if drop_stopwords else tokens


class TfidfReference:
    def __init__(self, texts: Iterable[str]):
        self.term_ids: dict[str, int] = {}
        df: Counter[str] = Counter()
        n_texts = 0
        for text in texts:
            n_texts += 1
            seen: set[str] = set()
            for token in tokenize(text, drop_stopwords=True):
                if token in seen:
                    continue
                seen.add(token)
                if token not in self.term_ids:
                    self.term_ids[token] = len(self.term_ids)
                df[token] += 1
        if not self.term_ids:
            raise DataError("cannot build TF-IDF vectors: no tokens in any input text")
        self.idf = {
            token: math.log((1 + n_texts) / (1 + df[token])) + 1.0 for token in self.term_ids
        }

    def rows(self, texts: Sequence[str]) -> Rows:
        terms = []
        norms = []
        for text in texts:
            weights: dict[int, float] = {}
            for token, count in Counter(tokenize(text, drop_stopwords=True)).items():
                term_id = self.term_ids.get(token)
                if term_id is not None:
                    weights[term_id] = count * self.idf[token]
            # left to right, as sum() does up to Python 3.11 (3.12's sum of
            # floats is compensated)
            total = 0.0
            for w in weights.values():
                total += w * w
            norms.append(math.sqrt(total))
            terms.append(sorted(weights.items()))
        width = max(1, max(map(len, terms), default=0))
        ids = np.full((len(terms), width), len(self.term_ids), dtype=np.intp)
        values = np.zeros((len(terms), width))
        for i, row in enumerate(terms):
            if row:
                ids[i, : len(row)], values[i, : len(row)] = zip(*row)
        return Rows(values, np.array(norms), len(self.term_ids), ids)


def overlap_scores(facts: Sequence[str], qa_texts: Sequence[str]) -> list[list[float]]:
    """Row i, column j: the share of fact j's set of non-stop-word tokens
    that Q/A text i's set holds too, 0.0 for a fact without such a token."""
    fact_tokens = [set(tokenize(text, drop_stopwords=True)) for text in facts]
    rows = []
    for qa in qa_texts:
        qa_tokens = set(tokenize(qa, drop_stopwords=True))
        rows.append([len(qa_tokens & t) / len(t) if t else 0.0 for t in fact_tokens])
    return rows
