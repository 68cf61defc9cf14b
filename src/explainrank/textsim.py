"""Tokenization, sentence vectors as matrix rows, and the cosine similarity
used everywhere.

Two vector backends share one interface, provider.rows(texts): TF-IDF built
over the corpus at hand (the self-contained default) and externally trained
word vectors loaded from a word2vec-style text file. Both are deterministic
and immutable once built. Both give rows in one layout, term ids and their
weights, and every dot product is one column loop over that layout, so a
cosine's bits do not depend on the BLAS library or its thread count.
"""

from __future__ import annotations

import logging
import math
import operator
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataError, FormatError, utf8_blocks

log = logging.getLogger(__name__)

# Fixed list, versioned in the README; reproducibility matters more here
# than linguistic coverage.
STOPWORDS = frozenset(
    "a an and are as at be been by do does for from had has have how in into "
    "is it its of on or that the their then there these this to was were "
    "what which will with".split()
)

# largest word-vector norm load_dense accepts
MAX_NORM = 2.0**500

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# _TOKEN_RE over a lowercased ASCII text as one str.translate table: a letter
# or digit becomes its lowercase, "\n" (it joins a block's texts) stays, and
# any other character becomes a space, which str.split drops
_ASCII_TOKENS = "".join(
    c.lower() if _TOKEN_RE.match(c) else c if c == "\n" else " " for c in map(chr, range(128))
)

_TEXT_BLOCK = 256  # texts tokenised or averaged at once; all at once raises the peak


def tokenize(text: str, *, drop_stopwords: bool = False) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    (tokens,) = _tokenize_block([text])
    if drop_stopwords:
        tokens = [t for t in tokens if t not in STOPWORDS]
    return tokens


def _tokenize_block(texts: Sequence[str]) -> Iterator[list[str]]:
    """Each text's tokens, made as they are asked for: _TOKEN_RE over the
    text's lowercase. The block's ASCII texts without a "\n" are joined by
    "\n", lowercased in one pass and split a text at a time; each other
    text takes the regex on its own."""
    plain = [text.isascii() and "\n" not in text for text in texts]
    fast = map(str.split, "\n".join(compress(texts, plain)).translate(_ASCII_TOKENS).split("\n"))
    slow = map(_TOKEN_RE.findall, map(str.lower, compress(texts, map(operator.not_, plain))))
    return map(next, map((slow, fast).__getitem__, plain))


def _token_ids(
    block: Sequence[str], ids_of: Callable[[Iterable[str]], Iterable[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """ids_of(tokens) over every token of a block of texts, one text after
    another, without the negative ids, and how many ids each text keeps;
    one text's tokens are alive at a time."""
    counts = array("q")

    def counted(tokens: list[str]) -> list[str]:
        counts.append(len(tokens))
        return tokens

    ids = np.fromiter(ids_of(chain.from_iterable(map(counted, _tokenize_block(block)))), np.intc)
    lengths = np.frombuffer(counts, np.int64)
    known = ids >= 0
    if known.all():
        return ids, lengths
    kept = np.repeat(np.arange(len(lengths)), lengths)[known]
    return ids[known], np.bincount(kept, minlength=len(lengths))


def _spans(pool: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """pool[starts[k] : starts[k] + lengths[k]] for each k, one after another."""
    # 32-bit positions, as many as pool has ids: half the memory of intp
    index = np.repeat((starts - np.cumsum(lengths) + lengths).astype(np.intc), lengths)
    index += np.arange(len(index), dtype=np.intc)
    return pool[index]


@dataclass(frozen=True, eq=False)
class Rows:
    """Sentence vectors of a list of texts, one row per text, and their norms.

    Each row holds its text's term ids in ascending order, padded with the
    id dim, and their weights, padded with 0.0; dim is the vocabulary size.
    A dense row has every dimension as a term: its ids are 0, 1, ..., dim - 1
    (one read-only broadcast row) and its weights are the vector itself.
    """

    values: np.ndarray
    norms: np.ndarray
    dim: int
    ids: np.ndarray
    dense: bool = False  # set by dense_rows

    def cosines(self, j: int, other: Rows | None = None, among=slice(None)) -> np.ndarray:
        """Cosine similarity of row j of other (default: these rows) with each
        of these rows, or with the rows indexed by among. A zero vector
        compares as 0.0 so out-of-vocabulary sentences still rank.

        A dot product adds the products of the common terms in ascending
        term order (see _dots), so a pair's cosine is exactly the same
        whichever side is the query.
        """
        other = self if other is None else other
        if self.dense != other.dense:
            raise DataError("cannot compare sparse and dense sentence vectors")
        if self.dim != other.dim:
            raise DataError(f"dimension mismatch: {self.dim} vs {other.dim}")
        query = np.zeros(self.dim + 1)  # the padding id's weight stays 0.0
        query[other.ids[j]] = other.values[j]
        dots = _dots(query, self.ids[among].T, self.values[among].T)
        return _over_norms(dots, self.norms[among] * other.norms[j])


def _dots(query: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sum over term columns c of query[index[c]] * values[c], cell by
    cell: the products are added left to right, one term column at a time,
    starting from the first product. Every dot product in this module comes
    from here."""
    dots = query.take(index[0])
    dots *= values[0]
    for column, weights in zip(index[1:], values[1:]):
        cells = query.take(column)
        cells *= weights
        dots += cells
    return dots


def _over_norms(dots: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """dots / denom, and 0.0 where denom is 0.0."""
    return np.divide(dots, denom, out=np.zeros(dots.shape), where=denom != 0.0)


_WINDOW_BLOCK = 64  # windows keyed at once; larger blocks raise the peak, not the speed


class Window:
    """Cosines with the facts near the top of many rankings at once.

    Row q of top holds window q: row indices of rows, best first, then, with
    queries, one last column queries[q] that is only ever a query, as each
    question's Q/A row is in rerank. cosines gives row q, bit for bit, what
    one Rows.cosines call gives for window q alone: the same products, added
    by _dots in the same order. Query weights are spread over one buffer
    with a slot for each (window, term) pair. The window facts' slots and
    weights are laid out a term column at a time, as wide as the widest
    window fact: a query row's further terms get slots apart, not columns.
    """

    def __init__(self, rows: Rows, top: np.ndarray, queries: np.ndarray | None = None):
        width = max(1, int(np.count_nonzero(rows.ids < rows.dim, axis=1)[top].max(initial=0)))
        self.rows, self.top = rows, top if queries is None else np.column_stack([top, queries])
        queried = self.top[:, top.shape[1] :]  # the query column, if any
        self._slots = np.empty((width, *self.top.T.shape), dtype=np.intp)
        self._wide = np.empty((rows.ids.shape[1] - width, *queried.T.shape), dtype=np.intp)
        # window q's terms are keyed q * (dim + 1) + id, so windows share no slot;
        # keying a block of windows at a time keeps the peak low for wide (dense) rows
        n_slots = 0
        for start in range(0, len(top), _WINDOW_BLOCK):
            part = slice(start, start + _WINDOW_BLOCK)
            head, wide = rows.ids.T[:width, self.top[part].T], rows.ids.T[width:, queried[part].T]
            for block in head, wide:
                block += np.arange(len(top))[part] * (rows.dim + 1)
            distinct, slots = np.unique(np.concatenate([head, wide], axis=None), return_inverse=True)
            slots += n_slots
            self._slots[:, :, part] = slots[: head.size].reshape(head.shape)
            self._wide[:, :, part] = slots[head.size :].reshape(wide.shape)
            n_slots += len(distinct)
        self._values = rows.values.T[:width][:, top.T]
        self._query = np.zeros(n_slots)

    def cosines(self, last: np.ndarray, n: int) -> np.ndarray:
        """Row q: rows.cosines(top[q, last[q]], among=top[q, :n]), n no more
        than the window facts."""
        rows, top, width = self.rows, self.top[:, :n], len(self._slots)
        each = np.arange(len(top))
        js, slots = self.top[each, last], self._slots[:, last, each]
        asks = last >= self.top.shape[1] - self._wide.shape[1]  # only query rows pass width
        wide = self._wide[:, :, asks]
        self._query[wide] = rows.values[js[asks], width:].T[:, None]
        self._query[slots] = rows.values[js, :width].T
        dots = _dots(self._query, self._slots[:, :n], self._values[:, :n]).T
        self._query[slots] = self._query[wide] = 0.0
        return _over_norms(dots, rows.norms[top] * rows.norms[js][:, None])


def dense_rows(vectors) -> Rows:
    """Rows holding the given vectors, each norm the square root of the
    squares added left to right, as _dots adds."""
    values = np.asarray(vectors, dtype=float)
    squares = values[:, 0] * values[:, 0]
    for column in values.T[1:]:
        squares += column * column
    ids = np.broadcast_to(np.arange(values.shape[1]), values.shape)
    return Rows(values, np.sqrt(squares), values.shape[1], ids, dense=True)


def _number_terms(texts: list[str]) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Each term of the texts but the stop words, numbered in the order the
    terms first occur, the term ids of each text, one text after another,
    and how many each text has; the texts are tokenised a block at a time."""
    # a token not yet seen gets the next id as it is looked up; stop words are -1
    vocabulary = defaultdict(count().__next__, dict.fromkeys(STOPWORDS, -1))
    ids_of = partial(map, vocabulary.__getitem__)
    # a block at a time, so that only one block's ids are ever filtered at
    # once; no texts are one empty block
    starts = range(0, len(texts), _TEXT_BLOCK) or [0]
    parts = [_token_ids(texts[start : start + _TEXT_BLOCK], ids_of) for start in starts]
    ids, lengths = map(np.concatenate, zip(*parts))
    return dict(islice(vocabulary.items(), len(STOPWORDS), None)), ids, lengths


class TfidfProvider:
    """TF-IDF sentence vectors over a fixed vocabulary, stop words dropped.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the N build texts; a sentence
    vector is raw term count times idf, restricted to the build vocabulary.
    Term ids are numbered in the order the terms first occur in the build
    texts. Each distinct build text is tokenised once, a block of texts at a
    time: its term ids are kept, and rows() reuses them.
    """

    def __init__(self, texts: Iterable[str]):
        texts = list(texts)
        # each distinct build text, in the order the texts first occur, and
        # how many build texts it is
        repeats = Counter(texts)
        self._index = dict(zip(repeats, count()))
        self.term_ids, ids, lengths = _number_terms(list(repeats))
        if not self.term_ids:
            raise DataError("cannot build TF-IDF vectors: no tokens in any input text")
        # every distinct build text's term ids, one text after another, and where they end
        self._ids, self._ends = ids, np.cumsum(lengths)
        # ln((1 + N) / (1 + df)) + 1; math.log, not np.log: its last bit can differ
        df = self._df(lengths, np.fromiter(repeats.values(), float, len(repeats)))
        ratios = (1 + len(texts)) / (1 + df)
        self._idf = np.fromiter(map(math.log, ratios.tolist()), float, len(ratios)) + 1.0
        self.idf = dict(zip(self.term_ids, self._idf.tolist()))

    def _df(self, lengths: np.ndarray, repeats: np.ndarray) -> np.ndarray:
        """In how many build texts each term occurs; distinct build text i
        has lengths[i] of the ids and is repeats[i] build texts. Its keys
        are freed before idf is made."""
        dim = len(self.term_ids)
        # text i's keys lie in [i * dim, (i + 1) * dim): sorted, they stay
        # text by text, and a key equal to the one before it is a repeat
        # within one text, which weighs nothing
        keys = self._keys(lengths, self._ids)
        keys.sort()
        weights = np.repeat(repeats, lengths)
        weights[1:][keys[1:] == keys[:-1]] = 0.0
        np.remainder(keys, dim, out=keys)
        # sums of whole numbers, exact below 2**53
        return np.bincount(keys, weights, dim).astype(np.int64)

    def _keys(self, lengths: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """text * dim + term id for each of ids, which holds lengths[0] ids of
        text 0, then lengths[1] ids of text 1, and so on."""
        keys = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys *= len(self.term_ids)
        keys += ids
        return keys

    def rows(self, texts: Sequence[str]) -> Rows:
        """Raw term count times idf per in-vocabulary term; each norm is summed
        left to right in the order the terms first occur in the text. Only
        texts that were not build texts are tokenised."""
        dim, pool = len(self.term_ids), self._ids
        # made before the temporaries below: kept, and made after them, it would
        # sit at the top of the heap and keep malloc from trimming what they
        # free (about 1.8 MB for 5,000 facts)
        norms = np.empty(len(texts))
        at = np.fromiter(map(self._index.get, texts, repeat(-1)), np.intp, len(texts))
        lengths = np.diff(self._ends, prepend=0)[at]
        begins = self._ends[at] - lengths  # where each text's ids begin in pool
        new = at < 0  # not a build text
        if new.any():
            new_texts, get = list(compress(texts, new.tolist())), self.term_ids.get
            parts = [
                _token_ids(new_texts[start : start + _TEXT_BLOCK], lambda tokens: map(get, tokens, repeat(-1)))
                for start in range(0, len(new_texts), _TEXT_BLOCK)
            ]
            new_ids, lengths[new] = map(np.concatenate, zip(*parts))
            begins[new] = len(pool) + np.cumsum(lengths[new]) - lengths[new]
            pool = np.concatenate([pool, new_ids])
        flat = _spans(pool, begins, lengths)
        n = len(lengths)
        # one entry per (text, term), in text order then ascending term id
        keys, first, counts = np.unique(
            self._keys(lengths, flat),
            return_index=True, return_counts=True,
        )
        row, term = np.divmod(keys, dim)
        weights = counts * self._idf[term]
        n_terms = np.bincount(row, minlength=n)
        width = max(1, int(n_terms.max(initial=0)))
        starts = np.cumsum(n_terms) - n_terms
        col = np.arange(len(keys)) - starts[row]
        # sorted by first position the entries stay grouped by text, in text
        # order, so the same cells take each text's squares in the order its
        # terms first occur; the squares' buffer then takes the weights
        values = np.zeros((n, width))
        values[row, col] = np.square(weights[np.argsort(first)])
        np.sqrt(np.cumsum(values, axis=1, out=values)[:, -1], out=norms)
        values.fill(0.0)
        values[row, col] = weights
        ids = np.full((n, width), dim, dtype=np.intp)
        ids[row, col] = term
        return Rows(values, norms, dim, ids)


class DenseWordVectors:
    """Word-vector table; a sentence vector is the mean of the vectors of its
    in-vocabulary tokens (stop words included), the zero vector if none
    are in vocabulary.

    The table is one float matrix: row term_ids[token] holds token's vector,
    and one last row of -0.0 pads shorter texts, since x + -0.0 is x for
    every x, -0.0 included. A mean adds its tokens' vectors left to right in
    token order, starting from the first, then divides once by their count,
    so its bits depend on no BLAS library.
    """

    def __init__(self, term_ids: dict[str, int], vectors: np.ndarray):
        """vectors[term_ids[token]] is token's vector."""
        self.term_ids = term_ids
        self.table = np.vstack([vectors, np.full((1, vectors.shape[1]), -0.0)])
        self.table.flags.writeable = False
        self.dim = vectors.shape[1]

    def rows(self, texts: Sequence[str]) -> Rows:
        """Each text's mean: a block of texts at a time, the vectors of every
        text's first token are gathered into its row, then each later token
        column is added, and each row is divided once by its count."""
        term_ids, table = self.term_ids, self.table
        values = np.empty((len(texts), self.dim))
        for start in range(0, len(texts), _TEXT_BLOCK):
            block = texts[start : start + _TEXT_BLOCK]
            flat, n = _token_ids(block, lambda tokens: map(term_ids.get, tokens, repeat(-1)))
            index = np.full((len(n), max(1, n.max())), len(term_ids), dtype=np.intp)
            index[np.arange(index.shape[1]) < n[:, None]] = flat
            out = values[start : start + len(n)]
            table.take(index[:, 0], axis=0, out=out)
            for column in index.T[1:]:
                out += table.take(column, axis=0)
            out /= np.maximum(n, 1)[:, None]
            out[n == 0] = 0.0  # not the padding row's -0.0
        return dense_rows(values)


def load_dense(path: str | Path) -> DenseWordVectors:
    """Load word vectors from text format: an optional "count dim" first line,
    then one token followed by its components per line, space-separated.
    The components fill one table, a token's row after the last.

    A vector whose norm is above MAX_NORM is a FormatError: every sentence
    vector, a mean of word vectors, then stays within it, so the product of
    two norms, and every dot product, is finite. A repeated token keeps its
    row and takes its last vector, and a header count that differs from the
    number of vectors read is only warned about."""
    path = Path(path)
    term_ids: dict[str, int] = {}
    table = array("d")  # each token's components, one token after another
    dim: int | None = None
    count: int | None = None
    repeats, first_repeat = 0, None
    lines = chain.from_iterable(text.split("\n")[:-1] for _, text in utf8_blocks(path))
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if lineno == 1 and len(fields) == 2:
            try:
                count, dim = map(int, fields)
                continue
            except ValueError:
                pass
        token, *rest = fields
        try:
            values = list(map(float, rest))
        except ValueError:
            raise FormatError(f"{path} line {lineno}: non-numeric vector component") from None
        if not math.hypot(*values) <= MAX_NORM:  # nan for a nan component
            if all(map(math.isfinite, values)):
                raise FormatError(f"{path} line {lineno}: vector norm above 2**500")
            raise FormatError(f"{path} line {lineno}: non-finite vector component")
        if dim is None:
            dim = len(values)
        if dim <= 0 or len(values) != dim:
            raise FormatError(
                f"{path} line {lineno}: expected {dim} components, found {len(values)}"
            )
        row = term_ids.setdefault(token, len(term_ids))
        if row * dim < len(table):  # a repeated token
            repeats += 1
            first_repeat = first_repeat or lineno
            table[row * dim : (row + 1) * dim] = array("d", values)
        else:
            table.extend(values)
    if dim is None or not term_ids:
        raise FormatError(f"{path}: no word vectors found")
    if repeats:
        log.warning(
            "%s: %d repeated token(s), first at line %d, last vector kept", path, repeats, first_repeat
        )
    if count is not None and count != len(term_ids) + repeats:
        log.warning(
            "%s line 1: the header counts %d vector(s), %d read", path, count, len(term_ids) + repeats
        )
    return DenseWordVectors(term_ids, np.frombuffer(table).reshape(len(term_ids), dim))


def fact_vectors(corpus: Corpus, provider) -> Rows:
    """Vectorize every corpus fact once, one row per fact in corpus order."""
    return provider.rows(corpus.facts.texts)


def default_provider(corpus: Corpus) -> TfidfProvider:
    """TF-IDF provider built over all fact texts plus the question/answer
    text of every answerable question, the self-contained default backend."""
    return TfidfProvider([*corpus.facts.texts, *(qa for _, qa in corpus.answerable)])
