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
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import DataError, FormatError, utf8_lines

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


def tokenize(text: str, *, drop_stopwords: bool = False) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    tokens = _TOKEN_RE.findall(text.lower())
    if drop_stopwords:
        tokens = [t for t in tokens if t not in STOPWORDS]
    return tokens


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
        self._check(other)
        query = np.zeros(self.dim + 1)  # the padding id's weight stays 0.0
        query[other.ids[j]] = other.values[j]
        dots = _dots(query, self.ids[among].T, self.values[among].T)
        return _over_norms(dots, self.norms[among] * other.norms[j])

    def _check(self, other: Rows) -> None:
        """A DataError unless other's vectors can be compared with these."""
        if self.dense != other.dense:
            raise DataError("cannot compare sparse and dense sentence vectors")
        if self.dim != other.dim:
            raise DataError(f"dimension mismatch: {self.dim} vs {other.dim}")


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

    Row q of top holds window q: row indices of rows, best first. Each
    method gives row q, bit for bit, what one Rows.cosines call gives for
    window q alone: the same products, added by _dots in the same order.
    Query weights are spread over one buffer with a slot for each (window,
    term) pair, and the window facts' weights and slots are laid out a
    column at a time.
    """

    def __init__(self, rows: Rows, top: np.ndarray):
        self.rows, self.top = rows, top
        # window q's terms are keyed q * (dim + 1) + id, so windows share no
        # key and each block of windows' keys sort after the block before;
        # keying a block at a time keeps the peak low for wide (dense) rows
        keys, self._slots = [], np.empty((rows.ids.shape[1], *top.shape), dtype=np.intp)
        for start in range(0, len(top), _WINDOW_BLOCK):
            part = slice(start, start + _WINDOW_BLOCK)
            block = rows.ids.T[:, top[part]]
            block += np.arange(len(top))[part, None] * (rows.dim + 1)
            block_keys, slots = np.unique(block, return_inverse=True)
            self._slots[:, part] = slots.reshape(block.shape) + sum(map(len, keys))
            keys.append(block_keys)
        # the last key, above every window's, takes the query terms no window fact has
        self._keys = np.concatenate([*keys, [len(top) * (rows.dim + 1)]])
        self._values = rows.values.T[:, top]
        self._query = np.zeros(len(self._keys))

    def cosines(self, last: np.ndarray, n: int) -> np.ndarray:
        """Row q: rows.cosines(top[q, last[q]], among=top[q, :n])."""
        each = np.arange(len(self.top))
        return self._cosines(self.rows, self.top[each, last], self._slots[:, each, last].T, n)

    def cosines_with(self, other: Rows, n: int) -> np.ndarray:
        """Row q: rows.cosines(q, other, among=top[q, :n]); other has a row
        per window."""
        self.rows._check(other)
        each = np.arange(len(self.top))
        keys = other.ids + each[:, None] * (other.dim + 1)
        slots = np.searchsorted(self._keys, keys)
        slots[self._keys[slots] != keys] = len(self._keys) - 1
        return self._cosines(other, each, slots, n)

    def _cosines(self, other: Rows, js: np.ndarray, slots: np.ndarray, n: int) -> np.ndarray:
        """Row q compares row js[q] of other, whose terms sit at slots[q],
        with the first n facts of window q."""
        rows, top = self.rows, self.top[:, :n]
        if top.size == 0:
            return np.zeros(top.shape)
        query = self._query
        query[slots] = other.values[js]
        dots = _dots(query, self._slots[:, :, :n], self._values[:, :, :n])
        query[slots] = 0.0
        return _over_norms(dots, rows.norms[top] * other.norms[js][:, None])


def dense_rows(vectors) -> Rows:
    """Rows holding the given vectors, each norm the square root of the
    squares added left to right, as _dots adds."""
    values = np.asarray(vectors, dtype=float)
    squares = values[:, 0] * values[:, 0]
    for column in values.T[1:]:
        squares += column * column
    ids = np.broadcast_to(np.arange(values.shape[1]), values.shape)
    return Rows(values, np.sqrt(squares), values.shape[1], ids, dense=True)


class TfidfProvider:
    """TF-IDF sentence vectors over a fixed vocabulary, stop words dropped.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 over the N build texts; a sentence
    vector is raw term count times idf, restricted to the build vocabulary.
    Term ids are numbered in the order the terms first occur in the build
    texts. Each distinct build text is tokenised once: its term ids are
    kept, and rows() reuses them.
    """

    def __init__(self, texts: Iterable[str]):
        self.term_ids: dict[str, int] = {}
        term_ids = self.term_ids
        self._ids = array("i")  # every build text's term ids, one after another
        self._ends = array("q")  # where each build text's ids end
        self._index: dict[str, int] = {}  # build text -> its first position
        for text in texts:
            i = self._index.setdefault(text, len(self._ends))
            if i < len(self._ends):  # a repeated text
                self._ids.extend(self._stored(i))
            else:
                tokens = tokenize(text, drop_stopwords=True)
                for token in tokens:
                    if token not in term_ids:
                        term_ids[token] = len(term_ids)
                self._ids.extend(map(term_ids.__getitem__, tokens))
            self._ends.append(len(self._ids))
        if not term_ids:
            raise DataError("cannot build TF-IDF vectors: no tokens in any input text")
        dim, n_texts = len(term_ids), len(self._ends)
        # df counts each text's distinct terms: sorted, a (text, term) key
        # equal to the one before it is a repeat within one text
        keys = self._keys(np.diff(self._ends, prepend=0), self._ids)
        keys.sort()
        repeat = keys[1:] == keys[:-1]
        np.remainder(keys, dim, out=keys)
        df = np.bincount(keys, minlength=dim) - np.bincount(keys[1:][repeat], minlength=dim)
        self.idf = {  # math.log, not np.log: its last bit can differ
            token: math.log((1 + n_texts) / (1 + n)) + 1.0 for token, n in zip(term_ids, df.tolist())
        }
        self._idf = np.fromiter(self.idf.values(), float, dim)

    def _stored(self, i: int) -> array:
        """The term ids of build text i."""
        return self._ids[self._ends[i - 1] if i else 0 : self._ends[i]]

    def _keys(self, lengths, ids: array) -> np.ndarray:
        """text * dim + term id for each of ids, which holds lengths[0] ids of
        text 0, then lengths[1] ids of text 1, and so on."""
        keys = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys *= len(self.term_ids)
        keys += np.frombuffer(ids, dtype=np.intc)
        return keys

    def rows(self, texts: Sequence[str]) -> Rows:
        """Raw term count times idf per in-vocabulary term; each norm is summed
        left to right in the order the terms first occur in the text. Only
        texts that were not build texts are tokenised."""
        dim = len(self.term_ids)
        flat, lengths = array("i"), array("q")
        for text in texts:
            i = self._index.get(text)
            if i is None:
                tokens = tokenize(text, drop_stopwords=True)
                ids = [self.term_ids[t] for t in tokens if t in self.term_ids]
            else:
                ids = self._stored(i)
            flat.extend(ids)
            lengths.append(len(ids))
        n = len(lengths)
        # one entry per (text, term), in text order then ascending term id
        keys, first, counts = np.unique(
            self._keys(np.frombuffer(lengths, dtype=np.int64), flat),
            return_index=True, return_counts=True,
        )
        row, term = np.divmod(keys, dim)
        weights = counts * self._idf[term]
        n_terms = np.bincount(row, minlength=n)
        width = max(1, int(n_terms.max(initial=0)))
        starts = np.cumsum(n_terms) - n_terms
        col = np.arange(len(keys)) - starts[row]
        ids = np.full((n, width), dim, dtype=np.intp)
        values = np.zeros((n, width))
        ids[row, col] = term
        values[row, col] = weights
        # sorted by first position the entries stay grouped by text, in text
        # order, so the same cells take each text's squares in the order its
        # terms first occur
        squares = np.zeros((n, width))
        squares[row, col] = np.square(weights[np.argsort(first)])
        norms = np.sqrt(np.cumsum(squares, axis=1, out=squares)[:, -1])
        return Rows(values, norms, dim, ids)


_TEXT_BLOCK = 256  # texts averaged at once; one gather of every text at once raises the peak


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
            flat, lengths = array("q"), array("q")
            for text in texts[start : start + _TEXT_BLOCK]:
                ids = [term_ids[t] for t in tokenize(text) if t in term_ids]
                flat.extend(ids)
                lengths.append(len(ids))
            n = np.frombuffer(lengths, dtype=np.int64)
            index = np.full((len(n), max(1, n.max())), len(term_ids), dtype=np.intp)
            index[np.arange(index.shape[1]) < n[:, None]] = np.frombuffer(flat, dtype=np.int64)
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
    for lineno, line in enumerate(utf8_lines(path), start=1):
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
    return provider.rows([fact.text for fact in corpus.facts.values()])


def default_provider(corpus: Corpus) -> TfidfProvider:
    """TF-IDF provider built over all fact texts plus the question/answer
    text of every answerable question, the self-contained default backend."""
    texts = [fact.text for fact in corpus.facts.values()]
    return TfidfProvider(texts + [qa for _, qa in corpus.answerable])
