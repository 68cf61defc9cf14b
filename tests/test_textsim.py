import math
import random
from collections import Counter

import numpy as np
import pytest

from explainrank.corpus import Question, qa_text
from explainrank.errors import DataError, FormatError
from explainrank.textsim import (
    STOPWORDS,
    DenseWordVectors,
    Rows,
    TfidfProvider,
    Window,
    default_provider,
    dense_rows,
    load_dense,
    tokenize,
)

import cosine_reference
from synth import random_corpus


def sparse_rows(weight_maps, dim=12):
    """TF-IDF-layout rows from term id -> weight maps: ids ascending, padded
    with dim, norms summed in the maps' own order."""
    width = max(1, max(map(len, weight_maps)))
    ids = np.full((len(weight_maps), width), dim)
    values = np.zeros((len(weight_maps), width))
    for i, weights in enumerate(weight_maps):
        for col, (term, weight) in enumerate(sorted(weights.items())):
            ids[i, col], values[i, col] = term, weight
    norms = [math.sqrt(sum(w * w for w in weights.values())) for weights in weight_maps]
    return Rows(values, np.array(norms), dim, ids)


def cos(rows, i, j, other=None):
    """Cosine of row i of rows with row j of other (default rows) as a float."""
    return float(rows.cosines(j, other, among=[i])[0])


def hexes(values):
    """float.hex of each value, so that -0.0 and 0.0 differ."""
    return [float(x).hex() for x in values]


def row_weights(rows, i):
    """Row i of TF-IDF rows as a term id -> weight map."""
    return {int(t): float(w) for t, w in zip(rows.ids[i], rows.values[i]) if t < rows.dim}


class TestTokenize:
    def test_stopwords_kept_by_default(self):
        assert tokenize("A girl eating an apple.") == ["a", "girl", "eating", "an", "apple"]

    def test_semicolon_separates(self):
        assert tokenize("young; baby cat") == ["young", "baby", "cat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_stopword_removal(self):
        assert tokenize("the cat is on the mat", drop_stopwords=True) == ["cat", "mat"]

    def test_underscore_splits(self):
        assert tokenize("solar_energy") == ["solar", "energy"]

    def test_token_shape_property(self):
        rng = random.Random(7)
        alphabet = "ab C;.-_9 \t!"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            for token in tokenize(text):
                assert token
                assert token == token.lower()
                assert not any(ch.isspace() for ch in token)


class TestTfidf:
    def test_idf_term_in_all_docs(self):
        provider = TfidfProvider(["cat sat", "cat ran"])
        assert provider.idf["cat"] == pytest.approx(1.0, abs=1e-12)

    def test_idf_term_in_one_of_two_docs(self):
        # ln((1 + 2) / (1 + 1)) + 1, evaluated independently
        provider = TfidfProvider(["cat sat", "dog ran"])
        assert provider.idf["sat"] == pytest.approx(1.4054651081081644, abs=1e-12)
        assert provider.idf["sat"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-15)

    def test_vocabulary_subset_of_inputs(self):
        texts = ["green plants use sunlight", "a frog eats insects"]
        provider = TfidfProvider(texts)
        seen = set()
        for text in texts:
            seen.update(tokenize(text, drop_stopwords=True))
        assert set(provider.term_ids) <= seen

    def test_tf_is_raw_count(self):
        provider = TfidfProvider(["cat cat dog", "dog"])
        weights = row_weights(provider.rows(["cat cat dog"]), 0)
        cat_id = provider.term_ids["cat"]
        assert weights[cat_id] == pytest.approx(2 * provider.idf["cat"], abs=1e-12)

    def test_oov_tokens_dropped(self):
        provider = TfidfProvider(["cat dog"])
        assert len(row_weights(provider.rows(["cat zebra"]), 0)) == 1

    def test_all_empty_texts_error(self):
        with pytest.raises(DataError):
            TfidfProvider(["", "   ", "\t"])

    def test_deterministic_across_builds(self):
        texts = ["a frog eats insects", "plants need sunlight", "frogs are amphibians"]
        a, b = TfidfProvider(texts), TfidfProvider(texts)
        assert a.term_ids == b.term_ids
        assert a.idf == b.idf
        rows_a, rows_b = a.rows(texts), b.rows(texts)
        assert np.array_equal(rows_a.ids, rows_b.ids)
        assert np.array_equal(rows_a.values, rows_b.values)
        assert np.array_equal(rows_a.norms, rows_b.norms)

    def test_rows_sorted_by_term_and_padded(self):
        provider = TfidfProvider(["zebra frog cat", "cat dog"])
        rows = provider.rows(["zebra frog cat", "cat", ""])
        dim = len(provider.term_ids)
        assert rows.ids.shape == (3, 3)
        assert rows.ids[0].tolist() == sorted(provider.term_ids[t] for t in ("zebra", "frog", "cat"))
        assert rows.ids[1].tolist() == [provider.term_ids["cat"], dim, dim]
        assert rows.ids[2].tolist() == [dim, dim, dim]
        assert rows.values[1, 1:].tolist() == [0.0, 0.0]
        assert rows.norms[2] == 0.0


class TestDenseVectors:
    def write_vectors(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_sentence_mean(self, tmp_path):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["a 1 0", "b 0 1"])
        provider = load_dense(path)
        assert provider.rows(["a b"]).values[0].tolist() == [0.5, 0.5]

    def test_header_line_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["2 2", "a 1 0", "b 0 1"])
        provider = load_dense(path)
        assert provider.dim == 2
        assert provider.rows(["a"]).values[0].tolist() == [1.0, 0.0]

    def test_repeated_token_warns_and_keeps_last(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["a 1 0", "b 0 1", "a 0 1", "b 1 1", "a 2 2"])
        with caplog.at_level("WARNING"):
            provider = load_dense(path)
        assert provider.rows(["a"]).values[0].tolist() == [2.0, 2.0]
        assert provider.rows(["b"]).values[0].tolist() == [1.0, 1.0]
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path}: 3 repeated token(s), first at line 3, last vector kept"
        ]

    def test_header_count_mismatch_warns(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["5 2", "a 1 0", "b 0 1"])
        with caplog.at_level("WARNING"):
            provider = load_dense(path)
        assert sorted(provider.term_ids) == ["a", "b"]
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path} line 1: the header counts 5 vector(s), 2 read"
        ]
        caplog.clear()
        self.write_vectors(path, ["5 2", "a 1 0", "a 0 1"])  # repeats count as read
        with caplog.at_level("WARNING"):
            assert load_dense(path).rows(["a"]).values[0].tolist() == [0.0, 1.0]
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path}: 1 repeated token(s), first at line 3, last vector kept",
            f"{path} line 1: the header counts 5 vector(s), 2 read",
        ]
        caplog.clear()
        self.write_vectors(path, ["2 2", "a 1 0", "a 0 1"])
        with caplog.at_level("WARNING"):
            load_dense(path)
        assert "the header counts" not in caplog.text

    def test_oov_only_sentence_zero_vector(self, tmp_path):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["a 1 0"])
        rows = load_dense(path).rows(["zebra quark"])
        assert rows.norms[0] == 0.0
        assert rows.values[0].tolist() == [0.0, 0.0]

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["a 1 0", "b 0 1 5"])
        with pytest.raises(FormatError, match="line 2"):
            load_dense(path)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["a 1 zz"])
        with pytest.raises(FormatError, match="line 1"):
            load_dense(path)

    def test_sentence_mean_is_one_left_to_right_loop(self):
        # each row and norm must give, by float.hex, cosine_reference.mean of
        # the text's in-vocabulary token vectors, and the zero vector for none.
        # np.mean(axis=0) failed this: it sums 8 or more 1-d vectors pairwise
        # (the first example text) and starts every sum from +0.0 ("the")
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        words, oov = ["a", "b", "frog", "the", "é"], ["zebra", "quark"]
        cells = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 3.0]),
                          st.floats(-1e6, 1e6))

        @st.composite
        def cases(draw):
            dim = draw(st.sampled_from([1, 1, 2, 3, 50]))
            table = draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                  min_size=len(words), max_size=len(words)))
            texts = draw(st.lists(st.lists(st.sampled_from(words + oov), max_size=12)
                                  .map(" ".join), min_size=1, max_size=6))
            return table, texts

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(case=cases(), copies=st.sampled_from([1, 1, 90]))
        @hypothesis.example(case=([[0.1], [0.2], [0.7], [-0.0], [3.0]],
                                  ["b b frog b a frog b frog a", "the", "zebra quark", ""]),
                            copies=1)
        def check(case, copies):
            table, texts = case
            provider = DenseWordVectors({w: i for i, w in enumerate(words)}, np.array(table))
            rows = provider.rows(texts * copies)  # 90 copies span several blocks of texts
            for i, text in enumerate(texts * copies):
                found = [table[words.index(t)] for t in text.split() if t in words]
                mean = cosine_reference.mean(found) if found else [0.0] * len(table[0])
                assert hexes(rows.values[i]) == hexes(mean)
                assert rows.norms[i].hex() == cosine_reference.norm(mean).hex()

        check()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_component_names_line(self, tmp_path, bad):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["2 2", "a 1 0", f"b 0 {bad}"])
        with pytest.raises(FormatError, match=r"v\.txt line 3: non-finite"):
            load_dense(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            load_dense(path)

    @pytest.mark.parametrize("bad", ["1e200 1e200", "1e200 1", " ".join([repr(2.0**499)] * 5)])
    def test_norm_above_limit_names_line(self, tmp_path, bad):
        path = tmp_path / "v.txt"
        self.write_vectors(path, ["a 1" + " 0" * bad.count(" "), f"b {bad}"])
        with pytest.raises(FormatError, match=r"v\.txt line 2: vector norm above 2\*\*500"):
            load_dense(path)

    def test_norm_at_limit_gives_finite_cosines(self, tmp_path):
        # four components of 2**499 have norm 2**500 exactly
        path = tmp_path / "v.txt"
        half = 2.0**499
        self.write_vectors(path, [f"a {half!r} {half!r} {half!r} {half!r}",
                                  f"b {-half!r} {half!r} 0 0", "c 1e-160 0 0 0"])
        rows = load_dense(path).rows(["a", "b", "a b", "c", "c a"])
        assert rows.norms[0] == 2.0**500
        with np.errstate(over="raise", invalid="raise"):
            for j in range(5):
                assert np.isfinite(rows.cosines(j)).all()
        assert rows.cosines(0)[0] == 1.0


class TestCosine:
    def test_self_similarity(self):
        rows = sparse_rows([{0: 1.5, 3: 2.0}])
        assert cos(rows, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cos(dense_rows([[1, 0], [0, 1]]), 0, 1) == 0.0

    def test_hand_value(self):
        # dot = 1*2 + 2*1 = 4; norms sqrt(5) each; 4/5
        assert cos(dense_rows([[1, 2], [2, 1]]), 0, 1) == pytest.approx(0.8, abs=1e-12)
        rows = sparse_rows([{0: 1, 1: 2}, {0: 2, 1: 1}])
        assert cos(rows, 0, 1) == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_is_zero_not_error(self):
        assert cos(sparse_rows([{}, {0: 1.0}]), 0, 1) == 0.0
        assert cos(sparse_rows([{}, {0: 1.0}]), 1, 0) == 0.0
        assert cos(dense_rows([[0, 0], [1, 1]]), 0, 1) == 0.0
        assert cos(dense_rows([[0, 0], [1, 1]]), 1, 0) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension"):
            dense_rows([[1, 0]]).cosines(0, dense_rows([[1, 0, 0]]))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(DataError):
            sparse_rows([{0: 1.0}], dim=1).cosines(0, dense_rows([[1.0]]))

    def _random_sparse(self, rng, signed=False):
        lo = -5.0 if signed else 0.1
        return {t: rng.uniform(lo, 5.0) for t in rng.sample(range(12), rng.randint(1, 8))}

    def test_symmetry_exact(self):
        rng = random.Random(11)
        for _ in range(200):
            rows = sparse_rows([self._random_sparse(rng, signed=True) for _ in range(2)])
            assert cos(rows, 0, 1) == cos(rows, 1, 0)

    def test_scale_invariance(self):
        rng = random.Random(12)
        for _ in range(200):
            u, v = self._random_sparse(rng), self._random_sparse(rng)
            c = rng.uniform(0.01, 100.0)
            rows = sparse_rows([u, v, {t: c * w for t, w in u.items()}])
            assert cos(rows, 2, 1) == pytest.approx(cos(rows, 0, 1), abs=1e-9)

    def test_range(self):
        rng = random.Random(13)
        for _ in range(200):
            rows = sparse_rows([self._random_sparse(rng, signed=True) for _ in range(2)])
            assert -1.0 - 1e-12 <= cos(rows, 0, 1) <= 1.0 + 1e-12

    def test_nonnegative_for_tfidf_vectors(self):
        provider = TfidfProvider(["a green frog", "green plants grow", "rocks are hard"])
        texts = ["a green frog", "green plants grow", "rocks are hard", "frog plants"]
        rows = provider.rows(texts)
        for j in range(len(texts)):
            assert (rows.cosines(j) >= 0.0).all()

    def test_cached_norm_matches_recomputed(self):
        rng = random.Random(14)
        words = ["frog", "green", "plant", "rock", "sun", "water", "grow"]
        texts = [" ".join(rng.choices(words, k=rng.randint(0, 9))) for _ in range(100)]
        provider = TfidfProvider(texts)
        rows = provider.rows(texts)
        for i in range(len(texts)):
            recomputed = math.sqrt(sum(w * w for w in row_weights(rows, i).values()))
            assert rows.norms[i] == pytest.approx(recomputed, abs=1e-9)
        dense = dense_rows([[rng.uniform(-1, 1) for _ in range(5)] for _ in range(100)])
        for values, norm in zip(dense.values, dense.norms):
            assert norm == pytest.approx(math.sqrt(sum(x * x for x in values)), abs=1e-9)

    def test_tfidf_sums_common_terms_in_term_order(self):
        # the reference: products of common terms added left to right in
        # ascending term order, then divided by the product of the norms
        rng = random.Random(15)
        words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choices(words, k=rng.randint(1, 12))) for _ in range(60)]
        provider = TfidfProvider(texts)
        rows = provider.rows(texts)
        for j in range(len(texts)):
            v = row_weights(rows, j)
            expected = []
            for i in range(len(texts)):
                u = row_weights(rows, i)
                dot = sum(u[t] * v[t] for t in sorted(u.keys() & v.keys()))
                norms = rows.norms[i] * rows.norms[j]
                expected.append(dot / norms if norms else 0.0)
            assert rows.cosines(j).tolist() == expected

    def test_window_query_term_in_no_window_fact(self):
        # each window's last column is its Q/A row (rows 2 and 3); Q/A term 2
        # is in no fact of either window and its key sits just before term
        # 3's: its weight must meet no fact's
        facts, qa = [{1: 1.0}, {3: 2.0}], [{2: 1.0}, {1: 1.0, 2: 5.0}]
        rows = sparse_rows(facts + qa)
        top = np.array([[0, 1], [1, 0]])
        got = Window(rows, top, np.array([2, 3])).cosines(np.array([2, 2]), 2)
        assert got[0].tolist() == [0.0, 0.0]
        for q in range(2):
            assert hexes(got[q]) == hexes(rows.cosines(2 + q, among=top[q, :2]))
            apart = sparse_rows(facts).cosines(q, sparse_rows(qa), among=top[q, :2])
            assert hexes(got[q]) == hexes(apart)

    def test_window_as_wide_as_its_widest_fact(self):
        # Q/A rows wider than every window fact add no term column to the
        # window, and their cosines, and the facts', still match Rows.cosines
        rng = random.Random(16)
        words = [f"w{i}" for i in range(40)]
        facts = [" ".join(rng.sample(words, rng.randint(1, 4))) for _ in range(12)]
        qa = [" ".join(rng.sample(words, rng.randint(20, 30))) for _ in range(5)]
        rows = TfidfProvider(facts + qa).rows(facts + qa)
        top = np.array([rng.sample(range(12), 6) for _ in qa])
        window = Window(rows, top, 12 + np.arange(5))
        assert len(window._values) == 4 < rows.ids.shape[1]
        for last in ([6] * 5, [0, 5, 2, 3, 1]):
            got = window.cosines(np.array(last), 6)
            for q, j in enumerate(window.top[np.arange(5), last]):
                assert hexes(got[q]) == hexes(rows.cosines(j, among=top[q]))

    def test_dense_is_one_left_to_right_loop(self):
        # norms, Rows.cosines and Window must give, by float.hex, the loops of
        # cosine_reference: products added left to right from the first one
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        cells = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
                          st.floats(-1e6, 1e6))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(data=st.data(), dim=st.integers(1, 8), n=st.integers(1, 8))
        def check(data, dim, n):
            vectors = data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                         min_size=n, max_size=n))
            queries = data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                         min_size=1, max_size=4))
            rows, other = dense_rows(vectors), dense_rows(queries)
            assert hexes(rows.norms) == [cosine_reference.norm(v).hex() for v in vectors]
            for j, query in enumerate(queries):
                expected = [cosine_reference.cosine(query, v).hex() for v in vectors]
                assert hexes(rows.cosines(j, other)) == expected
            width = data.draw(st.integers(1, 2 * n))
            top = np.array(data.draw(st.lists(
                st.lists(st.integers(0, n - 1), min_size=width, max_size=width),
                min_size=len(queries), max_size=len(queries))))
            last = np.array(data.draw(st.lists(st.integers(0, width - 1),
                                               min_size=len(top), max_size=len(top))))
            upto = data.draw(st.integers(0, width))
            # each window's last column is its query, as rerank keeps its Q/A row
            both = dense_rows(vectors + queries)
            window = Window(both, top, n + np.arange(len(top)))
            with_query = window.cosines(np.full(len(top), width), upto)
            for q, (picks, got, got_with) in enumerate(
                zip(top.tolist(), window.cosines(last, upto), with_query)
            ):
                facts = [vectors[i] for i in picks[:upto]]
                chosen = vectors[picks[last[q]]]
                assert hexes(got) == [cosine_reference.cosine(chosen, v).hex() for v in facts]
                assert hexes(got_with) == [cosine_reference.cosine(queries[q], v).hex() for v in facts]

        check()

    def test_among_and_other_select_rows(self):
        rows = dense_rows([[1, 0], [0, 1], [1, 1]])
        query = dense_rows([[1, 0]])
        assert rows.cosines(0, query).tolist() == pytest.approx([1.0, 0.0, math.sqrt(0.5)])
        assert rows.cosines(0, query, among=[2, 0]).tolist() == pytest.approx(
            [math.sqrt(0.5), 1.0]
        )


class TestQaText:
    def test_stem_plus_answer(self):
        q = Question("q", "Which is living?", {"A": "rock", "B": "frog"}, "B")
        assert qa_text(q) == "Which is living? frog"

    def test_full_question(self):
        stem = "Which of the following is an example of an organism taking in nutrients?"
        q = Question("q", stem, {"A": "a dog burying a bone", "B": "a girl eating an apple"}, "B")
        assert qa_text(q) == (
            "Which of the following is an example of an organism taking in nutrients? "
            "a girl eating an apple"
        )

    def test_empty_stem_trimmed(self):
        q = Question("q", "", {"A": "frog"}, "A")
        assert qa_text(q) == "frog"

    def test_other_choices_excluded(self):
        q = Question("q", "Stem", {"A": "wrong", "B": "right"}, "B")
        assert "wrong" not in qa_text(q)


class TestDefaultProvider:
    def test_covers_fact_and_question_vocabulary(self):
        corpus = random_corpus(n_questions=5, n_facts=10, seed=3)
        provider = default_provider(corpus)
        some_fact = next(iter(corpus.facts.values()))
        assert provider.rows([some_fact.text]).norms[0] > 0.0

    def test_stopword_list_is_fixed(self):
        assert "the" in STOPWORDS and "frog" not in STOPWORDS
