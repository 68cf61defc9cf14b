import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from explainrank import dataprep
from explainrank.corpus import (
    BACKGROUND,
    CENTRAL,
    GROUNDING,
    LEXGLUE,
    Corpus,
    Question,
)
from explainrank.cli import main
from explainrank.dataprep import (
    CLASSIFICATION,
    CONTEXT_SEPARATOR,
    REGRESSION,
    Dataset,
    NegativeSampler,
    PrepConfig,
    build_dataset,
    dataset_stats,
    read_dataset,
    sample_negatives,
    write_dataset,
)
from explainrank.errors import DataError, FormatError
from explainrank.textsim import (
    DenseWordVectors,
    Rows,
    TfidfProvider,
    default_provider,
    fact_vectors,
    tokenize,
)

from synth import WORD_POOL, corpus_of, random_corpus, write_corpus_files


def rows_dataset(*rows):
    """A Dataset of (qid, question, context, candidate, label, role) rows."""
    return Dataset(*map(list, zip(*rows)))


def two_gold_corpus(n_facts=12):
    facts = {f"f{i:02d}": f"unique{i:02d} shared word{i % 3}" for i in range(n_facts)}
    q = Question(
        "q1",
        "shared question stem",
        {"A": "word0"},
        "A",
        (("f00", CENTRAL), ("f01", GROUNDING)),
    )
    return corpus_of(facts, [q])


class TestSampleNegatives:
    def test_never_returns_gold(self):
        corpus = random_corpus(n_questions=10, n_facts=40, seed=31, gold_range=(2, 5))
        provider = default_provider(corpus)
        for q in corpus.questions:
            gold = q.gold_uid_set
            for uid in gold:
                negs = sample_negatives(uid, gold, corpus, provider, 5)
                assert len(negs) == 5
                assert not set(negs) & gold

    def test_degenerate_corpus_returns_all_with_warning(self, caplog):
        corpus = two_gold_corpus(n_facts=5)  # 3 non-gold facts
        provider = default_provider(corpus)
        with caplog.at_level("WARNING"):
            negs = sample_negatives("f00", {"f00", "f01"}, corpus, provider, 5)
        assert len(negs) == 3
        assert any("only 3" in rec.message for rec in caplog.records)

    def test_matches_exhaustive_similarity_sort(self):
        corpus = random_corpus(n_questions=1, n_facts=25, seed=32, gold_range=(2, 3))
        provider = default_provider(corpus)
        q = corpus.questions[0]
        gold = q.gold_uid_set

        def weights(text):
            counts = Counter(tokenize(text, drop_stopwords=True))
            return {t: n * provider.idf[t] for t, n in counts.items() if t in provider.idf}

        def norm(vec):
            return math.sqrt(sum(w * w for w in vec.values()))

        for anchor_uid in gold:
            # brute force: score every candidate by a direct dot/norm computation
            anchor = weights(corpus.facts[anchor_uid].text)
            scored = []
            for uid, fact in corpus.facts.items():
                if uid in gold:
                    continue
                vec = weights(fact.text)
                dot = sum(w * vec.get(t, 0.0) for t, w in anchor.items())
                denom = norm(anchor) * norm(vec)
                scored.append((-(dot / denom if denom else 0.0), uid))
            expected = [uid for _, uid in sorted(scored)[:6]]
            assert sample_negatives(anchor_uid, gold, corpus, provider, 6) == expected

    def test_dangling_gold_uid(self):
        corpus = two_gold_corpus()
        with pytest.raises(DataError, match="ghost"):
            sample_negatives("ghost", {"ghost"}, corpus, default_provider(corpus), 3)


def shared_gold_corpus(seed):
    """A random corpus whose questions share gold facts under different gold
    sets, with some facts repeating another fact's text under a new uid."""
    rng = random.Random(seed)
    base = random_corpus(n_questions=0, n_facts=rng.randint(8, 30), seed=seed)
    facts = dict(zip(base.facts.uids, base.facts.texts))
    for i, uid in enumerate(rng.sample(list(base.facts), 3)):
        twin = f"{'D' if i % 2 else 'G'}{i:04d}"  # sorts before or after the F uids
        facts[twin] = base.facts.text(uid)
    uids = list(facts)
    hubs = rng.sample(uids, 2)
    questions = []
    for i in range(rng.randint(3, 8)):
        gold = set(rng.sample(uids, rng.randint(0, 4))) | {rng.choice(hubs)}
        questions.append(
            Question(f"Q{i:03d}", "stem", {"A": "word00"}, "A", tuple((u, CENTRAL) for u in sorted(gold)))
        )
    return corpus_of(facts, questions, "synth")


def dense_provider(seed):
    """Small integer word vectors: many sentence pairs tie on cosine."""
    rng = random.Random(seed)
    vectors = [[rng.randint(-1, 1) for _ in range(3)] for _ in WORD_POOL]
    return DenseWordVectors({w: i for i, w in enumerate(WORD_POOL)}, np.array(vectors, dtype=float))


def exhaustive_negatives(corpus, provider, gold_uid, gold_uids, k):
    """Every non-gold fact sorted by (-cosine, uid), the first k kept."""
    uids = list(corpus.facts)
    sims = fact_vectors(corpus, provider).cosines(uids.index(gold_uid))
    scored = sorted((-sim, uid) for uid, sim in zip(uids, sims.tolist()) if uid not in gold_uids)
    return [uid for _, uid in scored[:k]]


class TestNegativeSampler:
    @pytest.mark.parametrize("backend", ["tfidf", "dense"])
    def test_equals_exhaustive_per_question_sort(self, backend, caplog):
        for seed in range(25):
            corpus = shared_gold_corpus(seed)
            provider = default_provider(corpus) if backend == "tfidf" else dense_provider(seed)
            sampler = NegativeSampler(corpus, provider)
            k = random.Random(seed).randint(1, 6)
            # the corpus questions at two k; every gold fact is asked at least four times
            for kk in (k, k + 3, k, k + 3):
                for q in corpus.questions:
                    for uid in q.gold_uid_set:
                        expected = exhaustive_negatives(corpus, provider, uid, q.gold_uid_set, kk)
                        assert sampler.negatives(uid, q.gold_uid_set, kk) == expected
            # a gold set holding the anchor's nearest neighbours, larger than any question's
            anchor = corpus.questions[0].gold[0][0]
            max_gold = max(len(q.gold_uid_set) for q in corpus.questions)
            nearest = exhaustive_negatives(corpus, provider, anchor, {anchor}, max_gold + 2)
            big = {anchor, *nearest}
            assert len(big) > max_gold
            expected = exhaustive_negatives(corpus, provider, anchor, big, k)
            assert sampler.negatives(anchor, big, k) == expected
            # k above the non-gold count: all of them, with a warning
            gold = corpus.questions[-1].gold_uid_set
            caplog.clear()
            with caplog.at_level("WARNING"):
                negs = sampler.negatives(anchor, gold, len(corpus.facts))
            assert negs == exhaustive_negatives(corpus, provider, anchor, gold, len(corpus.facts))
            assert len(negs) == len(corpus.facts) - len(gold) < len(corpus.facts)
            assert any("non-gold fact(s) available" in rec.message for rec in caplog.records)

    def test_identical_texts_tie_by_uid(self):
        facts = {"b": "anchor words", "z": "same text", "a": "same text", "m": "same text"}
        q = Question("q1", "stem", {"A": "x"}, "A", (("b", CENTRAL),))
        corpus = corpus_of(facts, [q])
        sampler = NegativeSampler(corpus, default_provider(corpus))
        assert sampler.negatives("b", {"b"}, 3) == ["a", "m", "z"]

    def test_short_result_warned_once_per_gold_fact_over_all_variants(self, caplog):
        # two gold facts leave one non-gold fact for k=3: each gold fact's
        # result is short, and the four variants share it
        facts = {"f1": "frogs eat insects", "f2": "insects eat plants", "f3": "rocks are hard"}
        gold = (("f1", CENTRAL), ("f2", GROUNDING))
        q = Question("q1", "what do frogs eat", {"A": "insects"}, "A", gold)
        corpus = corpus_of(facts, [q])
        sampler = NegativeSampler(corpus, default_provider(corpus))
        with caplog.at_level("WARNING"):
            for task in (CLASSIFICATION, REGRESSION):
                for with_context in (False, True):
                    cfg = PrepConfig(k=3, task=task, with_context=with_context)
                    assert build_dataset(corpus, sampler, cfg)
        warned = Counter(rec.getMessage() for rec in caplog.records if "available" in rec.getMessage())
        assert warned == {f"gold fact {uid}: only 1 non-gold fact(s) available for k=3": 1
                          for uid in ("f1", "f2")}

    def test_shared_sampler_matches_per_variant_provider(self):
        corpus = random_corpus(n_questions=8, n_facts=40, seed=37, gold_range=(1, 5))
        provider = default_provider(corpus)
        sampler = NegativeSampler(corpus, provider)
        for task in (CLASSIFICATION, REGRESSION):
            for with_context in (False, True):
                cfg = PrepConfig(k=3, m=2, task=task, with_context=with_context)
                assert build_dataset(corpus, sampler, cfg) == build_dataset(corpus, provider, cfg)

    def test_sampler_of_another_corpus_rejected(self):
        corpus = random_corpus(n_questions=3, n_facts=20, seed=38)
        other = random_corpus(n_questions=3, n_facts=21, seed=38)
        sampler = NegativeSampler(other, default_provider(other))
        with pytest.raises(ValueError, match="different corpus"):
            build_dataset(corpus, sampler, PrepConfig(k=2))

    def test_prepare_all_vectorizes_once_and_one_cosine_row_per_question_gold_fact(
        self, tmp_path, monkeypatch
    ):
        corpus = random_corpus(n_questions=10, n_facts=40, seed=39, gold_range=(1, 5))
        fact_paths, question_path = write_corpus_files(corpus, tmp_path / "data")
        row_calls, cosine_rows = [], []
        rows, cosines = TfidfProvider.rows, Rows.cosines

        def counting_rows(self, texts):
            row_calls.append(len(texts))
            return rows(self, texts)

        def counting_cosines(self, j, *args, **kwargs):
            cosine_rows.append(j)
            return cosines(self, j, *args, **kwargs)

        monkeypatch.setattr(TfidfProvider, "rows", counting_rows)
        monkeypatch.setattr(Rows, "cosines", counting_cosines)
        argv = ["prepare", "--facts", *map(str, fact_paths), "--questions", str(question_path)]
        assert main([*argv, "--task", "all", "--k", "3", "--out", str(tmp_path / "out")]) == 0
        assert len(list((tmp_path / "out").glob("dataset_*.tsv"))) == 4
        assert row_calls == [len(corpus.facts)]
        # one row per (gold fact, gold set), not one per variant
        uids = list(corpus.facts)
        keys = {(uid, q.gold_uid_set) for q in corpus.questions for uid, _ in q.gold}
        assert sorted(cosine_rows) == sorted(uids.index(uid) for uid, _ in keys)


class TestBuildDataset:
    def test_counts_without_context(self):
        corpus = two_gold_corpus()
        cfg = PrepConfig(k=3, task=CLASSIFICATION)
        examples = build_dataset(corpus, default_provider(corpus), cfg)
        assert len(examples) == 12  # 2 gold facts x (3 positives + 3 negatives)
        assert [len(column) for column in vars(examples).values()] == [12] * 6
        assert examples.labels.count(1.0) == 6
        assert examples.contexts == [()] * 12

    def test_central_regression_target(self):
        corpus = two_gold_corpus()
        cfg = PrepConfig(k=2, task=REGRESSION)
        examples = build_dataset(corpus, default_provider(corpus), cfg)
        labels_of = {role: [label for label, r in zip(examples.labels, examples.roles) if r == role]
                     for role in (CENTRAL, GROUNDING)}
        assert labels_of[CENTRAL] and set(labels_of[CENTRAL]) == {6.0}
        assert labels_of[GROUNDING] and set(labels_of[GROUNDING]) == {5.0}

    def test_lexglue_target_and_negatives_zero(self):
        facts = two_gold_corpus().facts
        q = Question("q1", "stem words", {"A": "word0"}, "A", (("f02", LEXGLUE),))
        corpus = Corpus(facts=facts, questions=(q,))
        examples = build_dataset(corpus, default_provider(corpus), PrepConfig(k=2, task=REGRESSION))
        assert set(examples.labels) == {4.0, 0.0}

    def test_fallback_role_target_warns(self, caplog):
        facts = two_gold_corpus().facts
        q = Question(
            "q1",
            "stem words",
            {"A": "word0"},
            "A",
            (("f02", BACKGROUND), ("f03", "ROLEX")),
        )
        corpus = Corpus(facts=facts, questions=(q,))
        with caplog.at_level("WARNING"):
            examples = build_dataset(
                corpus, default_provider(corpus), PrepConfig(k=2, task=REGRESSION)
            )
        assert {label for label in examples.labels if label > 0} == {4.0}
        warned = [rec.message for rec in caplog.records if "fallback" in rec.message]
        assert len(warned) == 2  # once per distinct role

    def test_balance_per_question(self):
        corpus = random_corpus(n_questions=15, n_facts=60, seed=33, gold_range=(1, 4))
        examples = build_dataset(corpus, default_provider(corpus), PrepConfig(k=4))
        per_q = {}
        for qid, label in zip(examples.qids, examples.labels):
            pos, neg = per_q.setdefault(qid, [0, 0])
            per_q[qid] = [pos + (label > 0), neg + (label == 0)]
        for pos, neg in per_q.values():
            assert pos == neg

    def test_empty_gold_questions_skipped(self):
        facts = two_gold_corpus().facts
        qs = (
            Question("q1", "stem", {"A": "word0"}, "A", (("f00", CENTRAL),)),
            Question("q2", "stem", {"A": "word0"}, "A", ()),
        )
        corpus = Corpus(facts=facts, questions=qs)
        examples = build_dataset(corpus, default_provider(corpus), PrepConfig(k=2))
        assert set(examples.qids) == {"q1"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrepConfig(k=0)
        with pytest.raises(ValueError):
            PrepConfig(m=0)
        with pytest.raises(ValueError):
            PrepConfig(task="ranking")


class TestBuildDatasetWithContext:
    def corpus(self):
        return random_corpus(n_questions=8, n_facts=40, seed=34, gold_range=(2, 5))

    def test_context_subset_of_gold_excluding_candidate(self):
        corpus = self.corpus()
        cfg = PrepConfig(k=2, m=2, seed=7, with_context=True)
        examples = build_dataset(corpus, default_provider(corpus), cfg)
        assert examples
        by_qid = {q.qid: q for q in corpus.questions}
        text_of = {corpus.facts[uid].text for uid in corpus.facts}
        assert text_of  # unique texts guaranteed by the generator
        for qid, context, candidate in zip(examples.qids, examples.contexts, examples.candidates):
            gold_texts = {corpus.facts[uid].text for uid in by_qid[qid].gold_uid_set}
            assert set(context) <= gold_texts
            assert candidate not in context
            assert 1 <= len(context) <= len(gold_texts) - 1

    def test_single_gold_question_contributes_nothing(self, caplog):
        facts = two_gold_corpus().facts
        q = Question("q1", "stem", {"A": "word0"}, "A", (("f00", CENTRAL),))
        corpus = Corpus(facts=facts, questions=(q,))
        with caplog.at_level("INFO"):
            examples = build_dataset(
                corpus, default_provider(corpus), PrepConfig(k=2, with_context=True)
            )
        assert examples == Dataset() and len(examples) == 0
        assert any("single gold fact" in rec.message for rec in caplog.records)

    def test_single_gold_questions_logged_in_one_record(self, caplog):
        facts = two_gold_corpus().facts
        golds = {
            "q1": (("f00", CENTRAL),),
            "q2": (("f00", CENTRAL), ("f01", GROUNDING)),
            "q3": (("f02", CENTRAL),),
        }
        qs = tuple(Question(qid, "stem", {"A": "word0"}, "A", gold) for qid, gold in golds.items())
        corpus = Corpus(facts=facts, questions=qs)
        cfg = PrepConfig(k=2, with_context=True)
        with caplog.at_level("INFO"):
            examples = build_dataset(corpus, default_provider(corpus), cfg)
        assert set(examples.qids) == {"q2"}
        (record,) = [m for m in caplog.messages if "single gold fact" in m]
        assert record == "2 question(s) with a single gold fact contribute no context examples: q1, q3"

    def test_balance_holds_with_context(self):
        corpus = self.corpus()
        cfg = PrepConfig(k=3, m=2, seed=9, with_context=True)
        examples = build_dataset(corpus, default_provider(corpus), cfg)
        positives = sum(1 for label in examples.labels if label > 0)
        assert positives * 2 == len(examples)

    def test_seed_determinism(self):
        corpus = self.corpus()
        provider = default_provider(corpus)
        cfg = PrepConfig(k=2, m=3, seed=42, with_context=True)
        assert build_dataset(corpus, provider, cfg) == build_dataset(corpus, provider, cfg)

    def test_different_seed_different_contexts(self):
        corpus = self.corpus()
        provider = default_provider(corpus)
        a = build_dataset(corpus, provider, PrepConfig(k=2, m=3, seed=1, with_context=True))
        b = build_dataset(corpus, provider, PrepConfig(k=2, m=3, seed=2, with_context=True))
        assert set(a.contexts) != set(b.contexts)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        corpus = random_corpus(n_questions=6, n_facts=30, seed=35, gold_range=(2, 4))
        cfg = PrepConfig(k=2, m=2, seed=3, with_context=True, task=REGRESSION)
        examples = build_dataset(corpus, default_provider(corpus), cfg)
        path = tmp_path / "d.tsv"
        write_dataset(examples, path)
        assert read_dataset(path) == examples

    def test_empty_context_round_trips(self, tmp_path):
        data = rows_dataset(("q1", "question text", (), "candidate", 1.0, CENTRAL))
        path = tmp_path / "d.tsv"
        write_dataset(data, path)
        loaded = read_dataset(path)
        assert loaded.contexts == [()]
        assert loaded == data

    def test_header_plus_data_lines(self, tmp_path):
        examples = rows_dataset(
            ("q1", "qt", (), "cand a", 1.0, CENTRAL),
            ("q1", "qt", (), "cand b", 0.0, None),
        )
        path = tmp_path / "d.tsv"
        write_dataset(examples, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("qid\t")

    @pytest.mark.parametrize("row, message", [
        pytest.param(("q\t1", "qt", (), "cand", 1.0, CENTRAL), "qid 'q\\t1' holds a tab", id="qid_tab"),
        pytest.param(("q1", "q\rt", (), "cand", 1.0, CENTRAL), "question_text 'q\\rt' holds", id="question_cr"),
        pytest.param(("q1", "qt", ("ok", "a\nb"), "cand", 1.0, CENTRAL), "context 'a\\nb' holds",
                     id="context_lf"),
        pytest.param(("q1", "qt", (), "has\ttab", 1.0, CENTRAL), "candidate_text 'has\\ttab' holds",
                     id="candidate_tab"),
        pytest.param(("q1", "qt", (), "cand", 1.0, "odd\r\nrole"), "role 'odd\\r\\nrole' holds",
                     id="role_crlf"),
        pytest.param(("q1", "qt", (), "cand", 1.0, ""), "role '' reads back as None", id="role_empty"),
        pytest.param(("q1", "qt", (), "cand", 1.0, "lexical glue"), "role 'lexical glue' reads back as 'LEXGLUE'",
                     id="role_folded"),
        pytest.param(("q1", "qt", (), "cand", 1.0, "central"), "role 'central' reads back as 'CENTRAL'",
                     id="role_case"),
        pytest.param(("q1", "qt", ("",), "cand", 1.0, CENTRAL), "context ('',) reads back as ()",
                     id="context_one_empty_fact"),
        pytest.param(("q1", "qt", (), "cand", math.nan, CENTRAL), "label_or_target nan is not", id="label_nan"),
        pytest.param(("q1", "qt", (), "cand", -math.inf, CENTRAL), "label_or_target -inf is not", id="label_inf"),
        # equal to the other row's 1.0 label, so only its type tells it apart
        pytest.param(("q1", "qt", (), "cand", True, CENTRAL), "label_or_target True is not", id="label_bool"),
        pytest.param(("q1", "qt", (), "cand", np.float32(0.1), CENTRAL), "label_or_target np.float32(0.1) is not"
                     if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else "label_or_target 0.1 is not",
                     id="label_float32"),
        pytest.param(("q1", "qt", (), "cand", 2**53 + 1, CENTRAL), "label_or_target 9007199254740993 is not",
                     id="label_big_int"),
        pytest.param(("q1", "qt", (), "cand", np.float64(1.0), CENTRAL), "label_or_target np.float64(1.0) is not",
                     id="label_float64", marks=pytest.mark.skipif(
                         np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1.x writes '1.0'")),
    ])
    def test_unreadable_cell_refused_before_the_file_opens(self, tmp_path, row, message):
        path = tmp_path / "d.tsv"
        clean = ("q0", "question", ("fact",), "candidate", 1.0, None)
        with pytest.raises(ValueError, match=re.escape(message) + ".*; the dataset would not read back$"):
            write_dataset(rows_dataset(clean, row, clean), path)
        assert not path.exists()

    def test_bytes_equal_per_row_reference_and_each_text_warned_once(self, tmp_path, caplog):
        rng = random.Random(8)
        sep = CONTEXT_SEPARATOR
        texts = ["plain", "", "é \u2028 ok\x85", f"glued{sep}fact", f"tail{sep[:-1]}", "x [SEP y"]
        roles = [None, CENTRAL, "odd role", " "]
        rows = []
        while len(rows) < 700:  # more than one block of rows
            context = tuple(rng.sample(texts, rng.randint(0, 3)))
            if context != ("",):
                rows.append((rng.choice(["q1", "q 2", ""]), rng.choice(texts), context, rng.choice(texts),
                             rng.choice([1.0, 0.0, 6.0, -0.0, 0.1 + 0.2, 1]), rng.choice(roles)))
        path = tmp_path / "d.tsv"
        with caplog.at_level("WARNING"):
            write_dataset(rows_dataset(*rows), path)
        reference = "".join(
            "\t".join([qid, question, sep.join(context), candidate, repr(label), role or ""]) + "\n"
            for qid, question, context, candidate, label, role in rows
        )
        header = "qid\tquestion_text\tcontext\tcandidate_text\tlabel_or_target\trole\n"
        assert path.read_bytes() == (header + reference).encode()
        # once per distinct context fact that may read back split
        warned = Counter(rec.getMessage().split("context fact ")[1].split(" may")[0] for rec in caplog.records)
        assert warned == {repr(f"glued{sep}fact"): 1, repr(f"tail{sep[:-1]}"): 1}

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_row_blocks_change_no_byte(self, tmp_path, monkeypatch, block):
        """Rows are written _BLOCK_ROWS at a time. Blocks of 1, 2 or 3 rows,
        the last one short, give the bytes of one block."""
        corpus = random_corpus(n_questions=5, n_facts=30, seed=36, gold_range=(2, 3))
        cfg = PrepConfig(k=2, m=1, seed=3, with_context=True, task=REGRESSION)
        data = build_dataset(corpus, default_provider(corpus), cfg)
        while len(data) % 6 not in (1, 5):  # last blocks of 2 and 3 rows short
            for column, value in zip(vars(data).values(), ("q9", "odd", ("one", "two"), "last", 0.5, None)):
                column.append(value)
        assert block < len(data) <= dataprep._BLOCK_ROWS  # one block unpatched, many patched
        write_dataset(data, tmp_path / "whole.tsv")
        monkeypatch.setattr(dataprep, "_BLOCK_ROWS", block)
        write_dataset(data, tmp_path / "blocks.tsv")
        assert (tmp_path / "blocks.tsv").read_bytes() == (tmp_path / "whole.tsv").read_bytes()

    def test_line_separators_in_text_round_trip(self, tmp_path):
        # write_dataset keeps U+2028, U+0085 and form feeds; read_dataset must
        # not break a line at them
        data = rows_dataset(("q1", "one\u2028two\x85three", (), "four\x0cfive\x1c", 1.0, CENTRAL))
        path = tmp_path / "d.tsv"
        write_dataset(data, path)
        assert read_dataset(path) == data

    def test_separator_in_a_context_fact_warned_once_per_text(self, tmp_path, caplog):
        # a fact holding the separator, or ending in it bar its last space, reads
        # back split; the bytes are the plain join all the same
        glued, tail = f"a{CONTEXT_SEPARATOR}b", CONTEXT_SEPARATOR[:-1]
        rows = [
            ("q1", "qt", (glued, "plain"), "cand", 1.0, CENTRAL),
            ("q1", "qt", ("plain", glued), "cand", 0.0, None),
            ("q1", "qt", (f"x{tail}", "y"), "cand", 1.0, CENTRAL),
            ("q1", "qt", ("y", f"z{tail}w"), "cand", 0.0, None),  # no space after: whole
        ]
        path = tmp_path / "d.tsv"
        with caplog.at_level("WARNING"):
            write_dataset(rows_dataset(*rows), path)
        written = [line.split("\t")[2] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert written == [CONTEXT_SEPARATOR.join(context) for _, _, context, *_ in rows]
        assert read_dataset(path).contexts == [
            ("a", "b", "plain"), ("plain", "a", "b"), ("x", "[SEP] y"), ("y", f"z{tail}w")
        ]
        warned = [rec.getMessage() for rec in caplog.records]
        assert warned == [
            f"context fact {text!r} may read back as more than one fact at the ' [SEP] ' separator"
            for text in (glued, f"x{tail}")
        ]

    @pytest.mark.parametrize("column", ["qids", "labels", "roles"])
    def test_columns_of_unequal_length_rejected(self, tmp_path, column):
        row = ("q1", "qt", (), "cand", 1.0, CENTRAL)
        data = rows_dataset(*[row] * 256)  # one whole block
        getattr(data, column).pop()
        with pytest.raises(ValueError, match="columns differ in length"):
            write_dataset(data, tmp_path / "d.tsv")
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_non_finite_label_names_file_and_line(self, tmp_path, label):
        row = ("q1", "question", (), "candidate", 1.0, CENTRAL)
        path = tmp_path / "d.tsv"
        write_dataset(rows_dataset(row, row), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2] = lines[2].replace("\t1.0\t", f"\t{label}\t")
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(FormatError, match=rf"d\.tsv line 3: non-finite label '{label}'$"):
            read_dataset(path)

    def test_unparseable_label_names_file_and_line(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text(
            "qid\tquestion_text\tcontext\tcandidate_text\tlabel_or_target\trole\nq1\tq\t\tc\tone\t\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=r"d\.tsv line 2: bad label 'one'$"):
            read_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            read_dataset(path)


class TestDatasetStats:
    def test_balanced_ratio_exactly_one(self):
        corpus = two_gold_corpus()
        examples = build_dataset(corpus, default_provider(corpus), PrepConfig(k=3))
        stats = dataset_stats(examples)
        assert stats.total == 12
        assert stats.balance == 1.0

    def test_regression_histogram_support(self):
        corpus = random_corpus(
            n_questions=10,
            n_facts=50,
            seed=36,
            roles=(CENTRAL, GROUNDING, LEXGLUE, BACKGROUND),
            gold_range=(1, 4),
        )
        examples = build_dataset(corpus, default_provider(corpus), PrepConfig(k=3, task=REGRESSION))
        stats = dataset_stats(examples)
        assert set(stats.per_label) <= {6.0, 5.0, 4.0, 0.0}

    def test_per_question_counts(self):
        corpus = two_gold_corpus()
        examples = build_dataset(corpus, default_provider(corpus), PrepConfig(k=3))
        stats = dataset_stats(examples)
        assert stats.per_question == {"q1": 12}
        assert "balance (pos:neg): 1.0000" in stats.format_text()

    def test_counts_equal_a_per_row_count(self):
        corpus = random_corpus(
            n_questions=10,
            n_facts=50,
            seed=36,
            roles=(CENTRAL, GROUNDING, LEXGLUE, BACKGROUND, "ROLEX"),
            gold_range=(1, 4),
        )
        cfg = PrepConfig(k=3, m=2, task=REGRESSION, with_context=True)
        data = build_dataset(corpus, default_provider(corpus), cfg)
        per_label, per_role, per_question, positives = Counter(), Counter(), Counter(), 0
        for qid, label, role in zip(data.qids, data.labels, data.roles):
            per_label[label] += 1
            per_question[qid] += 1
            positives += label > 0
            if role is not None:
                per_role[role] += 1
        stats = dataset_stats(data)
        assert (stats.total, stats.positives) == (len(data), positives)
        assert stats.negatives == len(data) - positives
        assert (stats.per_label, stats.per_role) == (per_label, per_role)
        assert stats.per_question == per_question
        assert len(per_role) == 5
