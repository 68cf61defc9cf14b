import re
from dataclasses import replace

import pytest

from explainrank.corpus import (
    BACKGROUND,
    CENTRAL,
    GROUNDING,
    KNOWN_ROLES,
    LEXGLUE,
    NEG,
    Corpus,
    ExplanationFact,
    Facts,
    Question,
    load_corpus,
    load_facts,
    load_questions,
    parse_explanation,
    parse_role,
    qa_text,
    validate,
    write_questions,
)
from explainrank.errors import DataError, FormatError

import line_readers
from synth import corpus_of, random_corpus, write_corpus_files, write_fact_table


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadFacts:
    def test_join_rule(self, tmp_path):
        path = tmp_path / "kindof.tsv"
        write_lines(path, ["a\tb\tc\t[SKIP] UID", "an apple\tis a kind of\tfruit\tx1"])
        facts = load_facts([path])
        assert facts["x1"].text == "an apple is a kind of fruit"
        assert facts["x1"].table_name == "kindof"

    def test_empty_cells_dropped(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\tb\t[SKIP] UID", "\twater is a liquid\tx1"])
        facts = load_facts([path])
        assert facts["x1"].text == "water is a liquid"

    def test_skip_columns_excluded(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] notes\t[SKIP] UID", "a dog\tignore me\tx1"])
        assert load_facts([path])["x1"].text == "a dog"

    def test_no_double_spaces(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\tb\t[SKIP] UID", "  spaced   out \t words \tx1"])
        text = load_facts([path])["x1"].text
        assert text == "spaced out words"
        assert "  " not in text and not text.startswith(" ") and not text.endswith(" ")

    def test_duplicate_uid_across_files(self, tmp_path):
        one, two = tmp_path / "one.tsv", tmp_path / "two.tsv"
        write_lines(one, ["a\t[SKIP] UID", "first\tx1"])
        write_lines(two, ["a\t[SKIP] UID", "second\tx1"])
        with pytest.raises(FormatError, match="one.*two|x1"):
            load_facts([one, two])

    def test_missing_uid_column(self, tmp_path):
        path = tmp_path / "nouid.tsv"
        write_lines(path, ["a\tb", "some\tthing"])
        with pytest.raises(FormatError, match="nouid"):
            load_facts([path])

    def test_two_uid_columns(self, tmp_path):
        path = tmp_path / "twouid.tsv"
        write_lines(path, ["UID\t[SKIP] UID", "x\tx"])
        with pytest.raises(FormatError, match="twouid"):
            load_facts([path])

    def test_unicode_line_separator_stays_in_the_cell(self, tmp_path, caplog):
        # lines end at "\n" only; U+2028 is whitespace inside the fact text
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] UID", "the sun\u2028is a star\tx1", "form\x0cfeed\tx2"])
        with caplog.at_level("WARNING"):
            facts = load_facts([path])
        assert facts["x1"].text == "the sun is a star"
        assert facts["x2"].text == "form feed"
        assert list(facts) == ["x1", "x2"]
        assert not caplog.records

    def test_short_rows_padded(self, tmp_path, caplog):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\tb\t[SKIP] UID", "only", "a frog\tx1"])
        with caplog.at_level("WARNING"):
            facts = load_facts([path])
        assert list(facts) == []  # the uid cell is past the row's end
        assert caplog.messages == [f"{path}: 2 row(s) without a uid, first at line 2; skipped"]

    def test_duplicate_uid_within_a_table_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] UID", "one\tx1", "two\tx2", "three\tx1"])
        with pytest.raises(FormatError, match=r"line 4: duplicate fact uid 'x1', also in table 't'"):
            load_facts([path])

    def test_rows_without_a_uid_warned_once_per_table(self, tmp_path, caplog):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] UID", "a frog\tx1", "no uid\t", "", "again\t  ", "a toad\tx2"])
        with caplog.at_level("WARNING"):
            facts = load_facts([path])
        assert list(facts) == ["x1", "x2"]
        assert caplog.messages == [f"{path}: 2 row(s) without a uid, first at line 3; skipped"]

    def test_facts_without_text_warned_once_per_table(self, tmp_path, caplog):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] note\t[SKIP] UID", "a frog\tn\tx1", " \tnote only\tx2", "\t\tx3"])
        with caplog.at_level("WARNING"):
            facts = load_facts([path])
        assert list(facts) == ["x1"]
        assert caplog.messages == [f"{path}: 2 fact(s) with no text, first at line 3; skipped"]

    def test_cells_past_the_header_width_warned(self, tmp_path, caplog):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] UID", "a frog\tx1\textra", "a toad\tx2\t \t", "a newt\tx3\t\tmore"])
        with caplog.at_level("WARNING"):
            facts = load_facts([path])
        assert [f.text for f in facts.values()] == ["a frog", "a toad", "a newt"]
        assert caplog.messages == [
            f"{path}: 2 row(s) with cells past the header's 2 columns, first at line 2; those cells ignored"
        ]

    def test_lines_named_across_read_blocks(self, tmp_path, caplog):
        # 3,000 rows span several of the blocks a table is read in
        rows = [f"fact number {i}\tu{i}" for i in range(3000)]
        rows[1500] = "\tu1500"
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\t[SKIP] UID", *rows])
        with caplog.at_level("WARNING"):
            facts = load_facts([path])
        assert len(facts) == 2999 and facts["u2999"].text == "fact number 2999"
        assert caplog.messages == [f"{path}: 1 fact(s) with no text, first at line 1502; skipped"]
        rows[2800] = "again\tu7"
        write_lines(path, ["a\t[SKIP] UID", *rows])
        with pytest.raises(FormatError, match=r"line 2802: duplicate fact uid 'u7'"):
            load_facts([path])

    def test_blank_lines_skipped_silently(self, tmp_path, caplog):
        rows = ["a\t[SKIP] UID", "a frog\tx1", "a toad\tx2"]
        plain, blanks = tmp_path / "plain.tsv", tmp_path / "blanks.tsv"
        write_lines(plain, rows)
        write_lines(blanks, [rows[0], "", rows[1], "   ", "\t", rows[2], ""])
        with caplog.at_level("WARNING"):
            by_column, by_row = load_facts([plain]), load_facts([blanks])
        assert [(f.uid, f.text) for f in by_row.values()] == [("x1", "a frog"), ("x2", "a toad")]
        assert [(f.uid, f.text) for f in by_column.values()] == [("x1", "a frog"), ("x2", "a toad")]
        assert not caplog.records


class TestParseExplanation:
    def test_two_tokens(self):
        assert parse_explanation("a|CENTRAL b|LEXGLUE") == (("a", CENTRAL), ("b", LEXGLUE))

    def test_background(self):
        assert parse_explanation("a|BACKGROUND") == (("a", BACKGROUND),)

    def test_unknown_role_preserved(self):
        ((uid, role),) = parse_explanation("a|ROLEX")
        assert uid == "a"
        assert role == "ROLEX"
        assert role not in KNOWN_ROLES

    def test_order_and_multiplicity_preserved(self):
        cell = "a|CENTRAL b|NEG a|CENTRAL c|GROUNDING"
        gold = parse_explanation(cell)
        assert [uid for uid, _ in gold] == ["a", "b", "a", "c"]

    def test_empty_cell(self):
        assert parse_explanation("") == ()

    def test_token_without_separator(self):
        with pytest.raises(FormatError, match="nosep"):
            parse_explanation("a|CENTRAL nosep")


class TestRole:
    @pytest.mark.parametrize("raw", ["LEXGLUE", "LEXICAL GLUE", "LEX_GLUE", "lexglue"])
    def test_lexglue_aliases(self, raw):
        assert parse_role(raw) == LEXGLUE

    def test_case_insensitive(self):
        assert parse_role("central") == CENTRAL
        assert parse_role("Neg") == NEG

    def test_unknown_verbatim(self):
        assert parse_role("MysteryRole") == "MysteryRole"


class TestLoadQuestions:
    def test_marker_split(self, tmp_path):
        path = tmp_path / "q.tsv"
        write_lines(
            path,
            [
                "QuestionID\tquestion\tAnswerKey\texplanation",
                "q1\tWhich is living? (A) rock (B) frog\tB\tx1|CENTRAL x2|GROUNDING",
            ],
        )
        (q,) = load_questions(path)
        assert q.stem == "Which is living?"
        assert q.choices == {"A": "rock", "B": "frog"}
        assert q.choices[q.answer_key] == "frog"
        assert q.gold == (("x1", CENTRAL), ("x2", GROUNDING))

    def test_line_separator_inside_question_text(self, tmp_path):
        path = tmp_path / "q.tsv"
        write_lines(
            path,
            [
                "QuestionID\tquestion\tAnswerKey\texplanation",
                "q1\tWhich\u2028is living? (A) rock (B) frog\tB\tx1|CENTRAL",
            ],
        )
        (q,) = load_questions(path)
        assert q.stem == "Which\u2028is living?"
        assert q.gold == (("x1", CENTRAL),)

    def test_empty_explanation(self, tmp_path):
        path = tmp_path / "q.tsv"
        write_lines(
            path,
            ["QuestionID\tquestion\tAnswerKey\texplanation", "q1\tStem (A) x (B) y\tA\t"],
        )
        (q,) = load_questions(path)
        assert q.gold == ()

    def test_malformed_markers_whole_stem(self, tmp_path, caplog):
        path = tmp_path / "q.tsv"
        write_lines(
            path,
            ["QuestionID\tquestion\tAnswerKey\texplanation", "q1\tText (B) out of order (A) x\tA\t"],
        )
        with caplog.at_level("WARNING"):
            (q,) = load_questions(path)
        assert q.choices == {}
        assert q.stem == "Text (B) out of order (A) x"
        assert any("markers" in rec.message for rec in caplog.records)

    def test_answer_key_not_in_choices_kept(self, tmp_path):
        path = tmp_path / "q.tsv"
        write_lines(
            path,
            ["QuestionID\tquestion\tAnswerKey\texplanation", "q1\tStem (A) x (B) y\tC\t"],
        )
        (q,) = load_questions(path)
        assert q.answer_key == "C"
        report = validate(corpus_of({}, [q]))
        assert not report.ok
        assert any(i.kind == "answer-key" for i in report.issues)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "q.tsv"
        write_lines(path, ["QuestionID\tquestion\tAnswerKey", "q1\tStem\tA"])
        with pytest.raises(FormatError, match="explanation"):
            load_questions(path)

    def test_duplicate_question_id_names_both_lines(self, tmp_path):
        path = tmp_path / "q.tsv"
        write_lines(
            path,
            [
                "QuestionID\tquestion\tAnswerKey\texplanation",
                "q1\tStem (A) x\tA\t",
                "q2\tStem (A) y\tA\t",
                "q1\tOther (A) z\tA\t",
            ],
        )
        with pytest.raises(FormatError, match=r"q\.tsv line 4: duplicate QuestionID 'q1', first on line 2"):
            load_questions(path)


class TestFacts:
    """load_facts and Corpus.facts give a read-only uid -> fact mapping over
    three columns that behaves as the uid -> ExplanationFact dict did."""

    @pytest.fixture
    def tables(self, tmp_path):
        paths = [tmp_path / "zeta.tsv", tmp_path / "alpha.tsv", tmp_path / "mid.tsv"]
        write_fact_table(paths[0], [("z2", "a zebra has stripes"), ("z1", "stripes are a pattern")])
        write_fact_table(paths[1], [("a9", "an apple is a fruit")])
        write_fact_table(paths[2], [("m3", "a magnet attracts iron"), ("m1", "iron is a metal"),
                                    ("m2", "a metal conducts heat")])
        return paths

    def test_corpus_order_across_tables(self, tables):
        facts = load_facts(tables)
        assert isinstance(facts, Facts)
        assert list(facts) == list(facts.keys()) == ["z2", "z1", "a9", "m3", "m1", "m2"]
        assert facts.uids == ("z2", "z1", "a9", "m3", "m1", "m2")
        assert facts.tables == ("zeta", "zeta", "alpha", "mid", "mid", "mid")
        assert facts.texts[2] == "an apple is a fruit"
        assert all(type(column) is tuple for column in (facts.uids, facts.texts, facts.tables))
        assert facts.column == {uid: j for j, uid in enumerate(facts.uids)}

    def test_behaves_as_the_dict_of_facts(self, tables):
        facts, reference = load_facts(tables), line_readers.load_facts(tables)
        assert len(facts) == len(reference) == 6
        assert "m1" in facts and "m4" not in facts and 3 not in facts
        for uid in reference:
            assert facts[uid] == reference[uid] and facts.text(uid) == reference[uid].text
        assert list(facts.items()) == list(reference.items())
        assert list(facts.values()) == list(reference.values())
        assert facts == reference and reference == facts
        assert facts != {**reference, "m4": ExplanationFact("m4", "x", "mid")}
        assert facts.get("m4") is None
        with pytest.raises(KeyError):
            facts["m4"]
        with pytest.raises(KeyError):
            facts.text("m4")
        with pytest.raises(TypeError):
            facts["m4"] = ExplanationFact("m4", "x", "mid")

    def test_corpus_takes_only_facts(self, tables):
        facts = load_facts(tables)
        assert Corpus(facts=facts, questions=()).facts is facts
        with pytest.raises(TypeError, match="^Corpus facts must be a Facts, not dict$"):
            Corpus(facts=dict(facts.items()), questions=())

    def test_sub_corpus_keeps_the_columns(self, tmp_path):
        corpus = random_corpus(n_questions=6, n_facts=25, seed=8)
        loaded = load_corpus(*write_corpus_files(corpus, tmp_path))
        sample = Corpus(facts=loaded.facts, questions=loaded.questions[:2])
        assert sample.facts is loaded.facts
        assert sample.facts.uids == corpus.facts.uids and sample.facts.texts == corpus.facts.texts
        assert sample.facts.tables == ("facts",) * 25 and corpus.facts.tables == ("synth",) * 25
        assert len(sample.facts) == 25 and [f.text for f in sample.facts.values()] == list(corpus.facts.texts)

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(ValueError):
            Facts(("a", "b"), ("x",), ("t", "t"))
        with pytest.raises(ValueError):
            Facts(("a", "a"), ("x", "y"), ("t", "t"))


class TestAnswerText:
    """qa_text: the stem and the answer key's choice text."""

    def test_basic(self):
        q = Question("q", "s", {"A": "rock", "B": "frog"}, "B")
        assert qa_text(q) == "s frog"

    def test_long_answer(self):
        q = Question("q", "s", {"A": "a girl eating an apple"}, "A")
        assert qa_text(q) == "s a girl eating an apple"

    def test_unresolvable_key(self):
        q = Question("q", "s", {"A": "x", "B": "y"}, "C")
        message = "question q: answer key 'C' not among choices ['A', 'B']"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            qa_text(q)


class TestAnswerable:
    def test_unresolvable_key_skipped_with_one_warning(self, caplog):
        questions = (
            Question("q1", "Stem", {"A": "x", "B": "y"}, "B"),
            Question("q2", "Stem", {"A": "x"}, "Z", (("f1", CENTRAL),)),
            Question("q3", "", {"A": "x"}, "A"),
        )
        corpus = corpus_of({}, questions)
        with caplog.at_level("WARNING"):
            first, second = corpus.answerable, corpus.answerable
        assert first is second
        assert [(q.qid, qa) for q, qa in first] == [("q1", "Stem y"), ("q3", "x")]
        assert caplog.text.count("question q2: answer key 'Z' matches no choice") == 1


class TestCorpus:
    def test_repeated_qid_refused(self):
        questions = (
            Question("q1", "Stem", {"A": "x"}, "A"),
            Question("q2", "Stem", {"A": "x"}, "A"),
            Question("q1", "Other", {"A": "y"}, "A"),
        )
        with pytest.raises(DataError, match="^duplicate question id 'q1'$"):
            corpus_of({}, questions)


class TestValidate:
    def make_corpus(self, gold, n_facts=20):
        q = Question("q1", "Stem", {"A": "a"}, "A", gold)
        return corpus_of({f"x{i}": f"fact {i}" for i in range(n_facts)}, [q])

    def test_clean(self):
        report = validate(self.make_corpus((("x1", CENTRAL),)))
        assert report.ok
        assert report.issues == []

    def test_dangling_gold(self):
        report = validate(self.make_corpus((("zz9", CENTRAL),)))
        assert not report.ok
        (issue,) = [i for i in report.issues if i.kind == "dangling-gold"]
        assert "zz9" in issue.detail and issue.qid == "q1"

    def test_gold_size_warning_not_error(self):
        gold = tuple((f"x{i}", CENTRAL) for i in range(17))
        report = validate(self.make_corpus(gold))
        assert report.ok  # warning only
        assert any(i.kind == "gold-size" and not i.hard for i in report.issues)

    def test_empty_gold_listed(self):
        report = validate(self.make_corpus(()))
        assert report.empty_gold_qids == ["q1"]
        assert report.ok


class TestRoundTrip:
    def test_write_then_load_identical(self, tmp_path):
        corpus = random_corpus(n_questions=12, n_facts=30, seed=5)
        path = tmp_path / "q.tsv"
        write_questions(corpus.questions, path)
        reloaded = load_questions(path)
        assert len(reloaded) == len(corpus.questions)
        for original, loaded in zip(corpus.questions, reloaded):
            assert loaded == original

    def test_roles_survive_round_trip(self, tmp_path):
        q = Question(
            "q1",
            "Stem",
            {"A": "x", "B": "y"},
            "A",
            (("u1", CENTRAL), ("u2", "ROLEX"), ("u3", NEG)),
        )
        path = tmp_path / "q.tsv"
        write_questions([q], path)
        (loaded,) = load_questions(path)
        assert loaded == q

    def test_repeated_qid_rejected(self, tmp_path):
        questions = [Question(qid, "Stem", {"A": "x"}, "A") for qid in ("q1", "q2", "q1")]
        path = tmp_path / "q.tsv"
        with pytest.raises(ValueError, match="^question q1: the qid repeats$"):
            write_questions(questions, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "uid, role",
        [("u1", "A|B"), ("u1", "Other role"), ("u 1", CENTRAL), ("u1", ""), ("", CENTRAL)],
        ids=["bar-in-role", "space-in-role", "space-in-uid", "empty-role", "empty-uid"],
    )
    def test_gold_that_would_not_read_back_rejected(self, tmp_path, uid, role):
        """A|B would read back as uid u1|A with role B; the others would not load."""
        q = Question("q7", "Stem", {"A": "x"}, "A", (("u0", CENTRAL), (uid, role)))
        path = tmp_path / "q.tsv"
        with pytest.raises(ValueError, match=re.escape(f"question q7: gold token {uid + '|' + role!r}")):
            write_questions([q], path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "changes, reason",
        [
            (dict(qid=" q7"), "' q7' has surrounding whitespace"),
            (dict(answer_key="A "), "'A ' has surrounding whitespace"),
            (dict(stem="Stem "),
             "'Stem  (A) x (B) y' would read back as stem 'Stem' and choices {'A': 'x', 'B': 'y'}"),
            (dict(choices={"A": "x", "B": " y"}),
             "'Stem (A) x (B)  y' would read back as stem 'Stem' and choices {'A': 'x', 'B': 'y'}"),
            (dict(stem="Stem (B) inner"),
             "would read back as stem 'Stem (B) inner (A) x (B) y' and choices {}"),
            (dict(choices={"A": "x", "B": "y (C) z"}), "and choices {'A': 'x', 'B': 'y', 'C': 'z'}"),
            (dict(choices={"A": "x", "C": "y"}), "as stem 'Stem (A) x (C) y' and choices {}"),
            (dict(choices={"a": "x", "b": "y"}), "as stem 'Stem (a) x (b) y' and choices {}"),
            (dict(stem="Stem\tand"), "'Stem\\tand (A) x (B) y' holds a tab or a line break"),
            (dict(qid="", stem="", choices={}, answer_key="", gold=()),
             "an empty question is a blank line"),
        ],
        ids=["qid-space", "key-space", "stem-space", "choice-space", "marker-in-stem",
             "marker-in-choice", "keys-not-a-prefix", "keys-lowercase", "tab", "empty"],
    )
    def test_question_that_would_not_read_back_rejected(self, tmp_path, changes, reason):
        q = replace(Question("q7", "Stem", {"A": "x", "B": "y"}, "A", (("u0", CENTRAL),)), **changes)
        path = tmp_path / "q.tsv"
        with pytest.raises(ValueError, match=re.escape(f"question {q.qid}: ") + ".*" + re.escape(reason)):
            write_questions([Question("q1", "Stem", {"A": "x"}, "A"), q], path)
        assert not path.exists()


class TestLoadCorpus:
    def test_files_to_corpus(self, tmp_path):
        facts_path = tmp_path / "facts.tsv"
        write_fact_table(facts_path, [("x1", "a frog is an amphibian"), ("x2", "water is wet")])
        q_path = tmp_path / "q.tsv"
        write_lines(
            q_path,
            [
                "QuestionID\tquestion\tAnswerKey\texplanation",
                "q1\tWhich? (A) frog (B) rock\tA\tx1|CENTRAL",
            ],
        )
        corpus = load_corpus([facts_path], q_path)
        assert set(corpus.facts) == {"x1", "x2"}
        assert corpus.questions[0].gold_uid_set == frozenset({"x1"})
        assert validate(corpus).ok


def test_no_command_builds_a_fact_object(tmp_path, monkeypatch):
    """Every layer call a CLI command makes reads the fact columns: not one
    ExplanationFact is made from loading to the last dataset."""
    from explainrank.dataprep import CLASSIFICATION, REGRESSION, NegativeSampler, PrepConfig
    from explainrank.dataprep import build_dataset, write_dataset
    from explainrank.evaluation import evaluate_rankings, read_predictions, write_predictions
    from explainrank.rerank import RerankConfig, depth_sweep, rerank_all
    from explainrank.scorer import all_rankings, load_scores, score_lexical, write_scores
    from explainrank.textsim import default_provider, load_dense, tokenize

    synthetic = random_corpus(n_questions=8, n_facts=40, seed=9, gold_range=(2, 4))
    fact_paths, question_path = write_corpus_files(synthetic, tmp_path / "data")
    vectors = tmp_path / "vectors.txt"
    tokens = sorted({t for f in synthetic.facts.values() for t in tokenize(f.text)} | {"word00"})
    vectors.write_text(
        "".join(f"{t} {i % 5 - 2} {i % 3 + 1}\n" for i, t in enumerate(tokens)), encoding="utf-8"
    )
    made = []
    init = ExplanationFact.__init__
    monkeypatch.setattr(
        ExplanationFact, "__init__", lambda self, *args: made.append(args) or init(self, *args)
    )

    corpus = load_corpus(fact_paths, question_path)
    provider = default_provider(corpus)
    table = score_lexical(corpus, provider)
    write_scores(table, tmp_path / "scores.tsv")
    table = load_scores(tmp_path / "scores.tsv", corpus)
    write_predictions(all_rankings(table), tmp_path / "predictions.tsv")
    rankings, _ = rerank_all(corpus, provider, table, RerankConfig(depth=3), want_trace=True)
    depth_sweep(corpus, provider, table, (1, 3, 5))
    evaluate_rankings(read_predictions(tmp_path / "predictions.tsv"), corpus)
    evaluate_rankings(rankings, corpus)
    assert validate(corpus).ok
    sampler = NegativeSampler(corpus, load_dense(vectors))
    for task in (CLASSIFICATION, REGRESSION):
        for with_context in (False, True):
            data = build_dataset(corpus, sampler, PrepConfig(k=3, task=task, with_context=with_context))
            write_dataset(data, tmp_path / f"{task}-{with_context}.tsv")
            assert len(data)
    assert made == []
    assert corpus.facts["F0001"].text == synthetic.facts["F0001"].text and len(made) == 2  # the wrap counts
