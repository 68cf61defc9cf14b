import pytest

from explainrank.corpus import (
    BACKGROUND,
    CENTRAL,
    GROUNDING,
    LEXGLUE,
    NEG,
    Corpus,
    ExplanationFact,
    Question,
    Role,
    answer_text,
    load_corpus,
    load_facts,
    load_questions,
    parse_explanation,
    validate,
    write_questions,
)
from explainrank.errors import DataError, FormatError

from synth import random_corpus, write_fact_table


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

    def test_short_rows_padded(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_lines(path, ["a\tb\t[SKIP] UID", "only"])
        assert load_facts([path]) == {}  # no uid, row skipped


class TestParseExplanation:
    def test_two_tokens(self):
        assert parse_explanation("a|CENTRAL b|LEXGLUE") == (("a", CENTRAL), ("b", LEXGLUE))

    def test_background(self):
        assert parse_explanation("a|BACKGROUND") == (("a", BACKGROUND),)

    def test_unknown_role_preserved(self):
        ((uid, role),) = parse_explanation("a|ROLEX")
        assert uid == "a"
        assert role == Role("ROLEX")
        assert not role.known

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
        assert Role.parse(raw) == LEXGLUE

    def test_case_insensitive(self):
        assert Role.parse("central") == CENTRAL
        assert Role.parse("Neg") == NEG

    def test_unknown_verbatim(self):
        assert Role.parse("MysteryRole").label == "MysteryRole"


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
        assert answer_text(q) == "frog"
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
        report = validate(Corpus(facts={}, questions=(q,)))
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


class TestAnswerText:
    def test_basic(self):
        q = Question("q", "s", {"A": "rock", "B": "frog"}, "B")
        assert answer_text(q) == "frog"

    def test_long_answer(self):
        q = Question("q", "s", {"A": "a girl eating an apple"}, "A")
        assert answer_text(q) == "a girl eating an apple"

    def test_unresolvable_key(self):
        q = Question("q", "s", {"A": "x", "B": "y"}, "C")
        with pytest.raises(DataError, match="'C'"):
            answer_text(q)


class TestAnswerable:
    def test_unresolvable_key_skipped_with_one_warning(self, caplog):
        questions = (
            Question("q1", "Stem", {"A": "x", "B": "y"}, "B"),
            Question("q2", "Stem", {"A": "x"}, "Z", (("f1", CENTRAL),)),
            Question("q3", "", {"A": "x"}, "A"),
        )
        corpus = Corpus(facts={}, questions=questions)
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
            Corpus(facts={}, questions=questions)


class TestValidate:
    def make_corpus(self, gold, n_facts=20):
        facts = {
            f"x{i}": ExplanationFact(f"x{i}", f"fact {i}", "t") for i in range(n_facts)
        }
        q = Question("q1", "Stem", {"A": "a"}, "A", gold)
        return Corpus(facts=facts, questions=(q,))

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
            (("u1", CENTRAL), ("u2", Role("ROLEX")), ("u3", NEG)),
        )
        path = tmp_path / "q.tsv"
        write_questions([q], path)
        (loaded,) = load_questions(path)
        assert loaded == q


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
