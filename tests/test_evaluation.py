import random

import pytest

from explainrank.corpus import (
    CENTRAL,
    GROUNDING,
    LEXGLUE,
    Corpus,
    ExplanationFact,
    Question,
)
from explainrank.errors import DataError, FormatError
from explainrank.evaluation import (
    average_precision,
    evaluate_rankings,
    format_report,
    map_overall,
    read_predictions,
    report_keyvalues,
    write_predictions,
)


def brute_force_ap(ranked, relevant):
    """Position-scan oracle: recount relevant items in each prefix from scratch."""
    precisions = []
    for p in range(1, len(ranked) + 1):
        if ranked[p - 1] in relevant:
            in_prefix = len([uid for uid in ranked[:p] if uid in relevant])
            precisions.append(in_prefix / p)
    return sum(precisions) / len(relevant)


def make_corpus(questions, n_facts=10):
    facts = {f"f{i}": ExplanationFact(f"f{i}", f"text {i}", "t") for i in range(n_facts)}
    return Corpus(facts=facts, questions=tuple(questions))


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        assert average_precision(["a", "b", "c", "d"], {"a", "b"}) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(["x", "a", "y"], {"a"}) == 0.5

    def test_hand_value(self):
        # hits at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
        value = average_precision(["a", "b", "c", "d"], {"a", "c"})
        assert value == pytest.approx(5 / 6, abs=1e-12)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["a"], set())

    def test_unretrieved_relevant_uid_adds_zero(self):
        # truncated ranking: hits at ranks 2 and 4, "ghost" never retrieved;
        # (1/2 + 2/4 + 0) / 3 = 1/3
        value = average_precision(["x", "a", "y", "c"], {"a", "c", "ghost"})
        assert value == pytest.approx(1 / 3, abs=1e-12)
        assert value == brute_force_ap(["x", "a", "y", "c"], {"a", "c", "ghost"})

    def test_nothing_retrieved_is_zero(self):
        assert average_precision(["a", "b"], {"ghost", "zzz"}) == 0.0

    def test_bit_identical_to_full_scan_on_long_rankings(self):
        # the scan stops at the last relevant uid; the sum and its order are
        # those of a scan over the whole ranking
        rng = random.Random(64)
        for _ in range(50):
            ranked = [f"u{i}" for i in range(2000)]
            rng.shuffle(ranked)
            relevant = set(rng.sample(ranked, rng.randint(1, 16)))
            hits, acc = 0, 0.0
            for position, uid in enumerate(ranked, start=1):
                if uid in relevant:
                    hits += 1
                    acc += hits / position
            assert average_precision(ranked, relevant) == acc / len(relevant)

    def test_oracle_equivalence_200_random(self):
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(1, 12)
            ranked = [f"u{i}" for i in range(n)]
            rng.shuffle(ranked)
            relevant = set(rng.sample(ranked, rng.randint(1, min(5, n))))
            assert average_precision(ranked, relevant) == pytest.approx(
                brute_force_ap(ranked, relevant), abs=1e-12
            )

    def test_swap_forward_never_decreases(self):
        rng = random.Random(62)
        for _ in range(100):
            n = rng.randint(2, 12)
            ranked = [f"u{i}" for i in range(n)]
            rng.shuffle(ranked)
            relevant = set(rng.sample(ranked, rng.randint(1, n)))
            before = average_precision(ranked, relevant)
            # move one relevant item past the non-relevant item directly above it
            for pos in range(1, n):
                if ranked[pos] in relevant and ranked[pos - 1] not in relevant:
                    swapped = list(ranked)
                    swapped[pos - 1], swapped[pos] = swapped[pos], swapped[pos - 1]
                    assert average_precision(swapped, relevant) >= before
                    break

    def test_perfect_iff_relevant_first(self):
        rng = random.Random(63)
        for _ in range(100):
            n = rng.randint(2, 10)
            ranked = [f"u{i}" for i in range(n)]
            rng.shuffle(ranked)
            relevant = set(rng.sample(ranked, rng.randint(1, n - 1)))
            value = average_precision(ranked, relevant)
            prefix_is_relevant = set(ranked[: len(relevant)]) == relevant
            assert (value == 1.0) == prefix_is_relevant


class TestMapOverall:
    def test_perfect_rankings(self):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),)),
            Question("q2", "s", {"A": "a"}, "A", (("f2", CENTRAL), ("f3", GROUNDING))),
        ]
        corpus = make_corpus(questions)
        ranked = {"q1": ["f1", "f2", "f3"], "q2": ["f2", "f3", "f1"]}
        assert map_overall(ranked, corpus) == 1.0

    def test_mean_of_two(self):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),)),
            Question("q2", "s", {"A": "a"}, "A", (("f2", CENTRAL),)),
        ]
        corpus = make_corpus(questions)
        ranked = {"q1": ["x", "f1", "f2"] , "q2": ["f2", "f1", "x"]}
        # APs 0.5 and 1.0
        assert map_overall(ranked, corpus) == pytest.approx(0.75, abs=1e-12)

    def test_empty_gold_excluded(self):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),)),
            Question("q2", "s", {"A": "a"}, "A", ()),
        ]
        corpus = make_corpus(questions)
        ranked = {"q1": ["f1"], "q2": ["f1"]}
        assert map_overall(ranked, corpus) == 1.0

    def test_no_annotated_questions_error(self):
        corpus = make_corpus([Question("q1", "s", {"A": "a"}, "A", ())])
        with pytest.raises(DataError, match="no annotated"):
            map_overall({"q1": ["f1"]}, corpus)

    def test_unknown_qid_error(self):
        corpus = make_corpus([Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),))])
        with pytest.raises(DataError, match="ghost"):
            map_overall({"q1": ["f1"], "ghost": ["f1"]}, corpus)

    def test_unranked_annotated_question_skipped_with_warning(self, caplog):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),)),
            Question("q2", "s", {"A": "a"}, "A", (("f2", CENTRAL),)),
        ]
        corpus = make_corpus(questions)
        with caplog.at_level("WARNING"):
            value = map_overall({"q1": ["f1", "f2"]}, corpus)
        assert value == 1.0
        assert any("skipped" in rec.message for rec in caplog.records)


class TestMapPerRole:
    def test_single_central_question(self):
        corpus = make_corpus([Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),))])
        result = evaluate_rankings({"q1": ["f1", "f2"]}, corpus).per_role
        assert result == {CENTRAL: 1.0}
        assert GROUNDING not in result

    def test_single_role_equals_overall(self):
        rng = random.Random(64)
        questions = []
        for i in range(8):
            gold = tuple((f"f{j}", CENTRAL) for j in rng.sample(range(10), rng.randint(1, 4)))
            questions.append(Question(f"q{i}", "s", {"A": "a"}, "A", gold))
        corpus = make_corpus(questions)
        ranked = {}
        for q in questions:
            uids = [f"f{j}" for j in range(10)]
            rng.shuffle(uids)
            ranked[q.qid] = uids
        assert evaluate_rankings(ranked, corpus).per_role[CENTRAL] == map_overall(ranked, corpus)

    def test_mixed_roles_match_brute_force(self):
        questions = [
            Question(
                "q1",
                "s",
                {"A": "a"},
                "A",
                (("f1", CENTRAL), ("f2", GROUNDING), ("f3", CENTRAL)),
            ),
            Question("q2", "s", {"A": "a"}, "A", (("f4", GROUNDING), ("f5", LEXGLUE))),
        ]
        corpus = make_corpus(questions)
        ranked = {
            "q1": ["f2", "f1", "f0", "f3", "f4", "f5"],
            "q2": ["f0", "f5", "f4", "f1", "f2", "f3"],
        }
        result = evaluate_rankings(ranked, corpus).per_role
        expected_central = brute_force_ap(ranked["q1"], {"f1", "f3"})
        expected_grounding = (
            brute_force_ap(ranked["q1"], {"f2"}) + brute_force_ap(ranked["q2"], {"f4"})
        ) / 2
        expected_lexglue = brute_force_ap(ranked["q2"], {"f5"})
        assert result[CENTRAL] == pytest.approx(expected_central, abs=1e-12)
        assert result[GROUNDING] == pytest.approx(expected_grounding, abs=1e-12)
        assert result[LEXGLUE] == pytest.approx(expected_lexglue, abs=1e-12)


class TestMapByLength:
    def test_single_bucket(self):
        questions = [
            Question(f"q{i}", "s", {"A": "a"}, "A", ((f"f{i}", CENTRAL),)) for i in range(4)
        ]
        corpus = make_corpus(questions)
        ranked = {q.qid: [f"f{i}" for i in range(10)] for q in questions}
        result = evaluate_rankings(ranked, corpus).per_length
        assert list(result) == [1]
        count, _ = result[1]
        assert count == 4

    def test_bucket_recombination(self):
        rng = random.Random(65)
        questions = []
        for i in range(12):
            gold = tuple((f"f{j}", CENTRAL) for j in rng.sample(range(10), rng.randint(1, 5)))
            questions.append(Question(f"q{i}", "s", {"A": "a"}, "A", gold))
        corpus = make_corpus(questions)
        ranked = {}
        for q in questions:
            uids = [f"f{j}" for j in range(10)]
            rng.shuffle(uids)
            ranked[q.qid] = uids
        buckets = evaluate_rankings(ranked, corpus).per_length
        weighted = sum(count * value for count, value in buckets.values())
        total = sum(count for count, _ in buckets.values())
        assert weighted / total == pytest.approx(map_overall(ranked, corpus), abs=1e-9)
        assert total == len(questions)

    def test_three_buckets_match_oracle(self):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),)),
            Question("q2", "s", {"A": "a"}, "A", (("f1", CENTRAL), ("f2", GROUNDING))),
            Question(
                "q3", "s", {"A": "a"}, "A",
                (("f1", CENTRAL), ("f2", GROUNDING), ("f3", LEXGLUE)),
            ),
        ]
        corpus = make_corpus(questions)
        order = ["f0", "f1", "f2", "f3", "f4"]
        ranked = {q.qid: order for q in questions}
        result = evaluate_rankings(ranked, corpus).per_length
        assert result[1] == (1, pytest.approx(brute_force_ap(order, {"f1"}), abs=1e-12))
        assert result[2] == (1, pytest.approx(brute_force_ap(order, {"f1", "f2"}), abs=1e-12))
        assert result[3] == (
            1,
            pytest.approx(brute_force_ap(order, {"f1", "f2", "f3"}), abs=1e-12),
        )


class TestEvalReport:
    def test_truncated_rankings_count_unretrieved_gold(self):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL), ("f2", GROUNDING), ("f3", CENTRAL))),
            Question("q2", "s", {"A": "a"}, "A", (("f4", CENTRAL),)),
        ]
        corpus = make_corpus(questions)
        # q1 retrieves f1 at rank 2 only; q2 retrieves f4 at rank 1
        report = evaluate_rankings({"q1": ["f0", "f1"], "q2": ["f4", "f5"]}, corpus)
        assert report.unretrieved == 2
        assert report.map_overall == pytest.approx(((1 / 2) / 3 + 1.0) / 2, abs=1e-12)
        assert "gold facts not retrieved: 2" in format_report(report)
        assert "unretrieved=2" in report_keyvalues(report).splitlines()

    def test_full_rankings_report_no_unretrieved_line(self):
        questions = [Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),))]
        report = evaluate_rankings({"q1": [f"f{i}" for i in range(10)]}, make_corpus(questions))
        assert report.unretrieved == 0
        assert "retrieved" not in format_report(report)
        assert "unretrieved" not in report_keyvalues(report)

    def test_unknown_ranked_uid_is_error(self):
        questions = [Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),))]
        with pytest.raises(DataError, match="unknown fact uid.*'zz'"):
            evaluate_rankings({"q1": ["f1", "zz", "f2"]}, make_corpus(questions))

    def test_report_fields_and_rendering(self):
        questions = [
            Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL), ("f2", GROUNDING))),
            Question("q2", "s", {"A": "a"}, "A", ()),
        ]
        corpus = make_corpus(questions)
        ranked = {"q1": ["f1", "f2", "f0"], "q2": ["f0", "f1", "f2"]}
        report = evaluate_rankings(ranked, corpus)
        assert report.map_overall == 1.0
        assert report.n_questions == 1
        assert report.skipped == 1
        assert sum(count for count, _ in report.per_length.values()) == report.n_questions
        text = format_report(report)
        assert "MAP overall: 1.000000" in text
        assert "CENTRAL" in text
        kv = report_keyvalues(report)
        assert "map_overall=1.0" in kv
        assert "per_role.CENTRAL=1.0" in kv


class TestPredictions:
    def test_write_order_and_count(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_predictions({"q1": ["a", "b", "c"]}, path)
        assert path.read_text(encoding="utf-8") == "q1\ta\nq1\tb\nq1\tc\n"

    def test_top_m_truncates(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_predictions({"q1": [f"f{i:03d}" for i in range(60)]}, path, top_m=30)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30

    def test_round_trip_preserves_ap(self, tmp_path):
        corpus = make_corpus([Question("q1", "s", {"A": "a"}, "A", (("f2", CENTRAL),))])
        ranked = {"q1": [f"f{i}" for i in range(10)]}
        in_memory = map_overall(ranked, corpus)
        path = tmp_path / "p.tsv"
        write_predictions(ranked, path)
        assert map_overall(read_predictions(path), corpus) == in_memory

    def test_rewriting_what_was_read_reproduces_the_file(self, tmp_path):
        path, again = tmp_path / "p.tsv", tmp_path / "again.tsv"
        path.write_text("q2\tf3\nq2\tf1\nq1\tf2\nq\u00e9\tf\u00e9\nq\u00e9\tf1\n", encoding="utf-8")
        write_predictions(read_predictions(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_read_rejects_duplicates(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("q1\ta\nq1\ta\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            read_predictions(path)

    def test_read_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("q1\ta\textra\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1"):
            read_predictions(path)
