import dataclasses
import random

import pytest

from explainrank import cli
from explainrank.cli import OPTIONS, main, parse_args, read_config
from explainrank.corpus import (
    BACKGROUND,
    CENTRAL,
    GROUNDING,
    NEG,
    Corpus,
    Question,
    load_corpus,
    load_facts,
    load_questions,
)
from explainrank.dataprep import CLASSIFICATION, REGRESSION, PrepConfig, read_dataset
from explainrank.errors import FormatError
from explainrank.evaluation import read_predictions, write_predictions
from explainrank.rerank import RerankConfig, rerank_all
from explainrank.scorer import OVERLAP, TFIDF_COSINE, load_scores, score_lexical
from explainrank.textsim import TfidfProvider, default_provider, load_dense

import rerank_reference
from synth import WORD_POOL, corpus_of, random_corpus, write_corpus_files, write_fact_table


@pytest.fixture()
def corpus_files(tmp_path):
    corpus = random_corpus(n_questions=6, n_facts=25, seed=70, gold_range=(1, 3))
    fact_paths, question_path = write_corpus_files(corpus, tmp_path / "data")
    return corpus, fact_paths, question_path


def run(*argv):
    return main([str(a) for a in argv])


class TestValidateCommand:
    def test_clean_corpus_exit_zero(self, corpus_files, tmp_path, capsys):
        _, facts, questions = corpus_files
        code = run("validate", "--facts", *facts, "--questions", questions)
        assert code == 0
        assert "corpus OK" in capsys.readouterr().out

    def test_dangling_gold_exit_one(self, tmp_path, capsys):
        facts_path = tmp_path / "facts.tsv"
        write_fact_table(facts_path, [("f1", "a known fact")])
        q_path = tmp_path / "q.tsv"
        q_path.write_text(
            "QuestionID\tquestion\tAnswerKey\texplanation\n"
            "q1\tStem (A) x\tA\tzz9|CENTRAL\n",
            encoding="utf-8",
        )
        code = run("validate", "--facts", facts_path, "--questions", q_path)
        assert code == 1
        assert "zz9" in capsys.readouterr().out

    def test_duplicate_question_id_exit_two(self, tmp_path, caplog):
        facts_path = tmp_path / "facts.tsv"
        write_fact_table(facts_path, [("f1", "a known fact")])
        q_path = tmp_path / "q.tsv"
        q_path.write_text(
            "QuestionID\tquestion\tAnswerKey\texplanation\n"
            "q1\tStem (A) x\tA\tf1|CENTRAL\n"
            "q1\tStem (A) y\tA\tf1|CENTRAL\n",
            encoding="utf-8",
        )
        code = run("validate", "--facts", facts_path, "--questions", q_path)
        assert code == 2
        assert "line 3: duplicate QuestionID 'q1', first on line 2" in caplog.text

    def test_writes_no_directory(self, corpus_files, tmp_path, monkeypatch):
        _, facts, questions = corpus_files
        monkeypatch.chdir(tmp_path)
        assert run("validate", "--facts", *facts, "--questions", questions) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("flag", [["--seed", "4"], ["--vectors", "v.txt"], ["--out", "o"]])
    def test_options_of_other_commands_refused(self, flag, corpus_files):
        _, facts, questions = corpus_files
        with pytest.raises(SystemExit) as exc:
            run("validate", "--facts", *facts, "--questions", questions, *flag)
        assert exc.value.code == 2

    def test_shared_config_still_runs(self, corpus_files, tmp_path, monkeypatch, capsys):
        # seed, vectors and out belong to other commands: checked, then ignored
        _, facts, questions = corpus_files
        config = tmp_path / "shared.cfg"
        config.write_text(f"seed=4\nvectors={tmp_path / 'missing.txt'}\nout=elsewhere\n",
                          encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = run("validate", "--config", config, "--facts", *facts, "--questions", questions)
        assert code == 0
        assert "corpus OK" in capsys.readouterr().out
        assert not (tmp_path / "elsewhere").exists()

    def test_missing_questions_file_exit_two(self, tmp_path):
        facts_path = tmp_path / "facts.tsv"
        write_fact_table(facts_path, [("f1", "a known fact")])
        code = run(
            "validate",
            "--facts", facts_path,
            "--questions", tmp_path / "missing.tsv",
        )
        assert code == 2


class TestPrepareCommand:
    def test_single_variant(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        out = tmp_path / "prep"
        code = run(
            "prepare",
            "--facts", *facts,
            "--questions", questions,
            "--task", "classification",
            "--k", 3,
            "--out", out,
        )
        assert code == 0
        assert (out / "dataset_classification.tsv").exists()
        stats = (out / "dataset_stats.txt").read_text(encoding="utf-8")
        assert "balance (pos:neg): 1.0000" in stats

    def test_all_mode_emits_four_files(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        out = tmp_path / "prep_all"
        code = run(
            "prepare",
            "--facts", *facts,
            "--questions", questions,
            "--task", "all",
            "--k", 2, "--m", 2,
            "--out", out,
        )
        assert code == 0
        names = sorted(p.name for p in out.glob("dataset_*.tsv"))
        assert names == [
            "dataset_classification.tsv",
            "dataset_classification_context.tsv",
            "dataset_regression.tsv",
            "dataset_regression_context.tsv",
        ]


class TestRankCommand:
    def test_deterministic_across_runs(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("rank", "--facts", *facts, "--questions", questions, "--out", out) == 0
            outputs.append(
                (
                    (out / "scores.tsv").read_bytes(),
                    (out / "predictions.tsv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_external_scores_honored(self, corpus_files, tmp_path):
        corpus, facts, questions = corpus_files
        scores_path = tmp_path / "ext.tsv"
        uids = sorted(corpus.facts, reverse=True)
        with open(scores_path, "w", encoding="utf-8") as fh:
            for q in corpus.questions:
                for rank, uid in enumerate(uids):
                    fh.write(f"{q.qid}\t{uid}\t{len(uids) - rank}\n")
        out = tmp_path / "ext_out"
        code = run(
            "rank",
            "--facts", *facts,
            "--questions", questions,
            "--scores", scores_path,
            "--out", out,
        )
        assert code == 0
        lines = (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        first_q = [ln.split("\t")[1] for ln in lines if ln.startswith(corpus.questions[0].qid + "\t")]
        assert first_q == uids

    def test_external_missing_pair_warns_and_ranks_last(self, corpus_files, tmp_path, caplog):
        corpus, facts, questions = corpus_files
        scores_path = tmp_path / "partial.tsv"
        dropped = sorted(corpus.facts)[0]
        with open(scores_path, "w", encoding="utf-8") as fh:
            for q in corpus.questions:
                for uid in corpus.facts:
                    if uid != dropped:
                        fh.write(f"{q.qid}\t{uid}\t1.5\n")
        out = tmp_path / "partial_out"
        with caplog.at_level("WARNING"):
            code = run(
                "rank",
                "--facts", *facts,
                "--questions", questions,
                "--scores", scores_path,
                "--out", out,
            )
        assert code == 0
        assert any("rank last" in rec.message for rec in caplog.records)
        lines = (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        per_q = {}
        for line in lines:
            qid, uid = line.split("\t")
            per_q.setdefault(qid, []).append(uid)
        assert all(uids[-1] == dropped for uids in per_q.values())

    def test_method_external_removed(self, corpus_files, tmp_path):
        # --scores alone selects external scores
        _, facts, questions = corpus_files
        with pytest.raises(SystemExit) as exc:
            run("rank", "--facts", *facts, "--questions", questions, "--method", "external",
                "--out", tmp_path / "o")
        assert exc.value.code == 2

    def test_scores_ignore_vectors_and_build_no_provider(self, corpus_files, tmp_path,
                                                         monkeypatch):
        corpus, facts, questions = corpus_files
        scores_path = tmp_path / "ext.tsv"
        with open(scores_path, "w", encoding="utf-8") as fh:
            for i, q in enumerate(corpus.questions):
                for n, uid in enumerate(corpus.facts):
                    fh.write(f"{q.qid}\t{uid}\t{(n * 5 + i) % 7}\n")
        base = ["rank", "--facts", *facts, "--questions", questions, "--scores", scores_path]
        plain, malformed, unbuilt = tmp_path / "plain", tmp_path / "malformed", tmp_path / "unbuilt"
        assert run(*base, "--out", plain) == 0
        vectors = tmp_path / "bad_vectors.txt"
        vectors.write_text("a 1 zz\n", encoding="utf-8")
        assert run(*base, "--vectors", vectors, "--out", malformed) == 0

        def refuse(corpus):
            raise AssertionError("rank --scores built a TF-IDF provider")

        monkeypatch.setattr(cli.textsim, "default_provider", refuse)
        assert run(*base, "--out", unbuilt) == 0
        for out in (malformed, unbuilt):
            for name in ("scores.tsv", "predictions.tsv"):
                assert (out / name).read_bytes() == (plain / name).read_bytes()

    def test_overlap_never_reads_vectors(self, corpus_files, tmp_path, monkeypatch):
        # overlap counts terms of TF-IDF rows that score_lexical builds itself
        _, facts, questions = corpus_files
        base = ["rank", "--facts", *facts, "--questions", questions, "--method", "overlap"]
        plain, malformed, unread = tmp_path / "plain", tmp_path / "malformed", tmp_path / "unread"
        assert run(*base, "--out", plain) == 0
        vectors = tmp_path / "bad_vectors.txt"
        vectors.write_text("a 1 zz\n", encoding="utf-8")
        assert run(*base, "--vectors", vectors, "--out", malformed) == 0

        def refuse(path):
            raise AssertionError("rank --method overlap read --vectors")

        monkeypatch.setattr(cli.textsim, "load_dense", refuse)
        assert run(*base, "--vectors", vectors, "--out", unread) == 0
        for out in (malformed, unread):
            for name in ("scores.tsv", "predictions.tsv"):
                assert (out / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("method", [TFIDF_COSINE, OVERLAP])
    def test_corpus_without_a_term_exits_one(self, method, tmp_path, caplog):
        # stop words, punctuation and underscores only: no TF-IDF term to count
        corpus = corpus_of({"f1": "the of", "f2": "..."}, [Question("q1", "is it", {"A": "_"}, "A")])
        facts, questions = write_corpus_files(corpus, tmp_path / "data")
        argv = ["rank", "--facts", *facts, "--questions", questions, "--method", method]
        assert run(*argv, "--out", tmp_path / "out") == 1
        assert "cannot build TF-IDF vectors: no tokens in any input text" in caplog.text

    def test_huge_vectors_exit_two(self, corpus_files, tmp_path, caplog):
        # the norms of 1e200-scale vectors overflow, which made nan scores
        _, facts, questions = corpus_files
        vectors = tmp_path / "huge.txt"
        vectors.write_text("frog 1e200 1e200\nplant 1e200 -1e200\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run("rank", "--facts", *facts, "--questions", questions, "--vectors", vectors,
                   "--out", out)
        assert code == 2
        assert f"{vectors} line 1: vector norm above 2**500" in caplog.text
        assert not (out / "scores.tsv").exists()

    def test_top_m(self, corpus_files, tmp_path):
        corpus, facts, questions = corpus_files
        out = tmp_path / "topm"
        code = run(
            "rank", "--facts", *facts, "--questions", questions, "--top-m", 5, "--out", out
        )
        assert code == 0
        lines = (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5 * len(corpus.questions)


class TestRerankCommand:
    def test_overlap_builds_one_tfidf_provider(self, corpus_files, tmp_path, monkeypatch):
        # the overlap scores count terms of the provider the re-ranking cosines use
        _, facts, questions = corpus_files
        builds, build = [], TfidfProvider.__init__
        monkeypatch.setattr(TfidfProvider, "__init__", lambda self, texts: builds.append(build(self, texts)))
        args = ["--facts", *facts, "--questions", questions, "--method", "overlap", "--depth", 4]
        assert run("rerank", *args, "--out", tmp_path) == 0
        assert len(builds) == 1
        monkeypatch.undo()
        corpus = load_corpus(facts, questions)
        table = score_lexical(corpus, None, OVERLAP)  # its own provider
        rankings, _ = rerank_all(corpus, default_provider(corpus), table, RerankConfig(depth=4))
        write_predictions(rankings, tmp_path / "two_providers.tsv")
        assert (tmp_path / "reranked_predictions.tsv").read_bytes() == (
            tmp_path / "two_providers.tsv"
        ).read_bytes()

    def test_depth_one_matches_rank_output(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        rank_out = tmp_path / "rank_out"
        assert run("rank", "--facts", *facts, "--questions", questions, "--out", rank_out) == 0
        rr_out = tmp_path / "rr_out"
        code = run(
            "rerank",
            "--facts", *facts,
            "--questions", questions,
            "--scores", rank_out / "scores.tsv",
            "--depth", 1,
            "--out", rr_out,
        )
        assert code == 0
        assert (rr_out / "reranked_predictions.tsv").read_bytes() == (
            rank_out / "predictions.tsv"
        ).read_bytes()

    def test_trace_rows_per_question(self, corpus_files, tmp_path, capsys):
        corpus, facts, questions = corpus_files
        out = tmp_path / "traced"
        code = run(
            "rerank",
            "--facts", *facts,
            "--questions", questions,
            "--depth", 5,
            "--trace",
            "--out", out,
        )
        assert code == 0
        assert f"wrote {out / 'traces.tsv'} ({len(corpus.questions)} questions)" in capsys.readouterr().out
        header, *lines = (out / "traces.tsv").read_text(encoding="utf-8").splitlines()
        assert header == "qid\tround\tfact_uid\tweighted_rel\tqa_sim\tscore\tselected"
        rows = [line.split("\t") for line in lines]
        assert {len(row) for row in rows} == {7}
        # questions in rankings order, each with rounds 1..depth - 1 in order
        assert list(dict.fromkeys(row[0] for row in rows)) == [q.qid for q in corpus.questions]
        reranked = read_predictions(out / "reranked_predictions.tsv")
        for qid, ranking in reranked.items():
            own = [row for row in rows if row[0] == qid]
            rounds = [int(row[1]) for row in own]
            assert rounds == sorted(rounds) and set(rounds) == {1, 2, 3, 4}
            assert {row[6] for row in own} == {"0", "1"}
            # one pick per round: the re-ranked top after the kept initial top fact
            picks = [(int(row[1]), row[2]) for row in own if row[6] == "1"]
            assert picks == list(enumerate(ranking[1:5], start=1))

    def test_trace_keeps_every_qid_verbatim(self, tmp_path, capsys):
        # qids that differ only in characters a file name cannot hold, or
        # holds escaped: each is one traces.tsv cell, as it is
        facts = tmp_path / "facts.tsv"
        write_fact_table(facts, [("f1", "frogs eat insects"), ("f2", "plants need sun"),
                                 ("f3", "insects eat plants")])
        qids = ["q/1", "q_1", "q%2F1", "été"]
        questions = tmp_path / "q.tsv"
        questions.write_text(
            "QuestionID\tquestion\tAnswerKey\texplanation\n"
            + "".join(f"{qid}\tWhat do frogs eat? (A) insects (B) sun\tA\tf1|CENTRAL\n"
                      for qid in qids),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("rerank", "--facts", facts, "--questions", questions, "--depth", 2,
                   "--trace", "--out", out) == 0
        assert not (out / "traces").exists()
        _, *lines = (out / "traces.tsv").read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in lines]
        # depth 2 over 3 facts: one round with two candidates per question
        assert [(row[0], row[1]) for row in rows] == [(qid, "1") for qid in qids for _ in range(2)]
        for qid in qids:
            assert sorted(row[6] for row in rows if row[0] == qid) == ["0", "1"]
        assert f"({len(qids)} questions)" in capsys.readouterr().out

    @pytest.mark.parametrize("dense", [False, True])
    def test_trace_tsv_bitwise_equal_to_reference(self, corpus_files, tmp_path, dense):
        _, facts, questions = corpus_files
        base = ["--facts", *facts, "--questions", questions]
        if dense:
            rng = random.Random(71)
            vectors = tmp_path / "vectors.txt"
            vectors.write_text("".join(
                f"{word} {rng.uniform(-1, 1)!r} {rng.uniform(-1, 1)!r} {rng.uniform(-1, 1)!r}\n"
                for word in WORD_POOL), encoding="utf-8")
            base += ["--vectors", vectors]
        out = tmp_path / "out"
        assert run("rerank", *base, "--depth", 6, "--trace", "--out", out) == 0
        corpus = load_corpus(facts, questions)
        provider = load_dense(vectors) if dense else default_provider(corpus)
        table = score_lexical(corpus, provider)
        _, traces = rerank_reference.rerank_all(corpus, provider, table, RerankConfig(depth=6),
                                                want_trace=True)
        want = [
            (qid, str(rnd.number), uid, *(v.hex() for v in values), str(int(uid == rnd.selected)))
            for qid, trace in traces.items()
            for rnd in trace.rounds
            for uid, *values in zip(rnd.candidates, rnd.weighted_rel.tolist(), rnd.qa_sim.tolist(),
                                    rnd.score.tolist())
        ]
        _, *lines = (out / "traces.tsv").read_text(encoding="utf-8").splitlines()
        got = [
            (qid, number, uid, *(float(v).hex() for v in values), selected)
            for qid, number, uid, *values, selected in (line.split("\t") for line in lines)
        ]
        assert len(want) > 50
        assert got == want

    def test_depth_one_keeps_raw_order_when_normalizing_merges_scores(self, tmp_path):
        # normalization maps 1.0 and the next float up onto one value; the
        # re-ranking base order must still be the raw scores' order
        facts = tmp_path / "facts.tsv"
        write_fact_table(facts, [(uid, f"fact {uid}") for uid in ("a", "b", "hi", "lo")])
        questions = tmp_path / "q.tsv"
        questions.write_text(
            "QuestionID\tquestion\tAnswerKey\texplanation\n"
            "q1\tWhich fact? (A) this one\tA\ta|CENTRAL\n",
            encoding="utf-8",
        )
        scores = tmp_path / "ext.tsv"
        scores.write_text(
            "q1\thi\t1000000000.0\nq1\ta\t1.0\nq1\tb\t1.0000000000000002\nq1\tlo\t0.0\n",
            encoding="utf-8",
        )
        base = ["--facts", facts, "--questions", questions, "--scores", scores]
        assert run("rank", *base, "--out", tmp_path / "rank") == 0
        assert run("rerank", *base, "--depth", 1, "--out", tmp_path / "rerank") == 0
        ranked = (tmp_path / "rank" / "predictions.tsv").read_text(encoding="utf-8")
        assert ranked == "q1\thi\nq1\tb\nq1\ta\nq1\tlo\n"
        assert (tmp_path / "rerank" / "reranked_predictions.tsv").read_text(encoding="utf-8") == ranked

        predictions = tmp_path / "rank" / "predictions.tsv"
        assert run("evaluate", *base, "--predictions", predictions, "--sweep", "1",
                   "--out", tmp_path / "eval") == 0
        kv = (tmp_path / "eval" / "eval_report.kv").read_text(encoding="utf-8")
        assert "map_overall=0.3333333333333333" in kv
        sweep = (tmp_path / "eval" / "depth_sweep.tsv").read_text(encoding="utf-8")
        assert sweep == "depth\tmap\n1\t0.333333\n"

    def test_jobs_flag_removed(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        with pytest.raises(SystemExit) as exc:
            run("rerank", "--facts", *facts, "--questions", questions, "--jobs", 2,
                "--out", tmp_path / "o")
        assert exc.value.code == 2


class TestEvaluateCommand:
    def perfect_predictions(self, corpus, path):
        with open(path, "w", encoding="utf-8") as fh:
            for q in corpus.questions:
                gold = [uid for uid, _ in q.gold]
                rest = [uid for uid in corpus.facts if uid not in set(gold)]
                for uid in gold + rest:
                    fh.write(f"{q.qid}\t{uid}\n")

    def test_perfect_predictions_map_one(self, corpus_files, tmp_path, capsys):
        corpus, facts, questions = corpus_files
        preds = tmp_path / "perfect.tsv"
        self.perfect_predictions(corpus, preds)
        out = tmp_path / "eval"
        code = run(
            "evaluate",
            "--facts", *facts,
            "--questions", questions,
            "--predictions", preds,
            "--out", out,
        )
        assert code == 0
        assert "MAP overall: 1.000000" in capsys.readouterr().out
        assert (out / "eval_report.txt").exists()
        assert "map_overall=1.0" in (out / "eval_report.kv").read_text(encoding="utf-8")

    def test_evaluates_truncated_rank_output(self, corpus_files, tmp_path):
        # rank --top-m keeps 3 facts per question; gold facts below the cut add
        # 0 to AP and are counted in the report
        corpus, facts, questions = corpus_files
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert run("rank", "--facts", *facts, "--questions", questions, "--out", full) == 0
        assert run("rank", "--facts", *facts, "--questions", questions,
                   "--top-m", 3, "--out", cut) == 0
        code = run("evaluate", "--facts", *facts, "--questions", questions,
                   "--predictions", cut / "predictions.tsv", "--out", cut)
        assert code == 0
        top = {qid: uids[:3] for qid, uids in read_predictions(full / "predictions.tsv").items()}
        annotated = [q for q in corpus.questions if q.gold]
        aps = []
        for q in annotated:
            gold = q.gold_uid_set
            hits = [i for i, uid in enumerate(top[q.qid], start=1) if uid in gold]
            aps.append(sum(k / i for k, i in enumerate(hits, start=1)) / len(gold))
        unretrieved = sum(len(q.gold_uid_set - set(top[q.qid])) for q in annotated)
        assert unretrieved > 0
        kv = (cut / "eval_report.kv").read_text(encoding="utf-8").splitlines()
        assert f"unretrieved={unretrieved}" in kv
        assert float(kv[0].split("=")[1]) == pytest.approx(sum(aps) / len(aps), abs=1e-12)

    def test_sweep_two_rows(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        rank_out = tmp_path / "rank_out"
        assert run("rank", "--facts", *facts, "--questions", questions, "--out", rank_out) == 0
        out = tmp_path / "sweep_out"
        code = run(
            "evaluate",
            "--facts", *facts,
            "--questions", questions,
            "--scores", rank_out / "scores.tsv",
            "--sweep", "1,3",
            "--out", out,
        )
        assert code == 0
        lines = (out / "depth_sweep.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "depth\tmap"
        assert len(lines) == 3
        assert lines[1].startswith("1\t") and lines[2].startswith("3\t")

    def test_sweep_warns_once_about_unscored_questions(self, corpus_files, tmp_path, caplog):
        # scores for all but one annotated question: one warning for the
        # whole sweep, not one per depth
        corpus, facts, questions = corpus_files
        rank_out = tmp_path / "rank_out"
        assert run("rank", "--facts", *facts, "--questions", questions, "--out", rank_out) == 0
        dropped = next(q.qid for q in corpus.questions if q.gold)
        lines = (rank_out / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        scores = tmp_path / "partial.tsv"
        scores.write_text("".join(ln for ln in lines if not ln.startswith(f"{dropped}\t")),
                          encoding="utf-8")
        with caplog.at_level("WARNING"):
            code = run("evaluate", "--facts", *facts, "--questions", questions,
                       "--scores", scores, "--sweep", "1,3,5,10", "--out", tmp_path / "sweep")
        assert code == 0
        assert caplog.text.count("1 annotated question(s) have no ranking and were skipped") == 1

    def test_needs_predictions_or_sweep(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        code = run(
            "evaluate", "--facts", *facts, "--questions", questions, "--out", tmp_path / "o"
        )
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_sweep_without_scores_writes_nothing(self, corpus_files, tmp_path, caplog):
        corpus, facts, questions = corpus_files
        preds = tmp_path / "perfect.tsv"
        self.perfect_predictions(corpus, preds)
        out = tmp_path / "o"
        code = run("evaluate", "--facts", *facts, "--questions", questions,
                   "--predictions", preds, "--sweep", "1,3", "--out", out)
        assert code == 2
        assert "--sweep needs --scores" in caplog.text
        assert not out.exists()

    def test_per_role_includes_background_and_neg(self, tmp_path, capsys):
        corpus = random_corpus(
            n_questions=8,
            n_facts=30,
            seed=71,
            roles=(CENTRAL, GROUNDING, BACKGROUND, NEG),
            gold_range=(2, 4),
        )
        facts, questions = write_corpus_files(corpus, tmp_path / "data")
        preds = tmp_path / "preds.tsv"
        self.perfect_predictions(corpus, preds)
        code = run(
            "evaluate",
            "--facts", *facts,
            "--questions", questions,
            "--predictions", preds,
            "--out", tmp_path / "o",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BACKGROUND" in out and "NEG" in out

    def test_composability_rerank_depth_one_same_report(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        rank_out = tmp_path / "rank_out"
        assert run("rank", "--facts", *facts, "--questions", questions, "--out", rank_out) == 0
        rr_out = tmp_path / "rr_out"
        assert (
            run(
                "rerank",
                "--facts", *facts,
                "--questions", questions,
                "--scores", rank_out / "scores.tsv",
                "--depth", 1,
                "--out", rr_out,
            )
            == 0
        )
        direct = tmp_path / "eval_direct"
        via_rerank = tmp_path / "eval_rerank"
        assert (
            run(
                "evaluate",
                "--facts", *facts,
                "--questions", questions,
                "--predictions", rank_out / "predictions.tsv",
                "--out", direct,
            )
            == 0
        )
        assert (
            run(
                "evaluate",
                "--facts", *facts,
                "--questions", questions,
                "--predictions", rr_out / "reranked_predictions.tsv",
                "--out", via_rerank,
            )
            == 0
        )
        assert (direct / "eval_report.kv").read_bytes() == (
            via_rerank / "eval_report.kv"
        ).read_bytes()


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        config = tmp_path / "run.cfg"
        config.write_text(
            "# pipeline defaults\n"
            f"facts={','.join(str(p) for p in facts)}\n"
            f"questions={questions}\n"
            "k=2\n"
            "task=regression\n"
            f"out={tmp_path / 'from_config'}\n",
            encoding="utf-8",
        )
        code = run("prepare", "--config", config)
        assert code == 0
        assert (tmp_path / "from_config" / "dataset_regression.tsv").exists()

        code = run("prepare", "--config", config, "--task", "classification",
                   "--out", tmp_path / "flag_wins")
        assert code == 0
        assert (tmp_path / "flag_wins" / "dataset_classification.tsv").exists()

    def test_bad_config_line_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just words\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_config(config)

    def test_repeated_key_names_both_lines(self, tmp_path):
        config = tmp_path / "twice.cfg"
        config.write_text("depth=3\n# again\nk=2\ndepth=5\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"twice\.cfg line 4: key 'depth' already given on line 1"):
            read_config(config)

    def test_repeated_key_in_either_spelling_exits_two(self, corpus_files, tmp_path, caplog):
        _, facts, questions = corpus_files
        config = tmp_path / "twice.cfg"
        config.write_text("with_context=true\nwith-context=false\n", encoding="utf-8")
        code = run("prepare", "--facts", *facts, "--questions", questions,
                   "--config", config, "--out", tmp_path / "o")
        assert code == 2
        assert "line 2: key 'with_context' already given on line 1" in caplog.text
        assert not list((tmp_path / "o").glob("dataset_*"))

    def test_config_value_keeps_line_separator(self, tmp_path):
        config = tmp_path / "sep.cfg"
        config.write_text("out=a\u2028b\nk=3\n", encoding="utf-8")
        assert read_config(config) == {"out": "a\u2028b", "k": 3}

    def test_key_of_another_command_accepted(self, corpus_files, tmp_path):
        # one shared pipeline config: rank ignores rerank's and evaluate's keys
        _, facts, questions = corpus_files
        config = tmp_path / "shared.cfg"
        config.write_text(
            f"questions={questions}\ndepth=5\ntrace=yes\npredictions={tmp_path / 'later.tsv'}\n",
            encoding="utf-8",
        )
        plain, shared = tmp_path / "plain", tmp_path / "shared"
        assert run("rank", "--facts", *facts, "--questions", questions, "--out", plain) == 0
        assert run("rank", "--config", config, "--facts", *facts, "--out", shared) == 0
        assert (shared / "predictions.tsv").read_bytes() == (plain / "predictions.tsv").read_bytes()

    def test_round_trip_question_loader(self, corpus_files):
        # the question file written for these tests parses back identically
        corpus, _, questions = corpus_files
        assert tuple(load_questions(questions)) == corpus.questions


# loader name -> (header line or None, well-formed line i, loader call)
_LOADERS = {
    "facts": ("text\tUID", "fact number {i}\tu{i}", lambda path: load_facts([path])),
    "questions": (
        "QuestionID\tquestion\tAnswerKey\texplanation",
        "q{i}\tStem (A) x\tA\tu{i}|CENTRAL",
        load_questions,
    ),
    "scores": (
        None,
        "Q000\tF{i}\t0.5",
        lambda path: load_scores(path, random_corpus(n_questions=1, n_facts=3, seed=1)),
    ),
    "predictions": (None, "q{i}\tu{i}", read_predictions),
    "vectors": (None, "w{i} 1.0 2.0", load_dense),
    "config": (None, "key{i}=value", read_config),
    "dataset": (
        "qid\tquestion_text\tcontext\tcandidate_text\tlabel_or_target\trole",
        "q{i}\tqt\t\tcand\t1.0\tCENTRAL",
        read_dataset,
    ),
}


class TestInvalidUtf8:
    @pytest.mark.parametrize("loader", sorted(_LOADERS))
    def test_located_format_error(self, loader, tmp_path):
        # the bad line comes after more than a text stream decodes at once
        header, line, load = _LOADERS[loader]
        lines = [header] if header else []
        lines += [line.format(i=i) for i in range(2000)]
        path = tmp_path / f"{loader}.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode() + b"caf\xe9 bad\n")
        with pytest.raises(FormatError) as err:
            load(path)
        assert f"{path} line {len(lines) + 1}: not valid UTF-8 (byte 4:" in str(err.value)

    @pytest.mark.parametrize("loader", sorted(_LOADERS))
    def test_cr_and_crlf_lines_counted_as_the_reader_counts_them(self, loader, tmp_path):
        header, line, load = _LOADERS[loader]
        lines = [header] if header else []
        lines += [line.format(i=i) for i in range(5)]
        path = tmp_path / f"{loader}.txt"
        data = "\r\n".join(lines) + "\r" + "f\udce9 bad\r" + line.format(i=9) + "\r\n"
        path.write_bytes(data.encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError) as err:
            load(path)
        bad_line = len(lines) + 1
        assert str(err.value) == f"{path} line {bad_line}: not valid UTF-8 (byte 2: invalid continuation byte)"

    @pytest.mark.parametrize("loader, wrong, message", [
        ("scores", "Q000\tF1", "expected qid<TAB>fact_uid<TAB>score"),
        ("predictions", "q1\tu1\tx", "expected qid<TAB>fact_uid"),
        ("vectors", "w1 1.0", "expected 2 components, found 1"),
    ])
    def test_wrong_line_before_a_bad_byte_is_the_error(self, loader, wrong, message, tmp_path):
        # these readers check lines in file order, and the bad byte is in
        # the block of characters a text stream decodes with line 2
        _, line, load = _LOADERS[loader]
        path = tmp_path / f"{loader}.txt"
        path.write_bytes(f"{line.format(i=0)}\n{wrong}\n".encode() + b"caf\xe9 bad\n")
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == f"{path} line 2: {message}"

    def test_cli_exits_two_naming_the_file(self, corpus_files, tmp_path, caplog):
        _, _, questions = corpus_files
        facts_path = tmp_path / "facts.tsv"
        facts_path.write_bytes(b"text\tUID\nna\xefve fact\tf1\n")
        code = run("validate", "--facts", facts_path, "--questions", questions)
        assert code == 2
        assert f"{facts_path} line 2: not valid UTF-8" in caplog.text


# input name -> (a well-formed file's text, its reader, what a read gives
# as comparable values)
_BOM_CORPUS = corpus_of({"f1": "alpha", "f2": "beta", "f3": "gamma"},
                        [Question("q1", "s", {"A": "a"}, "A", (("f1", CENTRAL),))])
_BOM_INPUTS = {
    "facts": ("text\tUID\nfact one\tf1\n", lambda path: load_facts([path]),
              lambda facts: (facts.uids, facts.texts)),
    "questions": ("QuestionID\tquestion\tAnswerKey\texplanation\nq1\tStem (A) x (B) y\tA\tf1|CENTRAL\n",
                  load_questions, list),
    "scores": ("q1\tf1\t5.0\nq1\tf2\t1.0\nq1\tf3\t2.0\n", lambda path: load_scores(path, _BOM_CORPUS),
               lambda table: (table.qids, table.scores.tolist())),
    "predictions": ("q1\tf1\nq1\tf2\n", read_predictions, dict),
    "vectors": ("2 2\nw1 1.0 2.0\nw2 3.0 4.0\n", load_dense,
                lambda vectors: (vectors.term_ids, vectors.table.tolist())),
    "config": ("depth=3\n", read_config, dict),
    "dataset": ("qid\tquestion_text\tcontext\tcandidate_text\tlabel_or_target\trole\n"
                "q1\tqt\t\tcand\t1.0\tCENTRAL\n", read_dataset, dataclasses.astuple),
}


@pytest.mark.parametrize("name", sorted(_BOM_INPUTS))
def test_leading_byte_order_mark_is_dropped(name, tmp_path):
    text, read, values = _BOM_INPUTS[name]
    plain, marked = tmp_path / "plain" / "input.txt", tmp_path / "marked" / "input.txt"
    for path, data in ((plain, text), (marked, "\ufeff" + text)):
        path.parent.mkdir()
        path.write_text(data, encoding="utf-8")
    assert values(read(marked)) == values(read(plain))


# key -> (a command taking it, its flag argv, the same value as a config
# line's value); every value differs from the key's default
_FLAG_AND_KEY = {
    "facts": ("rank", ["--facts", "a.tsv", "b.tsv"], "a.tsv, b.tsv"),
    "questions": ("validate", ["--questions", "q.tsv"], "q.tsv"),
    "vectors": ("prepare", ["--vectors", "v.txt"], "v.txt"),
    "out": ("evaluate", ["--out", "elsewhere"], "elsewhere"),
    "seed": ("prepare", ["--seed", "-4"], "-4"),
    "task": ("prepare", ["--task", "all"], "all"),
    "with_context": ("prepare", ["--with-context"], "Yes"),
    "k": ("prepare", ["--k", "2"], "2"),
    "m": ("prepare", ["--m", "5"], "5"),
    "method": ("rerank", ["--method", "overlap"], "overlap"),
    "scores": ("evaluate", ["--scores", "s.tsv"], "s.tsv"),
    "depth": ("rerank", ["--depth", "4"], "4"),
    "top_m": ("rank", ["--top-m", "3"], "3"),
    "trace": ("rerank", ["--trace"], "on"),
    "predictions": ("evaluate", ["--predictions", "p.tsv"], "p.tsv"),
    "sweep": ("evaluate", ["--sweep", "1,3,"], "1,3,"),
}


def resolved(argv):
    args = vars(parse_args([str(a) for a in argv]))
    return {key: value for key, value in args.items() if key in OPTIONS}


class TestOptionTable:
    def test_every_option_sampled(self):
        assert set(_FLAG_AND_KEY) == set(OPTIONS)

    def test_defaults_and_choices_are_the_layers_own(self):
        # OPTIONS spells these out so that building the parser executes no layer
        prep = PrepConfig()
        spec = {key: OPTIONS[key][1] for key in OPTIONS}
        for key in ("k", "m", "seed", "with_context", "task"):
            assert spec[key]["default"] == getattr(prep, key), key
        assert spec["task"]["choices"] == [CLASSIFICATION, REGRESSION, "all"]
        assert spec["depth"]["default"] == RerankConfig().depth
        assert spec["method"]["choices"] == [TFIDF_COSINE, OVERLAP]
        assert spec["method"]["default"] == TFIDF_COSINE

    @pytest.mark.parametrize("key", sorted(OPTIONS))
    def test_flag_and_config_key_resolve_alike(self, key, tmp_path):
        command, flag_argv, raw = _FLAG_AND_KEY[key]
        config = tmp_path / "run.cfg"
        config.write_text(f"{key.replace('_', '-')} = {raw}\n", encoding="utf-8")
        from_flag = resolved([command, *flag_argv])
        assert from_flag == resolved([command, "--config", config])
        assert from_flag[key] != resolved([command])[key]

    @pytest.mark.parametrize(
        "word, value",
        [("true", True), ("FALSE", False), ("yes", True), ("no", False),
         ("On", True), ("off", False), ("1", True), ("0", False)],
    )
    def test_switch_words_and_flag_wins(self, word, value, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(f"trace={word}\ndepth=3\n", encoding="utf-8")
        assert resolved(["rerank", "--config", config])["trace"] is value
        flipped = resolved(["rerank", "--config", config, "--no-trace" if value else "--trace"])
        assert (flipped["trace"], flipped["depth"]) == (not value, 3)

    # each line is refused; most exited 0 or 1 before config values were
    # checked as their flags check them
    @pytest.mark.parametrize(
        "command, line",
        [
            ("rank", "top_m=0"),
            ("rank", "top_m=-2"),
            ("rerank", "dpeth=1"),
            ("rerank", "trace=treu"),
            ("rerank", "depth=0"),
            ("rank", "depth=0"),
            ("evaluate", "sweep="),
            ("evaluate", "sweep=0,3"),
            ("rank", "method=bogus"),
            ("rank", "method=external"),
            ("prepare", "task=bogus"),
            ("prepare", "k=x"),
            ("prepare", "m=0"),
            ("prepare", "seed=1.5"),
            ("prepare", "with_context=maybe"),
            ("validate", "facts= , "),
            ("validate", "config=other.cfg"),
            ("validate", "just words"),
        ],
    )
    def test_refused_config_line_exits_two_naming_it(self, command, line, corpus_files,
                                                     tmp_path, caplog):
        _, facts, questions = corpus_files
        config = tmp_path / "run.cfg"
        config.write_text(
            f"# shared settings\n\nquestions={questions}\n{line}\n", encoding="utf-8"
        )
        out = tmp_path / "o"
        out_argv = [] if command == "validate" else ["--out", out]
        assert run(command, "--config", config, "--facts", *facts, *out_argv) == 2
        assert f"{config} line 4: " in caplog.text
        assert not out.exists()
        key, _, raw = line.partition("=")
        commands, spec = OPTIONS.get(key, ((), {}))
        # the same value given to a flag that takes one value
        if command in commands and "action" not in spec and "nargs" not in spec:
            with pytest.raises(SystemExit) as exc:
                run(command, "--facts", *facts, "--" + key.replace("_", "-"), raw, "--out", out)
            assert exc.value.code == 2

    @pytest.mark.parametrize("sweep", ["", " , ", "0,3", "1,-2", "1,x"])
    def test_refused_sweep_flag_exits_two(self, sweep, corpus_files, tmp_path):
        _, facts, questions = corpus_files
        with pytest.raises(SystemExit) as exc:
            run("evaluate", "--facts", *facts, "--questions", questions,
                "--scores", questions, "--sweep", sweep, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


class TestUnanswerableQuestion:
    """A question whose answer key matches no choice is skipped with a
    warning by every command that needs its question/answer text, so the
    outputs equal those of the corpus without it."""

    @pytest.mark.parametrize("command", ["rank", "rerank", "prepare", "sweep"])
    def test_skipped_with_warning(self, command, tmp_path, caplog):
        corpus = random_corpus(n_questions=6, n_facts=25, seed=72, gold_range=(2, 3))
        bad = dataclasses.replace(corpus.questions[0], answer_key="Z")
        scores = tmp_path / "ext.tsv"
        with open(scores, "w", encoding="utf-8") as fh:
            for i, q in enumerate(corpus.questions):
                for n, uid in enumerate(corpus.facts):
                    fh.write(f"{q.qid}\t{uid}\t{(n * 7 + i) % 11}\n")
        outputs = []
        for name, questions in (("with", (bad, *corpus.questions[1:])),
                                ("without", corpus.questions[1:])):
            facts, question_path = write_corpus_files(
                Corpus(facts=corpus.facts, questions=questions), tmp_path / name)
            out = tmp_path / name / "out"
            base = ["--facts", *facts, "--questions", question_path, "--out", out]
            argv = {
                "rank": ["rank", *base],
                "rerank": ["rerank", *base, "--scores", scores, "--depth", 4],
                "prepare": ["prepare", *base, "--task", "all", "--k", 2],
                "sweep": ["evaluate", *base, "--scores", scores, "--sweep", "1,4"],
            }[command]
            caplog.clear()
            assert run(*argv) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            if name == "with":
                # once per run, though several layers skip the question
                assert caplog.text.count(f"question {bad.qid}: answer key 'Z' matches no choice") == 1
        assert outputs[0] and outputs[0] == outputs[1]
