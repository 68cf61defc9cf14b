"""The README's "Library use" block, run as written on a synthetic corpus."""

import re
from pathlib import Path

from synth import random_corpus, write_corpus_files

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.DOTALL)[1]
    corpus = random_corpus(n_questions=8, n_facts=40, seed=5, gold_range=(1, 4))
    facts, questions = write_corpus_files(corpus, tmp_path)
    for written, path in (('["tables/facts.tsv"]', [str(p) for p in facts]), ('"questions.tsv"', str(questions))):
        assert block.count(written) == 1, written
        block = block.replace(written, repr(path))
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert list(namespace["rankings"]) == [q.qid for q, _ in corpus.answerable]
    assert 0.0 < float(capsys.readouterr().out) <= 1.0
