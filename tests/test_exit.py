"""The CLI's exit hook: main registers gc.freeze with atexit, once, so the
interpreter's last collection skips what is alive at exit, and a command's
output, messages and exit code stay as they were."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import explainrank
from explainrank.cli import main
from explainrank.corpus import Corpus

from synth import random_corpus, write_corpus_files

PYTHONPATH = os.pathsep.join(
    [str(Path(explainrank.__file__).resolve().parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])])

# registers its own exit hook before the CLI is imported; atexit runs hooks
# last-registered first, so this one sees what main's hook left
FROZEN_AT_EXIT = """
import atexit, gc, sys
def record():
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(str(gc.get_freeze_count()))
atexit.register(record)
from explainrank.cli import main
if sys.argv[2:] != ["--import-only"]:
    sys.exit(main(sys.argv[2:]))
"""

# counts the calls of gc.freeze at exit after main has run twice in one process
FREEZES_AT_EXIT = """
import atexit, gc, sys
freezes = []
def record():
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(str(len(freezes)))
atexit.register(record)
gc.freeze = lambda freeze=gc.freeze: freezes.append(freeze())
from explainrank.cli import main
assert main(["rank"]) == main(["rank"]) == 2
"""


def python(code, *argv):
    env = dict(os.environ, PYTHONPATH=PYTHONPATH)
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, encoding="utf-8")


@pytest.fixture()
def corpus_argv(tmp_path):
    """A small corpus with one question whose answer key matches no choice,
    so rank logs a warning."""
    corpus = random_corpus(n_questions=6, n_facts=25, seed=73, gold_range=(1, 3))
    bad = dataclasses.replace(corpus.questions[0], answer_key="Z")
    facts, questions = write_corpus_files(
        Corpus(facts=corpus.facts, questions=(bad, *corpus.questions[1:])), tmp_path / "data")
    return ["--facts", *facts, "--questions", questions]


@pytest.mark.parametrize(
    "argv, code",
    [(["rank"], 0), (["rank"], 2), (["rerank", "--depth", "0"], 2), (["--help"], 0)],
    ids=["rank", "usage_error", "refused_flag", "help"],
)
def test_exit_hook_freezes_before_the_last_collection(argv, code, corpus_argv, tmp_path):
    record = tmp_path / "frozen.txt"
    if argv[0] == "rank" and code == 0:
        argv = [*argv, *corpus_argv, "--out", tmp_path / "out"]
    done = python(FROZEN_AT_EXIT, record, *argv)
    assert done.returncode == code, done.stderr
    assert int(record.read_text(encoding="utf-8")) > 0


def test_importing_the_cli_freezes_nothing(tmp_path):
    record = tmp_path / "frozen.txt"
    done = python(FROZEN_AT_EXIT, record, "--import-only")
    assert done.returncode == 0, done.stderr
    assert record.read_text(encoding="utf-8") == "0"


def test_two_calls_of_main_register_one_hook(tmp_path):
    record = tmp_path / "freezes.txt"
    done = python(FREEZES_AT_EXIT, record)
    assert done.returncode == 0, done.stderr
    assert record.read_text(encoding="utf-8") == "1"


def test_subprocess_rank_prints_and_writes_as_in_process(corpus_argv, tmp_path, capsys, caplog):
    outputs = {}
    for name in ("in_process", "subprocess"):
        argv = ["rank", *corpus_argv, "--out", tmp_path / name]
        if name == "in_process":
            caplog.clear()
            assert main(list(map(str, argv))) == 0
            stdout = capsys.readouterr().out
            messages = [f"{r.levelname} {r.getMessage()}\n" for r in caplog.records]
        else:
            done = subprocess.run([sys.executable, "-m", "explainrank.cli", *map(str, argv)],
                                  env=dict(os.environ, PYTHONPATH=PYTHONPATH),
                                  capture_output=True, encoding="utf-8")
            assert done.returncode == 0, done.stderr
            assert done.stdout == stdout.replace(str(tmp_path / "in_process"), str(tmp_path / name))
            assert done.stderr == "".join(messages)
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert any("answer key 'Z' matches no choice" in m for m in messages)
    assert stdout.count("wrote ") == 2
    assert sorted(outputs["in_process"]) == ["predictions.tsv", "scores.tsv"]
    assert outputs["subprocess"] == outputs["in_process"]
