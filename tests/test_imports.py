"""The package namespace resolves each public name on first access, exports
every name the benchmark script calls, and each CLI command executes only
the layer modules it calls."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import explainrank
from explainrank.evaluation import write_predictions
from explainrank.scorer import all_rankings, score_lexical, write_scores
from explainrank.textsim import default_provider

from synth import random_corpus, write_corpus_files

# every name the package exports, by the layer that defines it
EXPORTS = {
    "corpus": [
        "BACKGROUND", "CENTRAL", "GROUNDING", "LEXGLUE", "NEG", "Corpus", "ExplanationFact",
        "Facts", "Question", "load_corpus", "load_facts", "load_questions", "parse_role",
        "qa_text", "validate", "write_questions",
    ],
    "dataprep": [
        "CLASSIFICATION", "REGRESSION", "Dataset", "NegativeSampler", "PrepConfig",
        "build_dataset", "dataset_stats", "read_dataset", "sample_negatives", "write_dataset",
    ],
    "errors": ["DataError", "FormatError", "PipelineError"],
    "evaluation": [
        "EvalReport", "evaluate_rankings", "read_predictions", "write_predictions",
    ],
    "rerank": ["RerankConfig", "RerankTrace", "depth_sweep", "rerank_all"],
    "scorer": [
        "RelevanceTable", "all_rankings", "load_scores", "normalize", "score_lexical",
        "write_scores",
    ],
    "textsim": [
        "STOPWORDS", "DenseWordVectors", "TfidfProvider", "Rows", "default_provider",
        "fact_vectors", "load_dense", "tokenize",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_name_is_its_module_attribute(module, name):
    layer = __import__(f"explainrank.{module}", fromlist=[name])
    assert getattr(explainrank, name) is getattr(layer, name)


def test_all_and_dir_list_every_name_and_star_binds_them():
    assert len(NAMES) == 51
    assert sorted(explainrank.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(explainrank))
    namespace = {}
    exec("from explainrank import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {
        name: getattr(explainrank, name) for name in NAMES
    }
    assert explainrank.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        explainrank.no_such_name


BENCH_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_bench_script_uses_only_exported_names():
    """Every name perfbench/run.py imports from the package or reads off it
    (as er.<name>) is exported. The script is parsed, not imported: its
    traced runs are the only other place a missing name would show."""
    tree = ast.parse(BENCH_SCRIPT.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    aliases = {alias.asname or alias.name for node in nodes if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "explainrank"}
    used = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "explainrank":
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            used.add(node.attr)
    assert aliases and used, "found no use of the package"
    assert sorted(used - set(explainrank.__all__)) == []


# runs one CLI command in a fresh interpreter and writes its exit code and the
# source file of every module body executed, as the "exec" audit event sees it
DRIVER = """
import json, sys
executed = []
sys.addaudithook(lambda event, args: executed.append(args[0].co_filename)
                 if event == "exec" and getattr(args[0], "co_name", None) == "<module>" else None)
from explainrank.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump([code, executed], fh)
"""

PACKAGE = Path(explainrank.__file__).resolve().parent
PYTHONPATH = os.pathsep.join([str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
BASE = {"explainrank", "explainrank.cli", "explainrank.corpus", "explainrank.errors"}
SCORING = {"explainrank.textsim", "explainrank.scorer"}
RERANKING = SCORING | {"explainrank.rerank", "explainrank.evaluation"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("imports")
    corpus = random_corpus(n_questions=6, n_facts=30, seed=17, gold_range=(1, 3))
    facts, questions = write_corpus_files(corpus, directory / "data")
    table = score_lexical(corpus, default_provider(corpus))
    write_scores(table, directory / "scores.tsv")
    write_predictions(all_rankings(table), directory / "predictions.tsv")
    return directory, ["--facts", *map(str, facts), "--questions", str(questions)]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["--help"], set()),
        (["validate"], set()),
        (["evaluate", "--predictions", "{d}/predictions.tsv"], {"explainrank.evaluation"}),
        (["evaluate", "--scores", "{d}/scores.tsv", "--sweep", "1,3"], RERANKING),
        (["rank"], SCORING | {"explainrank.evaluation"}),
        (["rerank", "--depth", "3"], RERANKING),
        (["prepare", "--task", "all"], {"explainrank.textsim", "explainrank.dataprep"}),
    ],
    ids=["help", "validate", "evaluate-predictions", "evaluate-sweep", "rank", "rerank", "prepare"],
)
def test_command_executes_only_its_layers(argv, layers, inputs, tmp_path):
    directory, corpus_argv = inputs
    argv = [arg.format(d=directory) for arg in argv]
    if argv != ["--help"]:
        argv += corpus_argv + ([] if argv[0] == "validate" else ["--out", str(tmp_path / "out")])
    env = dict(os.environ, PYTHONPATH=PYTHONPATH)
    record = tmp_path / "executed.json"
    subprocess.run([sys.executable, "-c", DRIVER, str(record), *argv], env=env, check=True,
                   capture_output=True)
    code, executed = json.loads(record.read_text(encoding="utf-8"))
    assert code == 0
    modules = {
        "explainrank" + ("" if path.stem == "__init__" else f".{path.stem}")
        for path in map(Path, executed)
        if path.resolve().parent == PACKAGE
    }
    assert modules == BASE | layers


# prints the process's OS thread count after importing the CLI (or numpy alone),
# and whether os.environ came back as it was
THREADS = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1] == "cli":
    from explainrank.cli import main
else:
    import numpy
print(json.dumps([len(os.listdir("/proc/self/task")), dict(os.environ) == before]))
"""
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def threads_after_import(what: str, **variables: str) -> tuple[int, bool]:
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARS}
    env.update(variables, PYTHONPATH=PYTHONPATH)
    done = subprocess.run([sys.executable, "-c", THREADS, what], env=env, check=True,
                          capture_output=True, text=True)
    return tuple(json.loads(done.stdout))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.parametrize("variable", [None, *BLAS_VARS])
def test_cli_starts_numpy_blas_with_one_thread_unless_user_chose(variable):
    """The CLI loads numpy's OpenBLAS without its thread pool and leaves
    os.environ as it found it; a thread count the user set still wins."""
    if threads_after_import("numpy")[0] == 1:
        pytest.skip("numpy starts no BLAS threads here (one CPU, or a BLAS without a pool)")
    chosen = {} if variable is None else {variable: "2"}
    threads, environ_kept = threads_after_import("cli", **chosen)
    assert environ_kept
    assert threads == (1 if variable is None else threads_after_import("numpy", **chosen)[0])
