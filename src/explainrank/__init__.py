"""Learning-to-rank pipeline for explanation regeneration.

Given elementary-science questions with correct answers and a corpus of
explanation facts, this package prepares relevance-learner training
datasets, produces initial rankings from pluggable scorers, improves them
with iterative weighted re-ranking, and evaluates with mean average
precision.

Each public name is imported from its layer module on first access, so
importing the package (or one layer) does not execute the others.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "BACKGROUND", "CENTRAL", "GROUNDING", "LEXGLUE", "NEG", "Corpus",
        "ExplanationFact", "Facts", "Question", "load_corpus", "load_facts", "load_questions",
        "parse_role", "qa_text", "validate", "write_questions",
    ),
    "dataprep": (
        "CLASSIFICATION", "REGRESSION", "Dataset", "NegativeSampler", "PrepConfig",
        "build_dataset", "dataset_stats", "read_dataset", "sample_negatives", "write_dataset",
    ),
    "errors": ("DataError", "FormatError", "PipelineError"),
    "evaluation": (
        "EvalReport", "evaluate_rankings", "read_predictions", "write_predictions",
    ),
    "rerank": ("RerankConfig", "RerankTrace", "depth_sweep", "rerank_all"),
    "scorer": (
        "RelevanceTable", "all_rankings", "load_scores", "normalize", "score_lexical",
        "write_scores",
    ),
    "textsim": (
        "STOPWORDS", "DenseWordVectors", "TfidfProvider", "Rows", "default_provider",
        "fact_vectors", "load_dense", "tokenize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
