"""Learning-to-rank pipeline for explanation regeneration.

Given elementary-science questions with correct answers and a corpus of
explanation facts, this package prepares relevance-learner training
datasets, produces initial rankings from pluggable scorers, improves them
with iterative weighted re-ranking, and evaluates with mean average
precision.
"""

from .corpus import (
    BACKGROUND,
    CENTRAL,
    GROUNDING,
    LEXGLUE,
    NEG,
    Corpus,
    ExplanationFact,
    Facts,
    Question,
    Role,
    answer_text,
    load_corpus,
    load_facts,
    load_questions,
    parse_explanation,
    qa_text,
    validate,
    write_questions,
)
from .dataprep import (
    CLASSIFICATION,
    REGRESSION,
    NegativeSampler,
    PrepConfig,
    TrainingExample,
    build_dataset,
    dataset_stats,
    read_dataset,
    sample_negatives,
    write_dataset,
)
from .errors import DataError, FormatError, PipelineError
from .evaluation import (
    EvalReport,
    average_precision,
    evaluate_rankings,
    map_overall,
    read_predictions,
    write_predictions,
)
from .rerank import (
    RerankConfig,
    RerankTrace,
    depth_sweep,
    iterative_rerank,
    rerank_all,
)
from .scorer import (
    RelevanceTable,
    all_rankings,
    load_scores,
    normalize,
    score_lexical,
    write_scores,
)
from .textsim import (
    STOPWORDS,
    DenseWordVectors,
    TfidfProvider,
    Rows,
    default_provider,
    dense_rows,
    fact_vectors,
    load_dense,
    tokenize,
)

__version__ = "0.1.0"
