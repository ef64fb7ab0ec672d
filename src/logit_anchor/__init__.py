"""First-logit boosted decoding with a synthetic captioning benchmark.

The package has three layers:

* decoding primitives: logit containers, softmax/sampling, adaptive
  candidate restriction, weight schedules, and the decoding strategies
  themselves (baseline, contrastive pairs, first-logit boosting);
* a synthetic caption provider whose hallucination rate grows with
  generation depth, used as a controllable test bed;
* evaluation: corpus object-hallucination metrics, trace analytics,
  a cost benchmark, and a CLI that ties them together.
"""

from __future__ import annotations

from .bench import BenchReport, BenchRow, CostModel, PaddedProvider, run_bench
from .core import (
    GenerationRecord,
    LogitVector,
    ProbDist,
    StepTrace,
    TokenId,
    Vocabulary,
    argmax,
    entropy,
    sample,
    softmax,
)
from .errors import (
    ConfigError,
    ContractError,
    ExclusionError,
    InputError,
    LogitAnchorError,
)
from .metrics import (
    Annotation,
    ArticleStats,
    CaptionRecord,
    Mention,
    MetricsReport,
    ObjectLexicon,
    RunStats,
    SentenceInitialStats,
    StepStats,
    TraceLexicon,
    article_stats,
    corpus_metrics,
    entropy_stats,
    extract_objects,
    hal_noun_rate,
    positional_curves,
    read_trace,
    sentence_initial_stats,
    simulated_corpus,
    summarize_record,
    write_trace,
)
from .plausibility import CandidateMask, apply_mask, candidate_set
from .runner import run_many, run_strategy
from .simulator import (
    NegativeProvider,
    NegativeVariantSpec,
    SceneSpec,
    SyntheticProvider,
    default_scene,
    preset,
    scene_from_dict,
    scene_to_dict,
)
from .strategies import (
    ContrastiveConfig,
    FlbConfig,
    LogitProvider,
    Strategy,
    boost,
    decode,
    parse_strategy,
)
from .weighting import (
    DEFAULT_GAMMA,
    DEFAULT_LAM,
    WeightSchedule,
    object_score,
    weight_at,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "ArticleStats",
    "BenchReport",
    "BenchRow",
    "CandidateMask",
    "CaptionRecord",
    "ConfigError",
    "ContractError",
    "ContrastiveConfig",
    "CostModel",
    "DEFAULT_GAMMA",
    "DEFAULT_LAM",
    "ExclusionError",
    "FlbConfig",
    "GenerationRecord",
    "InputError",
    "LogitAnchorError",
    "LogitProvider",
    "LogitVector",
    "Mention",
    "MetricsReport",
    "NegativeProvider",
    "NegativeVariantSpec",
    "ObjectLexicon",
    "PaddedProvider",
    "ProbDist",
    "RunStats",
    "SceneSpec",
    "SentenceInitialStats",
    "StepStats",
    "StepTrace",
    "Strategy",
    "SyntheticProvider",
    "TokenId",
    "TraceLexicon",
    "Vocabulary",
    "WeightSchedule",
    "apply_mask",
    "argmax",
    "article_stats",
    "boost",
    "candidate_set",
    "corpus_metrics",
    "decode",
    "default_scene",
    "entropy",
    "entropy_stats",
    "extract_objects",
    "hal_noun_rate",
    "object_score",
    "parse_strategy",
    "positional_curves",
    "preset",
    "read_trace",
    "run_bench",
    "run_many",
    "run_strategy",
    "sample",
    "scene_from_dict",
    "scene_to_dict",
    "sentence_initial_stats",
    "simulated_corpus",
    "softmax",
    "summarize_record",
    "weight_at",
    "write_trace",
]
