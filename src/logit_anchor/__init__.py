"""First-logit boosted decoding with a synthetic captioning benchmark.

The package has three layers:

* decoding: the decoding strategies (baseline, contrastive pairs,
  first-logit boosting with its weight schedules) and the one lockstep
  decode loop, whose records keep plain per-step vectors on request;
* a synthetic caption provider whose hallucination rate grows with
  generation depth, used as a controllable test bed;
* evaluation: corpus object-hallucination metrics, trace analytics,
  a cost benchmark, and a CLI that ties them together.
"""

from __future__ import annotations

from .config import parse_cost_model, parse_strategy
from .core import (
    GenerationRecord,
    LogitVector,
    ProbDist,
    StepTrace,
    TokenId,
    Vocabulary,
)
from .errors import (
    ConfigError,
    ContractError,
    InputError,
    LogitAnchorError,
)
from .metrics import (
    Annotation,
    ArticleStats,
    CaptionRecord,
    CorpusCounts,
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
    object_score,
    positional_curves,
    read_trace,
    sentence_initial_stats,
    simulated_corpus,
    simulated_metrics,
    summarize_record,
    write_trace,
)
from .runner import (
    BenchReport, BenchRow, CostModel, PaddedProvider, run_bench, run_many, run_strategy,
)
from .simulator import (
    NegativeVariantSpec,
    SceneSpec,
    SyntheticProvider,
    default_scene,
    preset,
    scene_from_dict,
    scene_to_dict,
)
from .strategies import (
    DEFAULT_GAMMA,
    DEFAULT_LAM,
    LogitProvider,
    Strategy,
    WeightSchedule,
    decode,
    weight_at,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "ArticleStats",
    "BenchReport",
    "BenchRow",
    "CaptionRecord",
    "ConfigError",
    "ContractError",
    "CorpusCounts",
    "CostModel",
    "DEFAULT_GAMMA",
    "DEFAULT_LAM",
    "GenerationRecord",
    "InputError",
    "LogitAnchorError",
    "LogitProvider",
    "LogitVector",
    "Mention",
    "MetricsReport",
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
    "article_stats",
    "corpus_metrics",
    "decode",
    "default_scene",
    "entropy_stats",
    "extract_objects",
    "hal_noun_rate",
    "object_score",
    "parse_cost_model",
    "parse_strategy",
    "positional_curves",
    "preset",
    "read_trace",
    "run_bench",
    "run_many",
    "run_strategy",
    "scene_from_dict",
    "scene_to_dict",
    "sentence_initial_stats",
    "simulated_corpus",
    "simulated_metrics",
    "summarize_record",
    "weight_at",
    "write_trace",
]
