"""Training-free separability analysis for multitrack music.

The package measures how well each instrument of a multitrack dataset
could possibly be isolated by masking: stems are mixed, separated again
with ideal ratio masks computed from the ground truth, and scored with
standard source-separation metrics.  On top of the per-song scores it
ranks songs, cuts subsets, correlates score tables, and plans controlled
stem-muting experiments.
"""

from .analysis import (
    CorrelationGrid,
    MutePlan,
    SelectionPlan,
    apply_mute_plan,
    correlate_tables,
    pearson,
    plan_mutes,
    rank_songs,
    select_subset,
    spearman,
)
from .audio import AudioClip
from .dataset import (
    DatasetManifest,
    MultitrackSong,
    load_manifest,
    load_song,
    make_mixture,
    normalize_loudness,
    read_wav,
    write_wav,
)
from .errors import (
    AlignmentError,
    ConfigurationError,
    DatasetError,
    InvalidInputError,
    MissingStemError,
    SeparabilityError,
    SilentReferenceError,
    UndefinedCorrelationError,
)
from .irm import MaskSet, OracleConfig, apply_masks, compute_irm, oracle_separate
from .metrics import (
    METRICS,
    ErrorComponents,
    FrameScores,
    MetricConfig,
    ScoringReport,
    aggregate_song,
    decompose,
    framewise_scores,
    isr,
    sar,
    sdr,
    si_sdr,
    sir,
)
from .scores import ScoreTable, aggregate_dataset
from .stft import ColaReport, Spectrogram, StftConfig, check_cola, istft, stft

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "AlignmentError",
    "ColaReport",
    "ConfigurationError",
    "CorrelationGrid",
    "DatasetError",
    "DatasetManifest",
    "ErrorComponents",
    "FrameScores",
    "InvalidInputError",
    "MaskSet",
    "METRICS",
    "MetricConfig",
    "MissingStemError",
    "MultitrackSong",
    "MutePlan",
    "OracleConfig",
    "ScoreTable",
    "ScoringReport",
    "SelectionPlan",
    "SeparabilityError",
    "SilentReferenceError",
    "Spectrogram",
    "StftConfig",
    "UndefinedCorrelationError",
    "aggregate_dataset",
    "aggregate_song",
    "apply_masks",
    "apply_mute_plan",
    "check_cola",
    "compute_irm",
    "correlate_tables",
    "decompose",
    "framewise_scores",
    "isr",
    "istft",
    "load_manifest",
    "load_song",
    "make_mixture",
    "normalize_loudness",
    "oracle_separate",
    "pearson",
    "plan_mutes",
    "rank_songs",
    "read_wav",
    "sar",
    "sdr",
    "select_subset",
    "si_sdr",
    "sir",
    "spearman",
    "stft",
    "write_wav",
]
