"""Streaming human-activity recognition from per-activity Gaussian mixtures.

A frame classifier that sums per-frame mixture log-likelihoods over a rolling
context window and takes the arg-max across activities, with directional
feature augmentation, a border-tolerant evaluation protocol, a blockwise
Viterbi baseline, and a per-frame latency benchmark.
"""

import os

# One OpenBLAS thread unless set otherwise, before any submodule loads numpy:
# a second thread doubles these small products' CPU time at no wall-time gain.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bench import run_bench
from .data import (
    ALL_LABELS,
    ActivityLabel,
    ChannelSpec,
    Dataset,
    LabeledSequence,
    full_sensor_channels,
    load_dataset,
    parse_recording,
    split_loso,
    write_recording,
)
from .errors import DataError, NumericError
from .evaluation import (
    aggregate_reports,
    apply_border_tolerance,
    confusion,
    metrics,
    run_cv,
)
from .features import (
    DirectionalConfig,
    FeatureConfig,
    directional_sources_by_name,
)
from .gmm import (
    ActivityModelSet,
    EmConfig,
    GmmModel,
    fit_activity_models,
    fit_em,
    fit_em_trace,
    kmeans_init,
    load_model_set,
    log_pdf,
    log_pdf_batch,
    save_model_set,
)
from .hmm import (
    TransitionMatrix,
    count_transitions,
    default_transition_matrix,
    predict_stream_hmm,
    viterbi_block,
)
from .predictor import (
    PredictorSession,
    naive_window_scores,
    posterior,
    predict_sequence_naive,
)

__version__ = "0.1.0"
