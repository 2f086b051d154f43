"""Sample-wise handwashing gesture segmentation on 6-axis IMU streams.

Subpackages/modules:
    nn           -- dense 1D layer library with hand-derived backprop
    signal_data  -- labeled recordings, CSV contract, sliding windows
    model        -- the dual-branch 1D U-Net and its training loop
    pipeline     -- inference tracks, smoothing, onset/offset, durations
    scoring      -- guideline-duration scoring out of 100 points
    evaluation   -- metrics, split protocols, the evaluation harness
    synth        -- deterministic synthetic labeled corpora
    cli          -- the `washseg` command
"""

from .signal_data import SampleSeries, extract_windows, load_csv, write_csv
from .model import ArchConfig, GestureNet, TrainHyper, train
from .pipeline import (
    LabelTrack,
    detect_procedure,
    gesture_durations,
    infer_track,
    mode_filter,
    multiple_test_voting,
)
from .scoring import PROFESSIONAL_DURATIONS, ScoreReport, score, score_error, trimmed_average
from .synth import GenSpec, generate

__version__ = "0.1.0"
