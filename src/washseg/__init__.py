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

__version__ = "0.1.0"
