import dataclasses
import math

import numpy as np
import pytest

from washseg.scoring import PROFESSIONAL_DURATIONS
from washseg.signal_data import load_corpus
from washseg.synth import GenSpec, describe, generate, write_corpus


def test_determinism_bit_identical():
    spec = GenSpec(seed=3, participants=2)
    c1 = generate(spec)
    c2 = generate(GenSpec(seed=3, participants=2))
    assert len(c1) == len(c2)
    for a, b in zip(c1, c2):
        np.testing.assert_array_equal(a.accel, b.accel)
        np.testing.assert_array_equal(a.gyro, b.gyro)
        np.testing.assert_array_equal(a.label, b.label)


def test_different_seeds_differ():
    a = generate(GenSpec(seed=1, participants=1))[0]
    b = generate(GenSpec(seed=2, participants=1))[0]
    assert not np.array_equal(a.accel, b.accel)


def test_zero_jitter_durations_match_means_exactly():
    # counted per gesture, so a shuffled order counts the same
    spec = GenSpec(seed=0, participants=2, duration_jitter=0.0, gesture_drop_prob=0.0)
    for s in generate(spec):
        counts = np.bincount(s.label, minlength=10)[1:]
        expected = np.round(PROFESSIONAL_DURATIONS * 50).astype(int)
        np.testing.assert_array_equal(counts, expected)


def test_durations_within_jitter_bounds():
    spec = GenSpec(seed=5, participants=3, gesture_drop_prob=0.0)
    for s in generate(spec):
        counts = np.bincount(s.label, minlength=10)[1:]
        secs = counts / 50.0
        lo = PROFESSIONAL_DURATIONS * (1 - spec.duration_jitter) - 0.02
        hi = PROFESSIONAL_DURATIONS * (1 + spec.duration_jitter) + 0.02
        assert ((secs >= lo) & (secs <= hi)).all()


def test_corpus_shape_counts():
    spec = GenSpec(seed=0, participants=6, locations=3)
    corpus = generate(spec)
    assert len(corpus) == 30
    locs = {s.location_id for s in corpus}
    assert locs == {"loc0", "loc1", "loc2"}


def test_describe_statistics():
    spec = GenSpec(seed=0, participants=2)
    corpus = generate(spec)
    stats = describe(corpus)
    assert stats["series"] == 10
    assert stats["stride1_instances"] == sum(len(s) - 63 for s in corpus)
    assert 0.0 < stats["background_fraction"] < 1.0
    assert stats["empty_gesture_procedures"] == []


def test_describe_flags_empty_procedure():
    spec = GenSpec(seed=0, participants=1, gesture_drop_prob=1.0)
    stats = describe(generate(spec))
    assert len(stats["empty_gesture_procedures"]) == 5


def test_instance_scale_tracks_participant_count():
    # 51 participants x 5 procedures lands within order of magnitude of 8e5
    spec = GenSpec(seed=0, participants=2)
    per_procedure = np.mean([len(s) - 63 for s in generate(spec)])
    projected = per_procedure * 51 * 5
    assert 10**5 < projected < 10**7


def test_label_fidelity_and_invariants():
    for s in generate(GenSpec(seed=9, participants=1)):
        assert np.isfinite(s.accel).all() and np.isfinite(s.gyro).all()
        assert s.label[0] == 0 and s.label[-1] == 0
        assert (np.diff(s.t) > 0).all()


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        GenSpec(gesture_drop_prob=1.5).validate()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("field,value", [
    ("seed", -1),
    ("participants", 0),
    ("locations", 0),
    ("procedures_per_participant", 0),
    ("rate_hz", 0.0),
    ("rate_hz", INF),
    ("rate_hz", NAN),
    ("duration_means", (1.0, 2.0)),
    ("duration_means", (0.0,) + (4.0,) * 8),
    ("duration_means", (4.0,) * 8 + (INF,)),
    ("duration_means", (NAN,) * 9),
    ("noise_sigma", -1.0),
    ("noise_sigma", INF),
    ("background_walk_sigma", NAN),
    ("participant_variation", -0.1),
    ("background_range_s", (5.0, 2.0)),
    ("background_range_s", (-1.0, 2.0)),
    ("background_range_s", (1.0, INF)),
    ("background_range_s", (1.0,)),
    ("gesture_drop_prob", 1.5),
    ("sequence_shuffle_prob", NAN),
    ("duration_jitter", 1.0),
    ("duration_jitter", -0.1),
    ("participant_variation", INF),
    ("gesture_drop_prob", -0.1),
])
def test_bad_spec_rejected_naming_field(field, value):
    if field in {f.name for f in dataclasses.fields(GenSpec)}:
        spec = dataclasses.replace(GenSpec(), **{field: value})
        with pytest.raises(ValueError, match=field):
            spec.validate()
    else:
        # the rate (50 Hz, the CSV contract's) and the generator's fixed settings
        # are module constants: a spec that sets one is refused by name
        with pytest.raises(TypeError, match=field):
            GenSpec(**{field: value})


def test_write_and_reload_corpus(tmp_path):
    corpus = generate(GenSpec(seed=4, participants=2))
    write_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == len(corpus)
    by_key = {(s.location_id, s.participant_id, s.procedure_id): s for s in loaded}
    for s in corpus:
        other = by_key[(s.location_id, s.participant_id, s.procedure_id)]
        np.testing.assert_array_equal(other.label, s.label)
        np.testing.assert_allclose(other.accel, s.accel, rtol=1e-8, atol=1e-12)
