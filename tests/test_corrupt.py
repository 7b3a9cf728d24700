"""Corruption generators: severity table, identity paths, length and
amplitude contracts, forced-parameter oracles, the clamps in ``draw``,
and the statistics of its draws."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import resample_poly
from scipy.stats import kstest

from quanvaudio import audio, corrupt, dsp
from quanvaudio.audio import Waveform
from quanvaudio.corrupt import (
    CLEAN_VALUE,
    SEVERITY_TABLE,
    CorruptionKind,
    CorruptionSpec,
    apply,
    draw,
    gaussian_noise,
    pitch_shift_by,
    severity_value,
    shift_samples,
    speed_by,
)

SR = 8000


def _tone(freq=440.0, seconds=1.0, amp=0.5):
    t = np.arange(int(SR * seconds)) / SR
    return Waveform(amp * np.sin(2 * np.pi * freq * t), SR)


def _noise(n=4000, amp=0.3, seed=0):
    return Waveform(amp * np.random.default_rng(seed).uniform(-1, 1, n), SR)


# ---------------------------------------------------------------------------
# Severity table


def test_severity_values():
    assert SEVERITY_TABLE[CorruptionKind.GAUSSIAN_NOISE] == (0.01, 0.05, 0.1, 0.15, 0.2, 0.25)
    assert SEVERITY_TABLE[CorruptionKind.PITCH_SHIFT] == (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    assert SEVERITY_TABLE[CorruptionKind.TEMPORAL_SHIFT] == (0.025, 0.05, 0.075, 0.1, 0.125, 0.15)
    assert SEVERITY_TABLE[CorruptionKind.SPEED_VARIATION] == (1.05, 1.1, 1.15, 1.2, 1.25, 1.3)
    for kind in CorruptionKind:
        assert severity_value(kind, 0) == CLEAN_VALUE[kind]
    assert CorruptionSpec(CorruptionKind.SPEED_VARIATION, 3, 0).severity_value == 1.15
    assert CorruptionSpec(CorruptionKind.PITCH_SHIFT, 6, 0).severity_value == 0.3


def test_severity_index_bounds():
    with pytest.raises(ValueError):
        CorruptionSpec(CorruptionKind.GAUSSIAN_NOISE, 7, 0)
    with pytest.raises(ValueError):
        CorruptionSpec(CorruptionKind.GAUSSIAN_NOISE, -1, 0)


def test_clean_severity_is_exact_identity_for_all_kinds():
    w = _noise()
    for kind in CorruptionKind:
        out = apply(CorruptionSpec(kind, 0, seed=123), w)
        assert out is w  # bit-exact, not merely close


# ---------------------------------------------------------------------------
# Gaussian noise


def test_gaussian_sigma_zero_identity():
    w = _tone()
    assert gaussian_noise(w, 0.0, seed=1) is w


def test_gaussian_bounds_on_full_scale_input():
    t = np.arange(SR) / SR
    w = Waveform(0.999 * np.sin(2 * np.pi * 100 * t), SR)
    out = gaussian_noise(w, 0.25, seed=2)
    assert np.all(out.samples >= -1.0) and np.all(out.samples <= 1.0)
    assert len(out) == len(w)


def test_gaussian_monte_carlo_std():
    # small amplitude so the [-1,1] clamp never bites
    w = Waveform(0.05 * np.sin(np.linspace(0, 200, 10**6)), SR)
    sigma = 0.2
    out = gaussian_noise(w, sigma, seed=3)
    ratio = (out.samples - w.samples) / np.std(w.samples)
    assert abs(np.std(ratio) - sigma) / sigma < 0.01


def test_gaussian_draw_is_sigma():
    # the noise itself is drawn per sample from the spec's seed
    w = _noise()
    spec = CorruptionSpec(CorruptionKind.GAUSSIAN_NOISE, 3, seed=12)
    assert draw(spec, w) == 0.1
    np.testing.assert_array_equal(apply(spec, w).samples, gaussian_noise(w, 0.1, 12).samples)


# ---------------------------------------------------------------------------
# Temporal shift


def test_forced_right_shift():
    w = Waveform(np.arange(1, 11) / 20.0, SR)
    out = shift_samples(w, 3)
    np.testing.assert_array_equal(out.samples[:3], 0.0)
    np.testing.assert_array_equal(out.samples[3:], w.samples[:7])


def test_forced_left_shift():
    w = Waveform(np.arange(1, 11) / 20.0, SR)
    out = shift_samples(w, -3)
    np.testing.assert_array_equal(out.samples[:7], w.samples[3:])
    np.testing.assert_array_equal(out.samples[7:], 0.0)


def test_shift_clamped_when_exceeding_length(caplog, monkeypatch):
    w = Waveform(np.arange(1, 6) / 10.0, SR)
    assert shift_samples(w, 4).samples[4] == w.samples[0]
    with pytest.raises(ValueError):
        shift_samples(w, 5)
    # sigma_t = 10 so that draws leave the 5-sample wave: seed 0 draws
    # p = 1.26 (a shift of 6) and seed 4 draws p = -6.52 (a shift of -33)
    monkeypatch.setitem(SEVERITY_TABLE, CorruptionKind.TEMPORAL_SHIFT, (10.0,) * 6)
    for seed, clamped in ((0, 0.8), (4, -0.8)):
        spec = CorruptionSpec(CorruptionKind.TEMPORAL_SHIFT, 6, seed)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert draw(spec, w) == clamped
        assert any("clamped" in r.getMessage() for r in caplog.records)
        out = apply(spec, w)
        assert len(out) == 5
        np.testing.assert_array_equal(out.samples, shift_samples(w, round(5 * clamped)).samples)
    np.testing.assert_array_equal(out.samples[:1], w.samples[4:])
    np.testing.assert_array_equal(out.samples[1:], 0.0)


def test_draw_is_the_applied_shift_on_a_one_sample_wave():
    # the raw draw is p = -0.657 (a shift of -1); the applied shift is 0
    w = Waveform(np.array([0.5]), SR)
    spec = CorruptionSpec(CorruptionKind.TEMPORAL_SHIFT, 6, seed=755)
    assert draw(spec, w) == 0.0
    assert apply(spec, w) is w


def test_temporal_sigma_zero_identity():
    w = _tone()
    assert shift_samples(w, 0) is w
    assert draw(CorruptionSpec(CorruptionKind.TEMPORAL_SHIFT, 0, seed=4), w) == 0.0


@given(st.integers(50, 5000), st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_temporal_shift_preserves_length(n, seed):
    w = Waveform(np.random.default_rng(n).uniform(-0.5, 0.5, n), SR)
    assert len(apply(CorruptionSpec(CorruptionKind.TEMPORAL_SHIFT, 6, seed), w)) == n


def test_temporal_shift_matches_drawn_parameter():
    w = _noise(2000)
    spec = CorruptionSpec(CorruptionKind.TEMPORAL_SHIFT, 6, seed=99)
    p = draw(spec, w)
    expected = shift_samples(w, int(round(p * len(w))))
    np.testing.assert_array_equal(apply(spec, w).samples, expected.samples)


# ---------------------------------------------------------------------------
# Speed variation


def test_speed_sigma_one_identity():
    w = _tone()
    assert speed_by(w, 1.0) is w
    assert draw(CorruptionSpec(CorruptionKind.SPEED_VARIATION, 0, seed=5), w) == 1.0


def test_forced_double_speed_zero_pads_tail():
    w = _tone(seconds=1.0)
    out = speed_by(w, 2.0)
    assert len(out) == len(w)
    np.testing.assert_array_equal(out.samples[-(len(w) // 2 - 100):], 0.0)
    # the surviving half still carries signal
    assert np.std(out.samples[: len(w) // 4]) > 0.1


def test_speed_rate_clamped(caplog, monkeypatch):
    # sigma_s = 10 so that some seeds draw a rate outside 0.25..4: seed 3
    # draws 109.9 and seed 8 draws 0.018
    monkeypatch.setitem(SEVERITY_TABLE, CorruptionKind.SPEED_VARIATION, (10.0,) * 6)
    w = _noise(2000)
    for seed, clamped in ((3, 4.0), (8, 0.25)):
        spec = CorruptionSpec(CorruptionKind.SPEED_VARIATION, 6, seed)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert draw(spec, w) == clamped
        assert any("clamped" in r.getMessage() for r in caplog.records)
        out = apply(spec, w)
        assert len(out) == len(w)
        np.testing.assert_array_equal(out.samples, speed_by(w, clamped).samples)


def test_speed_preserves_length():
    w = _noise(3777)
    for seed in range(5):
        assert len(apply(CorruptionSpec(CorruptionKind.SPEED_VARIATION, 6, seed), w)) == len(w)


# ---------------------------------------------------------------------------
# Pitch shift


def test_pitch_sigma_zero_identity():
    w = _tone()
    assert pitch_shift_by(w, 0.0) is w
    assert draw(CorruptionSpec(CorruptionKind.PITCH_SHIFT, 0, seed=6), w) == 0.0


def _dominant_freq(x):
    spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
    return np.argmax(spec) * SR / len(x)


def test_pitch_up_octave_doubles_peak():
    w = _tone(440.0)
    out = pitch_shift_by(w, 12.0)
    assert len(out) == len(w)
    # ignore vocoder edge transients
    peak = _dominant_freq(out.samples[1000:-1000])
    assert abs(peak - 880.0) <= SR / len(w) + 1e-9


def test_pitch_down_octave_halves_peak():
    w = _tone(440.0)
    peak = _dominant_freq(pitch_shift_by(w, -12.0).samples[1000:-1000])
    assert abs(peak - 220.0) <= SR / len(w) + 1e-9


def test_pitch_preserves_length():
    w = _noise(5123)
    for seed in range(3):
        assert len(apply(CorruptionSpec(CorruptionKind.PITCH_SHIFT, 6, seed), w)) == len(w)


# ---------------------------------------------------------------------------
# Draws


def _draws(kind, severity, n, first_seed):
    """``draw`` of one spec per seed, on a wave long enough that none of them clamps."""
    w = _noise()
    return np.array([draw(CorruptionSpec(kind, severity, s), w)
                     for s in range(first_seed, first_seed + n)])


def test_sampler_distributions_ks():
    deltas = _draws(CorruptionKind.PITCH_SHIFT, 5, 2000, 0)  # sigma_p = 0.25
    assert kstest(deltas, "norm", args=(0, 0.25)).pvalue > 0.01
    props = _draws(CorruptionKind.TEMPORAL_SHIFT, 4, 2000, 2000)  # sigma_t = 0.1
    assert kstest(props, "norm", args=(0, 0.1)).pvalue > 0.01
    logs = np.log(_draws(CorruptionKind.SPEED_VARIATION, 6, 2000, 4000))  # sigma_s = 1.3
    assert kstest(logs, "norm", args=(0, math.log(1.3))).pvalue > 0.01


def test_seed_determinism_all_kinds():
    w = _noise(3000, seed=21)
    for kind in CorruptionKind:
        spec = CorruptionSpec(kind, 4, seed=555)
        a = apply(spec, w)
        b = apply(spec, w)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = apply(CorruptionSpec(kind, 4, seed=556), w)
        assert not np.array_equal(a.samples, c.samples)


def test_outputs_always_in_unit_interval():
    w = _noise(3000, amp=0.9, seed=8)
    for kind in CorruptionKind:
        for sev in (1, 6):
            out = apply(CorruptionSpec(kind, sev, seed=31), w)
            assert np.all(np.abs(out.samples) <= 1.0)
            assert len(out) == len(w)


# ---------------------------------------------------------------------------
# DSP primitives


def test_fix_length():
    assert dsp.fix_length(np.arange(5.0), 3).tolist() == [0, 1, 2]
    out = dsp.fix_length(np.arange(3.0), 5)
    assert out.tolist() == [0, 1, 2, 0, 0]


def test_time_stretch_identity_fast_path():
    x = np.random.default_rng(0).uniform(-1, 1, 1000)
    assert dsp.time_stretch(x, 1.0) is x


def test_time_stretch_lengths():
    x = np.random.default_rng(1).uniform(-0.5, 0.5, 4000)
    assert dsp.time_stretch(x, 2.0).shape[0] == 2000
    assert dsp.time_stretch(x, 0.5).shape[0] == 8000
    with pytest.raises(ValueError):
        dsp.time_stretch(x, 0.0)
    with pytest.raises(ValueError):
        dsp.time_stretch(x, np.inf)


def _overlap_add_loop(spec, n_fft, hop, window):
    """The frame-by-frame overlap-add, kept as the oracle of dsp._overlap_add.
    It adds in the precision of ``spec`` and ``window``."""
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1) * window
    total = n_fft + hop * (frames.shape[0] - 1)
    out = np.zeros(total, dtype=frames.dtype)
    norm = np.zeros(total, dtype=frames.dtype)
    wsq = window**2
    for i, frame in enumerate(frames):
        out[i * hop : i * hop + n_fft] += frame
        norm[i * hop : i * hop + n_fft] += wsq
    out = out / np.maximum(norm, 1e-12)
    return out[n_fft // 2 : total - n_fft // 2]


def _time_stretch_loop(x, rate, n_fft=1024, dtype=np.float64):
    """The per-step phase vocoder with angles, princarg and exp: the oracle
    of dsp.time_stretch. The float64 STFT is shared; the vocoder and the
    overlap-add run in ``dtype``, whose pi is arccos(-1) in that precision."""
    hop = n_fft // 4
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft))
    spec = audio.stft(x, n_fft, hop, window).astype(np.result_type(dtype, np.complex64))
    window = window.astype(dtype)
    two_pi = 2 * np.arccos(dtype(-1))
    n_bins, n_frames = spec.shape
    steps = np.arange(0.0, n_frames, rate)
    steps = steps[steps < n_frames]
    spec = np.concatenate([spec, np.zeros((n_bins, 1), dtype=spec.dtype)], axis=1)
    omega = two_pi * hop * np.arange(n_bins, dtype=dtype) / n_fft
    out = np.empty((n_bins, steps.shape[0]), dtype=spec.dtype)
    phase = np.angle(spec[:, 0])
    for k, t in enumerate(steps):
        i = int(t)
        frac = dtype(t - i)
        mag = (1 - frac) * np.abs(spec[:, i]) + frac * np.abs(spec[:, i + 1])
        out[:, k] = mag * np.exp(1j * phase)
        dphi = np.angle(spec[:, i + 1]) - np.angle(spec[:, i]) - omega
        dphi -= two_pi * np.round(dphi / two_pi)
        phase += omega + dphi
    y = _overlap_add_loop(out, n_fft, hop, window)
    return dsp.fix_length(y, int(round(x.shape[0] / rate)))


# the speed-variation rates of every severity, their inverses, and a wide range
_STRETCH_RATES = tuple(r for s in SEVERITY_TABLE[CorruptionKind.SPEED_VARIATION]
                       for r in (s, 1.0 / s)) + (0.5, 2.0, 3.7)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no more precise than float64 here, so the "
                           "per-step loop in it is no oracle for the float64 vocoder")
@given(
    st.integers(1, 24_000),
    st.one_of(st.sampled_from(_STRETCH_RATES), st.floats(0.4, 2.5)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 0.0, -0.0]),
)
@example(n=5120, rate=0.7, seed=0, silence=None)  # last arange step rounds onto n_frames
@example(n=2304, rate=1.0 / 1.3, seed=0, silence=None)
# exact silence inside the clip: zero bins of phasor 1
@example(n=8000, rate=0.7, seed=0, silence=0.0)
# leading -0.0 samples, as a float WAV can hold: zero bins whose angle is pi
@example(n=8000, rate=0.7, seed=0, silence=-0.0)
@settings(max_examples=80, deadline=None)
def test_time_stretch_matches_per_step_loop(n, rate, seed, silence):
    """The phasor product is held to the angle/exp loop evaluated in
    np.longdouble. The loop in float64 exponentiates accumulated phases of up
    to ~1e5 rad and is off from it by up to ~1.3e-10 at n=24000, rate=0.4."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    if silence is not None:
        # -0.0 silence in the leading 3/8, +0.0 silence in the middle third
        lo, hi = (0, 3 * n // 8) if np.signbit(silence) else (n // 3, 2 * n // 3)
        x[lo:hi] = silence
    if rate == 1.0:
        return
    np.testing.assert_allclose(dsp.time_stretch(x, rate),
                               _time_stretch_loop(x, rate, dtype=np.longdouble),
                               rtol=0, atol=2e-13)


@given(st.integers(1, 40), st.sampled_from([(1024, 256), (64, 16), (48, 48), (60, 20)]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_overlap_add_matches_frame_loop(n_frames, sizes, seed):
    n_fft, hop = sizes
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=(n_fft // 2 + 1, n_frames)) + 1j * rng.normal(size=(n_fft // 2 + 1,
                                                                              n_frames))
    window = rng.uniform(0.0, 1.0, n_fft)
    np.testing.assert_array_equal(dsp._overlap_add(spec, n_fft, hop, window),
                                  _overlap_add_loop(spec, n_fft, hop, window))


def test_resample_ratio():
    x = np.random.default_rng(2).uniform(-0.5, 0.5, 1000)
    assert dsp.resample_ratio(x, 1.0) is x
    assert abs(dsp.resample_ratio(x, 0.5).shape[0] - 500) <= 1
    assert abs(dsp.resample_ratio(x, 2.0).shape[0] - 2000) <= 1
    with pytest.raises(ValueError):
        dsp.resample_ratio(x, -1.0)


# pitch ratios 2**(delta/12) over the severity-6 draw range |delta| <= 6*sigma_p
# = 1.8 semitones, plus fixed ratios that exercise up/down < 1, > 1 and large
_MAX_DRAW_SEMITONES = 1.8
_FIXED_RATIOS = (Fraction(1, 2), Fraction(2, 1), Fraction(3, 7), Fraction(1000, 999),
                 Fraction(999, 1000))


@given(
    st.integers(1, 40_000),
    st.one_of(
        st.floats(-_MAX_DRAW_SEMITONES, _MAX_DRAW_SEMITONES).map(lambda d: 2.0 ** (d / 12.0)),
        st.sampled_from([float(r) for r in _FIXED_RATIOS]),
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_resample_ratio_matches_reference_resample_poly(n, ratio, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    got = dsp.resample_ratio(x, ratio)
    if ratio == 1.0:
        assert got is x
        return
    frac = Fraction(ratio).limit_denominator(1000)
    want = resample_poly(x, frac.numerator, frac.denominator)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("half", [10, 70, 1000, 10_000])
def test_kaiser_window_matches_np_i0(half):
    # the low-pass's Kaiser window, with the np.i0 window as the oracle for its I0 series
    beta = dsp._KAISER_BETA
    x = beta * np.sqrt(1.0 - (np.arange(-half, 1) / half) ** 2.0)
    np.testing.assert_allclose(dsp._i0(x) / dsp._i0(beta), np.i0(x) / np.i0(beta),
                               rtol=1e-12, atol=0)


def test_resample_ratio_rounding_error_bound():
    # the bound stated in resample_ratio's docstring, over a dense grid of
    # the pitch-shift draw range, plus the draws closest to the worst case
    bound = 12.0 * math.log2(1999 / 1998)
    deltas = np.concatenate([
        np.linspace(-_MAX_DRAW_SEMITONES, _MAX_DRAW_SEMITONES, 100_001),
        -12.0 * np.log2(np.array([1999 / 2000, 2001 / 2000])),  # midpoints around 1/1
    ])
    worst = 0.0
    for d in deltas:
        ratio = 2.0 ** (-d / 12.0)
        frac = Fraction(ratio).limit_denominator(1000)
        worst = max(worst, abs(12.0 * math.log2(frac / ratio)))
    assert worst <= bound * (1 + 1e-9)
    assert worst > 0.999 * bound  # the bound is attained, not loose


def test_time_stretch_preserves_tone_frequency():
    w = _tone(440.0, seconds=1.0)
    stretched = dsp.time_stretch(w.samples, 0.5)
    peak = _dominant_freq(stretched[2000:-2000])
    assert abs(peak - 440.0) < 3 * SR / len(stretched)
