"""Audio front-end: WAV ingestion golden values, STFT/Parseval oracle,
an independently coded mel-bank reference, the banded mel projection
against the dense product, and log-Mel properties."""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import quanvaudio

from quanvaudio.audio import (
    HOP,
    LOG_EPS,
    N_FFT,
    N_MELS,
    TARGET_FRAMES,
    AudioFormatError,
    LogMelGram,
    MelBank,
    Waveform,
    _resize_time,
    hann_window,
    load_wav,
    log_mel,
    mel_bank,
    stft_power,
    write_wav,
)
from quanvaudio.tensorio import load_tensor, save_tensor

SR = 16000


def _sine(freq, sr=SR, seconds=0.5, amp=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


# ---------------------------------------------------------------------------
# WAV ingestion


def test_int16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, SR, np.array([32767, -32768, 0], dtype=np.int16))
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, [32767 / 32768, -1.0, 0.0], atol=1e-12)
    assert w.sample_rate == SR


def test_stereo_downmix(tmp_path):
    path = tmp_path / "st.wav"
    wavfile.write(path, SR, np.array([[0.5, -0.5], [0.25, 0.25]], dtype=np.float32))
    np.testing.assert_allclose(load_wav(path).samples, [0.0, 0.25], atol=1e-7)


def test_float32_clipped(tmp_path):
    path = tmp_path / "f.wav"
    wavfile.write(path, SR, np.array([1.5, -2.0, 0.5], dtype=np.float32))
    np.testing.assert_allclose(load_wav(path).samples, [1.0, -1.0, 0.5], atol=1e-7)


def test_unsupported_dtype(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, SR, np.array([1, 2, 3], dtype=np.int32))
    with pytest.raises(AudioFormatError):
        load_wav(path)


def test_not_a_wav(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not RIFF data at all")
    with pytest.raises(AudioFormatError):
        load_wav(path)


def test_write_read_round_trip(tmp_path):
    w = _sine(440)
    path = tmp_path / "rt.wav"
    write_wav(path, w)
    back = load_wav(path)
    np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32768)


def _reference_samples(path):
    """The reference reader plus load_wav's scaling and downmix."""
    _, data = wavfile.read(path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    else:
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    return samples.mean(axis=1) if samples.ndim == 2 else samples


def _riff(*chunks):
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) & 1)
        for cid, payload in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag, channels, rate, bits):
    align = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


@pytest.mark.parametrize("dtype", ["int16", "float32", "float64"])
@pytest.mark.parametrize("channels", [1, 2])
def test_load_wav_matches_reference_reader(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    shape = (1001,) if channels == 1 else (1001, channels)
    if dtype == "int16":
        data = rng.integers(-32768, 32768, shape).astype(np.int16)
    else:
        data = rng.uniform(-1.3, 1.3, shape).astype(dtype)  # some samples clip
    path = tmp_path / f"{dtype}_{channels}.wav"
    wavfile.write(path, 22050, data)
    w = load_wav(path)
    assert w.sample_rate == 22050
    np.testing.assert_array_equal(w.samples, _reference_samples(path))


def test_load_wav_extensible_int16(tmp_path):
    pcm = np.array([[1000, -2000], [32767, -32768], [0, 5]], dtype="<i2")
    guid = struct.pack("<I", 1) + bytes.fromhex("00001000800000aa00389b71")
    ext = struct.pack("<HHI", 22, 16, 0x3) + guid  # cbSize, valid bits, channel mask
    path = tmp_path / "ext.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(0xFFFE, 2, SR, 16) + ext), (b"data", pcm.tobytes())))
    np.testing.assert_array_equal(load_wav(path).samples, _reference_samples(path))
    np.testing.assert_array_equal(load_wav(path).samples, pcm.mean(axis=1) / 32768.0)


def test_load_wav_skips_list_chunk_with_pad_byte(tmp_path):
    pcm = np.array([7, -7, 300], dtype="<i2")
    path = tmp_path / "list.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(1, 1, SR, 16)), (b"LIST", b"INFOx"), (b"data", pcm.tobytes())))
    np.testing.assert_array_equal(load_wav(path).samples, _reference_samples(path))
    np.testing.assert_array_equal(load_wav(path).samples, pcm / 32768.0)


@pytest.mark.parametrize("n, rate", [(1, 8000), (2, 16000), (3, 22050), (1000, 44100), (16000, 16000)])
def test_write_wav_bytes_match_reference_writer(tmp_path, n, rate):
    w = Waveform(np.random.default_rng(n).uniform(-1.0, 1.0, n), rate)
    write_wav(tmp_path / "ours.wav", w)
    pcm = np.clip(np.round(w.samples * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(tmp_path / "ref.wav", rate, pcm)
    ours = (tmp_path / "ours.wav").read_bytes()
    assert ours == (tmp_path / "ref.wav").read_bytes()
    assert len(ours) == 44 + 2 * n


def _malformed_files():
    """name -> (file bytes, what the error must say)."""
    pcm = np.arange(8, dtype="<i2").tobytes()
    truncated = _riff((b"fmt ", _fmt(1, 1, SR, 16)), (b"data", pcm))[:-4]
    return {
        "not_riff": (b"not RIFF data at all", "not a RIFF/WAVE file"),
        "no_fmt": (_riff((b"data", pcm)), "no fmt chunk"),
        "truncated_data": (truncated, "truncated"),
        "pcm8": (_riff((b"fmt ", _fmt(1, 1, SR, 8)), (b"data", b"\x80" * 8)), "8-bit"),
        "pcm24": (_riff((b"fmt ", _fmt(1, 1, SR, 24)), (b"data", b"\0" * 9)), "24-bit"),
        "pcm32": (_riff((b"fmt ", _fmt(1, 1, SR, 32)), (b"data", b"\0" * 8)), "32-bit"),
    }


@pytest.mark.parametrize("name", sorted(_malformed_files()))
def test_malformed_wav_raises_naming_the_path(tmp_path, name):
    raw, reason = _malformed_files()[name]
    path = tmp_path / f"{name}.wav"
    path.write_bytes(raw)
    with pytest.raises(AudioFormatError, match=re.escape(str(path)) + ".*" + re.escape(reason)):
        load_wav(path)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([0.1, np.nan]), SR)
    with pytest.raises(ValueError):
        Waveform(np.array([1.5]), SR)
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 2)), SR)


# ---------------------------------------------------------------------------
# STFT


def test_hann_window_periodic():
    win = hann_window(8)
    assert win[0] == 0.0
    expected = 0.5 * (1 - np.cos(2 * np.pi * np.arange(8) / 8))
    np.testing.assert_allclose(win, expected, atol=1e-15)


def test_stft_zero_signal():
    power = stft_power(Waveform(np.zeros(4000), SR))
    assert power.shape[0] == 1 + N_FFT // 2
    np.testing.assert_array_equal(power, 0.0)


def test_sine_energy_concentrates_in_its_bin():
    freq_bin = 40
    freq = freq_bin * SR / N_FFT
    power = stft_power(_sine(freq))
    mid = power[:, power.shape[1] // 2]
    # the 400-sample Hann main lobe inside a 512-point FFT spans ~2 bins
    assert mid[freq_bin - 2 : freq_bin + 3].sum() / mid.sum() > 0.9
    assert np.argmax(mid) == freq_bin


def test_parseval_on_random_signals():
    rng = np.random.default_rng(0)
    win_length = int(round(0.025 * SR))
    window = np.zeros(N_FFT)
    offset = (N_FFT - win_length) // 2
    window[offset : offset + win_length] = hann_window(win_length)
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9, rng.integers(2000, 6000))
        power = stft_power(Waveform(x, SR))
        # independent framing: loop over hops of the reflect-padded signal
        padded = np.pad(x, N_FFT // 2, mode="reflect")
        expected = 0.0
        for t in range(power.shape[1]):
            frame = padded[t * HOP : t * HOP + N_FFT] * window
            expected += N_FFT * np.sum(frame**2)
        # full-spectrum power from the one-sided output (DC and Nyquist once)
        total = np.sum(power[0] + power[-1] + 2 * power[1:-1].sum(axis=0))
        assert abs(total - expected) / expected < 1e-6


def test_oversized_window_rejected():
    # 25 ms of 48 kHz is 1200 samples, more than the 512-point FFT holds
    w = Waveform(np.zeros(1000), 48000, source_id="clips/a_48k.wav")
    for front_end in (stft_power, log_mel):
        with pytest.raises(ValueError, match=r"^clips/a_48k\.wav: .* at most 20480 Hz$"):
            front_end(w)


# ---------------------------------------------------------------------------
# Mel bank, with an independently coded scalar reference


def _reference_mel_weights(sr, n_mels, n_fft):
    def hz_to_mel(f):
        if f < 1000.0:
            return f * 3.0 / 200.0
        return 15.0 + 27.0 * np.log(f / 1000.0) / np.log(6.4)

    def mel_to_hz(m):
        if m < 15.0:
            return m * 200.0 / 3.0
        return 1000.0 * 6.4 ** ((m - 15.0) / 27.0)

    top = hz_to_mel(sr / 2.0)
    points = [mel_to_hz(top * i / (n_mels + 1)) for i in range(n_mels + 2)]
    n_bins = 1 + n_fft // 2
    weights = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, mid, hi = points[i], points[i + 1], points[i + 2]
        for k in range(n_bins):
            f = k * (sr / 2.0) / (n_bins - 1)
            if lo < f < hi:
                tri = (f - lo) / (mid - lo) if f <= mid else (hi - f) / (hi - mid)
                weights[i, k] = tri * 2.0 / (hi - lo)
    return weights


@pytest.mark.parametrize("sr", [8000, 16000, 22050])
def test_mel_bank_matches_reference(sr):
    bank = mel_bank(sr)
    ref = _reference_mel_weights(sr, N_MELS, N_FFT)
    assert np.max(np.abs(bank.weights - ref)) < 1e-6


def test_mel_bank_structure():
    bank = mel_bank(SR)
    assert bank.weights.shape == (N_MELS, 1 + N_FFT // 2)
    assert np.all(bank.weights >= 0)
    assert np.all(np.diff(bank.weights.argmax(axis=1)) > 0)  # each filter peaks higher
    with pytest.raises(ValueError):
        mel_bank(0)


@pytest.mark.parametrize("sr, n_mels, width",
                         [(8000, N_MELS, 28), (16000, N_MELS, 36), (48000, N_MELS, 48)])
def test_mel_bands_hold_every_nonzero_weight(sr, n_mels, width):
    bank = mel_bank(sr)
    assert bank.band_weights.shape == (n_mels, width)
    dense = np.zeros_like(bank.weights)
    for m, start in enumerate(bank.band_start):
        assert 0 <= start <= dense.shape[1] - width
        dense[m, start : start + width] = bank.band_weights[m]
    np.testing.assert_array_equal(dense, bank.weights)


def test_mel_band_is_clipped_to_the_spectrum():
    # the widest filter comes first, so the last band must start early
    weights = np.zeros((2, 10))
    weights[0, 0:6] = [1, 2, 3, 3, 2, 1]
    weights[1, 8:10] = [1, 2]
    bank = MelBank(weights)
    np.testing.assert_array_equal(bank.band_start, [0, 4])
    np.testing.assert_array_equal(bank.band_weights, [[1, 2, 3, 3, 2, 1], [0, 0, 0, 0, 1, 2]])
    power = np.arange(30.0).reshape(10, 3)
    np.testing.assert_array_equal(bank.project(power), weights @ power)


def test_mel_bank_is_memoised_and_read_only():
    bank = mel_bank(SR)
    assert mel_bank(SR) is bank
    assert mel_bank(22050) is not bank
    for name in ("weights", "band_start", "band_weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(bank, name)[0] = 1


@settings(max_examples=60, deadline=None)
@given(
    sr=st.integers(8000, 48000),
    frames=st.integers(1, 150),
    zero_bins=st.lists(st.integers(0, N_FFT // 2), max_size=40),
    zero_frames=st.lists(st.integers(0, 149), max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_projection_matches_dense_product(sr, frames, zero_bins, zero_frames, seed):
    bank = mel_bank(sr)
    rng = np.random.default_rng(seed)
    # power over many decades, as a spectrum with silent bins and frames has
    power = rng.uniform(0.0, 1.0, (1 + N_FFT // 2, frames)) * 10.0 ** rng.uniform(-12, 4, frames)
    power[zero_bins] = 0.0
    power[:, [f for f in zero_frames if f < frames]] = 0.0
    want = bank.weights @ power  # the dense oracle
    got = bank.project(power)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want)


_THREADS_PROBE = """
import hashlib
import numpy as np
from quanvaudio.audio import Waveform, log_mel

rng = np.random.default_rng(7)
digest = hashlib.sha256()
for sr, seconds in ((8000, 1.0), (16000, 1.0), (16000, 2.5), (20000, 0.5)):
    x = rng.uniform(-0.9, 0.9, int(sr * seconds))
    digest.update(log_mel(Waveform(x, sr)).values.tobytes())
print(digest.hexdigest())
"""


def test_log_mel_bytes_do_not_depend_on_blas_threads():
    package_root = str(Path(quanvaudio.__file__).resolve().parent.parent)
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests[threads] = out.stdout.strip()
    assert digests["1"] == digests["2"], digests


# ---------------------------------------------------------------------------
# log-Mel gram


def test_log_mel_shape_and_range():
    gram = log_mel(_sine(500))
    assert gram.values.shape == (N_MELS, TARGET_FRAMES)
    assert gram.values.min() == 0.0 and gram.values.max() == 1.0


def test_silence_floor_and_degenerate_rule():
    with pytest.warns(UserWarning, match="degenerate"):
        gram = log_mel(Waveform(np.zeros(4000), SR))
    assert gram.norm_info == (np.log(LOG_EPS), np.log(LOG_EPS))
    assert abs(gram.norm_info[0] - (-23.025850929940457)) < 1e-12
    np.testing.assert_array_equal(gram.values, 0.0)


def test_shape_fixed_across_durations():
    for seconds in (0.1, 0.7, 2.0):
        gram = log_mel(_sine(300, seconds=seconds))
        assert gram.values.shape == (N_MELS, TARGET_FRAMES)


def test_scaling_never_decreases_pre_normalization_values():
    rng = np.random.default_rng(1)
    x = 0.2 * rng.uniform(-1, 1, 5000)

    def pre_norm(w):
        g = log_mel(w)
        lo, hi = g.norm_info
        return g.values * (hi - lo) + lo

    a = pre_norm(Waveform(x, SR))
    b = pre_norm(Waveform(2.0 * x, SR))
    assert np.all(b >= a - 1e-9)


def test_hop_shift_moves_columns_by_one():
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, 8000)
    shifted = np.concatenate([np.zeros(HOP), x[:-HOP]])
    a = stft_power(Waveform(x, SR))
    b = stft_power(Waveform(shifted, SR))
    # interior frames see identical samples, displaced one column
    np.testing.assert_allclose(a[:, 10:40], b[:, 11:41], atol=1e-9)


def test_resize_time():
    mat = np.array([[0.0, 1.0, 2.0]])
    np.testing.assert_array_equal(_resize_time(mat, 3), mat)
    np.testing.assert_allclose(_resize_time(mat, 5)[0], [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_array_equal(_resize_time(np.array([[3.0]]), 4)[0], [3.0] * 4)


def _resize_time_loop(mat, target):
    """Row-by-row np.interp, kept as the oracle of _resize_time."""
    t = mat.shape[1]
    if t == 1:
        return np.repeat(mat, target, axis=1)
    xq = np.linspace(0.0, t - 1.0, target)
    return np.stack([np.interp(xq, np.arange(t, dtype=np.float64), row) for row in mat])


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 41), t=st.integers(1, 400), target=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_resize_time_matches_per_row_interp(rows, t, target, seed):
    rng = np.random.default_rng(seed)
    mat = np.log(rng.uniform(0.0, 1.0, (rows, t)) * 10.0 ** rng.uniform(-12, 4, t) + LOG_EPS)
    np.testing.assert_array_equal(_resize_time(mat, target), _resize_time_loop(mat, target))


@pytest.mark.parametrize("layout", ["HW", "CHW"])
def test_gram_round_trip(tmp_path, layout):
    # a log-Mel gram (.gram) or a 4-channel quanvolution map (.fmap)
    if layout == "HW":
        array = log_mel(_sine(700)).values
    else:
        array = np.random.default_rng(9).uniform(-1, 1, (4, 20, 64))
    path = tmp_path / "features.bin"
    save_tensor(path, array, layout=layout)
    loaded, header = load_tensor(path, expect_layout=layout)
    assert header == {"dims": list(array.shape), "dtype": "f64", "layout": layout}
    np.testing.assert_array_equal(loaded, array)


def test_gram_shape_enforced():
    with pytest.raises(ValueError):
        LogMelGram(np.zeros((40, 100)))
