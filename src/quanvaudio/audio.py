"""WAV ingestion and the log-Mel spectrogram front-end.

The front-end mirrors the common reference-library defaults: Hann window,
centered frames with reflect padding, Slaney mel scale with area
normalization. Output grams are per-sample min-max normalized to [0,1]
and resized along time to a fixed 40x128, the model input shape.

The mel projection sums each filter over its own band of FFT bins without
a BLAS call, so a gram does not depend on the BLAS thread count.
"""

from __future__ import annotations

import functools
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

N_FFT = 512
HOP = 128
WIN_SECONDS = 0.025
N_MELS = 40
TARGET_FRAMES = 128
LOG_EPS = 1e-10

_INT16_SCALE = 32768.0

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# SubFormat GUIDs are {TTTTTTTT-0000-0010-8000-00AA00389B71}, T the format tag
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_DTYPES = {
    (_WAVE_FORMAT_PCM, 16): "<i2",
    (_WAVE_FORMAT_IEEE_FLOAT, 32): "<f4",
    (_WAVE_FORMAT_IEEE_FLOAT, 64): "<f8",
}


class AudioFormatError(ValueError):
    """Unsupported or malformed audio file."""


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray = field(repr=False)
    sample_rate: int = 16000
    source_id: str = ""

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.shape[0] < 1:
            raise ValueError(f"waveform must be 1-D and nonempty, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("waveform contains non-finite samples")
        if np.max(np.abs(s)) > 1.0 + 1e-12:
            raise ValueError("waveform samples must lie in [-1, 1]")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class LogMelGram:
    values: np.ndarray = field(repr=False)
    norm_info: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (N_MELS, TARGET_FRAMES):
            raise ValueError(f"expected {N_MELS}x{TARGET_FRAMES}, got {v.shape}")
        object.__setattr__(self, "values", v)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MelBank:
    weights: np.ndarray = field(repr=False)  # (n_mels, 1 + N_FFT//2)
    # Band layout, derived from weights: filter m is zero outside bins
    # band_start[m] .. band_start[m] + width - 1, and band_weights[m] holds
    # it over those bins. width is the widest filter's span of nonzero bins;
    # band_start is clipped so that every band fits in the spectrum.
    band_start: np.ndarray = field(init=False, repr=False)  # (n_mels,)
    band_weights: np.ndarray = field(init=False, repr=False)  # (n_mels, width)

    def __post_init__(self):
        weights = _read_only(self.weights)
        nonzero = weights != 0
        n_bins = weights.shape[1]
        first = nonzero.argmax(axis=1)
        last = n_bins - 1 - nonzero[:, ::-1].argmax(axis=1)
        width = int((last - first + 1).max())
        start = np.minimum(first, n_bins - width)
        cols = start[:, None] + np.arange(width)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "band_start", _read_only(start))
        object.__setattr__(self, "band_weights", _read_only(np.take_along_axis(weights, cols, 1)))

    def project(self, power: np.ndarray) -> np.ndarray:
        """Mel power (n_mels, frames) of a power spectrogram (bins, frames):
        ``weights @ power`` summed over each filter's band only, and without
        BLAS (``np.einsum`` calls it only when asked to optimize)."""
        bins = self.band_start[:, None] + np.arange(self.band_weights.shape[1])
        return np.einsum("mwt,mw->mt", np.take(power, bins, axis=0), self.band_weights)


def _parse_wav(raw: bytes) -> tuple[int, np.ndarray]:
    """Parse a little-endian RIFF/WAVE file into (rate, samples).

    samples has shape (frames,) for mono and (frames, channels) otherwise.
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    fmt = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        body = pos + 8
        if chunk_id == b"fmt ":
            if size < 16:
                raise ValueError(f"fmt chunk of {size} bytes, expected at least 16")
            tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", raw, body)
            if tag == _WAVE_FORMAT_EXTENSIBLE:
                if size < 40 or raw[body + 28 : body + 40] != _SUBFORMAT_GUID_TAIL:
                    raise ValueError("WAVE_FORMAT_EXTENSIBLE without a known subformat")
                (tag,) = struct.unpack_from("<I", raw, body + 24)
            fmt = tag, channels, rate, block_align, bits
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            tag, channels, rate, block_align, bits = fmt
            dtype = _SAMPLE_DTYPES.get((tag, bits))
            if dtype is None or channels < 1 or block_align != channels * bits // 8:
                raise ValueError(
                    f"unsupported sample format (format tag {tag:#06x}, {bits}-bit, "
                    f"{channels} channel(s)); expected 16-bit PCM or 32/64-bit float"
                )
            if body + size > len(raw):
                raise ValueError(f"data chunk of {size} bytes truncated to {len(raw) - body}")
            data = np.frombuffer(raw, dtype=dtype, count=size // (bits // 8), offset=body)
            return rate, data if channels == 1 else data.reshape(-1, channels)
        pos = body + size + (size & 1)  # chunks are padded to an even size
    raise ValueError("no fmt chunk" if fmt is None else "no data chunk")


def load_wav(path: str | Path) -> Waveform:
    """Read a WAV of 16-bit PCM or 32/64-bit float samples, downmixing channels by mean."""
    try:
        rate, data = _parse_wav(Path(path).read_bytes())
    except (ValueError, struct.error) as exc:
        raise AudioFormatError(f"{path}: {exc}") from exc
    if data.dtype.kind == "i":
        samples = data.astype(np.float64) / _INT16_SCALE
    else:
        samples = np.clip(data.astype(np.float64), -1.0, 1.0)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if samples.size == 0:
        raise AudioFormatError(f"{path}: empty audio stream")
    return Waveform(samples, int(rate), source_id=str(path))


def write_wav(path: str | Path, w: Waveform) -> None:
    """Write as mono 16-bit PCM with a 44-byte header."""
    pcm = np.clip(np.round(w.samples * _INT16_SCALE), -32768, 32767).astype("<i2")
    # fmt body: format tag, channels, rate, byte rate, block align, bits per sample
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + pcm.nbytes, b"WAVE",
        b"fmt ", 16, _WAVE_FORMAT_PCM, 1, w.sample_rate, 2 * w.sample_rate, 2, 16,
        b"data", pcm.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm.tobytes())


def hann_window(length: int) -> np.ndarray:
    # Periodic Hann, the STFT-analysis convention.
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(length) / length))


def stft(x: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    """Complex STFT (1 + n_fft//2, frames) of ``window``-weighted frames every
    ``hop`` samples, centered by padding a nonempty ``x`` by n_fft//2 at each
    end (so it holds a frame): reflected, or zeros when it is too short."""
    pad = n_fft // 2
    mode = "reflect" if x.shape[0] > pad else "constant"
    x = np.pad(x, pad, mode=mode)
    frames = sliding_window_view(x, n_fft)[::hop]
    return np.fft.rfft(frames * window, axis=1).T


def stft_power(w: Waveform) -> np.ndarray:
    """Power spectrogram |STFT|^2 of shape (1 + N_FFT//2, frames), with a
    WIN_SECONDS Hann window centred in each N_FFT frame."""
    win_length = int(round(WIN_SECONDS * w.sample_rate))
    if win_length > N_FFT:
        raise ValueError(
            f"{w.source_id or 'waveform'}: a {WIN_SECONDS * 1000:g} ms window at "
            f"{w.sample_rate} Hz is {win_length} samples, more than the {N_FFT}-point "
            f"FFT; resample the input to at most {int(N_FFT / WIN_SECONDS)} Hz"
        )
    window = np.zeros(N_FFT)
    offset = (N_FFT - win_length) // 2
    window[offset : offset + win_length] = hann_window(win_length)
    return np.abs(stft(w.samples, N_FFT, HOP, window)) ** 2


def _hz_to_mel(f):
    # Slaney scale: linear below 1 kHz, logarithmic above.
    f = np.asarray(f, dtype=np.float64)
    min_log_hz = 1000.0
    lin = f / (200.0 / 3.0)
    logstep = np.log(6.4) / 27.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_part = 15.0 + np.log(np.maximum(f, min_log_hz) / min_log_hz) / logstep
    return np.where(f < min_log_hz, lin, log_part)


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    min_log_mel = 15.0
    logstep = np.log(6.4) / 27.0
    lin = m * (200.0 / 3.0)
    log_part = 1000.0 * np.exp(logstep * (np.maximum(m, min_log_mel) - min_log_mel))
    return np.where(m < min_log_mel, lin, log_part)


@functools.lru_cache(maxsize=16)
def mel_bank(sample_rate: int) -> MelBank:
    """N_MELS Slaney-style triangular filters, area-normalized. Memoised
    for the 16 most recent rates; every caller shares a bank, so its
    arrays are read-only."""
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), N_MELS + 2)
    hz_pts = _mel_to_hz(mel_pts)
    bin_freqs = np.linspace(0.0, sample_rate / 2.0, 1 + N_FFT // 2)

    lower = hz_pts[:-2, None]
    center = hz_pts[1:-1, None]
    upper = hz_pts[2:, None]
    up = (bin_freqs[None, :] - lower) / (center - lower)
    down = (upper - bin_freqs[None, :]) / (upper - center)
    weights = np.maximum(0.0, np.minimum(up, down))
    weights *= (2.0 / (hz_pts[2:] - hz_pts[:-2]))[:, None]
    return MelBank(weights)


def _resize_time(mat: np.ndarray, target: int) -> np.ndarray:
    t = mat.shape[1]
    if t == target:
        return mat
    if t == 1:
        return np.repeat(mat, target, axis=1)
    # np.interp's formula at the grid points xp = 0..t-1, where each slope's
    # denominator is 1.0, over every row at once; a point on xp = t-1 copies it
    xq = np.linspace(0.0, t - 1.0, target)
    j = np.minimum(xq.astype(np.intp), t - 2)
    left = mat[:, j]
    out = (mat[:, j + 1] - left) * (xq - j) + left
    out[:, xq == t - 1.0] = mat[:, -1:]
    return out


def log_mel(w: Waveform) -> LogMelGram:
    """Normalized 40x128 log-Mel gram of a waveform."""
    mel_power = mel_bank(w.sample_rate).project(stft_power(w))
    logged = np.log(mel_power + LOG_EPS)
    logged = _resize_time(logged, TARGET_FRAMES)
    lo, hi = float(logged.min()), float(logged.max())
    if hi == lo:
        warnings.warn(
            f"degenerate (constant) spectrogram for {w.source_id!r}; emitting zeros",
            stacklevel=2,
        )
        return LogMelGram(np.zeros_like(logged), (lo, hi))
    return LogMelGram((logged - lo) / (hi - lo), (lo, hi))
