"""Time-stretch and resampling primitives shared by the corruptions.

The phase vocoder uses 75%-overlap Hann analysis/synthesis (``audio.stft``)
and carries its synthesis phase as a running product of unit phasors. A
rate of exactly 1.0 takes a fast path that returns the input untouched, so
the clean severity level stays bit-exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import hann_window, stft

_VOCODER_NFFT = 1024
_KAISER_BETA = 5.0


def _overlap_add(spec: np.ndarray, n_fft: int, hop: int, window: np.ndarray) -> np.ndarray:
    """Windowed overlap-add of the frames of ``spec``, normalised by the
    summed squared window; ``n_fft`` is a multiple of ``hop``.

    Output block b (hop samples) is the sum of the n_fft/hop frame blocks
    that overlap it. They are added from zeros, the earliest frame first,
    as a frame-by-frame loop would, so the sums round the same way."""
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1) * window
    n_frames, per_frame = frames.shape[0], n_fft // hop
    total = n_fft + hop * (n_frames - 1)
    out = np.zeros((total // hop, hop))
    norm = np.zeros((total // hop, hop))
    blocks = frames.reshape(n_frames, per_frame, hop)
    wsq = (window**2).reshape(per_frame, hop)
    # frame i's block j lands on output block i + j, so going down in j
    # adds the earliest frame on each output block first
    for j in reversed(range(per_frame)):
        out[j : j + n_frames] += blocks[:, j]
        norm[j : j + n_frames] += wsq[j]
    out = out.reshape(-1) / np.maximum(norm.reshape(-1), 1e-12)
    return out[n_fft // 2 : total - n_fft // 2]


def time_stretch(x: np.ndarray, rate: float) -> np.ndarray:
    """Stretch a waveform in time by ``rate`` at constant pitch.

    rate > 1 speeds the signal up (output is shorter), rate < 1 slows it
    down; output length is approximately len(x)/rate. Output step k reads
    analysis frames i = floor(k*rate) and i+1: its magnitude interpolates
    theirs, and its phase is frame 0's plus the first k phase advances.

    The classic advance w + princarg(dphi - w), with dphi the phase change
    from frame i to i+1 and w the bin's hop rotation, differs from dphi by
    whole turns. So with unit phasors u = S/|S| of the analysis frames, the
    synthesis phasor is a running product that needs no atan2 or exp:
    z[0] = u[0], z[k] = z[k-1] * u[i+1] * conj(u[i]) for the previous
    step's i. A zero bin's phasor is exp(1j*np.angle(bin)): -1 when its real
    part is -0.0, 1 otherwise.
    """
    if rate <= 0 or not np.isfinite(rate):
        raise ValueError(f"stretch rate must be positive and finite, got {rate}")
    if rate == 1.0:
        return x
    x = np.asarray(x, dtype=np.float64)
    n_fft = _VOCODER_NFFT
    hop = n_fft // 4
    window = hann_window(n_fft)
    # frames-major, the rfft output's own layout
    spec = stft(x, n_fft, hop, window).T
    n_frames, n_bins = spec.shape

    steps = np.arange(0.0, n_frames, rate)
    # arange's length is rounded up, so the last step can land on n_frames
    # itself (30 * 0.7 == 21.0); frame i + 1 must stay within the pad frame
    steps = steps[steps < n_frames]
    spec = np.concatenate([spec, np.zeros((1, n_bins), dtype=spec.dtype)])

    mags = np.abs(spec)
    zero = mags == 0.0
    phasors = spec / np.where(zero, 1.0, mags)
    phasors[zero] = np.copysign(1.0, spec.real[zero])
    i = steps.astype(np.intp)
    frac = (steps - i)[:, None]
    out = np.empty((steps.shape[0], n_bins), dtype=np.complex128)
    out[0] = phasors[0]
    np.multiply(phasors[i[:-1] + 1], np.conj(phasors[i[:-1]]), out=out[1:])
    np.multiply.accumulate(out, axis=0, out=out)
    out *= (1.0 - frac) * mags[i] + frac * mags[i + 1]

    y = _overlap_add(out.T, n_fft, hop, window)
    target = int(round(x.shape[0] / rate))
    return fix_length(y, target)


def _i0(x):
    """The modified Bessel function I0 from its power series
    sum_k ((x/2)**2)**k / (k!)**2, in Horner form; 20 terms reach double
    precision for 0 <= x <= _KAISER_BETA. At 10 001 points it takes 0.4 ms
    where ``np.i0`` takes 1.0 ms (2-vCPU x86 VM)."""
    q = (x / 2.0) ** 2
    acc = 1.0
    for k in range(20, 0, -1):
        acc = 1.0 + acc * q / (k * k)
    return acc


def _lowpass(up: int, down: int) -> np.ndarray:
    """Kaiser(beta=5) windowed-sinc low-pass for resampling by up/down.

    2*half+1 taps with half = 10*max(up, down), cutoff 1/max(up, down) of
    Nyquist, normalised to unit DC gain and scaled by ``up``.
    """
    max_rate = max(up, down)
    half = 10 * max_rate
    f_c = 1.0 / max_rate
    # the filter is symmetric: compute taps -half..0 and mirror them
    m = np.arange(-half, 1, dtype=np.float64)
    window = _i0(_KAISER_BETA * np.sqrt(1.0 - (m / half) ** 2.0)) / _i0(_KAISER_BETA)
    left = f_c * np.sinc(f_c * m) * window
    h = np.concatenate([left, left[-2::-1]])
    h /= np.sum(h)
    h *= up
    return h


def resample_ratio(x: np.ndarray, ratio: float) -> np.ndarray:
    """Windowed-sinc resampling; output length ~ len(x) * ratio.

    The ratio is first rounded to the nearest fraction up/down with
    down <= 1000, in lowest terms; one that rounds to 1/1 returns ``x``.
    For the pitch-shift draws, ratio 2**(-delta/12) with
    |delta| <= 1.8 semitones (6 sigma_p at severity 6), this moves the
    pitch by at most 12*log2(1999/1998) ~ 0.00866 semitones (0.87 cents).
    Neighbouring fractions a/b < c/d with denominators <= 1000 are
    1/(b*d) apart and b + d > 1000, so rounding changes the ratio by at
    most a factor 1 + 1/(2*a*d). Within 0.9 < ratio < 1.11 the only
    fraction with denominator 1 is 1/1; the pairs (999/1000, 1/1) and
    (1/1, 1001/1000) give a*d = 999 and 1000, and every other pair has
    b, d >= 2, so a*d >= 0.9*b*d >= 0.9*2*999.

    Resampling by up/down is the conventional polyphase ``resample_poly``
    with zero padding (the tests hold it to the reference implementation
    to 1e-12): filter the zero-stuffed input with ``_lowpass(up, down)``,
    keep every down-th sample, ceil(len(x)*up/down) outputs. Padding the
    filter with n_pre_pad = down - half % down zeros and dropping the
    first n_pre_remove = (half + n_pre_pad) // down outputs cancel, so
    output m is centred on filter tap half + m*down:
    y[m] = sum_k h[half + m*down - k*up] * x[k].
    """
    if ratio <= 0 or not np.isfinite(ratio):
        raise ValueError(f"resample ratio must be positive and finite, got {ratio}")
    frac = Fraction(ratio).limit_denominator(1000)
    up, down = frac.numerator, frac.denominator
    if up == down:
        return x
    x = np.asarray(x, dtype=np.float64)
    n_in = x.shape[0]
    n_out = -(-n_in * up // down)
    h = _lowpass(up, down)
    half = (h.shape[0] - 1) // 2
    taps = -(-h.shape[0] // up)
    # phases[p, r] = h[p + r*up], reversed along r to meet the windows in time order
    phases = np.pad(h, (0, taps * up - h.shape[0])).reshape(taps, up).T[:, ::-1]
    # outputs s, s+up, s+2up, ... share phase (half + s*down) % up and step down inputs
    n_rows = -(-n_out // up)
    t = half + np.arange(up) * down
    start = t // up + down * np.arange(n_rows)[:, None]  # (n_rows, up)
    padded = np.zeros(taps - 1 + max(n_in, int(start[-1, -1]) + 1))
    padded[taps - 1 : taps - 1 + n_in] = x
    windows = sliding_window_view(padded, taps)  # windows[i] = x[i-taps+1 .. i]
    y = np.einsum("qut,ut->qu", windows[start], phases[t % up])
    return y.reshape(-1)[:n_out]


def fix_length(x: np.ndarray, length: int) -> np.ndarray:
    """Truncate or zero-pad to an exact sample count."""
    if x.shape[0] >= length:
        return x[:length]
    return np.pad(x, (0, length - x.shape[0]))
