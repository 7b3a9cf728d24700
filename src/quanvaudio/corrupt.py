"""Test-time waveform corruptions at six severity levels.

Four generators: additive Gaussian noise scaled by the signal's own
standard deviation, random pitch shift in semitones, random temporal
shift as a proportion of length, and log-normal speed variation. All are
seed-deterministic pure functions that preserve the input length, and
the clean severity (index 0) is the exact identity for every kind.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import dsp
from .audio import Waveform

log = logging.getLogger(__name__)

N_SEVERITIES = 6


class CorruptionKind(str, Enum):
    GAUSSIAN_NOISE = "gaussian_noise"
    PITCH_SHIFT = "pitch_shift"
    TEMPORAL_SHIFT = "temporal_shift"
    SPEED_VARIATION = "speed_variation"


SEVERITY_TABLE: dict[CorruptionKind, tuple[float, ...]] = {
    CorruptionKind.GAUSSIAN_NOISE: (0.01, 0.05, 0.1, 0.15, 0.2, 0.25),
    CorruptionKind.PITCH_SHIFT: (0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
    CorruptionKind.TEMPORAL_SHIFT: (0.025, 0.05, 0.075, 0.1, 0.125, 0.15),
    CorruptionKind.SPEED_VARIATION: (1.05, 1.1, 1.15, 1.2, 1.25, 1.3),
}

CLEAN_VALUE: dict[CorruptionKind, float] = {
    CorruptionKind.GAUSSIAN_NOISE: 0.0,
    CorruptionKind.PITCH_SHIFT: 0.0,
    CorruptionKind.TEMPORAL_SHIFT: 0.0,
    CorruptionKind.SPEED_VARIATION: 1.0,
}


def severity_value(kind: CorruptionKind, severity_index: int) -> float:
    if severity_index == 0:
        return CLEAN_VALUE[kind]
    return SEVERITY_TABLE[kind][severity_index - 1]


@dataclass(frozen=True)
class CorruptionSpec:
    kind: CorruptionKind
    severity_index: int
    seed: int
    severity_value: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.severity_index <= N_SEVERITIES:
            raise ValueError(
                f"severity index must be 0..{N_SEVERITIES}, got {self.severity_index}"
            )
        object.__setattr__(
            self, "severity_value", severity_value(self.kind, self.severity_index)
        )


def draw(spec: CorruptionSpec, w: Waveform) -> float:
    """The parameter ``apply`` applies to ``w``: sigma for Gaussian noise
    (whose per-sample noise ``gaussian_noise`` draws from ``spec.seed``),
    semitones for pitch shift, the shift as a proportion of ``len(w)``,
    or the speed rate. This is the only place that draws and clamps, so
    the value logged is the value applied. The clean severity gives the
    clean value, at which every corruption is the identity."""
    if spec.severity_index == 0 or spec.kind == CorruptionKind.GAUSSIAN_NOISE:
        return spec.severity_value
    rng = np.random.default_rng(spec.seed)
    if spec.kind == CorruptionKind.PITCH_SHIFT:
        return float(rng.normal(0.0, spec.severity_value))
    if spec.kind == CorruptionKind.TEMPORAL_SHIFT:
        p = float(rng.normal(0.0, spec.severity_value))
        length = len(w)
        if abs(round(p * length)) >= length:
            clamped = (length - 1) / length if p > 0 else -(length - 1) / length
            log.warning("shift proportion %.4f clamped to %.4f; signal has only %d samples",
                        p, clamped, length)
            p = clamped
        return p
    rate = math.exp(rng.normal(0.0, math.log(spec.severity_value)))
    if not 0.25 <= rate <= 4.0:
        clamped = min(max(rate, 0.25), 4.0)
        log.warning("speed ratio %.4f clamped to %.4f", rate, clamped)
        rate = clamped
    return rate


def gaussian_noise(w: Waveform, sigma: float, seed: int) -> Waveform:
    """Add N(0, sigma) noise scaled by the signal's std, then clamp to [-1,1]."""
    if sigma == 0:
        return w
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, sigma, size=len(w))
    noisy = np.clip(w.samples + np.std(w.samples) * z, -1.0, 1.0)
    return Waveform(noisy, w.sample_rate, w.source_id)


def pitch_shift_by(w: Waveform, delta_semitones: float) -> Waveform:
    """Shift pitch by a semitone amount at unchanged duration."""
    if delta_semitones == 0.0:
        return w
    # Slow down by the frequency ratio, then resample back; net effect is
    # a spectral scale by 2**(delta/12) at the original length.
    rate = 2.0 ** (-delta_semitones / 12.0)
    stretched = dsp.time_stretch(w.samples, rate)
    shifted = dsp.resample_ratio(stretched, rate)
    shifted = np.clip(dsp.fix_length(shifted, len(w)), -1.0, 1.0)
    return Waveform(shifted, w.sample_rate, w.source_id)


def shift_samples(w: Waveform, s: int) -> Waveform:
    """Shift by s samples: positive delays (leading zeros, tail dropped)."""
    length = len(w)
    if abs(s) >= length:
        raise ValueError(f"shift {s} leaves nothing of a {length}-sample signal")
    if s == 0:
        return w
    if s > 0:
        shifted = np.concatenate([np.zeros(s), w.samples[: length - s]])
    else:
        shifted = np.concatenate([w.samples[-s:], np.zeros(-s)])
    return Waveform(shifted, w.sample_rate, w.source_id)


def speed_by(w: Waveform, rate: float) -> Waveform:
    """Time-stretch by ``rate``; truncate or zero-pad back to length."""
    if rate == 1.0:
        return w
    stretched = dsp.time_stretch(w.samples, rate)
    out = np.clip(dsp.fix_length(stretched, len(w)), -1.0, 1.0)
    return Waveform(out, w.sample_rate, w.source_id)


def apply(spec: CorruptionSpec, w: Waveform) -> Waveform:
    return apply_drawn(spec, w, draw(spec, w))


def apply_drawn(spec: CorruptionSpec, w: Waveform, value: float) -> Waveform:
    """Corrupt ``w`` as ``spec`` says, with the parameter ``value`` that
    ``draw(spec, w)`` gave; a caller that logs the draw applies it here."""
    if spec.kind == CorruptionKind.GAUSSIAN_NOISE:
        return gaussian_noise(w, value, spec.seed)
    if spec.kind == CorruptionKind.PITCH_SHIFT:
        return pitch_shift_by(w, value)
    if spec.kind == CorruptionKind.TEMPORAL_SHIFT:
        return shift_samples(w, int(round(value * len(w))))
    return speed_by(w, value)
