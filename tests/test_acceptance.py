"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with its runtime. Run with `pytest -s` to see the
lines for passing criteria as well."""

import csv
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

from quanvaudio import harness, nn
from quanvaudio.audio import (
    LOG_EPS,
    Waveform,
    hann_window,
    log_mel,
    mel_bank,
    stft_power,
    write_wav,
)
from quanvaudio.cli import main as cli_main
from quanvaudio.corrupt import CorruptionKind, CorruptionSpec, apply, draw, pitch_shift_by
from quanvaudio.harness import ExperimentConfig, run_experiment
from quanvaudio.metrics import (
    AccuracyGrid,
    corruption_error,
    relative_corruption_error,
    robustness_report,
)
from quanvaudio.qsim import (
    CircuitSpec,
    Gate,
    Template,
    build_beqc,
    build_circuit,
    build_rqc,
    build_seqc,
    run_circuit_batch,
)
from quanvaudio.quanv import quanv_forward
from quanvaudio.toydata import make_toy_dataset
from conftest import gate_counts, random_state

DEPTHS = (1, 4, 10, 15, 20, 25, 30, 50)


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    """Prints one PASS/FAIL line per criterion and enforces its budget."""
    start = time.time()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.time() - start
        line = f"ACCEPTANCE {status}: {name} ({elapsed:.1f}s"
        if budget_s is not None:
            line += f" / budget {budget_s:.0f}s"
        line += ")"
        print(line, file=sys.__stdout__, flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} exceeded {budget_s}s ({elapsed:.1f}s)"


def test_simulator_suite():
    with criterion("simulator suite", budget_s=60):
        rng = np.random.default_rng(0)
        for template in Template:
            for depth in DEPTHS:
                spec = build_circuit(template, 4, depth, seed=depth)
                states = np.stack([random_state(rng, 4) for _ in range(100)])
                out = run_circuit_batch(spec, states)
                norms = np.linalg.norm(out, axis=1)
                assert np.max(np.abs(norms - 1.0)) < 1e-12, (template, depth)

        for depth in DEPTHS:
            beqc = build_beqc(4, depth, seed=1)
            assert gate_counts(beqc) == (4 * depth, 4 * depth)
            seqc = build_seqc(4, depth, seed=1)
            assert gate_counts(seqc) == (12 * depth, 4 * depth)

        d = 10
        counts = np.array([gate_counts(build_rqc(4, d, seed))[1] for seed in range(10**4)])
        p = 0.3 / 0.7
        per_layer_var = 4 * p * (1 - p)
        sigma_mean = math.sqrt(d * per_layer_var / 10**4)
        assert abs(counts.mean() - 12 * d / 7) < 3 * sigma_mean
        assert all(gate_counts(build_rqc(4, d, s))[0] == 4 * d for s in range(50))


def test_quanvolution_anchors():
    with criterion("quanvolution anchors", budget_s=30):
        spec = build_beqc(4, 1, seed=0)
        zeroed = CircuitSpec(
            4, 1,
            tuple(
                Gate(g.kind, g.wires, 0.0 if g.angle is not None else None)
                for g in spec.gates
            ),
            Template.BEQC, 0,
        )
        out = quanv_forward(np.zeros((40, 128)), zeroed)
        assert out.shape == (4, 20, 64)
        assert np.max(np.abs(out - 1.0)) < 1e-12

        identity = CircuitSpec(4, 1, (), Template.BEQC, 0)
        gram = np.random.default_rng(1).uniform(0, 1, (40, 128))
        fmap = quanv_forward(gram, identity)
        patches = gram.reshape(20, 2, 64, 2).transpose(0, 2, 1, 3).reshape(20, 64, 4)
        for q in range(4):
            assert np.max(np.abs(fmap[q] - np.cos(np.pi * patches[..., q]))) < 1e-12

        assert quanv_forward(gram, build_seqc(4, 2, seed=3)).shape == (4, 20, 64)


def test_corruption_suite():
    with criterion("corruption suite", budget_s=300):
        rng = np.random.default_rng(2)
        base = Waveform(0.5 * rng.uniform(-1, 1, 4000), 8000)
        for kind in CorruptionKind:
            assert apply(CorruptionSpec(kind, 0, seed=9), base) is base

        for kind in CorruptionKind:
            for i in range(1000):
                n = int(rng.integers(400, 4000))
                w = Waveform(0.5 * rng.uniform(-1, 1, n), 8000)
                sev = int(rng.integers(1, 7))
                out = apply(CorruptionSpec(kind, sev, seed=i), w)
                assert len(out) == n, (kind, sev, n)
                if kind == CorruptionKind.GAUSSIAN_NOISE:
                    assert np.all(np.abs(out.samples) <= 1.0)

        # one spec per seed, as the sweep draws them; severity 6 throughout
        def draws(kind, first_seed):
            return [draw(CorruptionSpec(kind, 6, s), base)
                    for s in range(first_seed, first_seed + 10**4)]

        deltas = draws(CorruptionKind.PITCH_SHIFT, 0)
        assert kstest(deltas, "norm", args=(0, 0.3)).pvalue > 0.01
        props = draws(CorruptionKind.TEMPORAL_SHIFT, 10**4)
        assert kstest(props, "norm", args=(0, 0.15)).pvalue > 0.01
        log_rates = np.log(draws(CorruptionKind.SPEED_VARIATION, 2 * 10**4))
        assert kstest(log_rates, "norm", args=(0, math.log(1.3))).pvalue > 0.01

        sr, n = 8000, 8000
        t = np.arange(n) / sr
        tone = Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t), sr)
        shifted = pitch_shift_by(tone, 12.0)
        core = shifted.samples[1000:-1000]
        spec = np.abs(np.fft.rfft(core * np.hanning(core.shape[0])))
        peak = np.argmax(spec) * sr / core.shape[0]
        assert abs(peak - 880.0) <= sr / core.shape[0]


def test_corrupt_cli_writes_the_audio_the_sweep_scores(toy_root, tmp_path, monkeypatch):
    with criterion("corrupt CLI reproduces sweep seeds 0 and 1"):
        cfg = ExperimentConfig(
            data_root=str(toy_root), output_dir=str(tmp_path / "sweep"),
            models=("cnn_base",), severities=(6,), n_seeds=2, master_seed=11,
            lr=1e-3, max_epochs=2, patience=1, batch_size=8,
        )
        # each corrupt_file call applies one draw: record the cell it was
        # called for, then the spec, value and audio that draw applied
        cells, applied = [], []
        real_file, real_apply = harness.corrupt_file, harness.corruptmod.apply_drawn

        def recording_file(path, master_seed, seed_idx, kind, severity):
            cells.append((seed_idx, kind, Path(path)))
            return real_file(path, master_seed, seed_idx, kind, severity)

        def recording_apply(spec, w, value):
            out = real_apply(spec, w, value)
            applied.append((spec, value, out))
            return out

        with monkeypatch.context() as m:
            m.setattr(harness, "corrupt_file", recording_file)
            m.setattr(harness.corruptmod, "apply_drawn", recording_apply)
            # in this process, so that the recording sees both seeds
            assert not run_experiment(cfg, jobs=1).failures
        assert len(cells) == len(applied)
        scored = list(zip(cells, applied))
        assert {kind for (_, kind, _), _ in scored} == set(CorruptionKind)

        checked = 0
        for seed_index in (0, 1):
            for kind in CorruptionKind:
                out_dir = tmp_path / "cli" / str(seed_index) / kind.value
                assert cli_main(["corrupt", "--kind", kind.value, "--severity", "6",
                                 "--seed", "11", "--seed-index", str(seed_index),
                                 "--in", str(toy_root), "--out", str(out_dir)]) == 0
                with open(out_dir / "corruption_log.csv", newline="") as fh:
                    log_rows = {r["file"]: r for r in csv.DictReader(fh)}
                cell = [(path, spec, value, out) for (s, k, path), (spec, value, out) in scored
                        if (s, k) == (seed_index, kind)]
                assert cell, (seed_index, kind)
                for path, spec, value, out in cell:
                    assert (spec.kind, spec.severity_index) == (kind, 6)
                    rel = str(path.relative_to(toy_root))
                    write_wav(tmp_path / "sweep.wav", out)  # 16-bit quantisation
                    assert (out_dir / rel).read_bytes() == (tmp_path / "sweep.wav").read_bytes()
                    # the value logged is the value the sweep applied
                    assert float(log_rows[rel]["drawn_parameter"]) == value
                    assert float(log_rows[rel]["severity_value"]) == spec.severity_value
                checked += len(cell)
        assert checked == len(scored)  # every corruption the sweep scored


def test_dsp_suite():
    with criterion("DSP suite"):
        sr = 16000
        with pytest.warns(UserWarning):
            silent = log_mel(Waveform(np.zeros(4000), sr))
        assert abs(silent.norm_info[0] - math.log(LOG_EPS)) < 1e-12
        assert abs(silent.norm_info[0] + 23.0259) < 1e-4

        rng = np.random.default_rng(4)
        n_fft, hop = 512, 128
        win_length = int(round(0.025 * sr))
        window = np.zeros(n_fft)
        offset = (n_fft - win_length) // 2
        window[offset : offset + win_length] = hann_window(win_length)
        for _ in range(100):
            x = rng.uniform(-0.9, 0.9, int(rng.integers(1500, 8000)))
            power = stft_power(Waveform(x, sr))
            padded = np.pad(x, n_fft // 2, mode="reflect")
            expected = sum(
                n_fft * np.sum((padded[t * hop : t * hop + n_fft] * window) ** 2)
                for t in range(power.shape[1])
            )
            total = np.sum(power[0] + power[-1] + 2 * power[1:-1].sum(axis=0))
            assert abs(total - expected) / expected < 1e-6

        from test_audio import _reference_mel_weights

        for rate in (8000, 16000):
            bank = mel_bank(rate)
            ref = _reference_mel_weights(rate, 40, 512)
            assert np.max(np.abs(bank.weights - ref)) < 1e-6

        for seconds in (0.2, 1.0, 2.5):
            x = 0.4 * rng.uniform(-1, 1, int(sr * seconds))
            gram = log_mel(Waveform(x, sr))
            assert gram.values.shape == (40, 128)
            assert gram.values.min() >= 0.0 and gram.values.max() <= 1.0


def test_autodiff_suite():
    with criterion("autodiff suite"):
        from test_nn import _check_param_grads, _small_model

        model = _small_model(seed=30)
        rng = np.random.default_rng(31)
        x = rng.uniform(-1, 1, (4, 2, 16, 16))
        y = np.array([0, 2, 1, 1])
        _check_param_grads(model, x, y, n_probes=10, tol=1e-6)

        for k in (2, 7):
            loss, _ = nn.softmax_cross_entropy(np.zeros((3, k)), np.zeros(3, dtype=int))
            assert abs(loss - math.log(k)) < 1e-12


def test_metrics_oracle():
    with criterion("metrics oracle"):
        kinds = list(CorruptionKind)
        model = AccuracyGrid("m", 1.0, {k: (0.9, 0.8, 0.7, 0.6, 0.5, 0.4) for k in kinds})
        base = AccuracyGrid("b", 0.9, {k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in kinds})
        assert abs(corruption_error(model, base, kinds[0]) - 2.1 / 2.7) < 1e-12
        # denominator 2.1/1.5 = 1.4 needs baseline clean accuracy 0.8
        base2 = AccuracyGrid("b", 0.8, {k: (0.8, 0.7, 0.6, 0.5, 0.4, 0.3) for k in kinds})
        assert abs(relative_corruption_error(model, base2, kinds[0]) - 1.4) < 1e-12

        for kind in kinds:
            assert corruption_error(base, base, kind) == 1.0
            assert relative_corruption_error(base, base, kind) == 1.0
        report = robustness_report(base, base)
        assert report["mce"] == 1.0 and report["rmce"] == 1.0

        perfect = AccuracyGrid("p", 1.0, {k: (1.0,) * 6 for k in kinds})
        assert corruption_error(model, perfect, kinds[0]) is None
        assert relative_corruption_error(model, perfect, kinds[0]) is None


@pytest.fixture(scope="module")
def e2e_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    make_toy_dataset(root / "data", n_per_class=100, seed=0)
    return root


def test_end_to_end_desk_scale(e2e_workdir):
    with criterion("end-to-end desk-scale run", budget_s=900):
        cfg = ExperimentConfig(
            data_root=str(e2e_workdir / "data"),
            output_dir=str(e2e_workdir / "results"),
            models=("cnn_base", "qnn_basic"),
            depths=(1,),
            n_seeds=1,
            lr=1e-3,  # toy fixture converges fast; full-corpus default is 1e-5
            max_epochs=500,
            patience=30,
        )
        result = run_experiment(cfg)
        assert not result.failures, result.failures[:5]

        with open(result.out_dir / "accuracy.csv") as fh:
            rows = list(csv.DictReader(fh))
        clean = {r["model"]: float(r["accuracy"]) for r in rows if r["kind"] == "clean"}
        assert set(clean) == {"cnn_base", "qnn_basic_d1"}
        for model, acc in clean.items():
            assert acc >= 0.95, f"{model} clean accuracy {acc}"
        for model in clean:
            cells = [r for r in rows if r["model"] == model and r["kind"] != "clean"]
            assert len(cells) == 4 * 6

        with open(result.out_dir / "report_per_seed.csv") as fh:
            per_seed = list(csv.DictReader(fh))
        assert len(per_seed) == 2 * 4  # both models x four kinds
        with open(result.out_dir / "report.csv") as fh:
            report = list(csv.DictReader(fh))
        summary = {r["model"] for r in report if r["kind"] == "mCE/RmCE"}
        assert summary == {"cnn_base", "qnn_basic_d1"}
        assert not (result.out_dir / "report_problems.csv").exists()


def test_sweep_reproducibility(e2e_workdir, tmp_path_factory):
    with criterion("byte-identical sweep reproducibility"):
        outputs = []
        for run in range(2):
            out = tmp_path_factory.mktemp(f"repro{run}")
            cfg = ExperimentConfig(
                data_root=str(e2e_workdir / "data"),
                output_dir=str(out),
                models=("cnn_base", "qnn_basic"),
                depths=(1,),
                corruptions=("gaussian_noise", "speed_variation"),
                severities=(1, 4),
                n_seeds=1,
                lr=1e-3,
                max_epochs=15,
                patience=10,
            )
            result = run_experiment(cfg)
            outputs.append(result.out_dir)
        for name in ("accuracy.csv", "report_per_seed.csv", "report.csv"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
