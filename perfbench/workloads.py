"""The benchmark's workloads: fixed program configs over a seeded toy fixture.

Each workload generates its WAV fixture from the workload seed (the only
use of the seed), runs one pass of the program on it, checks the pass's
outputs with code that does not share the program's readers, and states
the call counts its shape implies for the current model-major sweep loop.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from quanvaudio import cli, harness, toydata

KINDS = ("gaussian_noise", "pitch_shift", "temporal_shift", "speed_variation")
SEVERITIES = (1, 2, 3, 4, 5, 6)
N_CELLS = len(KINDS) * len(SEVERITIES)
# The paper's severity parameters, kept here as an oracle independent of
# corrupt.SEVERITY_TABLE: sigma, sigma_p (semitones), sigma_t, sigma_s.
SEVERITY_VALUES = {
    "gaussian_noise": (0.01, 0.05, 0.1, 0.15, 0.2, 0.25),
    "pitch_shift": (0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
    "temporal_shift": (0.025, 0.05, 0.075, 0.1, 0.125, 0.15),
    "speed_variation": (1.05, 1.1, 1.15, 1.2, 1.25, 1.3),
}
GRAM_SHAPE = (40, 128)
BATCH_SIZE = 20  # ExperimentConfig's default, which the sweeps keep
CLI_CORRUPT_SEED = 0


@dataclass
class Outcome:
    """What one pass produced: work attempted, work failed, output digests."""

    attempted: int
    failed: int
    digests: dict
    errors: list


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_tensor(path: Path) -> np.ndarray:
    """Parse the one-JSON-line-then-f64 tensor format without tensorio."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        raw = fh.read()
    dims = tuple(header["dims"])
    if header.get("dtype") != "f64" or len(raw) != 8 * math.prod(dims):
        raise ValueError(f"{path}: bad tensor header {header} for {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").reshape(dims)


class Workload:
    name: str
    per_class: int
    stresses: set[str]  # modules that should own the largest self time

    def make_fixture(self, data: Path, seed: int) -> None:
        toydata.make_toy_dataset(data, n_per_class=self.per_class, seed=seed)

    def shape(self, data: Path) -> dict:
        """Split sizes; the split apportions by class counts, so they do
        not depend on the split seed."""
        train, val, test = harness.split(harness.load_manifest(data))
        return {"n_all": len(train) + len(val) + len(test), "n_train": len(train),
                "n_val": len(val), "n_test": len(test)}


class SweepWorkload(Workload):
    """``harness.run_experiment`` over every kind x severity cell.

    Training runs exactly ``epochs`` epochs on every commit: with
    ``patience = epochs - 1`` early stopping can only fire on the last one.
    """

    def __init__(self, name, stresses, per_class, models, depth, n_seeds, epochs, cached):
        self.name, self.stresses, self.per_class = name, stresses, per_class
        self.models, self.depth, self.n_seeds = models, depth, n_seeds
        self.epochs, self.cached = epochs, cached

    @property
    def model_ids(self) -> list[str]:
        return [m if m == "cnn_base" else f"{m}_d{self.depth}" for m in self.models]

    def config(self, data: Path, pass_dir: Path):
        return harness.ExperimentConfig(
            data_root=str(data),
            output_dir=str(pass_dir / "results"),
            cache_dir=str(pass_dir / "cache") if self.cached else None,
            models=self.models,
            depths=(self.depth,),
            corruptions=KINDS,
            severities=SEVERITIES,
            n_seeds=self.n_seeds,
            master_seed=0,
            circuit_seed=1234,
            lr=1e-3,
            batch_size=BATCH_SIZE,
            max_epochs=self.epochs,
            patience=self.epochs - 1,
        )

    def run_pass(self, data: Path, pass_dir: Path):
        return harness.run_experiment(self.config(data, pass_dir))

    def check(self, data: Path, pass_dir: Path, result, shape: dict) -> Outcome:
        out = pass_dir / "results"
        errors = [f"sweep failure: {f}" for f in result.failures]
        expected = {
            (seed, model, kind, sev)
            for seed in range(self.n_seeds)
            for model in self.model_ids
            for kind, sev in [("clean", 0)] + [(k, s) for k in KINDS for s in SEVERITIES]
        }
        seen = {}
        with open(out / "accuracy.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                key = (int(rec["seed"]), rec["model"], rec["kind"], int(rec["severity"]))
                acc = float(rec["accuracy"])
                hits = acc * shape["n_test"]
                if key in seen or key not in expected:
                    errors.append(f"unexpected or repeated accuracy row {key}")
                elif not 0.0 <= acc <= 1.0 or abs(hits - round(hits)) > 1e-9:
                    errors.append(f"accuracy {acc} of {key} is not k/{shape['n_test']}")
                else:
                    seen[key] = acc
        failed = len(expected - set(seen))
        if failed:
            errors.append(f"{failed} of {len(expected)} grid cells missing")
        with open(out / "report.csv", newline="") as fh:
            summary = [r["model"] for r in csv.DictReader(fh) if r["kind"] == "mCE/RmCE"]
        if sorted(summary) != sorted(self.model_ids):
            errors.append(f"report.csv mCE/RmCE rows {summary} != {self.model_ids}")
        # `quanvaudio report` must rebuild the sweep's report from accuracy.csv.
        rebuilt = pass_dir / "rebuilt"
        rebuilt.mkdir()
        harness.write_reports(
            rebuilt, harness.grids_from_accuracy_csv(out / "accuracy.csv"),
            self.model_ids, self.n_seeds,
        )
        if (rebuilt / "report.csv").read_bytes() != (out / "report.csv").read_bytes():
            errors.append("report.csv differs from the one rebuilt from accuracy.csv")
        digests = {"accuracy.csv": _sha256(out / "accuracy.csv"),
                   "report.csv": _sha256(out / "report.csv")}
        return Outcome(len(expected), failed, digests, errors)

    def expected_calls(self, shape: dict) -> dict[str, int]:
        """Call counts of the current model-major sweep loop for this shape."""
        s, n, t = self.n_seeds, shape["n_all"], shape["n_test"]
        m = len(self.models)
        q = sum(1 for x in self.models if x != "cnn_base")
        steps = self.epochs * math.ceil(shape["n_train"] / BATCH_SIZE)
        cells = s * N_CELLS * t  # unique (seed, cell, test file) triples
        counts = {
            "harness.run_experiment": 1,
            "harness.write_reports": 1,
            "nn.train": s * m,
            "nn.loss_and_grads": s * m * steps,
            "nn.Adam.step": s * m * steps,
            "nn.evaluate": s * m * (self.epochs + 1 + N_CELLS),
            "harness.FeaturePipeline.corrupted_gram": m * cells,
            "cli.cmd_corrupt": 0,
            "corrupt.drawn_parameter": 0,
        }
        if self.cached:
            # clean grams and clean quanv maps are written by seed 0 and
            # read by later seeds; a corrupted gram is written by the first
            # model and read by the others; corrupted quanv maps are unique.
            counts.update({
                "corrupt.apply": cells,
                "audio.log_mel": n + cells,
                "quanv.quanv_forward": q * (n + cells),
                "harness.cache.misses": n + cells + q * (n + cells),
                "harness.cache.hits": (s - 1) * n * (1 + q) + (m - 1) * cells,
            })
        else:
            counts.update({
                "corrupt.apply": m * cells,
                "audio.log_mel": s * n + m * cells,
                "quanv.quanv_forward": q * (s * n + cells),
                "harness.cache.misses": 0,
                "harness.cache.hits": 0,
            })
        counts["qsim.run_circuit_batch"] = counts["quanv.quanv_forward"]
        counts["audio.load_wav"] = counts["audio.log_mel"]
        return counts


class CorruptFeaturizeWorkload(Workload):
    """CLI ``corrupt`` then ``featurize`` (grams only) for every cell."""

    name = "corrupt_featurize"
    stresses = {"corrupt", "dsp", "audio"}

    def __init__(self, per_class):
        self.per_class = per_class

    def run_pass(self, data: Path, pass_dir: Path):
        codes = {}
        for kind in KINDS:
            for sev in SEVERITIES:
                wavs = pass_dir / "corrupted" / kind / f"s{sev}"
                grams = pass_dir / "grams" / kind / f"s{sev}"
                codes[(kind, sev)] = (
                    cli.main(["corrupt", "--kind", kind, "--severity", str(sev),
                              "--seed", str(CLI_CORRUPT_SEED), "--in", str(data),
                              "--out", str(wavs)]),
                    cli.main(["featurize", "--in", str(wavs), "--out", str(grams)]),
                )
        return codes

    def check(self, data: Path, pass_dir: Path, codes, shape: dict) -> Outcome:
        sources = sorted(p.relative_to(data) for p in data.rglob("*.wav"))
        source_pcm = {rel: wavfile.read(data / rel) for rel in sources}
        errors, failed, digest = [], 0, hashlib.sha256()
        for kind in KINDS:
            for sev in SEVERITIES:
                wavs = pass_dir / "corrupted" / kind / f"s{sev}"
                grams = pass_dir / "grams" / kind / f"s{sev}"
                if codes[(kind, sev)] != (0, 0):
                    errors.append(f"{kind} s{sev}: CLI exit codes {codes[(kind, sev)]}")
                    failed += len(sources)
                    continue
                log_path = wavs / "corruption_log.csv"
                with open(log_path, newline="") as fh:
                    log_rows = list(csv.DictReader(fh))
                by_file = {r["file"]: r for r in log_rows}
                if len(log_rows) != len(sources) or len(by_file) != len(sources):
                    errors.append(f"{kind} s{sev}: {len(log_rows)} log rows "
                                  f"for {len(sources)} files")
                digest.update(log_path.read_bytes())
                for rel in sources:
                    problem = self._check_file(
                        kind, sev, source_pcm[rel], wavs / rel,
                        (grams / rel).with_suffix(".gram"), by_file.get(str(rel)),
                    )
                    if problem:
                        errors.append(f"{kind} s{sev} {rel}: {problem}")
                        failed += 1
                    else:
                        digest.update((grams / rel).with_suffix(".gram").read_bytes())
        return Outcome(N_CELLS * len(sources), failed,
                       {"grams+logs": digest.hexdigest()}, errors)

    @staticmethod
    def _check_file(kind, sev, source, wav_path, gram_path, log_row) -> str | None:
        if log_row is None:
            return "no corruption_log.csv row"
        sigma = SEVERITY_VALUES[kind][sev - 1]
        if log_row["kind"] != kind or float(log_row["severity_value"]) != sigma:
            return f"log row {log_row} does not match the cell"
        rate, pcm = wavfile.read(wav_path)
        src_rate, src = source
        if rate != src_rate or pcm.dtype != np.int16 or pcm.shape != src.shape:
            return f"corrupted WAV is {rate} Hz {pcm.dtype} {pcm.shape}"
        drawn = float(log_row["drawn_parameter"])
        if kind == "gaussian_noise" and (drawn != sigma or np.array_equal(pcm, src)):
            return "noise not added or drawn parameter is not sigma"
        if kind == "temporal_shift":
            shift = int(round(drawn * len(src)))
            if abs(shift) < len(src):
                want = np.zeros_like(src)
                if shift >= 0:
                    want[shift:] = src[: len(src) - shift]
                else:
                    want[:shift] = src[-shift:]
                if not np.array_equal(pcm, want):
                    return f"audio is not the source shifted by {shift} samples"
        if kind == "speed_variation" and not drawn > 0:
            return f"speed ratio {drawn} is not positive"
        gram = _read_tensor(gram_path)
        if gram.shape != GRAM_SHAPE or not np.all((gram >= 0.0) & (gram <= 1.0)):
            return f"gram of shape {gram.shape} leaves [0, 1] or is not 40x128"
        return None

    def expected_calls(self, shape: dict) -> dict[str, int]:
        f = shape["n_all"]
        return {
            "cli.cmd_corrupt": N_CELLS,
            "cli.cmd_featurize": N_CELLS,
            "corrupt.apply": N_CELLS * f,
            "corrupt.drawn_parameter": N_CELLS * f,
            "audio.load_wav": 2 * N_CELLS * f,
            "audio.write_wav": N_CELLS * f,
            "audio.log_mel": N_CELLS * f,
            "tensorio.save_tensor": N_CELLS * f,
            "dsp.time_stretch": 2 * len(SEVERITIES) * f,
            "dsp.resample_ratio": len(SEVERITIES) * f,
            "quanv.quanv_forward": 0,
            "qsim.run_circuit_batch": 0,
            "nn.train": 0,
            "nn.loss_and_grads": 0,
            "harness.run_experiment": 0,
        }


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("desk_sweep", {"nn"}, per_class=8, models=("cnn_base", "qnn_basic"),
                      depth=1, n_seeds=2, epochs=20, cached=True),
        SweepWorkload("quanv_sweep", {"quanv", "qsim"}, per_class=6,
                      models=("cnn_base", "qnn_basic", "qnn_strongly", "qnn_random"),
                      depth=1, n_seeds=1, epochs=5, cached=False),
        CorruptFeaturizeWorkload(per_class=10),
    )
}
