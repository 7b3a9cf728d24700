"""Experiment orchestration: manifests, stratified splits, seeded
clean-train/corrupted-test sweeps, and CSV reporting.

Corruption is applied only to the held-out test split; training and
validation always see clean audio. All randomness is derived from the
master seed via purpose-tagged hashing, so adding a corruption kind or
model never perturbs existing draws, and re-running an identical config
reproduces every output byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
import sys
from collections import defaultdict
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import corrupt as corruptmod
from . import metrics as metricsmod
from . import nn as nnmod
from .audio import load_wav, log_mel
from .corrupt import CorruptionKind, CorruptionSpec
from .qsim import CircuitSpec, build_circuit
from .quanv import PATCH_QUBITS, filter_terms, quanv_forward

log = logging.getLogger(__name__)

DEFAULT_DEPTHS = (1, 4, 10, 15, 20, 25, 30, 50)
DEFAULT_RATIOS = (0.65, 0.15, 0.20)
BASELINE_MODEL = "cnn_base"


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    group: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    rows: tuple[ManifestRow, ...]

    def __post_init__(self):
        labels = sorted({r.label for r in self.rows})
        if len(labels) < 2:
            raise ManifestError(f"need at least 2 classes, found {labels}")
        object.__setattr__(self, "labels", tuple(labels))  # label i is class i

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    def label_index(self, row: ManifestRow) -> int:
        return self.labels.index(row.label)


def read_manifest_csv(manifest_csv: str | Path) -> list[dict[str, str]]:
    """The records of a path,label[,group] CSV; a header without path or
    label is a ManifestError."""
    with open(manifest_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("path", "label") if c not in (reader.fieldnames or ())]
        if missing:
            raise ManifestError(f"{manifest_csv}: no {' or '.join(missing)} column in its header")
        return list(reader)


def load_manifest(root: str | Path, manifest_csv: str | Path | None = None) -> DatasetManifest:
    """Dataset layout root/<label>/<file>.wav, or an explicit CSV with
    columns path,label[,group] overriding it."""
    root = Path(root)
    rows: list[ManifestRow] = []
    if manifest_csv is not None:
        for rec in read_manifest_csv(manifest_csv):
            path = rec["path"]
            if not os.path.isabs(path):
                path = str(root / path)
            rows.append(ManifestRow(path, rec["label"], rec.get("group") or None))
    else:
        for label_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            for wav in sorted(label_dir.glob("*.wav")):
                rows.append(ManifestRow(str(wav), label_dir.name))
    if not rows:
        raise ManifestError(f"no audio files found under {root}")
    missing = [r.path for r in rows if not os.path.exists(r.path)]
    if missing:
        raise ManifestError(f"missing files: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    return DatasetManifest(tuple(rows))


def split(
    manifest: DatasetManifest,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> tuple[list[ManifestRow], list[ManifestRow], list[ManifestRow]]:
    """Stratified-by-label shuffled split; disjoint and exhaustive.

    Split sizes are apportioned by largest remainder so the global counts
    match the ratios exactly (e.g. 100 samples -> 65/15/20) while staying
    as close to proportional as possible within each class.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[ManifestRow]] = defaultdict(list)
    for row in manifest.rows:
        by_label[row.label].append(row)
    labels = sorted(by_label)
    counts = _apportion_splits({lab: len(by_label[lab]) for lab in labels}, ratios)
    for label in labels:
        n_train, n_val, n_test = counts[label]
        if min(n_train, n_val, n_test) < 1:
            raise ValueError(
                f"class {label!r} has only {len(by_label[label])} samples; "
                "cannot fill all three splits"
            )
    train, val, test = [], [], []
    for label in labels:
        rows = by_label[label]
        n_train, n_val, _ = counts[label]
        order = rng.permutation(len(rows))
        train += [rows[i] for i in order[:n_train]]
        val += [rows[i] for i in order[n_train : n_train + n_val]]
        test += [rows[i] for i in order[n_train + n_val :]]
    return train, val, test


def _apportion_splits(
    class_sizes: dict[str, int], ratios: tuple[float, float, float]
) -> dict[str, tuple[int, int, int]]:
    """Largest-remainder allocation of each class over the three splits,
    constrained so global split sizes hit round(ratio * N)."""
    total = sum(class_sizes.values())
    targets = [int(np.floor(r * total)) for r in ratios]
    fracs = sorted(
        range(3), key=lambda s: (ratios[s] * total - targets[s], -s), reverse=True
    )
    for s in fracs[: total - sum(targets)]:
        targets[s] += 1

    base = {
        lab: [int(np.floor(r * n)) for r in ratios]
        for lab, n in class_sizes.items()
    }
    left = {lab: class_sizes[lab] - sum(base[lab]) for lab in class_sizes}
    deficit = [targets[s] - sum(base[lab][s] for lab in class_sizes) for s in range(3)]
    remainders = sorted(
        (
            (ratios[s] * class_sizes[lab] - base[lab][s], lab, s)
            for lab in class_sizes
            for s in range(3)
        ),
        key=lambda item: (-item[0], item[1], item[2]),
    )
    for _, lab, s in remainders:
        if left[lab] > 0 and deficit[s] > 0:
            base[lab][s] += 1
            left[lab] -= 1
            deficit[s] -= 1
    return {lab: tuple(vals) for lab, vals in base.items()}


def derive_seed(master: int, tag: str) -> int:
    digest = hashlib.sha256(f"{master}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def corruption_spec(
    master_seed: int, seed_idx: int, kind: CorruptionKind, severity: int, file_hash: str
) -> CorruptionSpec:
    """The corruption of the file with SHA-256 ``file_hash`` in cell
    (``kind``, ``severity``) of sweep seed ``seed_idx``. The ``corrupt``
    CLI uses it with its ``--seed-index`` (default 0), so it writes the
    audio that seed scores."""
    tag = f"{seed_idx}/corrupt/{kind.value}/{severity}/{file_hash}"
    return CorruptionSpec(kind, severity, derive_seed(master_seed, tag))


# What a YAML or JSON value may be for each scalar annotation of ExperimentConfig
_SCALAR_TYPES = {"str": str, "str | None": (str, type(None)), "int": int, "float": (int, float)}


def _fits(value, annotation: str) -> bool:
    """Whether ``value`` may stand for a field annotated ``annotation``;
    a list or tuple fits ``tuple[int, ...]`` when each item fits ``int``."""
    if annotation.startswith("tuple["):
        item = annotation[len("tuple["):].split(",")[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    return not isinstance(value, bool) and isinstance(value, _SCALAR_TYPES[annotation])


@dataclass(frozen=True)
class ExperimentConfig:
    data_root: str
    output_dir: str
    manifest_csv: str | None = None
    cache_dir: str | None = None  # ignored: grams are not cached; run_experiment warns
    models: tuple[str, ...] = ("cnn_base", "qnn_basic")
    depths: tuple[int, ...] = DEFAULT_DEPTHS
    corruptions: tuple[str, ...] = tuple(k.value for k in CorruptionKind)
    severities: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    n_seeds: int = 10
    master_seed: int = 0
    circuit_seed: int = 1234
    split_ratios: tuple[float, float, float] = DEFAULT_RATIOS
    lr: float = 1e-5
    weight_decay: float = 1e-2
    batch_size: int = 20
    max_epochs: int = 10000
    patience: int = 30

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        for name in ("models", "depths", "corruptions", "severities"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} lists {repeated} more than once: {values}")
        ratios = self.split_ratios
        if (len(ratios) != 3 or not all(0.0 < r < 1.0 for r in ratios)
                or abs(sum(ratios) - 1.0) > 1e-9):
            raise ValueError(
                f"split_ratios must be three numbers in (0, 1) summing to 1, got {ratios}"
            )
        if any(d < 1 for d in self.depths):
            raise ValueError("depths must be >= 1")
        for m in self.models:
            if m not in nnmod.MODEL_KINDS:
                raise ValueError(f"unknown model {m!r}")
        if not self.models:
            raise ValueError("models lists no model")
        quantum = [m for m in self.models if m != BASELINE_MODEL]
        if quantum and not self.depths:
            raise ValueError(f"depths lists no depth for {quantum}")
        for c in self.corruptions:
            CorruptionKind(c)
        if not all(1 <= s <= corruptmod.N_SEVERITIES for s in self.severities):
            raise ValueError(
                f"severities must lie in 1..{corruptmod.N_SEVERITIES}, got {self.severities}"
            )
        self.train_config(0)  # the training hyperparameters must be valid

    def instances(self) -> list[ModelInstance]:
        """The models this config trains: each kind, a quantum kind once per
        depth, in config order."""
        out = []
        for kind in self.models:
            if kind == BASELINE_MODEL:
                out.append(ModelInstance(kind))
            else:
                out.extend(
                    ModelInstance(kind, build_circuit(nnmod.QNN_TEMPLATE[kind], PATCH_QUBITS,
                                                      d, self.circuit_seed))
                    for d in self.depths
                )
        return out

    def only(self, model_id: str) -> "ExperimentConfig":
        """This config narrowed to the one model ``model_id``: its kind and,
        for a quantum model, its depth. An id this config does not train is
        a ValueError naming it."""
        instances = self.instances()
        for inst in instances:
            if inst.model_id == model_id:
                depths = self.depths if inst.circuit is None else (inst.depth,)
                return replace(self, models=(inst.kind,), depths=depths)
        raise ValueError(f"model {model_id!r} is not configured; "
                         f"the configured models are {[i.model_id for i in instances]}")

    def train_config(self, seed: int) -> nnmod.TrainConfig:
        return nnmod.TrainConfig(
            lr=self.lr,
            weight_decay=self.weight_decay,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=self.patience,
            seed=seed,
        )

    @staticmethod
    def from_yaml(path: str | Path) -> "ExperimentConfig":
        # here, not at the top: seed children and most CLI commands touch no YAML
        import yaml

        with open(path) as fh:
            try:
                doc = yaml.safe_load(fh)
            except yaml.YAMLError as exc:  # a message of several lines, made one
                problem = " ".join(line.strip() for line in str(exc).splitlines())
                raise ValueError(f"{path}: not valid YAML: {problem}") from exc
        try:
            return ExperimentConfig.from_dict(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """The config of a YAML or JSON mapping, whose lists become tuples.
        Any other document, a key that names no field, a missing required
        key, or a value of the wrong type is a ValueError naming the key."""
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a mapping of field names, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        for f in fields(ExperimentConfig):
            if f.name not in doc:
                if f.default is MISSING:
                    raise ValueError(f"missing config key {f.name!r}")
            elif not _fits(doc[f.name], f.type):
                raise ValueError(f"{f.name} must be {f.type}, got {doc[f.name]!r}")
        return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                                   for k, v in doc.items()})

    def to_yaml(self, path: str | Path) -> None:
        import yaml

        doc = asdict(self)
        for key, val in doc.items():
            if isinstance(val, tuple):
                doc[key] = list(val)
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)


@dataclass(frozen=True)
class ModelInstance:
    """A concrete trainable model: its kind and the fixed circuit of its
    quanvolution front end, None for the classical baseline."""

    kind: str
    circuit: CircuitSpec | None = None

    @property
    def depth(self) -> int:
        return 0 if self.circuit is None else self.circuit.depth

    @property
    def template(self) -> str:
        return "-" if self.circuit is None else self.circuit.template.value

    @property
    def model_id(self) -> str:
        return self.kind if self.circuit is None else f"{self.kind}_d{self.depth}"


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def clean_gram(path: str) -> np.ndarray:
    """The log-Mel gram of the WAV file at ``path``."""
    return log_mel(load_wav(path)).values


def corrupted_gram(path: str, spec: CorruptionSpec) -> np.ndarray:
    """The log-Mel gram of the WAV file at ``path`` under corruption ``spec``."""
    return log_mel(corruptmod.apply(spec, load_wav(path))).values


def _features(grams: list[np.ndarray], circuit: CircuitSpec | None) -> np.ndarray:
    """Model inputs: the grams themselves for the baseline (``circuit`` is
    None), else their quanvolution maps through ``circuit``."""
    if circuit is None:
        return np.stack([g[None, :, :] for g in grams])
    return np.stack([quanv_forward(g, circuit) for g in grams])


def _fmt(x) -> str:
    if x is None:  # a metric whose baseline denominator is zero
        return "undefined"
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Header then rows, each value through ``_fmt``; written to a temporary
    file and renamed over ``path``, so a reader never sees half a file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    os.replace(tmp, path)


ACCURACY_HEADER = ["seed", "model", "template", "depth", "kind", "severity", "accuracy"]
CONFUSION_HEADER = ["seed", "model", "kind", "severity", "true", "pred", "count"]
_TABLES = {"accuracy.csv": ACCURACY_HEADER, "confusion.csv": CONFUSION_HEADER}
_COLUMN_TYPES = {"seed": int, "depth": int, "severity": int, "count": int, "accuracy": float}


def read_table(path: str | Path, header: list[str], check=None) -> list[list]:
    """The rows of a table this package writes as ``header``, each value
    typed so that it renders through ``_fmt`` to the text it was read from;
    ``check``, if given, is called with each row. Any other header, a row
    whose fields do not match it one for one, a value that does not parse
    or a ValueError from ``check`` is a ValueError naming the file (and
    the missing columns, or the row's line)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])
        missing = [c for c in header if c not in found]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column in its header")
        if found != header:
            raise ValueError(f"{path}: its header is not {','.join(header)}")
        rows = []
        try:
            for rec in reader:  # a blank line is a row of no fields
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} fields, not the header's {len(header)}")
                rows.append([_COLUMN_TYPES.get(c, str)(v) for c, v in zip(header, rec)])
                if check is not None:
                    check(rows[-1])
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    return rows


@dataclass
class SweepResult:
    out_dir: Path
    accuracy_rows: list[list] = field(default_factory=list)
    confusion_rows: list[list] = field(default_factory=list)  # CONFUSION_HEADER rows
    # (cell, exception type name, message), one per failed train or eval cell
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    def record_failure(self, cell: str, exc: Exception) -> None:
        self.failures.append((cell, type(exc).__name__, str(exc)))


def run_experiment(
    cfg: ExperimentConfig, *, reuse_checkpoints: bool = False, jobs: int | None = None
) -> SweepResult:
    """Full sweep over seeds x models x test cells, cell-major. The cells
    are the clean test set, then every ``cfg.corruptions`` x
    ``cfg.severities``; a config with no corrupted cell writes no reports.

    Each seed runs through ``_run_seed``, which writes the seed's
    checkpoints and histories and returns its rows. Seeds are independent,
    so when more than one would run at once -- ``jobs`` of them (by default
    the usable cores), never more than ``cfg.n_seeds`` -- each seed runs
    in a child interpreter on one BLAS thread that keeps its freed heap
    (``_child_env``), and a seed that aborts raises ``SeedFailed``.
    ``jobs=1``, one seed or one core run the seeds in this process one
    after the other. Either way this process then writes every table:
    ``accuracy.csv``, ``confusion.csv``, the reports, which it computes
    from ``accuracy.csv`` just as ``quanvaudio report`` does, and
    ``failures.csv``. The tables keep what earlier runs into
    ``cfg.output_dir`` wrote for the (seed, model) pairs this run does not
    score, read before any seed starts, and replace the rest; so per-model
    runs into one directory add up to the run of the whole config. A
    failed training run or cell is recorded and the sweep goes on. With
    ``reuse_checkpoints`` an existing checkpoint file is loaded instead of
    retraining.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cfg.cache_dir is not None:
        log.warning("cache_dir %r is ignored: grams are computed in memory", cfg.cache_dir)
    out_dir = Path(cfg.output_dir)
    instances = cfg.instances()
    scored = {(seed_idx, inst.model_id) for seed_idx in range(cfg.n_seeds) for inst in instances}
    earlier = {  # read, and so checked, before anything is written or trained
        name: [r for r in read_table(out_dir / name, header) if (r[0], r[1]) not in scored]
        if (out_dir / name).exists() else [] for name, header in _TABLES.items()
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.to_yaml(out_dir / "config.yaml")

    manifest = load_manifest(cfg.data_root, cfg.manifest_csv)
    for inst in instances:
        if inst.circuit is not None:
            (out_dir / f"circuit_{inst.model_id}.json").write_text(inst.circuit.to_json())
            (out_dir / f"circuit_{inst.model_id}.terms.json").write_text(
                json.dumps(filter_terms(inst.circuit), indent=1)
            )

    workers = min(cfg.n_seeds, jobs or _usable_cores())
    if workers > 1:
        seeds = _run_seeds_in_children(cfg, workers, reuse_checkpoints)
    else:
        seeds = [_run_seed(cfg, seed_idx, manifest, reuse_checkpoints)
                 for seed_idx in range(cfg.n_seeds)]

    result = SweepResult(out_dir)
    for seed in seeds:
        result.accuracy_rows += seed.accuracy_rows
        result.confusion_rows += seed.confusion_rows
        result.failures += seed.failures
    new = {"accuracy.csv": result.accuracy_rows, "confusion.csv": result.confusion_rows}
    for name, header in _TABLES.items():  # rows sorted by every column but the value
        write_csv(out_dir / name, header, sorted(new[name] + earlier[name], key=lambda r: r[:-1]))
    if cfg.corruptions and cfg.severities:
        report_accuracy_csv(out_dir / "accuracy.csv", out_dir, scored)
    if result.failures:
        result.failures.sort(key=lambda f: f[0])  # by cell, like the accuracy rows
        write_csv(out_dir / "failures.csv", ["cell", "error", "message"], result.failures)
        log.warning("sweep finished with %d failed cells", len(result.failures))
    return result


def _run_seed(
    cfg: ExperimentConfig, seed_idx: int, manifest: DatasetManifest, reuse_checkpoints: bool
) -> SweepResult:
    """One seed of ``run_experiment``: split, build the clean grams, then
    train every model on its clean train/val features (each model's
    features are dropped once it is trained). Then, for each test cell --
    the clean test set first, then every (kind, severity) -- build the
    cell's test grams once and evaluate every trained model on them, so
    each corrupted test file is corrupted and log-Mel'd once per seed,
    whatever the number of models. Writes the seed's checkpoints and
    histories, and returns its accuracy rows, confusion rows (a count for
    every pair of ``manifest.labels``) and failures."""
    out_dir = Path(cfg.output_dir)
    instances = cfg.instances()
    cells = [(None, 0)] + [
        (CorruptionKind(kind), sev) for kind in cfg.corruptions for sev in cfg.severities
    ]
    result = SweepResult(out_dir)
    # `reuse_checkpoints` yields params, not networks, and a scoring network
    # holds no training gradients, so one network per kind scores them all.
    nets = {inst.kind: nnmod.build_model(inst.kind, manifest.n_classes, 0) for inst in instances}

    train_rows, val_rows, test_rows = split(
        manifest, cfg.split_ratios, derive_seed(cfg.master_seed, f"{seed_idx}/split")
    )
    leaked = {r.path for r in test_rows} & {r.path for r in train_rows + val_rows}
    if leaked:
        raise ValueError(
            f"seed {seed_idx}: {len(leaked)} test files also in train/val, "
            f"e.g. {sorted(leaked)[:3]}"
        )

    grams = {r.path: clean_gram(r.path) for r in train_rows + val_rows + test_rows}
    test_hashes = {r.path: file_sha256(r.path) for r in test_rows}
    labels = {
        name: np.array([manifest.label_index(r) for r in rows])
        for name, rows in (("train", train_rows), ("val", val_rows), ("test", test_rows))
    }

    trained: list[tuple[ModelInstance, dict[str, np.ndarray]]] = []
    for inst in instances:
        ckpt_path = out_dir / f"checkpoint_{inst.model_id}_seed{seed_idx}.bin"
        if reuse_checkpoints and ckpt_path.exists():
            arch, n_classes, params = nnmod.load_checkpoint(ckpt_path)
            if (arch, n_classes) != (inst.kind, manifest.n_classes):
                raise ValueError(
                    f"{ckpt_path}: expected a {inst.kind} checkpoint for "
                    f"{manifest.n_classes} classes, found {arch} for {n_classes}"
                )
        else:
            try:
                train_result = nnmod.train(
                    nnmod.build_model(
                        inst.kind,
                        manifest.n_classes,
                        derive_seed(cfg.master_seed, f"{seed_idx}/init/{inst.model_id}"),
                    ),
                    _features([grams[r.path] for r in train_rows], inst.circuit),
                    labels["train"],
                    _features([grams[r.path] for r in val_rows], inst.circuit),
                    labels["val"],
                    cfg.train_config(
                        derive_seed(cfg.master_seed, f"{seed_idx}/train/{inst.model_id}")
                    ),
                )
            except nnmod.TrainingDiverged as exc:
                result.record_failure(f"train/{seed_idx}/{inst.model_id}", exc)
                continue
            write_csv(
                out_dir / f"history_{inst.model_id}_seed{seed_idx}.csv",
                ["epoch", "train_loss", "val_loss", "val_acc"],
                [
                    [h["epoch"], h["train_loss"], h["val_loss"], h["val_acc"]]
                    for h in train_result.history
                ],
            )
            params = train_result.params
            nnmod.save_checkpoint(ckpt_path, inst.kind, manifest.n_classes, params)
        trained.append((inst, params))

    for kind, sev in cells:
        kind_name = "clean" if kind is None else kind.value
        cell = f"{kind_name}/{sev}"
        try:
            test_grams = [
                grams[r.path] if kind is None else corrupted_gram(
                    r.path,
                    corruption_spec(cfg.master_seed, seed_idx, kind, sev, test_hashes[r.path]),
                )
                for r in test_rows
            ]
        except Exception as exc:  # no test set for this cell; keep sweeping
            log.exception("cell failed: seed=%d cell=%s", seed_idx, cell)
            for inst, _ in trained:
                result.record_failure(f"eval/{seed_idx}/{inst.model_id}/{cell}", exc)
            continue
        for inst, params in trained:
            try:
                net = nets[inst.kind]
                net.set_params(params)
                _, acc, preds = nnmod.evaluate(
                    net, _features(test_grams, inst.circuit), labels["test"]
                )
            except Exception as exc:  # cell failure; keep sweeping
                log.exception("cell failed: seed=%d model=%s cell=%s",
                              seed_idx, inst.model_id, cell)
                result.record_failure(f"eval/{seed_idx}/{inst.model_id}/{cell}", exc)
                continue
            result.accuracy_rows.append(
                [seed_idx, inst.model_id, inst.template, inst.depth, kind_name, sev, acc]
            )
            counts = metricsmod.confusion(preds, labels["test"], manifest.n_classes).tolist()
            result.confusion_rows += [
                [seed_idx, inst.model_id, kind_name, sev, true, pred, counts[i][j]]
                for i, true in enumerate(manifest.labels)
                for j, pred in enumerate(manifest.labels)
            ]
    return result


class SeedFailed(RuntimeError):
    """A seed that ran in a child process aborted the sweep."""


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# numpy's BLAS reads these when it is imported; one thread per child keeps
# each child on one core (results do not depend on the thread count)
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc keeps this much freed memory at the top of the heap instead of
# returning it to the kernel, so a training step reuses the pages of the
# step before it rather than faulting in zeroed ones; other libcs ignore it.
# The caller's own process keeps its allocator as it is.
_KEEP_FREED_HEAP = {"MALLOC_TOP_PAD_": str(64 << 20)}


def _child_env() -> dict[str, str]:
    """The environment of a seed child: this process's, with one BLAS
    thread, the heap kept, and this package first on the import path."""
    package_parent = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ, **_ONE_BLAS_THREAD, **_KEEP_FREED_HEAP)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return env


def _run_seeds_in_children(
    cfg: ExperimentConfig, workers: int, reuse_checkpoints: bool
) -> list[SweepResult]:
    """Run every seed of ``cfg`` in a child interpreter (``_seedchild``),
    ``workers`` at a time, and return their results in seed order.

    Each child writes its seed's checkpoints and histories itself and
    sends its rows and failures back as one JSON document on its standard
    output; its standard error is this process's. Every child is reaped
    before this returns or raises: on a failed seed, an interrupt or any
    other error, the children still running are killed first."""
    # here, not at the top: every CLI call imports this module
    import selectors
    import subprocess

    env = _child_env()
    job = {"config": asdict(cfg), "log_level": log.getEffectiveLevel(),
           "reuse_checkpoints": reuse_checkpoints}
    pending = list(range(cfg.n_seeds))
    running: dict[int, tuple[int, subprocess.Popen, list[bytes]]] = {}  # by stdout fd
    results: dict[int, SweepResult] = {}
    with selectors.DefaultSelector() as selector:
        try:
            while pending or running:
                while pending and len(running) < workers:
                    seed_idx = pending.pop(0)
                    proc = subprocess.Popen(
                        [sys.executable, "-m", "quanvaudio._seedchild",
                         json.dumps({**job, "seed_idx": seed_idx})],
                        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
                    )
                    running[proc.stdout.fileno()] = (seed_idx, proc, [])
                    selector.register(proc.stdout, selectors.EVENT_READ)
                for key, _ in selector.select():
                    seed_idx, proc, chunks = running[key.fd]
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        chunks.append(chunk)
                        continue
                    selector.unregister(key.fileobj)
                    del running[key.fd]
                    proc.stdout.close()
                    proc.wait()
                    results[seed_idx] = _child_result(cfg, seed_idx, proc.returncode,
                                                      b"".join(chunks))
        finally:
            for _, proc, _ in running.values():
                proc.kill()
            for _, proc, _ in running.values():
                proc.wait()
                proc.stdout.close()
    return [results[seed_idx] for seed_idx in range(cfg.n_seeds)]


def _child_result(cfg: ExperimentConfig, seed_idx: int, returncode: int,
                  output: bytes) -> SweepResult:
    if returncode == 0:
        doc = json.loads(output)
        return SweepResult(Path(cfg.output_dir), doc["accuracy_rows"], doc["confusion_rows"],
                           [tuple(f) for f in doc["failures"]])
    try:
        reason = "{}: {}".format(*json.loads(output)["error"])
    except (ValueError, KeyError, TypeError):  # it died before it could report
        reason = f"child exited with code {returncode} and no result"
    raise SeedFailed(f"seed {seed_idx}: {reason}")


def write_reports(
    out_dir: Path,
    grids: dict[tuple[int, str], metricsmod.AccuracyGrid],
    model_ids: list[str],
    n_seeds: int,
) -> list[str]:
    """Write the per-seed CE/RCE reports against the baseline and their
    seed-aggregated summary, both computed by ``metrics``; ``_fmt`` renders
    an undefined (None) cell. Rows follow sorted model ids, whatever order
    ``model_ids`` has. Returns one problem line per seed or (seed, model)
    that got no report, or one saying there is no seed to report."""
    reports: list[tuple[int, str, dict[str, float | None]]] = []
    problems: list[str] = [] if n_seeds else ["no seed has an accuracy row; no report"]
    for seed_idx in range(n_seeds):
        base = grids.get((seed_idx, BASELINE_MODEL))
        if base is None:
            problems.append(f"seed {seed_idx}: baseline grid incomplete; no report")
            continue
        for model_id in sorted(model_ids):
            grid = grids.get((seed_idx, model_id))
            if grid is None:
                problems.append(f"seed {seed_idx}: {model_id} grid incomplete")
                continue
            reports.append((seed_idx, model_id, metricsmod.robustness_report(grid, base)))
    write_csv(
        out_dir / "report_per_seed.csv",
        ["seed", "model", "kind", "CE", "RCE"],
        [[seed_idx, model_id, k.value, r[f"ce/{k.value}"], r[f"rce/{k.value}"]]
         for seed_idx, model_id, r in reports for k in CorruptionKind],
    )

    summary_rows = [(k.value, f"ce/{k.value}", f"rce/{k.value}") for k in CorruptionKind]
    summary_rows.append(("mCE/RmCE", "mce", "rmce"))
    agg_rows: list[list] = []
    for model_id in sorted({m for _, m, _ in reports}):
        agg = metricsmod.aggregate_seeds([r for _, m, r in reports if m == model_id])
        for label, ce_key, rce_key in summary_rows:
            agg_rows.append([model_id, label, *(agg[ce_key] or (None, None)),
                             *(agg[rce_key] or (None, None))])
    write_csv(
        out_dir / "report.csv",
        ["model", "kind", "CE_mean", "CE_std", "RCE_mean", "RCE_std"],
        agg_rows,
    )
    if problems:
        write_csv(out_dir / "report_problems.csv", ["problem"], [[p] for p in problems])
    else:  # an earlier report's problems no longer hold
        (out_dir / "report_problems.csv").unlink(missing_ok=True)
    return problems


def grids_from_accuracy_csv(path: str | Path) -> dict[tuple[int, str], metricsmod.AccuracyGrid]:
    """Per-(seed, model) accuracy grids of an accuracy.csv; a (seed, model)
    that lacks its clean row or any kind x severity cell gets no grid.
    Besides what ``read_table`` refuses, an accuracy outside [0, 1], an
    unknown kind, a clean row whose severity is not 0, a corrupted one
    whose severity lies outside 1..6, or a second row for one (seed, model,
    kind, severity) is a ValueError naming the file and line."""
    # (seed, model) -> (kind, severity) -> accuracy; the clean row is (None, 0)
    cells: dict[tuple[int, str], dict] = defaultdict(dict)
    severities = range(1, corruptmod.N_SEVERITIES + 1)

    def add(row: list) -> None:
        seed, model, _, _, kind_name, sev, value = row
        kind = None if kind_name == "clean" else CorruptionKind(kind_name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"accuracy {value} outside [0, 1]")
        if kind is None and sev != 0:
            raise ValueError(f"clean row with severity {sev}, not 0")
        if kind is not None and sev not in severities:
            raise ValueError(f"severity {sev} outside 1..{corruptmod.N_SEVERITIES}")
        if (kind, sev) in cells[seed, model]:
            raise ValueError(f"a second {kind_name} severity {sev} row "
                             f"for seed {seed}, model {model}")
        cells[seed, model][kind, sev] = value

    read_table(path, ACCURACY_HEADER, add)
    return {  # every cell is checked and distinct, so a full count is a full grid
        key: metricsmod.AccuracyGrid(
            key[1], got[None, 0], {k: tuple(got[k, s] for s in severities) for k in CorruptionKind}
        )
        for key, got in cells.items() if len(got) == 1 + len(CorruptionKind) * len(severities)
    }


def report_accuracy_csv(accuracy_csv: str | Path, out_dir: Path, scored=()) -> list[str]:
    """``write_reports`` of the accuracy.csv at ``accuracy_csv`` for every
    model, and every seed up to the largest, that has a row in it or is in
    ``scored``: the (seed, model) pairs a sweep ran, rows or not. The sweep
    and ``quanvaudio report`` both report through here."""
    pairs = {(r[0], r[1]) for r in read_table(accuracy_csv, ACCURACY_HEADER)} | set(scored)
    return write_reports(out_dir, grids_from_accuracy_csv(accuracy_csv),
                         sorted({model for _, model in pairs}),
                         1 + max((seed for seed, _ in pairs), default=-1))
