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
from dataclasses import MISSING, asdict, dataclass, fields, replace
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
    constrained so global split sizes hit round(ratio * N), with every class
    in every split. Refuses what cannot be split so: a class of fewer than
    3 clips, or a split whose global size is less than the number of classes."""
    for lab, n in class_sizes.items():
        if n < 3:
            raise ValueError(
                f"class {lab!r} has only {n} samples; cannot fill all three splits"
            )
    total = sum(class_sizes.values())
    targets = [int(np.floor(r * total)) for r in ratios]
    fracs = sorted(
        range(3), key=lambda s: (ratios[s] * total - targets[s], -s), reverse=True
    )
    for s in fracs[: total - sum(targets)]:
        targets[s] += 1
    for name, target in zip(("train", "val", "test"), targets):
        if target < len(class_sizes):
            raise ValueError(
                f"the {name} split's size is {target}, fewer than the "
                f"{len(class_sizes)} classes; cannot fill it with every class"
            )

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
    while any(left.values()):  # one pass can leave a class's clip with no split
        for _, lab, s in remainders:
            if left[lab] > 0 and deficit[s] > 0:
                base[lab][s] += 1
                left[lab] -= 1
                deficit[s] -= 1
    # A class left out of split s has >= 2 clips in the split t where it has
    # the most, and s then holds >= 2 clips of another class: swap one of each.
    for lab, vals in base.items():
        for s in range(3):
            if vals[s] == 0:
                t = vals.index(max(vals))
                other = max(base, key=lambda o: base[o][s])
                vals[t] -= 1
                vals[s] += 1
                base[other][s] -= 1
                base[other][t] += 1
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
FAILURES_HEADER = ["seed", "model", "kind", "severity", "error", "message"]
_TABLES = {"accuracy.csv": ACCURACY_HEADER, "confusion.csv": CONFUSION_HEADER,
           "failures.csv": FAILURES_HEADER}
_REPORTS = ("report.csv", "report_per_seed.csv", "report_problems.csv")
_COLUMN_TYPES = {"seed": int, "depth": int, "severity": int, "count": int, "accuracy": float}
# the columns that name a row's cell, which a table holds one row of
_CELL_COLUMNS = ("seed", "model", "kind", "severity", "true", "pred")


def read_table(path: str | Path, header: list[str]) -> list[list]:
    """The rows of a table this package writes as ``header``, each value
    typed so that it renders through ``_fmt`` to the text it was read from.
    Any other header is a ValueError naming the file (and the missing
    columns); so is, with the line, a row whose fields do not match it one
    for one, a value that does not parse (and its column), or a row that
    breaks a rule of the sweep's tables: a clean row has severity 0, any
    other a known kind and a severity in 1..6; an accuracy lies in [0, 1]; a
    count is not negative; and no two rows share a cell, (seed, model, kind,
    severity) and in ``confusion.csv`` (true, pred). A ``failures.csv`` row
    follows the same rules, so an old one keyed by a ``cell`` column is
    refused by its header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])
        missing = [c for c in header if c not in found]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column in its header")
        if found != header:
            raise ValueError(f"{path}: its header is not {','.join(header)}")
        rows, cells = [], set()
        try:
            for rec in reader:  # a blank line is a row of no fields
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} fields, not the header's {len(header)}")
                row = {}
                for column, text in zip(header, rec):
                    try:
                        row[column] = _COLUMN_TYPES.get(column, str)(text)
                    except ValueError as exc:
                        raise ValueError(f"column {column}: {exc}") from None
                rows.append(list(row.values()))
                kind, sev = row["kind"], row["severity"]
                if kind != "clean":
                    CorruptionKind(kind)  # an unknown kind is a ValueError
                if kind == "clean" and sev != 0:
                    raise ValueError(f"clean row with severity {sev}, not 0")
                if kind != "clean" and not 1 <= sev <= corruptmod.N_SEVERITIES:
                    raise ValueError(f"severity {sev} outside 1..{corruptmod.N_SEVERITIES}")
                if not 0.0 <= row.get("accuracy", 0.0) <= 1.0:
                    raise ValueError(f"accuracy {row['accuracy']} outside [0, 1]")
                if row.get("count", 0) < 0:
                    raise ValueError(f"count {row['count']} below 0")
                cell = tuple(row[c] for c in _CELL_COLUMNS if c in row)
                if cell in cells:
                    pair = "".join(f", {c} {row[c]}" for c in ("true", "pred") if c in row)
                    raise ValueError(f"a second {kind} severity {sev} row "
                                     f"for seed {row['seed']}, model {row['model']}{pair}")
                cells.add(cell)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    return rows


@dataclass
class SweepResult:
    out_dir: Path
    failures: list[list]  # this run's FAILURES_HEADER rows, one per cell it could not score


# The fields a run into an output directory may change from the config.yaml
# an earlier run left there: those that narrow a run or only place its files.
_MERGEABLE_FIELDS = {"output_dir", "cache_dir", "models", "depths", "corruptions",
                     "severities", "n_seeds"}


def _check_same_config(cfg: ExperimentConfig, path: Path) -> None:
    """A ValueError naming the first field, outside ``_MERGEABLE_FIELDS``,
    in which ``cfg`` differs from the config.yaml at ``path``."""
    earlier = ExperimentConfig.from_yaml(path)
    for f in fields(ExperimentConfig):
        ours, theirs = getattr(cfg, f.name), getattr(earlier, f.name)
        if f.name not in _MERGEABLE_FIELDS and ours != theirs:
            raise ValueError(f"{path} has {f.name} {theirs!r}, not this run's {ours!r}; "
                             "a run merges only into tables of the same config")


def run_experiment(
    cfg: ExperimentConfig, *, reuse_checkpoints: bool = False, jobs: int | None = None
) -> SweepResult:
    """Full sweep over seeds x models x test cells, cell-major. The cells
    are the clean test set, then every ``cfg.corruptions`` x
    ``cfg.severities``.

    Each seed runs through ``_run_seed``, which writes the seed's
    checkpoints and histories and returns its rows. Seeds are independent,
    so when more than one would run at once -- ``jobs`` of them (by default
    the usable cores), never more than ``cfg.n_seeds`` -- each seed runs
    in a child interpreter on one BLAS thread that keeps its freed heap
    (``_child_env``), and a seed that aborts raises ``SeedFailed``.
    ``jobs=1``, one seed or one core run the seeds in this process one
    after the other. Either way this process then merges the seeds' rows
    into each table of ``_TABLES`` (``failures.csv`` is removed when no
    failure is left). Each keeps what earlier runs into ``cfg.output_dir``
    wrote for the (seed, model) pairs this run does not score, read and
    checked by ``read_table`` before any seed starts, and replaces the
    rest; so per-model runs into one directory, each matching its
    ``config.yaml`` in every field but ``_MERGEABLE_FIELDS``, add up to the
    run of the whole config. The reports are what ``quanvaudio report`` makes of the
    merged ``accuracy.csv``, and are removed when it has no corrupted row.
    A cell that cannot be scored is a failure row and the sweep goes on;
    the result's ``failures`` are this run's. With ``reuse_checkpoints`` an
    existing checkpoint file is loaded instead of retraining.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cfg.cache_dir is not None:
        log.warning("cache_dir %r is ignored: grams are computed in memory", cfg.cache_dir)
    out_dir = Path(cfg.output_dir)
    instances = cfg.instances()
    scored = {(seed_idx, inst.model_id) for seed_idx in range(cfg.n_seeds) for inst in instances}
    if (out_dir / "config.yaml").exists():
        _check_same_config(cfg, out_dir / "config.yaml")
    earlier = {  # read and checked by read_table before anything is written or trained
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

    new = {name: [row for seed in seeds for row in seed[name]] for name in _TABLES}
    merged = {}
    for name, header in _TABLES.items():  # rows sorted by every column but the value
        merged[name] = sorted(new[name] + earlier[name], key=lambda r: r[:-1])
        if name == "failures.csv" and not merged[name]:  # no failure is left
            (out_dir / name).unlink(missing_ok=True)
        else:
            write_csv(out_dir / name, header, merged[name])
    if any(r[4] != "clean" for r in merged["accuracy.csv"]):
        report_accuracy_csv(out_dir / "accuracy.csv", out_dir)
    else:  # no corrupted cell, so no report
        for name in _REPORTS:
            (out_dir / name).unlink(missing_ok=True)
    if new["failures.csv"]:
        log.warning("sweep finished with %d failed cells", len(new["failures.csv"]))
    return SweepResult(out_dir, new["failures.csv"])


def _failure(seed_idx: int, model_id: str, kind: str, severity: int, exc: Exception) -> list:
    """The ``failures.csv`` row of a cell that ``exc`` kept from being scored."""
    return [seed_idx, model_id, kind, severity, type(exc).__name__, str(exc)]


def _run_seed(
    cfg: ExperimentConfig, seed_idx: int, manifest: DatasetManifest, reuse_checkpoints: bool
) -> dict[str, list[list]]:
    """One seed of ``run_experiment``: split, build the clean grams, then
    build each model's network once and train it in place on its clean
    train/val features (each model's features are dropped once it is
    trained), or load its checkpoint into it. Then, for each test cell --
    the clean test set first, then every (kind, severity) -- build the
    cell's test grams once and score each model through its network, so
    each corrupted test file is corrupted and log-Mel'd once per seed,
    whatever the number of models. Writes the seed's checkpoints and
    histories, and returns its rows of each table by name: a failure row
    for each cell of a (seed, model) it could not score, and for each
    other an accuracy row and a confusion count per pair of labels."""
    out_dir = Path(cfg.output_dir)
    instances = cfg.instances()
    cells = [("clean", 0)] + [(kind, sev) for kind in cfg.corruptions for sev in cfg.severities]
    tables: dict[str, list[list]] = {name: [] for name in _TABLES}

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

    trained: list[tuple[ModelInstance, nnmod.Network]] = []
    for inst in instances:
        net = nnmod.build_model(
            inst.kind, manifest.n_classes,
            derive_seed(cfg.master_seed, f"{seed_idx}/init/{inst.model_id}"),
        )
        ckpt_path = out_dir / f"checkpoint_{inst.model_id}_seed{seed_idx}.bin"
        if reuse_checkpoints and ckpt_path.exists():
            arch, n_classes, params = nnmod.load_checkpoint(ckpt_path)
            if (arch, n_classes) != (inst.kind, manifest.n_classes):
                raise ValueError(
                    f"{ckpt_path}: expected a {inst.kind} checkpoint for "
                    f"{manifest.n_classes} classes, found {arch} for {n_classes}"
                )
            net.set_params(params)
        else:
            try:
                train_result = nnmod.train(
                    net,
                    _features([grams[r.path] for r in train_rows], inst.circuit),
                    labels["train"],
                    _features([grams[r.path] for r in val_rows], inst.circuit),
                    labels["val"],
                    cfg.train_config(
                        derive_seed(cfg.master_seed, f"{seed_idx}/train/{inst.model_id}")
                    ),
                )
            except nnmod.TrainingDiverged as exc:
                tables["failures.csv"] += [_failure(seed_idx, inst.model_id, kind, sev, exc)
                                           for kind, sev in cells]
                continue
            write_csv(
                out_dir / f"history_{inst.model_id}_seed{seed_idx}.csv",
                ["epoch", "train_loss", "val_loss", "val_acc"],
                [
                    [h["epoch"], h["train_loss"], h["val_loss"], h["val_acc"]]
                    for h in train_result.history
                ],
            )
            nnmod.save_checkpoint(ckpt_path, inst.kind, manifest.n_classes,
                                  dict(net.parameters()))
        trained.append((inst, net))

    for kind, sev in cells:
        cell = f"{kind}/{sev}"
        try:
            test_grams = [
                grams[r.path] if kind == "clean" else corrupted_gram(
                    r.path, corruption_spec(cfg.master_seed, seed_idx, CorruptionKind(kind), sev,
                                            test_hashes[r.path]),
                )
                for r in test_rows
            ]
        except Exception as exc:  # no test set for this cell; keep sweeping
            log.exception("cell failed: seed=%d cell=%s", seed_idx, cell)
            tables["failures.csv"] += [_failure(seed_idx, inst.model_id, kind, sev, exc)
                                       for inst, _ in trained]
            continue
        for inst, net in trained:
            try:
                _, _, preds = nnmod.evaluate(
                    net, _features(test_grams, inst.circuit), labels["test"]
                )
            except Exception as exc:  # cell failure; keep sweeping
                log.exception("cell failed: seed=%d model=%s cell=%s",
                              seed_idx, inst.model_id, cell)
                tables["failures.csv"].append(_failure(seed_idx, inst.model_id, kind, sev, exc))
                continue
            counts = metricsmod.confusion(preds, labels["test"], manifest.n_classes).tolist()
            # the accuracy is the count's trace over n, so the two tables cannot disagree
            hits = sum(counts[i][i] for i in range(manifest.n_classes))
            tables["accuracy.csv"].append(
                [seed_idx, inst.model_id, inst.template, inst.depth, kind, sev, hits / len(preds)]
            )
            tables["confusion.csv"] += [
                [seed_idx, inst.model_id, kind, sev, true, pred, counts[i][j]]
                for i, true in enumerate(manifest.labels)
                for j, pred in enumerate(manifest.labels)
            ]
    return tables


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
) -> list[dict[str, list[list]]]:
    """Run every seed of ``cfg`` in a child interpreter (``_seedchild``),
    ``workers`` at a time, and return their ``_run_seed`` tables in seed
    order.

    Each child writes its seed's checkpoints and histories itself and
    sends its rows of each table back as one JSON document on its standard
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
    results: dict[int, dict[str, list[list]]] = {}
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
                    results[seed_idx] = _child_result(seed_idx, proc.returncode,
                                                      b"".join(chunks))
        finally:
            for _, proc, _ in running.values():
                proc.kill()
            for _, proc, _ in running.values():
                proc.wait()
                proc.stdout.close()
    return [results[seed_idx] for seed_idx in range(cfg.n_seeds)]


def _child_result(seed_idx: int, returncode: int, output: bytes) -> dict[str, list[list]]:
    """The tables a seed child sent, or its error raised as ``SeedFailed``."""
    if returncode == 0:
        return json.loads(output)
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
    write_csv(out_dir / "report_per_seed.csv", ["seed", "model", "kind", "CE", "RCE"],
              [[seed_idx, model_id, k.value, r[f"ce/{k.value}"], r[f"rce/{k.value}"]]
               for seed_idx, model_id, r in reports for k in CorruptionKind])
    summary_rows = [(k.value, f"ce/{k.value}", f"rce/{k.value}") for k in CorruptionKind]
    summary_rows.append(("mCE/RmCE", "mce", "rmce"))
    agg_rows: list[list] = []
    for model_id in sorted({m for _, m, _ in reports}):
        agg = metricsmod.aggregate_seeds([r for _, m, r in reports if m == model_id])
        for label, ce_key, rce_key in summary_rows:
            agg_rows.append([model_id, label, *(agg[ce_key] or (None, None)),
                             *(agg[rce_key] or (None, None))])
    write_csv(out_dir / "report.csv",
              ["model", "kind", "CE_mean", "CE_std", "RCE_mean", "RCE_std"], agg_rows)
    if problems:
        write_csv(out_dir / "report_problems.csv", ["problem"], [[p] for p in problems])
    else:  # an earlier report's problems no longer hold
        (out_dir / "report_problems.csv").unlink(missing_ok=True)
    return problems


def _grids(rows: list[list]) -> dict[tuple[int, str], metricsmod.AccuracyGrid]:
    """Per-(seed, model) accuracy grids of ``read_table``'s accuracy rows; a
    (seed, model) missing its clean row or any kind x severity cell gets none."""
    cells: dict[tuple[int, str], dict[tuple[str, int], float]] = defaultdict(dict)
    for seed, model, _, _, kind, sev, value in rows:
        cells[seed, model][kind, sev] = value
    severities = range(1, corruptmod.N_SEVERITIES + 1)
    return {  # every cell is checked and distinct, so a full count is a full grid
        key: metricsmod.AccuracyGrid(key[1], got["clean", 0], {
            k: tuple(got[k.value, s] for s in severities) for k in CorruptionKind})
        for key, got in cells.items() if len(got) == 1 + len(CorruptionKind) * len(severities)
    }


def grids_from_accuracy_csv(path: str | Path) -> dict[tuple[int, str], metricsmod.AccuracyGrid]:
    """The ``_grids`` of the accuracy.csv at ``path``, read by ``read_table``."""
    return _grids(read_table(path, ACCURACY_HEADER))


def report_accuracy_csv(accuracy_csv: str | Path, out_dir: Path) -> list[str]:
    """``write_reports`` of the accuracy.csv at ``accuracy_csv`` for every
    model, and every seed up to the largest, that has a row in it, into
    ``out_dir``, made once the table has been read. The sweep and
    ``quanvaudio report`` both report through here."""
    rows = read_table(accuracy_csv, ACCURACY_HEADER)
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_reports(out_dir, _grids(rows), sorted({r[1] for r in rows}),
                         1 + max((r[0] for r in rows), default=-1))
