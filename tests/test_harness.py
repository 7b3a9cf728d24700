"""Experiment harness: manifests, stratified splits, seed derivation,
config round-trips, and a miniature sweep."""

import csv
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quanvaudio import harness, nn
from quanvaudio.corrupt import CorruptionKind
from quanvaudio.harness import (
    DatasetManifest,
    ExperimentConfig,
    ManifestError,
    ManifestRow,
    derive_seed,
    grids_from_accuracy_csv,
    load_manifest,
    run_experiment,
    split,
    write_reports,
)


def _manifest(counts: dict[str, int]) -> DatasetManifest:
    rows = []
    for label, n in counts.items():
        rows += [ManifestRow(f"/data/{label}/{i}.wav", label) for i in range(n)]
    m = DatasetManifest.__new__(DatasetManifest)
    object.__setattr__(m, "rows", tuple(rows))
    m.__post_init__()
    return m


# ---------------------------------------------------------------------------
# Splits


def test_split_100_balanced_is_65_15_20():
    train, val, test = split(_manifest({"a": 50, "b": 50}), seed=0)
    assert (len(train), len(val), len(test)) == (65, 15, 20)


def test_split_disjoint_and_exhaustive():
    m = _manifest({"a": 23, "b": 31, "c": 17})
    train, val, test = split(m, seed=1)
    parts = [{r.path for r in part} for part in (train, val, test)]
    assert sum(len(p) for p in parts) == len(m.rows)
    assert parts[0] | parts[1] | parts[2] == {r.path for r in m.rows}
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])


def test_split_stratified_every_class_everywhere():
    m = _manifest({"a": 10, "b": 40, "c": 25})
    for part in split(m, seed=2):
        assert {r.label for r in part} == {"a", "b", "c"}


def _largest_remainder(n: int, ratios) -> list[int]:
    """Floor of each ratio * n, then one more for the largest fractional
    parts (the earlier split on a tie) until the sizes sum to n."""
    exact = [r * n for r in ratios]
    sizes = [math.floor(e) for e in exact]
    by_remainder = sorted(range(len(ratios)), key=lambda s: (sizes[s] - exact[s], s))
    for s in by_remainder[: n - sum(sizes)]:
        sizes[s] += 1
    return sizes


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=2, max_size=5),
       seed=st.integers(min_value=0))
@example(sizes=[4, 10], seed=0)
@example(sizes=[3, 10], seed=0)
@example(sizes=[3, 3], seed=0)
def test_split_fills_every_split_with_every_class_or_names_the_class(sizes, seed):
    """Three disjoint splits covering the manifest, each holding every class,
    whose sizes are the ratios' largest-remainder rounding -- exactly when
    every class has at least 3 clips and every split's size is at least the
    number of classes. Otherwise a ValueError naming a class of fewer than 3
    clips, or a split with its size and the class count."""
    counts = {f"c{i}": n for i, n in enumerate(sizes)}
    targets = _largest_remainder(sum(sizes), harness.DEFAULT_RATIOS)
    splittable = min(sizes) >= 3 and min(targets) >= len(sizes)
    m = _manifest(counts)
    try:
        parts = split(m, seed=seed)
    except ValueError as exc:
        assert not splittable, str(exc)
        named = re.fullmatch(r"class '(c\d)' has only (\d+) samples; "
                             r"cannot fill all three splits", str(exc))
        if named:
            assert counts.get(named[1]) == int(named[2]) < 3, str(exc)
            return
        named = re.fullmatch(r"the (train|val|test) split's size is (\d+), fewer than the "
                             r"(\d+) classes; cannot fill it with every class", str(exc))
        assert named, str(exc)
        size = targets[("train", "val", "test").index(named[1])]
        assert size == int(named[2]) < int(named[3]) == len(sizes), str(exc)
        return
    assert splittable
    paths = [[r.path for r in part] for part in parts]
    assert sorted(sum(paths, [])) == sorted(r.path for r in m.rows)  # disjoint and exhaustive
    for part in parts:
        assert {r.label for r in part} == set(counts)
    assert [len(part) for part in parts] == targets


def test_apportion_splits_repairs_empty_cells_and_keeps_fillable_allocations():
    """A class the largest-remainder pass leaves out of a split gets one clip
    swapped in; a manifest that pass already fills keeps its allocation."""
    apportion = lambda sizes: harness._apportion_splits(sizes, harness.DEFAULT_RATIOS)
    assert apportion({"a": 4, "b": 10}) == {"a": (2, 1, 1), "b": (7, 1, 2)}
    assert apportion({"a": 3, "b": 10}) == {"a": (1, 1, 1), "b": (7, 1, 2)}
    assert apportion({"a": 44, "b": 44, "c": 44}) == {
        "a": (29, 6, 9), "b": (29, 6, 9), "c": (28, 8, 8)}
    assert apportion({"a": 10, "b": 40, "c": 25}) == {
        "a": (7, 1, 2), "b": (26, 6, 8), "c": (16, 4, 5)}


def test_split_seed_determinism():
    m = _manifest({"a": 30, "b": 30})
    assert split(m, seed=3) == split(m, seed=3)
    assert split(m, seed=3) != split(m, seed=4)


def test_split_small_class_rejected():
    with pytest.raises(ValueError, match="'b'"):
        split(_manifest({"a": 30, "b": 2}), seed=0)


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        split(_manifest({"a": 10, "b": 10}), ratios=(0.5, 0.2, 0.2), seed=0)


# ---------------------------------------------------------------------------
# Seeds


def test_derive_seed_deterministic_and_tag_sensitive():
    assert derive_seed(0, "x") == derive_seed(0, "x")
    assert derive_seed(0, "x") != derive_seed(0, "y")
    assert derive_seed(0, "x") != derive_seed(1, "x")


# ---------------------------------------------------------------------------
# Manifests


def test_load_manifest_directory_layout(toy_root):
    manifest = load_manifest(toy_root)
    assert manifest.n_classes == 2
    assert all(r.path.endswith(".wav") for r in manifest.rows)
    assert all(manifest.label_index(r) == {"high": 0, "low": 1}[r.label] for r in manifest.rows)


def test_load_manifest_csv_override(toy_root, tmp_path):
    csv_path = tmp_path / "manifest.csv"
    wavs = sorted(toy_root.rglob("*.wav"))[:6]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "group"])
        for i, wav in enumerate(wavs):
            writer.writerow([str(wav), "x" if i % 2 else "y", f"g{i}"])
    manifest = load_manifest(toy_root, csv_path)
    assert len(manifest.rows) == 6
    assert manifest.rows[0].group == "g0"


def test_load_manifest_missing_file(toy_root, tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("path,label\n/nonexistent/a.wav,x\n/nonexistent/b.wav,y\n")
    with pytest.raises(ManifestError, match="missing"):
        load_manifest(toy_root, csv_path)


@pytest.mark.parametrize("header, missing", [("file,label", "path"), ("path,class", "label"),
                                             ("file,class", "path or label")])
def test_load_manifest_names_missing_columns(toy_root, tmp_path, header, missing):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(f"{header}\n{next(toy_root.rglob('*.wav'))},low\n")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(csv_path))}: no {missing} column"):
        load_manifest(toy_root, csv_path)


def test_manifest_needs_two_classes(toy_root, tmp_path):
    (tmp_path / "only").mkdir()
    shutil.copy(next(toy_root.rglob("*.wav")), tmp_path / "only" / "a.wav")
    with pytest.raises(ManifestError):
        load_manifest(tmp_path)


def test_manifest_empty_directory(tmp_path):
    with pytest.raises(ManifestError, match="no audio"):
        load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Config


def test_config_yaml_round_trip(tmp_path):
    cfg = ExperimentConfig(
        data_root="/data",
        output_dir="/out",
        models=("cnn_base", "qnn_random"),
        depths=(1, 4),
        severities=(1, 2, 3),
        n_seeds=2,
    )
    path = tmp_path / "cfg.yaml"
    cfg.to_yaml(path)
    assert ExperimentConfig.from_yaml(path) == cfg
    doc = yaml.safe_load(path.read_text())
    assert doc["models"] == ["cnn_base", "qnn_random"]


@pytest.mark.parametrize("text, problem", [
    ("", "config must be a mapping of field names, got NoneType"),
    ("- data_root\n", "config must be a mapping of field names, got list"),
    ("data_root: /d\noutput_dir: /o\nseeds: 3\nepochs: 2\n",
     "unknown config keys ['epochs', 'seeds']"),
    ("output_dir: /o\n", "missing config key 'data_root'"),
    ("data_root: /d\noutput_dir: /o\nmodels: 5\n", "models must be tuple[str, ...], got 5"),
    ('data_root: /d\noutput_dir: /o\nn_seeds: "3"\n', "n_seeds must be int, got '3'"),
], ids=["empty", "list", "unknown_keys", "missing_key", "models_not_list", "n_seeds_str"])
def test_bad_config_file_names_itself_and_the_problem(tmp_path, text, problem):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {problem}')}"):
        ExperimentConfig.from_yaml(path)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(data_root="/d", output_dir="/o", models=("resnet",))
    with pytest.raises(ValueError):
        ExperimentConfig(data_root="/d", output_dir="/o", n_seeds=0)
    with pytest.raises(ValueError):
        ExperimentConfig(data_root="/d", output_dir="/o", corruptions=("blur",))
    # rejected at construction, not after the first seed is featurized
    with pytest.raises(ValueError, match="patience"):
        ExperimentConfig(data_root="/d", output_dir="/o", max_epochs=1, patience=1)
    # 0 would run a second clean cell; 7 and -1 would fail every eval cell
    for severities in ((7,), (0,), (-1,), (1, 7)):
        with pytest.raises(ValueError, match="severities"):
            ExperimentConfig(data_root="/d", output_dir="/o", severities=severities)
    # a repeated entry would train or score the same cell twice and write
    # every accuracy.csv row of it twice
    for name, values, repeated in (
        ("models", ("cnn_base", "cnn_base"), "['cnn_base']"),
        ("depths", (1, 4, 1), "[1]"),
        ("corruptions", ("pitch_shift", "gaussian_noise", "pitch_shift"), "['pitch_shift']"),
        ("severities", (2, 2), "[2]"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{name} lists {repeated}")):
            ExperimentConfig(data_root="/d", output_dir="/o", **{name: values})
    # an empty list would train no model, or no model of the listed quantum kinds
    with pytest.raises(ValueError, match="^models lists no model$"):
        ExperimentConfig(data_root="/d", output_dir="/o", models=())
    with pytest.raises(ValueError, match=re.escape("depths lists no depth for ['qnn_basic']")):
        ExperimentConfig(data_root="/d", output_dir="/o", models=("cnn_base", "qnn_basic"),
                         depths=())
    # ratios outside (0, 1) would fail later as a class "with only N samples"
    for ratios in ((1.2, -0.1, -0.1), (0.8, 0.2, 0.0), (0.5, 0.3, 0.3), (0.5, 0.5)):
        with pytest.raises(ValueError, match=re.escape(f"split_ratios must be three numbers "
                                                       f"in (0, 1) summing to 1, got {ratios}")):
            ExperimentConfig(data_root="/d", output_dir="/o", split_ratios=ratios)


def test_model_instances_ids():
    cfg = ExperimentConfig(
        data_root="/d", output_dir="/o",
        models=("cnn_base", "qnn_basic", "qnn_strongly"), depths=(1, 4),
    )
    ids = [inst.model_id for inst in cfg.instances()]
    assert ids == ["cnn_base", "qnn_basic_d1", "qnn_basic_d4",
                   "qnn_strongly_d1", "qnn_strongly_d4"]


# ---------------------------------------------------------------------------
# Miniature sweep


@pytest.fixture(scope="module")
def mini_result(toy_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_out")
    cfg = ExperimentConfig(
        data_root=str(toy_root),
        output_dir=str(out),
        models=("cnn_base", "qnn_basic"),
        depths=(1,),
        corruptions=("gaussian_noise", "temporal_shift"),
        severities=(2,),
        n_seeds=1,
        lr=1e-3,
        max_epochs=4,
        patience=3,
        batch_size=8,
    )
    return cfg, run_experiment(cfg)


def test_mini_sweep_accuracy_rows(mini_result):
    cfg, result = mini_result
    assert not result.failures
    rows = harness.read_table(result.out_dir / "accuracy.csv", harness.ACCURACY_HEADER)
    # per model: 1 clean + 2 kinds x 1 severity
    assert len(rows) == 2 * (1 + 2)
    for seed, model, template, depth, kind, sev, acc in rows:
        assert model in ("cnn_base", "qnn_basic_d1")
        assert 0.0 <= acc <= 1.0


def test_mini_sweep_artifacts(mini_result):
    cfg, result = mini_result
    out = result.out_dir
    assert (out / "config.yaml").exists()
    assert (out / "circuit_qnn_basic_d1.json").exists()
    terms = json.loads((out / "circuit_qnn_basic_d1.terms.json").read_text())
    assert [len(channel) for channel in terms["channels"]] == [1, 1, 1, 1]
    assert (out / "checkpoint_cnn_base_seed0.bin").exists()
    assert (out / "history_qnn_basic_d1_seed0.csv").exists()
    with open(out / "confusion.csv", newline="") as fh:
        assert next(csv.reader(fh)) == harness.CONFUSION_HEADER
    assert not (out / "confusion").exists()
    # partial corruption coverage -> no complete grids -> problems recorded
    assert (out / "report_problems.csv").exists()


def test_mini_sweep_confusion_counts_match_accuracy(mini_result):
    """Every (seed, model, kind, severity) of accuracy.csv has one
    confusion.csv count per pair of the manifest's labels; the counts sum
    to the test-set size and their trace over it, as written, is the cell's
    accuracy as written."""
    cfg, result = mini_result
    manifest = load_manifest(cfg.data_root, cfg.manifest_csv)
    cells: dict[tuple, dict] = {}
    with open(result.out_dir / "confusion.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    for rec in records:
        key = (int(rec["seed"]), rec["model"], rec["kind"], int(rec["severity"]))
        cells.setdefault(key, {})[(rec["true"], rec["pred"])] = int(rec["count"])
    with open(result.out_dir / "accuracy.csv", newline="") as fh:
        accuracy = {
            (int(r["seed"]), r["model"], r["kind"], int(r["severity"])): r["accuracy"]
            for r in csv.DictReader(fh)
        }
    assert set(cells) == set(accuracy)
    pairs = {(t, p) for t in manifest.labels for p in manifest.labels}
    assert len(records) == len(cells) * len(pairs)  # no pair twice
    for (seed, model, kind, sev), counts in cells.items():
        _, _, test = split(manifest, cfg.split_ratios,
                           derive_seed(cfg.master_seed, f"{seed}/split"))
        assert set(counts) == pairs
        assert sum(counts.values()) == len(test)
        trace = sum(counts[(label, label)] for label in manifest.labels)
        assert repr(trace / len(test)) == accuracy[(seed, model, kind, sev)]


def test_rerun_reuses_checkpoints(mini_result, tmp_path):
    cfg, result = mini_result
    ckpt = result.out_dir / "checkpoint_qnn_basic_d1_seed0.bin"
    before = ckpt.read_bytes()
    rerun = run_experiment(cfg.only("qnn_basic_d1"), reuse_checkpoints=True)
    assert not rerun.failures
    assert ckpt.read_bytes() == before


def test_reused_checkpoint_must_match_model_and_classes(toy_root, tmp_path):
    cfg = _tiny_config(toy_root, tmp_path)
    ckpt = tmp_path / "checkpoint_cnn_base_seed0.bin"
    for arch, n_classes in (("cnn_base", 3), ("qnn_basic", 2)):
        nn.save_checkpoint(ckpt, arch, n_classes, nn.build_model(arch, n_classes, 0).get_params())
        with pytest.raises(ValueError) as info:
            run_experiment(cfg, reuse_checkpoints=True)
        message = str(info.value)
        assert str(ckpt) in message
        found = f"found {arch} for {n_classes}"
        assert f"expected a cnn_base checkpoint for 2 classes, {found}" in message


def _tiny_config(toy_root, out, **overrides):
    fields = dict(
        data_root=str(toy_root),
        output_dir=str(out),
        models=("cnn_base",),
        depths=(1,),
        corruptions=("gaussian_noise",),
        severities=(2,),
        n_seeds=1,
        lr=1e-3,
        max_epochs=2,
        patience=1,
        batch_size=8,
    )
    return ExperimentConfig(**(fields | overrides))


def test_train_test_leak_is_an_error(toy_root, tmp_path, monkeypatch):
    def leaky_split(manifest, ratios, seed):
        train, val, test = split(manifest, ratios, seed)
        return train, val, test + train[:2]

    monkeypatch.setattr(harness, "split", leaky_split)
    with pytest.raises(ValueError, match="test files also in train/val"):
        run_experiment(_tiny_config(toy_root, tmp_path))


def test_leak_check_survives_optimized_python(toy_root, tmp_path):
    script = f"""
from quanvaudio import harness
real_split = harness.split
def leaky_split(manifest, ratios, seed):
    train, val, test = real_split(manifest, ratios, seed)
    return train, val, test + val[:1]
harness.split = leaky_split
cfg = harness.ExperimentConfig(data_root={str(toy_root)!r}, output_dir={str(tmp_path)!r},
                               models=("cnn_base",), n_seeds=1)
try:
    harness.run_experiment(cfg)
except ValueError as exc:
    print("raised:", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ,
                          "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert "raised: seed 0: 1 test files also in train/val" in proc.stdout


def _diverge_quanv(patch):
    """Make every quanvolutional model's training diverge under ``patch``."""
    real_train = nn.train

    def diverge_quanv(model, train_x, *args):
        if train_x.shape[1] == 4:  # quanvolution features have 4 channels
            raise nn.TrainingDiverged("loss is nan")
        return real_train(model, train_x, *args)

    patch.setattr(harness.nnmod, "train", diverge_quanv)


def _lose_audio(patch, kind, severity):
    """Make corrupting a test file for cell (``kind``, ``severity``) raise
    under ``patch``."""
    real_file = harness.corrupt_file

    def no_audio(path, master_seed, seed_idx, file_kind, file_severity):
        if (file_kind.value, file_severity) == (kind, severity):
            raise FileNotFoundError(path)
        return real_file(path, master_seed, seed_idx, file_kind, file_severity)

    patch.setattr(harness, "corrupt_file", no_audio)


def test_failures_record_exception_type(toy_root, tmp_path, monkeypatch):
    _diverge_quanv(monkeypatch)
    _lose_audio(monkeypatch, "gaussian_noise", 2)
    cfg = _tiny_config(toy_root, tmp_path, models=("cnn_base", "qnn_basic"))
    result = run_experiment(cfg)
    rows = harness.read_table(result.out_dir / "failures.csv", harness.FAILURES_HEADER)
    assert [r[:5] for r in rows] == [
        [0, "cnn_base", "gaussian_noise", 2, "FileNotFoundError"],
        [0, "qnn_basic_d1", "clean", 0, "TrainingDiverged"],
        [0, "qnn_basic_d1", "gaussian_noise", 2, "TrainingDiverged"],
    ]
    assert rows[1][5] == "loss is nan"
    assert sorted(result.failures) == rows


def test_accuracy_and_failures_hold_every_configured_cell_once(toy_root, tmp_path, monkeypatch):
    """With one model diverged and one cell's test set lost, accuracy.csv
    and failures.csv name disjoint cells that together are every configured
    (seed, model, kind, severity)."""
    _diverge_quanv(monkeypatch)
    _lose_audio(monkeypatch, "gaussian_noise", 2)
    cfg = _tiny_config(toy_root, tmp_path, models=("cnn_base", "qnn_basic"), n_seeds=2,
                       corruptions=("gaussian_noise", "temporal_shift"), severities=(1, 2))
    run_experiment(cfg, jobs=1)
    accuracy = harness.read_table(tmp_path / "accuracy.csv", harness.ACCURACY_HEADER)
    failures = harness.read_table(tmp_path / "failures.csv", harness.FAILURES_HEADER)
    scored = {(seed, model, kind, sev) for seed, model, _, _, kind, sev, _ in accuracy}
    failed = {tuple(r[:4]) for r in failures}
    assert not scored & failed
    assert scored | failed == {
        (seed, inst.model_id, kind, sev) for seed in range(2) for inst in cfg.instances()
        for kind, sev in [("clean", 0)] + [(k, s) for k in cfg.corruptions for s in (1, 2)]
    }
    assert {(k, s) for _, m, k, s in failed if m == "cnn_base"} == {("gaussian_noise", 2)}
    assert {m for _, m, _, _ in scored} == {"cnn_base"}


def test_failures_follow_the_per_model_merge(toy_root, tmp_path, monkeypatch):
    """failures.csv merges like the tables: a rerun of another model keeps
    a diverged model's failures, and a clean rerun of that model drops
    them, and with them the file."""
    cfg = _tiny_config(toy_root, tmp_path, models=("cnn_base", "qnn_basic"))
    with monkeypatch.context() as patch:
        _diverge_quanv(patch)
        assert len(run_experiment(cfg).failures) == 2
    failures = tmp_path / "failures.csv"
    diverged = [",".join(harness.FAILURES_HEADER),
                "0,qnn_basic_d1,clean,0,TrainingDiverged,loss is nan",
                "0,qnn_basic_d1,gaussian_noise,2,TrainingDiverged,loss is nan"]
    assert failures.read_text().splitlines() == diverged
    assert not run_experiment(cfg.only("cnn_base")).failures
    assert failures.read_text().splitlines() == diverged
    assert not run_experiment(cfg.only("qnn_basic_d1")).failures
    assert not failures.exists()


def test_sweep_builds_each_test_set_once(toy_root, tmp_path, monkeypatch):
    """Cell-major loop: each (seed, cell, test file) is corrupted and
    log-Mel'd once and scored by every model."""
    counts = {"apply": 0, "quanv": 0}
    real_apply, real_quanv = harness.corruptmod.apply_drawn, harness.quanv_forward

    def counting_apply(*args):
        counts["apply"] += 1
        return real_apply(*args)

    def counting_quanv(*args):
        counts["quanv"] += 1
        return real_quanv(*args)

    monkeypatch.setattr(harness.corruptmod, "apply_drawn", counting_apply)
    monkeypatch.setattr(harness, "quanv_forward", counting_quanv)
    train, val, test = split(load_manifest(toy_root))
    n_all, n_test = len(train) + len(val) + len(test), len(test)
    two_cells = dict(models=("cnn_base", "qnn_basic"),
                     corruptions=("gaussian_noise", "temporal_shift"))

    result = run_experiment(_tiny_config(toy_root, tmp_path, **two_cells))
    assert not result.failures
    rows = harness.read_table(tmp_path / "accuracy.csv", harness.ACCURACY_HEADER)
    assert len(rows) == 2 * (1 + 2)  # per model: 1 clean + 2 kinds x 1 severity
    assert counts == {"apply": 2 * n_test, "quanv": n_all + 2 * n_test}


def test_each_model_is_scored_through_the_network_it_was_trained_in(toy_root, tmp_path,
                                                                     monkeypatch):
    """Parameters are set at most once per trained model: when training
    restores its best ones, or when a checkpoint is loaded; every cell is
    scored through that network. Training leaves nothing of its last step
    in the network: no cache and no gradients."""
    set_calls, trained = [], []
    real_set, real_train = nn.Network.set_params, nn.train

    def counting_set(net, params):
        set_calls.append(net)
        real_set(net, params)

    def checked_train(model, *args):
        result = real_train(model, *args)
        trained.append([(layer.cache, dict(layer.grads)) for layer in model.layers])
        return result

    monkeypatch.setattr(nn.Network, "set_params", counting_set)
    monkeypatch.setattr(nn, "train", checked_train)
    cfg = _tiny_config(toy_root, tmp_path, models=("cnn_base", "qnn_basic"),
                       corruptions=("gaussian_noise", "temporal_shift"), severities=(1, 2))
    for reuse_checkpoints in (False, True):
        set_calls.clear()
        result = run_experiment(cfg, reuse_checkpoints=reuse_checkpoints, jobs=1)
        assert not result.failures
        assert len(set_calls) <= 2 and len({id(net) for net in set_calls}) == len(set_calls)
    assert len(trained) == 2  # the reusing run trains nothing
    for layers in trained:
        assert all(cache is None and grads == {} for cache, grads in layers)


def test_cache_dir_is_ignored_with_a_warning(toy_root, tmp_path, caplog):
    cache_dir = tmp_path / "cache"
    cfg = _tiny_config(toy_root, tmp_path / "out", cache_dir=str(cache_dir))
    with caplog.at_level("WARNING", logger=harness.__name__):
        result = run_experiment(cfg)
    assert not result.failures
    assert [r.getMessage() for r in caplog.records if r.name == harness.__name__] == [
        f"cache_dir {str(cache_dir)!r} is ignored: grams are computed in memory"
    ]
    assert not cache_dir.exists()


def test_only_unknown_model(mini_result):
    cfg, _ = mini_result
    with pytest.raises(ValueError, match="'nope' is not configured"):
        cfg.only("nope")


# ---------------------------------------------------------------------------
# Seeds in child processes

# Shared by the scripts below: a 2-seed mini sweep, the environment of each
# child process it starts, and a check that none is left running or unreaped.
_SWEEP_SCRIPT_HEAD = """
import os, signal, subprocess, sys
from pathlib import Path
from quanvaudio import harness, nn

data, root = sys.argv[1], Path(sys.argv[2])
started = []
real_popen = subprocess.Popen

class CountingPopen(real_popen):
    def __init__(self, *args, **kwargs):
        started.append(kwargs["env"])
        super().__init__(*args, **kwargs)

subprocess.Popen = CountingPopen

def config(name, **overrides):
    fields = dict(data_root=data, output_dir=str(root / name), models=("cnn_base", "qnn_basic"),
                  depths=(1,), corruptions=("gaussian_noise", "speed_variation"), severities=(2,),
                  n_seeds=2, lr=1e-3, max_epochs=3, patience=2, batch_size=8)
    return harness.ExperimentConfig(**(fields | overrides))

def assert_no_child_left(when):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    sys.exit(f"a child process is still running or unreaped after {when}")
"""


def _run_sweep_script(body: str, toy_root, tmp_path) -> str:
    # one BLAS thread, as in the children, but the allocator left as it is
    env = {k: v for k, v in os.environ.items() if k not in harness._KEEP_FREED_HEAP}
    env.update(harness._ONE_BLAS_THREAD, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT_HEAD + body, str(toy_root), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_seeds_in_children_write_the_in_process_tree(toy_root, tmp_path):
    """With one BLAS thread in every process, a sweep whose seeds run in
    child processes writes the same bytes as one that runs them in turn,
    although only the children keep their freed heap."""
    out = _run_sweep_script("""
for jobs in (1, 2):
    harness.run_experiment(config(f"jobs{jobs}"), jobs=jobs)
    assert_no_child_left(f"a jobs={jobs} sweep")
    print(f"jobs={jobs} started {len(started)}")
print("heap pad:", os.environ.get("MALLOC_TOP_PAD_"),
      sorted({env.get("MALLOC_TOP_PAD_") for env in started}))
""", toy_root, tmp_path)
    pad = harness._KEEP_FREED_HEAP["MALLOC_TOP_PAD_"]
    assert out.split("\n")[:3] == ["jobs=1 started 0", "jobs=2 started 2",
                                   f"heap pad: None ['{pad}']"]
    trees = [tmp_path / "jobs1", tmp_path / "jobs2"]
    files = [sorted(p.relative_to(tree) for p in tree.rglob("*") if p.is_file())
             for tree in trees]
    assert files[0] == files[1]
    assert Path("checkpoint_qnn_basic_d1_seed1.bin") in files[0]
    assert Path("confusion.csv") in files[0]
    assert not any((tree / "confusion").exists() for tree in trees)
    differ = [str(f) for f in files[0]
              if (trees[0] / f).read_bytes() != (trees[1] / f).read_bytes()]
    assert differ == ["config.yaml"]


def test_failed_or_interrupted_seeds_leave_no_process(toy_root, tmp_path):
    out = _run_sweep_script("""
cfg = config("stale", models=("cnn_base",))
Path(cfg.output_dir).mkdir()
nn.save_checkpoint(Path(cfg.output_dir) / "checkpoint_cnn_base_seed1.bin", "qnn_basic", 2,
                   nn.build_model("qnn_basic", 2, 0).get_params())
try:
    harness.run_experiment(cfg, reuse_checkpoints=True, jobs=2)
except harness.SeedFailed as exc:
    print("raised:", exc)
assert_no_child_left("a failed seed")

def interrupt(signum, frame):
    raise KeyboardInterrupt

signal.signal(signal.SIGALRM, interrupt)
signal.setitimer(signal.ITIMER_REAL, 1.0)  # long before 2000 epochs end
n_started = len(started)
try:
    harness.run_experiment(config("interrupted", max_epochs=2000, patience=1999), jobs=2)
except KeyboardInterrupt:
    print("interrupted after starting", len(started) - n_started)
assert_no_child_left("an interrupt")
""", toy_root, tmp_path)
    lines = out.splitlines()
    assert lines[0].startswith("raised: seed 1: ValueError: ")
    assert "expected a cnn_base checkpoint for 2 classes, found qnn_basic for 2" in lines[0]
    assert lines[1] == "interrupted after starting 2"


# 24 cnn_base training steps at batch 20; prints the minor page faults of
# each step after the first four, which fault in the heap's high-water mark.
_STEP_FAULTS_SCRIPT = """
import resource
import numpy as np
from quanvaudio import nn

rng = np.random.default_rng(0)
x, y = rng.uniform(size=(480, 1, 40, 128)), np.arange(480) % 2
net = nn.build_model("cnn_base", 2, 0)
params = dict(net.parameters())
opt = nn.Adam(nn.TrainConfig(lr=1e-3, weight_decay=1e-2, batch_size=20, max_epochs=2,
                             patience=1, seed=0))
faults = []
for idx in rng.permutation(480).reshape(24, 20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, grads = nn.loss_and_grads(net, x[idx], y[idx])
    opt.step(params, grads)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[4:])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="MALLOC_TOP_PAD_ is glibc's")
def test_seed_child_environment_stops_step_page_faults():
    """In a child's environment a training step reuses the heap pages of
    the step before; without the setting glibc may trim them, and steps
    fault them back in. How often it trims depends on the heap's layout,
    so on the checkout path and the bytes of the imported modules: over
    the 20 steps below, glibc with no variable set faulted 3,100-23,000
    pages across the layouts measured, the child 840-990. So the child is
    held to an absolute bound, which a misspelt variable would break in
    every layout, and to fewer faults than the same run without it."""
    child_env = harness._child_env()
    bare_env = {k: v for k, v in child_env.items() if k not in harness._KEEP_FREED_HEAP}
    faults = {}
    for name, env in (("child", child_env), ("bare", bare_env)):
        proc = subprocess.run([sys.executable, "-c", _STEP_FAULTS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults[name] = json.loads(proc.stdout)
    child, bare = faults["child"], faults["bare"]
    # a step may still touch heap it never had before, but most touch none
    assert statistics.median(child) <= 1, faults
    assert sum(child) < 100 * len(child), faults
    assert sum(child) < sum(bare), faults


def test_jobs_must_be_positive(toy_root, tmp_path):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_experiment(_tiny_config(toy_root, tmp_path), jobs=0)


def test_no_package_source_imports_a_process_pool():
    """Their spawn and forkserver helper processes can outlive the sweep."""
    package = Path(harness.__file__).parent
    pool = re.compile(r"^\s*(?:import|from)\s+(?:multiprocessing|concurrent)\b", re.M)
    offenders = [p.name for p in sorted(package.rglob("*.py")) if pool.search(p.read_text())]
    assert offenders == []


# ---------------------------------------------------------------------------
# Report plumbing


def _full_accuracy_csv(path, models=("cnn_base", "qnn_basic_d1"), n_seeds=2):
    rng = np.random.default_rng(0)
    rows = []
    for seed in range(n_seeds):
        for model in models:
            rows.append([seed, model, "-", 0, "clean", 0, 0.95])
            for kind in CorruptionKind:
                for sev in range(1, 7):
                    acc = float(np.round(0.9 - 0.05 * sev - 0.05 * rng.random(), 6))
                    rows.append([seed, model, "-", 0, kind.value, sev, acc])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.ACCURACY_HEADER)
        writer.writerows(rows)


def test_grids_from_accuracy_csv_and_reports(tmp_path):
    acc_csv = tmp_path / "accuracy.csv"
    _full_accuracy_csv(acc_csv)
    grids = grids_from_accuracy_csv(acc_csv)
    assert set(grids) == {(s, m) for s in (0, 1) for m in ("cnn_base", "qnn_basic_d1")}
    problems = write_reports(tmp_path, grids, ["cnn_base", "qnn_basic_d1"], 2)
    assert not problems
    with open(tmp_path / "report_per_seed.csv") as fh:
        per_seed = list(csv.DictReader(fh))
    assert len(per_seed) == 2 * 2 * 4  # seeds x models x kinds
    base_rows = [r for r in per_seed if r["model"] == "cnn_base"]
    assert all(float(r["CE"]) == 1.0 for r in base_rows)
    with open(tmp_path / "report.csv") as fh:
        agg = list(csv.DictReader(fh))
    summary = [r for r in agg if r["kind"] == "mCE/RmCE"]
    assert {r["model"] for r in summary} == {"cnn_base", "qnn_basic_d1"}
    base_summary = next(r for r in summary if r["model"] == "cnn_base")
    assert float(base_summary["CE_mean"]) == 1.0


def test_grids_skip_incomplete(tmp_path):
    acc_csv = tmp_path / "accuracy.csv"
    _full_accuracy_csv(acc_csv, n_seeds=1)
    text = acc_csv.read_text().splitlines()
    # drop one corrupted cell of qnn_basic_d1 -> its grid is incomplete
    dropped = next(
        i for i, line in enumerate(text)
        if "qnn_basic_d1" in line and ",6," in line
    )
    acc_csv.write_text("\n".join(text[:dropped] + text[dropped + 1:]) + "\n")
    grids = grids_from_accuracy_csv(acc_csv)
    assert (0, "cnn_base") in grids
    assert (0, "qnn_basic_d1") not in grids


@pytest.mark.parametrize("line_no, new_line, problem", [
    (1, "seed,model,depth,kind,severity,accuracy", ": no template column in its header"),
    (5, "0,cnn_base,-,0,gaussian_noise,3,abc",
     ", line 5: column accuracy: could not convert string to float: 'abc'"),
    (7, "0,cnn_base,-,0,gaussian_noise,5,1.2", ", line 7: accuracy 1.2 outside [0, 1]"),
    (4, "0,cnn_base,-,0,gaussian_noise,1,0.1",
     ", line 4: a second gaussian_noise severity 1 row for seed 0, model cnn_base"),
    (9, "0,cnn_base,-,0,clean,4,0.2", ", line 9: clean row with severity 4, not 0"),
    (10, "0,cnn_base,-,0,pitch_shift,9,0.5", ", line 10: severity 9 outside 1..6"),
], ids=["missing_column", "non_numeric", "out_of_range", "repeated_cell", "clean_severity",
        "severity_out_of_range"])
def test_malformed_accuracy_csv_names_file_and_line(tmp_path, line_no, new_line, problem):
    acc_csv = tmp_path / "accuracy.csv"
    _full_accuracy_csv(acc_csv, n_seeds=1)
    lines = acc_csv.read_text().splitlines()
    lines[line_no - 1] = new_line
    acc_csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{acc_csv}{problem}')}$"):
        grids_from_accuracy_csv(acc_csv)


# ---------------------------------------------------------------------------
# Report characterization: the bytes of report_per_seed.csv, report.csv and
# report_problems.csv for fixed accuracy tables, committed under
# tests/data/reports/<fixture>/.

REPORT_DATA = Path(__file__).parent / "data" / "reports"
REPORT_MODELS = ("cnn_base", "qnn_basic_d1", "qnn_strongly_d4")
REPORT_FILES = ("report_per_seed.csv", "report.csv", "report_problems.csv")
REPORT_FIXTURES = {
    "one_seed": 1,
    "two_seeds": 2,
    "undefined": 3,  # baseline perfect (CE undefined) and flat (RCE undefined)
    "incomplete": 2,  # a model misses one cell in seed 0, a clean row in seed 1
    "no_baseline": 2,  # the baseline misses one cell in seed 1
}


def _report_fixture_rows(name: str) -> list[list]:
    """Accuracy rows, laid out as ACCURACY_HEADER, of one fixture."""
    rng = np.random.default_rng(sorted(REPORT_FIXTURES).index(name))
    rows = []
    for seed in range(REPORT_FIXTURES[name]):
        for model in REPORT_MODELS:
            clean = float(np.round(0.8 + 0.2 * rng.random(), 6))
            rows.append([seed, model, "-", 0, "clean", 0, clean])
            for kind in CorruptionKind:
                for sev in range(1, 7):
                    drop = 0.04 * sev * (0.5 + rng.random())
                    acc = float(np.round(min(1.0, max(0.0, clean - drop)), 6))
                    if name == "undefined" and model == "cnn_base":
                        if seed == 1 and kind == CorruptionKind.GAUSSIAN_NOISE:
                            acc = 1.0
                        if seed == 2 and kind == CorruptionKind.PITCH_SHIFT:
                            acc = clean
                    rows.append([seed, model, "-", 0, kind.value, sev, acc])
    if name == "incomplete":
        rows.remove(next(r for r in rows if r[:2] == [0, "qnn_basic_d1"] and r[5] == 6))
        rows.remove(next(r for r in rows if r[:2] == [1, "qnn_strongly_d4"] and r[5] == 0))
    if name == "no_baseline":
        rows.remove(next(r for r in rows if r[:2] == [1, "cnn_base"] and r[5] == 3))
    return rows


def _write_accuracy_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.ACCURACY_HEADER)
        writer.writerows(rows)


@pytest.mark.parametrize("name", sorted(REPORT_FIXTURES))
def test_reports_match_characterized_bytes(tmp_path, name):
    rows = _report_fixture_rows(name)
    _write_accuracy_csv(tmp_path / "accuracy.csv", rows)
    grids = grids_from_accuracy_csv(tmp_path / "accuracy.csv")
    # the sweep passes config order, `quanvaudio report` sorted order
    for order in (list(REPORT_MODELS), list(reversed(REPORT_MODELS))):
        out = tmp_path / "_".join(order)
        out.mkdir()
        write_reports(out, grids, order, REPORT_FIXTURES[name])
        for fname in REPORT_FILES:
            expected = REPORT_DATA / name / fname
            got = out / fname
            assert got.exists() == expected.exists(), (order, fname)
            if expected.exists():
                assert got.read_bytes() == expected.read_bytes(), (order, fname)


def test_report_accuracy_csv_makes_its_out_directory(tmp_path):
    _write_accuracy_csv(tmp_path / "accuracy.csv", _report_fixture_rows("two_seeds"))
    out = tmp_path / "missing" / "reports"
    assert harness.report_accuracy_csv(tmp_path / "accuracy.csv", out) == []
    for fname in REPORT_FILES:
        expected = REPORT_DATA / "two_seeds" / fname
        assert (out / fname).exists() == expected.exists(), fname
        if expected.exists():
            assert (out / fname).read_bytes() == expected.read_bytes(), fname


def test_undefined_fixture_covers_both_undefined_metrics():
    text = (REPORT_DATA / "undefined" / "report_per_seed.csv").read_text().splitlines()
    assert "1,cnn_base,gaussian_noise,undefined,1.0" in text
    undefined = [line for line in text if "undefined" in line]
    # CE for every model in seed 1, RCE for every model in seed 2
    assert len(undefined) == 2 * len(REPORT_MODELS)
    summary = (REPORT_DATA / "undefined" / "report.csv").read_text().splitlines()
    assert "cnn_base,mCE/RmCE,undefined,undefined,undefined,undefined" in summary
