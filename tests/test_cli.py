"""Command-line interface: every subcommand driven through main()."""

import csv
import json
import re
from hashlib import sha256
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quanvaudio.audio import load_wav, write_wav
from quanvaudio.cli import main
from quanvaudio.corrupt import SEVERITY_TABLE, CorruptionKind, speed_by
from quanvaudio.harness import (ACCURACY_HEADER, CONFUSION_HEADER, FAILURES_HEADER,
                                ExperimentConfig, clean_gram)
from quanvaudio.qsim import build_circuit
from quanvaudio.quanv import quanv_forward
from quanvaudio.tensorio import load_tensor


def _header_and_payload(path: Path) -> tuple[dict, bytes]:
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header), payload


def test_featurize_grams(toy_root, tmp_path):
    out = tmp_path / "grams"
    assert main(["featurize", "--in", str(toy_root / "low"), "--out", str(out)]) == 0
    files = sorted(out.rglob("*.gram"))
    assert len(files) == 12
    gram, _ = load_tensor(files[0], expect_layout="HW")
    assert gram.shape == (40, 128)
    # the file is the tensor header, then the sweep's gram of the clip
    header, payload = _header_and_payload(files[0])
    assert header == {"dims": [40, 128], "dtype": "f64", "layout": "HW"}
    wav = toy_root / "low" / files[0].relative_to(out).with_suffix(".wav")
    assert payload == clean_gram(str(wav)).astype("<f8").tobytes()


def test_featurize_quanv_maps(toy_root, tmp_path):
    out = tmp_path / "fmaps"
    code = main([
        "featurize", "--in", str(toy_root / "high"), "--out", str(out),
        "--template", "BEQC", "--depth", "1",
    ])
    assert code == 0
    files = sorted(out.rglob("*.fmap"))
    assert len(files) == 12
    fmap, _ = load_tensor(files[0], expect_layout="CHW")
    assert fmap.shape == (4, 20, 64)
    assert np.all(np.abs(fmap) <= 1 + 1e-12)
    # the file is the tensor header, then the default circuit's map of the clip's gram
    header, payload = _header_and_payload(files[0])
    assert header == {"dims": [4, 20, 64], "dtype": "f64", "layout": "CHW"}
    wav = toy_root / "high" / files[0].relative_to(out).with_suffix(".wav")
    expected = quanv_forward(clean_gram(str(wav)), build_circuit("BEQC", 4, 1, 1234))
    assert payload == np.ascontiguousarray(expected, dtype="<f8").tobytes()


def _one_error_line(capsys, command: str) -> str:
    """The message of the one `quanvaudio <command>: error:` line on stderr."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    prefix = f"quanvaudio {command}: error: "
    assert err.startswith(prefix), err
    return err[len(prefix):-1]


def test_featurize_names_missing_manifest_columns(toy_root, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"file,label\n{next(toy_root.rglob('*.wav'))},low\n")
    assert main(["featurize", "--in", str(toy_root), "--out", str(tmp_path / "grams"),
                 "--manifest", str(manifest)]) == 2
    message = _one_error_line(capsys, "featurize")
    assert re.match(f"^{re.escape(str(manifest))}: no path column", message)


def test_featurize_refuses_two_sources_for_one_output(toy_root, tmp_path, capsys):
    # manifest paths outside --in are named by basename: a/x.wav and b/x.wav
    # would both write x.gram
    sources = sorted((toy_root / "low").glob("*.wav"))[:2]
    for sub, src in zip("ab", sources):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.wav").write_bytes(src.read_bytes())
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path,label\n{tmp_path / 'a' / 'x.wav'},low\n"
                        f"{tmp_path / 'b' / 'x.wav'},low\n")
    out = tmp_path / "grams"
    assert main(["featurize", "--in", str(toy_root), "--out", str(out),
                 "--manifest", str(manifest)]) == 2
    message = _one_error_line(capsys, "featurize")
    assert str(tmp_path / "a" / "x.wav") in message
    assert str(tmp_path / "b" / "x.wav") in message
    assert not list(out.rglob("*.gram"))


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its path relative to ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_featurize_keeps_a_manifest_row_with_dotdot_under_out(toy_root, tmp_path):
    # in/../x.wav lies outside --in, so it is named by its basename under --out
    (tmp_path / "in").mkdir()
    src = sorted((toy_root / "low").glob("*.wav"))[0]
    (tmp_path / "x.wav").write_bytes(src.read_bytes())
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\n../x.wav,low\n")
    before = _tree(tmp_path)
    out = tmp_path / "out" / "grams"
    assert main(["featurize", "--in", str(tmp_path / "in"), "--out", str(out),
                 "--manifest", str(manifest)]) == 0
    after = _tree(tmp_path)
    assert set(after) - set(before) == {"out/grams/x.gram"}
    assert all(after[name] == data for name, data in before.items())


def test_featurize_refuses_a_manifest_row_that_would_write_outside_out(toy_root, tmp_path,
                                                                       capsys):
    # the row "." is --in itself, whose output would be the sibling out.gram
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\n.,low\n")
    out = tmp_path / "out"
    assert main(["featurize", "--in", str(toy_root), "--out", str(out),
                 "--manifest", str(manifest)]) == 2
    assert _one_error_line(capsys, "featurize") == (
        f"{toy_root} would write {tmp_path / 'out.gram'}, outside {out}")
    assert not out.exists() and not (tmp_path / "out.gram").exists()


def test_config_without_data_root_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(f"output_dir: {tmp_path / 'results'}\n")
    assert main(["train", "--config", str(config)]) == 2
    assert _one_error_line(capsys, "train") == f"{config}: missing config key 'data_root'"
    assert not (tmp_path / "results").exists()


def test_config_that_is_not_yaml_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("data_root: [\n")
    assert main(["train", "--config", str(config)]) == 2
    message = _one_error_line(capsys, "train")
    assert message.startswith(f"{config}: not valid YAML: while parsing a flow node"), message


def test_corrupt_tree_with_sidecar(toy_root, tmp_path):
    out = tmp_path / "corrupted"
    code = main([
        "corrupt", "--kind", "gaussian_noise", "--severity", "3",
        "--seed", "7", "--in", str(toy_root), "--out", str(out),
    ])
    assert code == 0
    wavs = sorted(out.rglob("*.wav"))
    assert len(wavs) == 24
    with open(out / "corruption_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    assert all(float(r["severity_value"]) == 0.1 for r in rows)


def _small_tree(toy_root: Path, data: Path, per_class: int) -> dict[str, str]:
    """Copy ``per_class`` toy clips of each class to ``data``; the SHA-256 of
    every file under ``data`` by its relative path."""
    for label in ("low", "high"):
        (data / label).mkdir(parents=True)
        for src in sorted((toy_root / label).glob("*.wav"))[:per_class]:
            (data / label / src.name).write_bytes(src.read_bytes())
    return _digests(data)


def _digests(root: Path) -> dict[str, str]:
    return {name: sha256(data).hexdigest() for name, data in _tree(root).items()}


def _corrupt(data: Path, out: Path, seed: int = 5) -> int:
    return main(["corrupt", "--kind", "gaussian_noise", "--severity", "2", "--seed", str(seed),
                 "--in", str(data), "--out", str(out)])


def _add_unreadable_source(data: Path) -> Path:
    bad = data / "zbad" / "bad.wav"  # walked after the clips
    bad.parent.mkdir()
    bad.write_bytes(b"not a wav")
    return bad


@pytest.mark.parametrize("unreadable", [False, True], ids=["clips", "clips_and_unreadable"])
def test_corrupt_refuses_an_out_inside_in_before_writing(toy_root, tmp_path, capsys, unreadable):
    # the copies would be sources of the next run; with an unreadable source, a
    # run that failed part-way would leave there copies its log does not name
    data = tmp_path / "data"
    _small_tree(toy_root, data, 1 if unreadable else 2)
    if unreadable:
        _add_unreadable_source(data)
    before = _digests(data)
    out = data / ("out" if unreadable else "corrupted")
    for _ in range(2):
        assert _corrupt(data, out) == 2
        assert _one_error_line(capsys, "corrupt") == f"--out {out} is --in {data} or lies inside it"
        assert not out.exists()
        assert _digests(data) == before


def test_corrupt_refuses_an_out_inside_in_holding_sources_it_did_not_write(toy_root, tmp_path,
                                                                          capsys):
    # --out is the low/ class directory: its clips are sources, not a run's outputs
    data = tmp_path / "data"
    before = _small_tree(toy_root, data, 8)
    assert _corrupt(data, data / "low") == 2
    assert _one_error_line(capsys, "corrupt") == (
        f"--out {data / 'low'} is --in {data} or lies inside it")
    after = _digests(data)
    assert len(after) == 16 and after == before


def test_corrupt_refuses_to_overwrite_its_sources(toy_root, tmp_path, capsys):
    data = tmp_path / "data"
    before = _small_tree(toy_root, data, 2)
    assert _corrupt(data, data) == 2
    assert _one_error_line(capsys, "corrupt") == f"--out {data} is --in {data} or lies inside it"
    after = _digests(data)
    assert len(after) == 4 and after == before


def test_corrupt_refuses_an_in_inside_out_before_writing(toy_root, tmp_path, capsys):
    # the copy of a/a/x.wav would overwrite the source a/x.wav, before or after
    # that source is itself corrupted into x.wav
    data = tmp_path / "data"
    clips = sorted((toy_root / "low").glob("*.wav"))
    (data / "a" / "a").mkdir(parents=True)
    (data / "a" / "x.wav").write_bytes(clips[0].read_bytes())
    (data / "a" / "a" / "x.wav").write_bytes(clips[1].read_bytes())
    before = _digests(data)
    assert _corrupt(data / "a", data) == 2
    assert _one_error_line(capsys, "corrupt") == f"--in {data / 'a'} lies inside --out {data}"
    assert _digests(data) == before
    assert not (data / "corruption_log.csv").exists()


def test_corrupt_refuses_a_link_under_out_to_its_source(toy_root, tmp_path, capsys):
    # --out is apart from --in, but one of its paths links to a source
    data, out = tmp_path / "data", tmp_path / "outA"
    before = _small_tree(toy_root, data, 2)
    source = sorted((data / "low").glob("*.wav"))[0]
    (out / "low").mkdir(parents=True)
    (out / "low" / source.name).symlink_to(source)
    assert _corrupt(data, out) == 2
    assert _one_error_line(capsys, "corrupt") == (
        f"{source} would be overwritten by its own output")
    assert _digests(data) == before
    assert [p.relative_to(out) for p in out.rglob("*")] == [Path("low"), Path("low", source.name)]


def test_corrupt_that_fails_part_way_leaves_no_log_of_an_earlier_run(toy_root, tmp_path, capsys):
    # the second run fails on zbad/bad.wav after rewriting the clips: the first
    # run's log would describe draws those clips no longer hold
    data, out = tmp_path / "data", tmp_path / "out"
    _small_tree(toy_root, data, 2)
    assert _corrupt(data, out, seed=5) == 0
    assert (out / "corruption_log.csv").is_file()
    bad = _add_unreadable_source(data)
    assert _corrupt(data, out, seed=9) == 2
    assert _one_error_line(capsys, "corrupt").startswith(f"{bad}: ")
    assert not (out / "corruption_log.csv").exists()


@pytest.mark.parametrize("command", [["corrupt", "--kind", "gaussian_noise", "--severity", "2",
                                      "--seed", "5"], ["featurize"]], ids=["corrupt", "featurize"])
def test_a_missing_in_is_one_error_line_and_writes_nothing(tmp_path, capsys, command):
    missing, out = tmp_path / "no_such_dir", tmp_path / "x"
    assert main([*command, "--in", str(missing), "--out", str(out)]) == 2
    assert _one_error_line(capsys, command[0]) == f"--in {missing} is not a directory"
    assert not out.exists()


def test_corrupt_severity_zero_copies_input(toy_root, tmp_path):
    out = tmp_path / "clean_copy"
    main([
        "corrupt", "--kind", "speed_variation", "--severity", "0",
        "--seed", "1", "--in", str(toy_root / "low"), "--out", str(out),
    ])
    src = sorted((toy_root / "low").glob("*.wav"))[0]
    dst = sorted(out.glob("*.wav"))[0]
    # identical PCM payload (headers may differ in metadata ordering)
    np.testing.assert_array_equal(load_wav(src).samples, load_wav(dst).samples)


def test_corrupt_applies_and_logs_one_draw(toy_root, tmp_path, caplog, monkeypatch):
    # sigma_s = 10, so about half the files draw a speed ratio outside
    # 0.25..4 and are clamped; each clamp is drawn, and warned of, once
    monkeypatch.setitem(SEVERITY_TABLE, CorruptionKind.SPEED_VARIATION, (10.0,) * 6)
    out = tmp_path / "corrupted"
    with caplog.at_level("WARNING"):
        assert main(["corrupt", "--kind", "speed_variation", "--severity", "6",
                     "--seed", "3", "--in", str(toy_root / "low"), "--out", str(out)]) == 0
    with open(out / "corruption_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    clamped = [r["file"] for r in rows if float(r["drawn_parameter"]) in (0.25, 4.0)]
    warned = [r for r in caplog.records if "clamped" in r.getMessage()]
    assert 0 < len(clamped) < len(rows) == 12
    assert len(warned) == len(clamped)
    for row in rows:
        src = load_wav(toy_root / "low" / row["file"])
        write_wav(tmp_path / "expected.wav", speed_by(src, float(row["drawn_parameter"])))
        assert (out / row["file"]).read_bytes() == (tmp_path / "expected.wav").read_bytes()


@pytest.fixture(scope="module")
def cli_config(toy_root, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    cfg = ExperimentConfig(
        data_root=str(toy_root),
        output_dir=str(workdir / "results"),
        models=("cnn_base", "qnn_basic"),
        depths=(1,),  # every corruption kind and severity, so reports are complete
        n_seeds=1,
        lr=1e-3,
        max_epochs=3,
        patience=2,
        batch_size=8,
    )
    path = workdir / "config.yaml"
    cfg.to_yaml(path)
    return cfg, path


def test_train_then_evaluate(cli_config):
    cfg, path = cli_config
    assert main(["train", "--config", str(path)]) == 0
    out = cfg.output_dir
    assert (Path(out) / "checkpoint_cnn_base_seed0.bin").exists()
    assert main(["evaluate", "--config", str(path)]) == 0
    with open(Path(out) / "accuracy.csv") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["kind"] for r in rows}
    assert kinds == {"clean"} | {k.value for k in CorruptionKind}


def test_one_model_train_then_evaluate_writes_what_the_sweep_writes(toy_root, tmp_path, capsys):
    """`train --model` and `evaluate --model` run the sweep of a config
    narrowed to that model, so they write the full sweep's checkpoints,
    histories, accuracy rows and confusion rows of that model."""
    def config(name):
        cfg = ExperimentConfig(
            data_root=str(toy_root), output_dir=str(tmp_path / name),
            models=("cnn_base", "qnn_basic"), depths=(1, 2),
            corruptions=("gaussian_noise", "pitch_shift"), severities=(2,),
            n_seeds=2, lr=1e-3, max_epochs=3, patience=2, batch_size=8,
        )
        cfg.to_yaml(tmp_path / f"{name}.yaml")
        return Path(cfg.output_dir), str(tmp_path / f"{name}.yaml")

    def rows(out, table="accuracy.csv"):
        with open(out / table) as fh:
            return list(csv.DictReader(fh))

    full, full_yaml = config("full")
    one, one_yaml = config("one")
    assert main(["sweep", "--config", full_yaml]) == 0
    assert main(["train", "--model", "qnn_basic_d1", "--config", one_yaml]) == 0
    assert [(r["model"], r["kind"]) for r in rows(one)] == [("qnn_basic_d1", "clean")] * 2
    assert not list(one.glob("report*.csv"))  # no corrupted cell, no reports
    assert main(["evaluate", "--model", "qnn_basic_d1", "--config", one_yaml]) == 0
    for table in ("accuracy.csv", "confusion.csv"):
        assert rows(one, table) == [r for r in rows(full, table) if r["model"] == "qnn_basic_d1"]
    assert len(rows(one)) == 2 * (1 + 2)
    # config.yaml records the narrowed config, which is what ran
    assert (ExperimentConfig.from_yaml(one / "config.yaml")
            == ExperimentConfig.from_yaml(one_yaml).only("qnn_basic_d1"))
    names = sorted(p.name for p in one.glob("*_seed[0-9]*"))
    assert names == [f"{stem}_qnn_basic_d1_seed{s}.{ext}"
                     for stem, ext in (("checkpoint", "bin"), ("history", "csv"))
                     for s in (0, 1)]
    for name in names:
        assert (one / name).read_bytes() == (full / name).read_bytes(), name

    nope, nope_yaml = config("nope")
    capsys.readouterr()
    assert main(["train", "--model", "nope", "--config", nope_yaml]) == 2
    assert "'nope' is not configured" in _one_error_line(capsys, "train")
    assert not nope.exists()


def test_per_model_runs_into_one_directory_write_the_whole_config_tables(toy_root, tmp_path):
    """`train` then `evaluate --model` for each model in turn, into one
    directory, leave the tables of one `evaluate` of the whole config:
    each run replaces its own model's rows and keeps the others'."""
    def config(name):
        cfg = ExperimentConfig(
            data_root=str(toy_root), output_dir=str(tmp_path / name),
            models=("cnn_base", "qnn_basic"), depths=(1,),
            n_seeds=2, lr=1e-3, max_epochs=2, patience=1, batch_size=8,
        )
        cfg.to_yaml(tmp_path / f"{name}.yaml")
        return Path(cfg.output_dir), str(tmp_path / f"{name}.yaml")

    whole, whole_yaml = config("whole")
    assert main(["evaluate", "--config", whole_yaml]) == 0
    one, one_yaml = config("one")
    for model in ("qnn_basic_d1", "cnn_base"):  # the baseline last: no report until then
        assert main(["train", "--model", model, "--config", one_yaml]) == 0
        assert main(["evaluate", "--model", model, "--config", one_yaml]) == 0
    for name in ("accuracy.csv", "confusion.csv", "report.csv", "report_per_seed.csv"):
        assert (one / name).read_bytes() == (whole / name).read_bytes(), name
    assert not (one / "report_problems.csv").exists()
    with open(one / "report.csv") as fh:
        summary = [r["model"] for r in csv.DictReader(fh) if r["kind"] == "mCE/RmCE"]
    assert summary == ["cnn_base", "qnn_basic_d1"]


def test_sweep_exit_code(cli_config):
    cfg, path = cli_config
    assert main(["sweep", "--config", str(path)]) == 0
    # `report` rebuilds the sweep's reports from its accuracy.csv alone
    out = Path(cfg.output_dir)
    rebuilt = out.parent / "rebuilt"
    assert main(["report", "--accuracy", str(out / "accuracy.csv"), "--out", str(rebuilt)]) == 0
    for name in ("report.csv", "report_per_seed.csv"):
        assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name
    assert not (out / "report_problems.csv").exists()


def test_report_from_accuracy_csv(tmp_path):
    acc_csv = tmp_path / "accuracy.csv"
    with open(acc_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ACCURACY_HEADER)
        for model in ("cnn_base", "qnn_basic_d1"):
            writer.writerow([0, model, "-", 0, "clean", 0, 0.95])
            for kind in CorruptionKind:
                for sev in range(1, 7):
                    writer.writerow([0, model, "-", 0, kind.value, sev, 0.9 - 0.05 * sev])
    out = tmp_path / "report"
    assert main(["report", "--accuracy", str(acc_csv), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "report_per_seed.csv").exists()


def test_report_empty_csv_fails(tmp_path):
    acc_csv = tmp_path / "accuracy.csv"
    acc_csv.write_text(",".join(ACCURACY_HEADER) + "\n")
    assert main(["report", "--accuracy", str(acc_csv), "--out", str(tmp_path / "r")]) == 1


def _two_model_config(toy_root, tmp_path, n_seeds):
    cfg = ExperimentConfig(
        data_root=str(toy_root), output_dir=str(tmp_path / "results"),
        models=("cnn_base", "qnn_basic"), depths=(1,),
        n_seeds=n_seeds, lr=1e-3, max_epochs=2, patience=1, batch_size=8,
    )
    cfg.to_yaml(tmp_path / "config.yaml")
    return cfg, str(tmp_path / "config.yaml")


CLEAN_ROW = "0,cnn_base,-,0,clean,0,0.5"
ACC, CONF, FAIL = (",".join(h) for h in (ACCURACY_HEADER, CONFUSION_HEADER, FAILURES_HEADER))
DIVERGED = "0,cnn_base,clean,0,TrainingDiverged,loss is nan"


@pytest.mark.parametrize("table, lines, problem", [
    ("accuracy.csv", [ACC, CLEAN_ROW, "", "0,cnn_base,-,0,gaussian_noise,1,0.5"],
     ", line 3: 0 fields, not the header's 7"),
    ("accuracy.csv", [ACC, CLEAN_ROW, "0,cnn_base,-,0,gaussian_noise"],
     ", line 3: 5 fields, not the header's 7"),
    ("confusion.csv", [CONF, "0,cnn_base,clean,0,high,high,3", "one,cnn_base,clean,0,high,low,0"],
     ", line 3: column seed: invalid literal for int() with base 10: 'one'"),
    ("accuracy.csv", [ACC, "0,cnn_base,-,0,clean,0,1.5"], ", line 2: accuracy 1.5 outside [0, 1]"),
    ("confusion.csv", [CONF, "0,cnn_base,clean,0,high,high,3", "0,cnn_base,clean,0,high,low,-1"],
     ", line 3: count -1 below 0"),
    ("confusion.csv", [CONF, "0,cnn_base,loud_noise,1,high,high,3"],
     ", line 2: 'loud_noise' is not a valid CorruptionKind"),
    ("confusion.csv", [CONF, "0,cnn_base,clean,0,high,high,3", "0,cnn_base,clean,0,high,high,2"],
     ", line 3: a second clean severity 0 row for seed 0, model cnn_base, true high, pred high"),
    ("failures.csv", [FAIL, DIVERGED, ",cnn_base,gaussian_noise,1,TrainingDiverged,loss is nan"],
     ", line 3: column seed: invalid literal for int() with base 10: ''"),
    ("failures.csv", [FAIL, "0,cnn_base,loud_noise,1,TrainingDiverged,loss is nan"],
     ", line 2: 'loud_noise' is not a valid CorruptionKind"),
    ("failures.csv", [FAIL, "0,cnn_base,pitch_shift,7,FileNotFoundError,x.wav"],
     ", line 2: severity 7 outside 1..6"),
    ("failures.csv", [FAIL, DIVERGED, "0,cnn_base,clean,0,ValueError,x"],
     ", line 3: a second clean severity 0 row for seed 0, model cnn_base"),
    ("failures.csv", ["cell,error,message", "train/0/cnn_base,TrainingDiverged,loss is nan"],
     ": no seed, model, kind, severity column in its header"),
], ids=["blank_line", "short_row", "non_integer_seed", "accuracy_out_of_range", "negative_count",
        "unknown_kind", "repeated_confusion_cell", "failure_cell_without_seed",
        "failure_unknown_kind", "failure_severity_out_of_range", "repeated_failure_cell",
        "old_failures_header"])
def test_malformed_earlier_table_stops_evaluate_before_training(toy_root, tmp_path, capsys,
                                                                table, lines, problem):
    """`evaluate --model` reads what earlier runs left in its directory
    before any seed starts: a malformed table, header first in ``lines``,
    is one error line, and nothing is trained or written."""
    cfg, config = _two_model_config(toy_root, tmp_path, n_seeds=1)
    out = Path(cfg.output_dir)
    out.mkdir()
    (out / table).write_text("\n".join(lines) + "\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["evaluate", "--model", "qnn_basic_d1", "--config", config]) == 2
    assert _one_error_line(capsys, "evaluate") == f"{out / table}{problem}"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_run_of_another_config_is_refused_before_training(toy_root, tmp_path, capsys):
    """A run into a directory whose config.yaml differs in a field that is
    not narrowed per run (here the master seed, and so every split) would
    merge models scored on different test sets: it is one error line, and
    nothing is trained or written."""
    cfg, config = _two_model_config(toy_root, tmp_path, n_seeds=1)
    out = Path(cfg.output_dir)
    assert main(["train", "--model", "cnn_base", "--config", config]) == 0
    reseeded = tmp_path / "reseeded.yaml"
    replace(cfg, master_seed=7).to_yaml(reseeded)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["train", "--model", "qnn_basic_d1", "--config", str(reseeded)]) == 2
    assert _one_error_line(capsys, "train") == (
        f"{out / 'config.yaml'} has master_seed 0, not this run's 7; "
        "a run merges only into tables of the same config")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_reports_cover_every_seed_and_model_of_the_merged_table(toy_root, tmp_path):
    """A one-seed `evaluate` into a directory that holds seed 1 of an
    earlier run reports both seeds, and `report` on the merged
    accuracy.csv rewrites its three report files."""
    cfg, config = _two_model_config(toy_root, tmp_path, n_seeds=1)
    out = Path(cfg.output_dir)
    out.mkdir()
    rows = []
    for inst in cfg.instances():
        rows.append([1, inst.model_id, inst.template, inst.depth, "clean", 0, 0.75])
        rows += [[1, inst.model_id, inst.template, inst.depth, kind.value, sev, 0.25]
                 for kind in CorruptionKind for sev in range(1, 7)]
    rows.pop()  # qnn_basic_d1 misses speed_variation 6 in seed 1
    with open(out / "accuracy.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([ACCURACY_HEADER, *rows])
    assert main(["evaluate", "--config", config]) == 0
    with open(out / "report_per_seed.csv") as fh:
        reported = {(r["seed"], r["model"]) for r in csv.DictReader(fh)}
    assert reported == {("0", "cnn_base"), ("0", "qnn_basic_d1"), ("1", "cnn_base")}
    problems = (out / "report_problems.csv").read_text()
    assert problems == "problem\nseed 1: qnn_basic_d1 grid incomplete\n"
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--accuracy", str(out / "accuracy.csv"), "--out", str(rebuilt)]) == 1
    for name in ("report.csv", "report_per_seed.csv", "report_problems.csv"):
        assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name


def test_reports_follow_the_merged_table_after_train(toy_root, tmp_path):
    """`train --model cnn_base` after a sweep leaves the baseline one clean
    row: the reports are then what `report` makes of the merged
    accuracy.csv. A `train` of every model leaves no corrupted row, and so
    no report."""
    cfg, config = _two_model_config(toy_root, tmp_path, n_seeds=1)
    out = Path(cfg.output_dir)
    assert main(["sweep", "--config", config]) == 0
    assert main(["train", "--model", "cnn_base", "--config", config]) == 0
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--accuracy", str(out / "accuracy.csv"), "--out", str(rebuilt)]) == 1
    for name in ("report.csv", "report_per_seed.csv", "report_problems.csv"):
        assert (out / name).read_bytes() == (rebuilt / name).read_bytes(), name
    assert (out / "report_problems.csv").read_text() == (
        "problem\nseed 0: baseline grid incomplete; no report\n")
    assert main(["train", "--config", config]) == 0
    assert not list(out.glob("report*.csv"))


@pytest.mark.parametrize("lines", [
    [",".join(reversed(ACCURACY_HEADER))],
    [",".join(ACCURACY_HEADER), "0,cnn_base,-,0,clean,0,1.5"],
], ids=["bad_header", "bad_row"])
def test_report_on_a_bad_table_makes_no_out_directory(tmp_path, capsys, lines):
    acc_csv = tmp_path / "accuracy.csv"
    acc_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--accuracy", str(acc_csv), "--out", str(tmp_path / "r")]) == 2
    assert _one_error_line(capsys, "report").startswith(str(acc_csv))
    assert not (tmp_path / "r").exists()


def test_report_lists_a_model_incomplete_in_every_seed(tmp_path):
    """A model that misses one cell in each seed still counts: `report`
    names it in report_problems.csv and exits 1."""
    acc_csv = tmp_path / "accuracy.csv"
    rows = []
    for seed in (0, 1):
        for model in ("cnn_base", "qnn_basic_d1"):
            rows.append([seed, model, "-", 0, "clean", 0, 0.95])
            rows += [[seed, model, "-", 0, kind.value, sev, 0.5]
                     for kind in CorruptionKind for sev in range(1, 7)]
        rows.pop()  # qnn_basic_d1 misses speed_variation 6
    with open(acc_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([ACCURACY_HEADER, *rows])
    out = tmp_path / "report"
    assert main(["report", "--accuracy", str(acc_csv), "--out", str(out)]) == 1
    assert (out / "report_problems.csv").read_text().splitlines() == [
        "problem", "seed 0: qnn_basic_d1 grid incomplete", "seed 1: qnn_basic_d1 grid incomplete"]


def test_report_refuses_reordered_columns(tmp_path, capsys):
    acc_csv = tmp_path / "accuracy.csv"
    acc_csv.write_text(",".join(reversed(ACCURACY_HEADER)) + "\n")
    assert main(["report", "--accuracy", str(acc_csv), "--out", str(tmp_path / "r")]) == 2
    assert _one_error_line(capsys, "report") == (
        f"{acc_csv}: its header is not {','.join(ACCURACY_HEADER)}")
