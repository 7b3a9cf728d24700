"""Command-line interface.

Subcommands: featurize, corrupt, train, evaluate, report, sweep.
``sweep`` runs the full clean-train/corrupted-test pipeline from a YAML
config; the other subcommands expose the individual stages.
"""

from __future__ import annotations

import argparse
import csv
import functools
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import corrupt as corruptmod
from . import harness
from .audio import write_wav
from .corrupt import CorruptionKind
from .qsim import Template, build_circuit
from .quanv import PATCH_QUBITS, quanv_forward
from .tensorio import save_tensor

log = logging.getLogger(__name__)


def _plan_outputs(in_dir: Path, out_dir: Path, suffix: str, manifest: Path | None = None):
    """``{output path: source WAV}``: each WAV ``manifest`` lists, or else each
    one under ``in_dir`` but not under an ``out_dir`` strictly inside it, at
    its path relative to ``in_dir`` (a listed path outside it once ``..`` is
    collapsed: its basename) under ``out_dir``, with ``suffix``. Refuses a
    WAV under such an ``out_dir`` that its corruption_log.csv does not name,
    an output outside ``out_dir``, an output that is its own source and two
    sources for one output, then creates every output directory once,
    parents first."""
    if manifest is not None:
        wavs = [in_dir / rec["path"] for rec in harness.read_manifest_csv(manifest)]
    else:
        wavs = sorted(in_dir.rglob("*.wav"))
        src, dst = in_dir.resolve(), out_dir.resolve()
        if src in dst.parents:  # so a rerun reads none of its outputs
            skip = dst.relative_to(src)
            logged = _logged_outputs(out_dir / "corruption_log.csv")
            kept = []
            for w in wavs:
                rel = w.relative_to(in_dir)
                if not rel.is_relative_to(skip):
                    kept.append(w)
                elif rel.relative_to(skip) not in logged:
                    raise ValueError(f"{w} lies under --out {out_dir} but its "
                                     f"corruption_log.csv does not name it")
            wavs = kept
    in_norm, out_norm = Path(os.path.normpath(in_dir)), Path(os.path.normpath(out_dir))
    plan: dict[Path, Path] = {}
    for wav in wavs:
        norm = Path(os.path.normpath(wav))
        rel = norm.relative_to(in_norm) if norm.is_relative_to(in_norm) else norm.name
        target = (out_dir / rel).with_suffix(suffix)
        if out_norm not in Path(os.path.normpath(target)).parents:
            raise ValueError(f"{wav} would write {target}, outside {out_dir}")
        if target.exists() and target.samefile(wav):
            raise ValueError(f"{wav} would be overwritten by its own output")
        if plan.setdefault(target, wav) != wav:
            raise ValueError(f"{plan[target]} and {wav} would both write {target}")
    for directory in sorted({out_dir, *(target.parent for target in plan)}):
        directory.mkdir(parents=True, exist_ok=True)
    return plan


def _logged_outputs(log_csv: Path) -> set[Path]:
    """The files a ``corrupt`` run's corruption_log.csv names, relative to
    its directory; none when there is no log."""
    if not log_csv.is_file():
        return set()
    with open(log_csv, newline="") as fh:
        return {Path(row["file"]) for row in csv.DictReader(fh) if row.get("file")}


def _seed_index(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed index must be >= 0, got {value}")
    return value


def cmd_featurize(args) -> int:
    in_dir, out_dir = Path(args.in_dir), Path(args.out_dir)
    circuit = None
    if args.template:
        circuit = build_circuit(args.template, PATCH_QUBITS, args.depth, args.circuit_seed)
    suffix, layout = (".gram", "HW") if circuit is None else (".fmap", "CHW")
    for target, wav_path in _plan_outputs(in_dir, out_dir, suffix, args.manifest).items():
        gram = harness.clean_gram(wav_path)
        features = gram if circuit is None else quanv_forward(gram, circuit)
        save_tensor(target, features, layout=layout)
    return 0


def cmd_corrupt(args) -> int:
    in_dir, out_dir = Path(args.in_dir), Path(args.out_dir)
    kind = CorruptionKind(args.kind)
    sidecar_rows = []
    for target, wav_path in _plan_outputs(in_dir, out_dir, ".wav").items():
        w, value = harness.corrupt_file(wav_path, args.seed, args.seed_index, kind, args.severity)
        write_wav(target, w)
        sidecar_rows.append([str(target.relative_to(out_dir)), kind.value,
                             corruptmod.severity_value(kind, args.severity), value])
    harness.write_csv(out_dir / "corruption_log.csv",
                      ["file", "kind", "severity_value", "drawn_parameter"], sidecar_rows)
    return 0


def _sweep(args) -> int:
    """The sweep of ``args.config``, narrowed to ``args.model`` when one is
    given; ``train`` scores the clean test set, ``evaluate`` reuses checkpoints."""
    cfg = harness.ExperimentConfig.from_yaml(args.config)
    if getattr(args, "model", None):
        cfg = cfg.only(args.model)
    if args.command == "train":
        cfg = replace(cfg, corruptions=())
    result = harness.run_experiment(cfg, reuse_checkpoints=args.command == "evaluate")
    if result.failures:
        print(f"{len(result.failures)} cells failed; see failures.csv", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    return 1 if harness.report_accuracy_csv(args.accuracy, Path(args.out)) else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quanvaudio")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="log-Mel (and optionally quanvolution) features")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--manifest", type=Path, default=None)
    p.add_argument("--template", choices=[t.value for t in Template], default=None)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--circuit-seed", type=int, default=1234)

    p = sub.add_parser("corrupt", help="write corrupted copies of a WAV tree")
    p.add_argument("--kind", required=True, choices=[k.value for k in CorruptionKind])
    p.add_argument("--severity", type=int, required=True,
                   choices=range(0, corruptmod.N_SEVERITIES + 1))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seed-index", type=_seed_index, default=0,
                   help="the sweep seed index whose corruption to reproduce")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)

    p = sub.add_parser("train", help="train models on the clean splits")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None, help="restrict to one model id")

    p = sub.add_parser("evaluate", help="evaluate saved checkpoints on all cells")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None)

    p = sub.add_parser("report", help="CE/RCE/mCE/RmCE from an accuracy CSV")
    p.add_argument("--accuracy", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="full multi-seed robustness pipeline")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A bad input, a file error or a failed seed is
    one line on stderr and exit status 2, as argparse reports a bad
    argument; ``-v`` also logs its traceback."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # looked up per call, so a handler patched in after build_parser is the one run
    handler = {"featurize": cmd_featurize, "corrupt": cmd_corrupt, "report": cmd_report}
    try:
        return handler.get(args.command, _sweep)(args)
    except (ValueError, OSError, harness.SeedFailed) as exc:
        log.debug("%s failed", args.command, exc_info=True)
        print(f"quanvaudio {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
