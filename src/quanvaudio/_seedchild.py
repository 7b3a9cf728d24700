"""Child process of a multi-seed sweep: runs one seed of
``harness.run_experiment`` and reports it to the parent.

    python -m quanvaudio._seedchild '{"config": {...}, "seed_idx": 1, ...}'

The seed writes its own checkpoints and histories. Its rows of each of
the sweep's tables, by table name as ``harness._run_seed`` returns them,
or the exception that aborted it, go to standard output as one JSON
document; anything else the seed prints goes to standard error, so it
cannot corrupt that document.
"""

from __future__ import annotations

import json
import logging
import os
import sys

from . import harness


def main(job_json: str) -> int:
    job = json.loads(job_json)
    logging.basicConfig(level=job["log_level"], format="%(levelname)s %(name)s: %(message)s")
    report = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    cfg = harness.ExperimentConfig.from_dict(job["config"])
    try:
        tables = harness._run_seed(
            cfg, job["seed_idx"],
            harness.load_manifest(cfg.data_root, cfg.manifest_csv), job["reuse_checkpoints"],
        )
    except Exception as exc:  # the parent raises it as the sweep's error
        logging.getLogger(__name__).exception("seed %d failed", job["seed_idx"])
        doc, code = {"error": [type(exc).__name__, str(exc)]}, 1
    else:
        doc, code = tables, 0
    with report:
        json.dump(doc, report)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
