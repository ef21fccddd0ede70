"""Write the format-1 store ``test_upgrade.py`` upgrades, and its logs.

Run from a checkout whose ``JOURNAL_FORMAT_VERSION`` is 1, with its
``src`` on ``PYTHONPATH``::

    python make_v1_store.py v1_store v1_logs v1_matrix.yaml

It journals a fixed DGEMM run, an adaptive LavaMD run with forces (two
rounds) and the manifest of a one-cell matrix, then writes each run's
``/result`` body (``StoredRun.log_lines``) to ``v1_logs/<run_id>.jsonl``.
"""
import sys
from pathlib import Path

from repro.beam.logs import log_lines
from repro.matrix import MatrixRun, expand_matrix, load_matrix_file
from repro.sampling import SamplingPolicy
from repro.store import CampaignSpec, CampaignStore, execute_spec

store_dir, logs_dir, matrix_file = map(Path, sys.argv[1:4])
store = CampaignStore(store_dir)
execute_spec(store, CampaignSpec(
    kernel="dgemm", device="k40", config={"n": 16}, seed=3, n_faulty=12,
), backend="serial")
execute_spec(store, CampaignSpec(
    kernel="lavamd", device="k40",
    config={"nb": 2, "particles_per_box": 4, "include_forces": True},
    seed=5, n_faulty=48,
), backend="serial", sampling=SamplingPolicy(target_ci=0.15, round_size=16))
MatrixRun(expand_matrix(load_matrix_file(matrix_file)), store, backend="serial").run()
logs_dir.mkdir(parents=True, exist_ok=True)
for run_id in store.run_ids():
    run = store.load(run_id)
    served = run.log_lines()
    assert served == log_lines(run.result())
    (logs_dir / f"{run_id}.jsonl").write_text("\n".join(served) + "\n")
