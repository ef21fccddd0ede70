"""The matrix driver: submit cells, journal states, roll up one report.

:class:`MatrixRun` drives an expanded :class:`~repro.matrix.expand.Matrix`
through either execution surface:

* the in-process :class:`~repro.scheduler.scheduler.CampaignScheduler`
  (the default — one shared pool, cells dispatched by priority, then in
  submit order, with idle slots backfilled);
* the HTTP :class:`~repro.service.client.ServiceClient`, which makes a
  matrix fleet-compatible for free (a ``repro serve --fleet`` coordinator
  with attached agents executes the cells; the driver only submits and
  waits).

Per-cell state is durable in a **matrix manifest journal** — the same
CRC-checked JSONL format as campaign journals, one ``cell`` record per
state transition, last record wins — under
``<store>/matrix/<matrix_id>.jsonl``.  The manifest never duplicates
campaign data: cells are only (cell id → run id → state), and the store's
content-addressed run journals remain the single source of record truth.
Because cell identity is the spec hash, a cell whose campaign is already
complete in the store is never re-executed: the scheduler/service answer
``cached`` and the manifest records it.

The roll-up report aggregates every finished cell's
:class:`~repro.beam.campaign.CampaignResult` into one table: outcome
counts, FIT (all + filtered) per cell and summed — the whole sweep as
one artefact.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

from repro._util.text import format_table
from repro.matrix.expand import Matrix
from repro.observability import runtime as obs_runtime
from repro.store.journal import Journal, JournalError
from repro.store.store import CampaignStore, RunStatus

__all__ = ["CELL_STATES", "MatrixRun"]

#: Terminal + transitional states a manifest cell can be in.  ``pending``
#: is implicit (no record yet).
CELL_STATES = (
    "pending", "submitted", "complete", "cached", "failed", "interrupted",
)

_DONE_STATES = ("complete", "cached")
_RETRYABLE_STATES = ("failed", "interrupted")


def _cells_counter(metrics):
    return metrics.counter(
        "repro_matrix_cells_total",
        "Matrix cells reaching a terminal state, by state.",
        ("state",),
    )


class MatrixRun:
    """One matrix against one store (and optionally one service).

    Args:
        matrix: the expanded matrix.
        store: campaign store root (also holds the manifest journal).
        client: a :class:`~repro.service.client.ServiceClient`; when given,
            cells are submitted over HTTP instead of run in-process.
        workers/chunk_size/backend/retries/sampling:
            execution strategy for the in-process scheduler path (never
            part of cell identity; ignored when ``client`` is given,
            where the server's strategy applies).
        wait_timeout: per-cell wait budget on the service path, seconds.
    """

    def __init__(
        self,
        matrix: Matrix,
        store: "CampaignStore | str | Path",
        *,
        client=None,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        backend: str = "auto",
        retries: int = 3,
        sampling=None,
        wait_timeout: float = 600.0,
    ):
        self.matrix = matrix
        self.store = (
            store if isinstance(store, CampaignStore) else CampaignStore(store)
        )
        self.client = client
        self.workers = workers
        self.chunk_size = chunk_size
        self.backend = backend
        self.retries = retries
        self.sampling = sampling
        self.wait_timeout = wait_timeout

    # -- manifest ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        root = Path(self.store.root) / "matrix"
        return root / f"{self.matrix.matrix_id}.jsonl"

    def _open_manifest(self) -> Journal:
        path = self.manifest_path
        if path.exists():
            return Journal.open(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return Journal.create(
            path,
            header={
                "matrix": self.matrix.name,
                "matrix_id": self.matrix.matrix_id,
                "cells": [
                    {"cell_id": cell.cell_id, "run_id": cell.run_id}
                    for cell in self.matrix.cells
                ],
            },
        )

    def cell_states(self) -> dict:
        """Last journaled state per cell id (``pending`` when none)."""
        states = {cell.cell_id: "pending" for cell in self.matrix.cells}
        path = self.manifest_path
        if path.exists():
            journal = Journal.open(path, read_only=True)
            for row in journal.records("cell"):
                if row["cell_id"] in states:
                    states[row["cell_id"]] = row["state"]
        return states

    # -- driving -----------------------------------------------------------------

    def run(self, *, only_failed: bool = False) -> dict:
        """Submit and drive the matrix's outstanding cells.

        ``only_failed`` restricts submission to cells whose last state is
        ``failed``/``interrupted`` (the ``rerun-failures`` verb); cells
        never attempted stay pending.  Returns the status payload (same
        schema as :meth:`status`).
        """
        tracer = obs_runtime.get_tracer()
        metrics = obs_runtime.get_metrics()
        states = self.cell_states()
        if only_failed:
            todo = [
                cell for cell in self.matrix.cells
                if states[cell.cell_id] in _RETRYABLE_STATES
            ]
        else:
            todo = [
                cell for cell in self.matrix.cells
                if states[cell.cell_id] not in _DONE_STATES
            ]
        span = (
            tracer.span(
                "matrix",
                self.matrix.name,
                matrix_id=self.matrix.matrix_id,
                cells=len(self.matrix.cells),
                submitted=len(todo),
                surface="service" if self.client is not None else "scheduler",
            )
            if tracer is not None
            else contextlib.nullcontext()
        )
        with span:
            if todo:
                journal = self._open_manifest()
                try:
                    for cell in todo:
                        journal.append(
                            "cell",
                            cell_id=cell.cell_id,
                            run_id=cell.run_id,
                            state="submitted",
                        )
                    journal.commit()
                    if self.client is not None:
                        outcomes = self._run_service(todo)
                    else:
                        outcomes = self._run_scheduler(todo)
                    counter = (
                        _cells_counter(metrics) if metrics is not None else None
                    )
                    for cell in todo:
                        state, error = outcomes[cell.cell_id]
                        journal.append(
                            "cell",
                            cell_id=cell.cell_id,
                            run_id=cell.run_id,
                            state=state,
                            error=error,
                        )
                        if counter is not None:
                            counter.inc(state=state)
                    journal.commit()
                finally:
                    journal.close()
        return self.status()

    def _run_scheduler(self, todo) -> dict:
        from repro.scheduler.retry import RetryPolicy
        from repro.scheduler.scheduler import CampaignScheduler

        scheduler = CampaignScheduler(
            self.store,
            workers=self.workers,
            chunk_size=self.chunk_size,
            backend=self.backend,
            retry=RetryPolicy(max_retries=self.retries),
        )
        by_run_id = {}
        outcomes = {}
        for cell in todo:
            try:
                run_id = scheduler.submit(cell.spec, sampling=self.sampling)
            except Exception as err:  # an unbuildable cell fails alone
                outcomes[cell.cell_id] = ("failed", str(err))
                continue
            by_run_id.setdefault(run_id, []).append(cell.cell_id)
        for outcome in scheduler.run():
            for cell_id in by_run_id.get(outcome.run_id, ()):
                error = str(outcome.error) if outcome.error else None
                outcomes[cell_id] = (outcome.status, error)
        return outcomes

    def _run_service(self, todo) -> dict:
        outcomes = {}
        waiting = []
        for cell in todo:
            try:
                payload = self.client.submit(
                    cell.spec, sampling=self.sampling
                )
            except Exception as err:  # ServiceError, transport errors
                outcomes[cell.cell_id] = ("failed", str(err))
                continue
            if payload.get("cached"):
                outcomes[cell.cell_id] = ("cached", None)
            else:
                waiting.append(cell)
        deadline = time.monotonic() + self.wait_timeout
        for cell in waiting:
            budget = max(deadline - time.monotonic(), 1.0)
            try:
                payload = self.client.wait(cell.run_id, timeout=budget)
            except TimeoutError as err:
                outcomes[cell.cell_id] = ("interrupted", str(err))
                continue
            except Exception as err:
                outcomes[cell.cell_id] = ("failed", str(err))
                continue
            status = payload["status"]
            if status == "complete" and payload.get("cached"):
                status = "cached"
            outcomes[cell.cell_id] = (
                status if status in CELL_STATES else "failed",
                payload.get("error"),
            )
        return outcomes

    # -- status + roll-up --------------------------------------------------------

    def status(self) -> dict:
        """Machine-readable per-cell status with store-backed cache info."""
        states = self.cell_states()
        cells = []
        for cell in self.matrix.cells:
            state = states[cell.cell_id]
            stored = self.store.load_spec(cell.spec)
            store_complete = (
                stored is not None and stored.status == RunStatus.COMPLETE
            )
            cells.append(
                {
                    "cell_id": cell.cell_id,
                    "run_id": cell.run_id,
                    "label": cell.spec.resolved_label(),
                    "state": state,
                    # a cell is served from cache when the scheduler or
                    # service answered "cached", or when its campaign is
                    # already complete in the store before any attempt
                    "cached": state == "cached"
                    or (state == "pending" and store_complete),
                    "store_complete": store_complete,
                }
            )
        counts = {state: 0 for state in CELL_STATES}
        for row in cells:
            counts[row["state"]] += 1
        return {
            "matrix": self.matrix.name,
            "matrix_id": self.matrix.matrix_id,
            "manifest": str(self.manifest_path),
            "cells": cells,
            "counts": counts,
            "done": all(row["state"] in _DONE_STATES for row in cells),
        }

    def report(self) -> dict:
        """Aggregate FIT/SDC roll-up over every store-complete cell."""
        rows = []
        totals = {
            "cells": 0,
            "executions": 0,
            "counts": {},
            "fit_total": 0.0,
            "fit_filtered": 0.0,
        }
        missing = []
        for cell in self.matrix.cells:
            stored = self.store.load_spec(cell.spec)
            if stored is None or stored.status != RunStatus.COMPLETE:
                missing.append(cell.cell_id)
                continue
            result = stored.result()
            counts = {k.value: n for k, n in result.counts().items()}
            fit_all = result.fit_total()
            fit_filtered = result.fit_total(filtered=True)
            rows.append(
                {
                    "cell_id": cell.cell_id,
                    "run_id": cell.run_id,
                    "kernel": cell.spec.kernel,
                    "device": cell.spec.device,
                    "n_executions": result.n_executions,
                    "counts": counts,
                    "fit_total": fit_all,
                    "fit_filtered": fit_filtered,
                }
            )
            totals["cells"] += 1
            totals["executions"] += result.n_executions
            for key, n in counts.items():
                totals["counts"][key] = totals["counts"].get(key, 0) + n
            totals["fit_total"] += fit_all
            totals["fit_filtered"] += fit_filtered
        return {
            "matrix": self.matrix.name,
            "matrix_id": self.matrix.matrix_id,
            "cells": rows,
            "totals": totals,
            "missing": missing,
        }

    def render_report(self) -> str:
        """The roll-up as one human-readable table."""
        payload = self.report()
        rows = [
            (
                row["cell_id"],
                row["n_executions"],
                row["counts"].get("sdc", 0),
                row["counts"].get("crash", 0),
                row["counts"].get("hang", 0),
                f"{row['fit_total']:.2f}",
                f"{row['fit_filtered']:.2f}",
            )
            for row in payload["cells"]
        ]
        totals = payload["totals"]
        rows.append(
            (
                f"TOTAL ({totals['cells']} cells)",
                totals["executions"],
                totals["counts"].get("sdc", 0),
                totals["counts"].get("crash", 0),
                totals["counts"].get("hang", 0),
                f"{totals['fit_total']:.2f}",
                f"{totals['fit_filtered']:.2f}",
            )
        )
        table = format_table(
            ("cell", "execs", "SDC", "crash", "hang", "FIT", "FIT>thr"),
            rows,
        )
        title = f"matrix {payload['matrix']} ({payload['matrix_id']})"
        if payload["missing"]:
            title += (
                f"\n{len(payload['missing'])} cell(s) not complete yet: "
                + ", ".join(payload["missing"])
            )
        return title + "\n" + table
