"""Worker-failure context: the executor must say *which* execution died.

Before PR 2 a worker exception crossed the pool boundary as a bare
``RuntimeError`` with no indication of which struck execution, chunk or
campaign it belonged to — useless when a million-execution campaign dies
eight hours in.  Now every failure surfaces as
:class:`~repro.beam.executor.CampaignExecutionError` carrying the failing
execution index, the chunk number, the backend and the campaign label,
for every backend.
"""

import pickle

import pytest

from repro.arch import k40
from repro.beam import Campaign, CampaignExecutionError, ChunkWorkerError
from repro.beam.executor import CampaignExecutor
from repro.faults import Injector
from repro.kernels import Dgemm

POOL_TIMEOUT = 120.0

N_FAULTY = 32


class ExplodingDgemm(Dgemm):
    """Raises on every struck execution (golden runs stay clean).

    It declines every delta replay, so each data-reaching strike
    re-executes densely and raises.  Module-level so the process backend
    can pickle it into workers.
    """

    def _execute(self, fault):
        if fault is not None:
            raise ValueError("beam window shattered")
        return super()._execute(fault)

    def _execute_delta_batch(self, faults):
        return [None] * len(faults)


def run_and_catch(backend: str, label: str = "boardX") -> CampaignExecutionError:
    executor = CampaignExecutor(
        workers=2, chunk_size=4, backend=backend, timeout=POOL_TIMEOUT
    )
    with pytest.raises(CampaignExecutionError) as info:
        executor.run(
            ExplodingDgemm(n=16), k40(), seed=1, count=N_FAULTY, label=label
        )
    return info.value


@pytest.mark.telemetry
class TestWorkerFailureContext:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_error_carries_index_chunk_label_backend(self, backend):
        err = run_and_catch(backend)
        assert 0 <= err.index < N_FAULTY
        assert err.label == "boardX"
        # serial runs the uninstrumented flat path as a single chunk 0
        expected_backend = backend
        assert err.backend == expected_backend
        if backend != "serial":
            assert err.chunk == err.index // 4
        message = str(err)
        assert f"failed at execution {err.index}" in message
        assert "campaign 'boardX'" in message
        assert f"({err.backend} backend)" in message
        assert "ValueError: beam window shattered" in message

    def test_error_is_a_runtime_error_with_cause(self):
        err = run_and_catch("serial")
        assert isinstance(err, RuntimeError)
        assert isinstance(err.__cause__, ChunkWorkerError)
        assert err.__cause__.index == err.index

    def test_serial_and_thread_agree_on_failing_index(self):
        """The failing index is physics, not scheduling: the first struck
        execution that actually re-runs the kernel.  Serial order is
        deterministic; the thread backend must blame an index in the same
        campaign (possibly a later chunk's, under FIRST_EXCEPTION)."""
        serial = run_and_catch("serial")
        thread = run_and_catch("thread")
        assert serial.index <= thread.index < N_FAULTY

    def test_campaign_label_flows_into_error(self):
        campaign = Campaign(
            kernel=ExplodingDgemm(n=16), device=k40(), n_faulty=N_FAULTY,
            seed=1, workers=2, chunk_size=4, timeout=POOL_TIMEOUT,
            label="dgemm-rig7",
        )
        with pytest.raises(CampaignExecutionError) as info:
            campaign.run()
        assert info.value.label == "dgemm-rig7"

    def test_default_label_names_kernel_and_device(self):
        campaign = Campaign(
            kernel=ExplodingDgemm(n=16), device=k40(), n_faulty=N_FAULTY,
            seed=1, workers=0, timeout=POOL_TIMEOUT,
        )
        with pytest.raises(CampaignExecutionError) as info:
            campaign.run()
        assert info.value.label == "dgemm/k40"


@pytest.mark.telemetry
class TestChunkWorkerErrorPickling:
    def test_round_trips_through_pickle(self):
        """The pool boundary pickles exceptions; ours must survive it."""
        err = ChunkWorkerError(17, "ValueError: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ChunkWorkerError)
        assert clone.index == 17
        assert clone.message == "ValueError: boom"
        assert str(clone) == "execution 17 failed: ValueError: boom"


class ExplodingDeltaDgemm(Dgemm):
    """Raises inside the stacked delta-replay pass of every chunk."""

    def _execute_delta_batch(self, faults):
        raise ValueError("stacked replay shattered")


@pytest.mark.telemetry
@pytest.mark.parametrize(
    "make_kernel", [ExplodingDgemm, ExplodingDeltaDgemm],
    ids=["dense", "stacked-delta"],
)
def test_batched_failure_names_the_strike_that_raised(make_kernel):
    """Architecturally resolved strikes never run the kernel, so the
    failure belongs to the first data-reaching strike — not to the start
    of the chunk it rides in."""
    seed = 5
    fates = Injector(
        kernel=make_kernel(n=16), device=k40(), seed=seed
    ).classify_batch(range(N_FAULTY))
    first = next(i for i, (outcome, _, _) in enumerate(fates) if outcome is None)
    assert first % 4 != 0  # no chunk starts there, whatever the plan
    executor = CampaignExecutor(
        workers=2, chunk_size=4, backend="serial", timeout=POOL_TIMEOUT,
    )
    with pytest.raises(CampaignExecutionError) as info:
        executor.run(make_kernel(n=16), k40(), seed=seed, count=N_FAULTY)
    assert info.value.index == first
