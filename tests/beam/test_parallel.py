"""Tests for multi-board beam sessions and position derating."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import observability as obs
from repro.arch import k40, xeonphi
from repro.beam.parallel import BeamSession, BoardResult, BoardSlot
from repro.kernels import Dgemm


def four_board_session(n_faulty=150):
    """The paper's setup: two K40s and two Phis in line, derated by
    distance."""
    return BeamSession(
        slots=[
            BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=1.0),
            BoardSlot(kernel=Dgemm(n=64), device=xeonphi(), derating=0.9),
            BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=0.8),
            BoardSlot(kernel=Dgemm(n=64), device=xeonphi(), derating=0.7),
        ],
        n_faulty_reference=n_faulty,
        seed=5,
    )


@pytest.fixture(scope="module")
def results():
    return four_board_session().run()


class TestBeamSession:
    def test_every_board_reports(self, results):
        assert len(results) == 4

    def test_derated_boards_see_fewer_strikes(self, results):
        struck = [r.result.n_executions for r in results]
        assert struck[0] > struck[2]  # same device, deeper position
        assert struck[1] > struck[3]

    def test_shared_exposure_equalises_beam_time(self, results):
        """Same wall-clock exposure: per-board beam seconds agree for boards
        with the same cross-section."""
        k40_boards = [r for r in results if r.result.device_name == "k40"]
        assert k40_boards[0].beam_seconds == pytest.approx(
            k40_boards[1].beam_seconds, rel=0.05
        )

    def test_position_independence_after_derating(self, results):
        """The paper: after de-rating, sensitivity is position-independent."""
        assert BeamSession.position_check(results, tolerance=0.5)

    def test_position_check_catches_wrong_derating(self, results):
        # Corrupt one board's fluence accounting: the check must fail.
        import dataclasses

        broken = list(results)
        bad = dataclasses.replace(
            broken[2],
            result=dataclasses.replace(
                broken[2].result, fluence=broken[2].result.fluence * 10
            ),
        )
        broken[2] = bad
        assert not BeamSession.position_check(broken, tolerance=0.5)

    def test_render(self, results):
        text = BeamSession.render(results)
        assert "derating" in text
        assert "dgemm/k40@1" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamSession(slots=[])
        with pytest.raises(ValueError):
            BoardSlot(kernel=Dgemm(n=32), device=k40(), derating=0.0)
        with pytest.raises(ValueError):
            BeamSession(
                slots=[BoardSlot(kernel=Dgemm(n=32), device=k40())],
                n_faulty_reference=0,
            )


class TestFluenceAccounting:
    """Regressions for the derated-fluence bookkeeping bugfixes."""

    def test_received_fluence_is_exactly_derated(self):
        """The board's campaign fluence is n_ref * d / (sigma * AU) — the
        exact derated exposure, not the rounded struck count's estimate."""
        from repro.beam.campaign import STRIKES_PER_FLUENCE_AU

        session = BeamSession(
            slots=[
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=1.0),
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=0.7),
            ],
            n_faulty_reference=149,
            seed=5,
        )
        reference, derated = session.run()
        sigma = reference.result.cross_section
        assert derated.received_fluence == pytest.approx(
            149 * 0.7 / (sigma * STRIKES_PER_FLUENCE_AU)
        )
        # ...and that exact value is what the campaign result carries.
        assert derated.result.fluence == derated.received_fluence
        assert derated.received_fluence == pytest.approx(
            0.7 * reference.received_fluence
        )
        # The struck count is the *rounded* expectation (149 * 0.7 = 104.3).
        assert derated.result.n_executions == 104

    def test_position_independence_survives_nonuniform_deratings(self):
        """Same (kernel, device) at awkward, non-uniform deratings must
        still agree on derated FIT — the paper's position check."""
        session = BeamSession(
            slots=[
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=1.0),
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=0.77),
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=0.613),
            ],
            n_faulty_reference=300,
            seed=9,
        )
        results = session.run()
        assert BeamSession.position_check(results, tolerance=0.5)
        # FIT is a *rate*: no monotone trend with derating may survive the
        # correction (each estimate sits within noise of the others).
        fits = [board.derated_fit() for board in results]
        centre = sum(fits) / len(fits)
        assert all(abs(fit - centre) / centre < 0.5 for fit in fits)

    def test_rounding_rule_is_half_up_and_monotone(self):
        from repro.beam.parallel import derated_strike_count

        # Banker's rounding would give 149 * 0.5 -> 74 but 149 * 0.50001
        # -> 75: two nearly identical positions, silently different strike
        # counts.  Half-up gives 75 for both.
        assert derated_strike_count(149, 0.5) == 75
        assert derated_strike_count(149, 0.50001) == 75
        assert derated_strike_count(100, 1.0) == 100
        assert derated_strike_count(10, 0.01) == 1  # floor of one strike
        # Monotone in the derating.
        counts = [derated_strike_count(149, d / 1000) for d in range(1, 1001)]
        assert counts == sorted(counts)

    def test_beam_seconds_from_unrounded_exposure(self):
        """Boards with equal cross-sections share *bit-identical* beam time:
        the shared clock comes from the exact derated fluence, in which the
        derating cancels, not from the rounded strike count."""
        session = BeamSession(
            slots=[
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=1.0),
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=0.5),
                BoardSlot(kernel=Dgemm(n=64), device=k40(), derating=0.50001),
            ],
            n_faulty_reference=149,
            seed=5,
        )
        results = session.run()
        assert results[0].beam_seconds == results[1].beam_seconds
        # Before the fix, rounding fed back into beam_seconds, so the two
        # near-identical positions disagreed on the shared clock.
        assert results[1].beam_seconds == results[2].beam_seconds

    def test_board_result_defaults_received_to_campaign_fluence(self):
        board = four_board_session().run()[0]
        standalone = BoardResult(
            slot=board.slot, result=board.result, beam_seconds=1.0
        )
        assert standalone.received_fluence == board.result.fluence


class TestConcurrentBoards:
    def test_concurrent_run_matches_board_order(self):
        session = four_board_session()
        results = session.run()
        assert [r.slot.label for r in results] == [s.label for s in session.slots]

    def test_concurrent_run_deterministic(self):
        a = four_board_session().run()
        b = four_board_session().run()
        assert [r.result.fluence for r in a] == [r.result.fluence for r in b]
        assert [
            [rec.outcome for rec in r.result.records] for r in a
        ] == [[rec.outcome for rec in r.result.records] for r in b]

    def test_session_with_strike_workers(self):
        serial = four_board_session().run()
        parallel_session = four_board_session()
        parallel_session.workers = 2
        parallel_session.chunk_size = 16
        parallel_session.timeout = 120.0
        parallel = parallel_session.run()
        assert [
            [rec.outcome for rec in r.result.records] for r in parallel
        ] == [[rec.outcome for rec in r.result.records] for r in serial]
        assert [r.derated_fit() for r in parallel] == [
            r.derated_fit() for r in serial
        ]


class TestRatioSentinelRender:
    def test_render_prints_na_for_undefined_ratio(self):
        """A board whose campaign saw no crashes or hangs renders n/a."""
        from repro.beam.campaign import CampaignResult

        board = four_board_session().run()[0]
        import dataclasses

        quiet = dataclasses.replace(
            board,
            result=CampaignResult(
                kernel_name="dgemm",
                device_name="k40",
                label="quiet",
                records=[],
                fluence=1.0e18,
                cross_section=1.0,
                n_executions=10,
            ),
        )
        text = BeamSession.render([board, quiet])
        assert "n/a" in text
        assert "derating" in text


#: A 4-board session of cold DGEMM boards, run in a fresh process (so no
#: golden output is cached yet) on the worker count given as argv[1]; it
#: prints each board's rows, fluences and beam time.
COLD_SESSION = """
import json, sys
from repro.arch import k40, xeonphi
from repro.beam.logs import row_texts
from repro.beam.parallel import BeamSession, BoardSlot
from repro.kernels import Dgemm

session = BeamSession(
    slots=[
        BoardSlot(kernel=Dgemm(n=128), device=k40(), derating=1.0),
        BoardSlot(kernel=Dgemm(n=128), device=xeonphi(), derating=0.9),
        BoardSlot(kernel=Dgemm(n=128), device=k40(), derating=0.8),
        BoardSlot(kernel=Dgemm(n=128), device=xeonphi(), derating=0.7),
    ],
    n_faulty_reference=150,
    seed=2,
    workers=int(sys.argv[1]),
)
print(json.dumps([
    [list(row_texts(board.result.records)), board.result.fluence.hex(),
     board.received_fluence.hex(), board.beam_seconds.hex()]
    for board in session.run()
]))
"""


def run_cold_session(workers: int, timeout: float = 120.0) -> list:
    """Run :data:`COLD_SESSION` in its own process group; kill the group
    and fail if it has not finished within ``timeout`` seconds."""
    env = dict(os.environ)
    # The BLAS's own threads, as a user gets them: the hang this guards
    # against needed them.
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", COLD_SESSION, str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(
            f"a 4-board session on {workers} workers did not finish "
            f"within {timeout:g}s"
        )
    assert proc.returncode == 0, err
    return json.loads(out)


class TestOneLoop:
    def test_cold_boards_on_a_pool_finish_with_the_serial_results(self):
        """Boards are jobs of one scheduler run: one thread forks the pool
        after it computed every board's golden output, so no fork lands
        while another board is inside a BLAS call."""
        pooled = run_cold_session(workers=2)
        serial = run_cold_session(workers=1)
        assert pooled == serial
        assert [len(rows) for rows, *_ in pooled] == [150, 135, 120, 105]


@pytest.mark.telemetry
@pytest.mark.parametrize("workers", [1, 2])
def test_session_trace_is_one_subtree_per_board(workers):
    """session -> board -> campaign -> chunk -> execution, every chunk
    under its own board's campaign, though the boards share one loop."""
    sink = obs.RingBufferSink()
    session = BeamSession(
        slots=[
            BoardSlot(kernel=Dgemm(n=48), device=k40(), derating=1.0),
            BoardSlot(kernel=Dgemm(n=48), device=xeonphi(), derating=0.8),
        ],
        n_faulty_reference=40,
        seed=3,
        workers=workers,
        chunk_size=8,
        timeout=120.0,
    )
    with obs.observe(tracer=obs.Tracer(sink)):
        results = session.run()
    events = sink.events()
    by_id = {event.span_id: event for event in events}

    def parent(event):
        return by_id[event.parent_id]

    (root,) = [e for e in events if e.kind == "session"]
    assert root.parent_id is None
    boards = {e.attrs["position"]: e for e in events if e.kind == "board"}
    assert sorted(boards) == [0, 1]
    assert all(parent(board) is root for board in boards.values())
    campaigns = [e for e in events if e.kind == "campaign"]
    assert sorted(parent(c).attrs["position"] for c in campaigns) == [0, 1]
    chunks = [e for e in events if e.kind == "chunk"]
    assert {parent(chunk).kind for chunk in chunks} == {"campaign"}
    for position, board in boards.items():
        (campaign,) = [c for c in campaigns if parent(c) is board]
        assert campaign.attrs["device"] == board.attrs["device"]
        assert campaign.attrs["fluence"] == results[position].received_fluence
        executions = [
            e for e in events
            if e.kind == "execution" and parent(parent(e)) is campaign
        ]
        assert {e.attrs["device"] for e in executions} == {board.attrs["device"]}
        assert sorted(e.attrs["index"] for e in executions) == list(
            range(results[position].result.n_executions)
        )
