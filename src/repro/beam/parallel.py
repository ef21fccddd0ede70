"""Multi-board beam sessions with distance derating (paper Fig. 1 / §IV-D).

The paper irradiates four boards at once — two Xeon Phis and two K40s in
line behind the collimator — and applies a per-position derating factor
for beam attenuation with distance.  After derating, "the device radiation
sensitivity seemed independent on the position", which validated the setup.

:class:`BeamSession` reproduces that workflow: several boards share one
beam, each sees the facility flux scaled by its derating factor, per-board
campaigns run on the derated fluence, and :meth:`BeamSession.position_check`
performs the paper's validation — derated FIT estimates agree across
positions within statistical noise.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

from repro._util.rng import stable_seed
from repro._util.text import format_table
from repro.arch.device import DeviceModel
from repro.beam.campaign import (
    STRIKES_PER_FLUENCE_AU,
    Campaign,
    CampaignResult,
    format_ratio,
    run_campaigns,
)
from repro.beam.executor import CampaignExecutor
from repro.beam.facility import LANSCE, Facility
from repro.kernels.base import Kernel
from repro.observability import runtime as obs_runtime


def derated_strike_count(n_reference: int, derating: float) -> int:
    """Struck executions a board at ``derating`` simulates.

    Uses round-half-up (``floor(x + 0.5)``) rather than Python's built-in
    banker's rounding: ``round()`` rounds ties to the even neighbour, so two
    boards at deratings 0.5 and 0.50001 of a 100-strike reference would get
    50 and 50 — but at 150 strikes, 0.5 would give 75 via half-up yet 74 via
    banker's while 0.500001 gives 75, a silent one-strike asymmetry between
    near-identical positions.  Half-up is monotone in the derating, which is
    the property the shared-exposure bookkeeping needs.
    """
    return max(1, math.floor(n_reference * derating + 0.5))


@dataclass
class BoardSlot:
    """One board in the beam line.

    Attributes:
        kernel: the workload the board runs.
        device: the board's device model.
        derating: beam attenuation at the board's position (1.0 at the
            reference position, <1 further from the source).
        label: display label.
    """

    kernel: Kernel
    device: DeviceModel
    derating: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not 0 < self.derating <= 1:
            raise ValueError("derating must be in (0, 1]")
        if not self.label:
            self.label = f"{self.kernel.name}/{self.device.name}@{self.derating:g}"


@dataclass
class BoardResult:
    """A board's campaign plus its position bookkeeping.

    Attributes:
        slot: the board's position in the beam line.
        result: the board's campaign; its ``fluence`` is the *received*
            (derating-exact) fluence, not the naive struck-count estimate.
        beam_seconds: shared wall-clock exposure implied by the reference
            strike count — identical for boards with the same cross-section
            regardless of position, because derating cancels between the
            received fluence and the derated flux.
        received_fluence: exact fluence through the board's position,
            ``n_reference * derating / (sigma * STRIKES_PER_FLUENCE_AU)``
            — computed from the un-rounded derated strike expectation.
    """

    slot: BoardSlot
    result: CampaignResult
    beam_seconds: float
    received_fluence: float = 0.0

    def __post_init__(self):
        if not self.received_fluence:
            # Stand-alone construction (tests, ad-hoc analysis): trust the
            # campaign's own fluence accounting.
            self.received_fluence = self.result.fluence

    def derated_fit(self) -> float:
        """FIT normalised by the fluence the board actually received —
        the paper's derating correction.  Position-independent if the
        derating factors are right.

        The campaign's ``fluence`` *is* the received fluence (passed in by
        :meth:`BeamSession.run`), so the campaign FIT is already the
        derating-corrected rate.
        """
        return self.result.fit_total()


@dataclass
class BeamSession:
    """One shared beam exposure over several boards.

    Every board is exposed for the same wall-clock beam time; a board at
    derating ``d`` accumulates ``d x`` the reference fluence, so its
    campaign sees proportionally fewer strikes.  In accelerated mode this
    is realised by scaling the struck-execution count per board and
    accounting the derated fluence.
    """

    slots: list[BoardSlot]
    facility: Facility = LANSCE
    n_faulty_reference: int = 200
    seed: int = 0
    workers: "int | None" = 1
    chunk_size: "int | None" = None
    timeout: "float | None" = None

    def __post_init__(self):
        if not self.slots:
            raise ValueError("a beam session needs at least one board")
        if self.n_faulty_reference < 1:
            raise ValueError("n_faulty_reference must be >= 1")

    def run(self) -> list[BoardResult]:
        """Run every board's campaign under the shared exposure.

        Boards are irradiated simultaneously in the paper, with campaigns
        seeded independently (``(seed, "beam-session", position)``): each
        board is a job of one scheduler run (:func:`~repro.beam.campaign.
        run_campaigns`), all on one pool of ``workers``.  Results keep
        slot order and are bit-identical to running the boards one after
        another.  A trace holds one ``session`` span over one ``board``
        span per slot, each over its board's ``campaign`` span.
        """
        tracer = obs_runtime.get_tracer()
        metrics = obs_runtime.get_metrics()
        if metrics is not None:
            metrics.counter(
                "repro_session_boards_total",
                "Board campaigns run under shared beam exposures",
            ).inc(len(self.slots))
        campaigns = [
            Campaign(
                kernel=slot.kernel, device=slot.device,
                n_faulty=derated_strike_count(
                    self.n_faulty_reference, slot.derating
                ),
                seed=stable_seed(self.seed, "beam-session", position),
                facility=self.facility, label=slot.label,
            )
            for position, slot in enumerate(self.slots)
        ]
        received = [
            (self.n_faulty_reference * slot.derating)
            / (campaign.cross_section * STRIKES_PER_FLUENCE_AU)
            for slot, campaign in zip(self.slots, campaigns)
        ]
        boards = None
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.span(
                    "session",
                    f"beam-session[{len(self.slots)}]",
                    n_boards=len(self.slots),
                    n_faulty_reference=self.n_faulty_reference,
                    facility=self.facility.name,
                    seed=self.seed,
                ))
                boards = [
                    stack.enter_context(tracer.span(
                        "board", slot.label, current=False,
                        position=position, derating=slot.derating,
                        kernel=slot.kernel.name, device=slot.device.name,
                    ))
                    for position, slot in enumerate(self.slots)
                ]
            results = run_campaigns(
                campaigns,
                CampaignExecutor(
                    workers=self.workers, chunk_size=self.chunk_size,
                    timeout=self.timeout,
                ),
                parents=boards, fluences=received,
            )
        # Shared wall-clock exposure: received fluence / derated flux
        # = (n_ref * d / (sigma * AU)) / (flux * d).  The derating cancels
        # algebraically (cancelled here rather than numerically, so boards
        # with equal cross-sections report bit-identical beam time) — the
        # paper's "one beam, four boards" shares one clock.
        return [
            BoardResult(
                slot=slot, result=result, received_fluence=fluence,
                beam_seconds=self.n_faulty_reference / (
                    self.facility.flux * campaign.cross_section
                    * STRIKES_PER_FLUENCE_AU
                ),
            )
            for slot, campaign, result, fluence in zip(
                self.slots, campaigns, results, received
            )
        ]

    @staticmethod
    def position_check(
        results: "list[BoardResult]", *, tolerance: float = 0.5
    ) -> bool:
        """The paper's validation: derated FIT is position-independent.

        Boards with the same (kernel, device) at different positions must
        agree on derated FIT within ``tolerance`` (relative spread).
        """
        groups: dict[tuple[str, str], list[float]] = {}
        for board in results:
            key = (board.result.kernel_name, board.result.device_name)
            groups.setdefault(key, []).append(board.derated_fit())
        for fits in groups.values():
            if len(fits) < 2:
                continue
            centre = sum(fits) / len(fits)
            if centre == 0:
                continue
            spread = (max(fits) - min(fits)) / centre
            if spread > tolerance:
                return False
        return True

    @staticmethod
    def render(results: "list[BoardResult]") -> str:
        rows = [
            (
                board.slot.label,
                f"{board.slot.derating:g}",
                board.result.n_executions,
                f"{board.derated_fit():.2f}",
                format_ratio(board.result.sdc_to_detectable_ratio()),
            )
            for board in results
        ]
        return format_table(
            ("board", "derating", "struck", "derated FIT", "SDC:detectable"), rows
        )
