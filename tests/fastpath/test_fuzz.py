"""Generated differential fuzzer: ``run_delta_batch`` ≡ ``run``, per slot.

The injector resolves every data-reaching strike through
``Kernel.run_delta_batch`` and re-executes densely only the faults the
replay declines, so the replay must be exact wherever it answers.  This
suite draws what the fixed-config differential tests do not: any of the
five registry kernels at a tiny configuration with odd sizes (a DGEMM
tile that does not divide ``n``, HotSpot and CLAMR snapshot intervals,
CLAMR's scheme, remesh interval and coarsening tolerance, LavaMD with
and without forces), any registry device, and a stacked batch of one to
four faults with drawn site, progress, flip model, seed and extent.

Each slot of the batch must be one of:

* ``None`` — the replay declined, the dense path answers;
* a :class:`~repro.kernels.base.SparseOutput` that materialises to
  ``Kernel.run(fault).output`` bit for bit, and whose sparse observation
  is bit-identical to the dense one;
* a :class:`~repro.kernels.base.KernelCrashError` carrying ``run``'s
  message.

The fuzzer has found no counterexample yet.  The ``@example`` cases are
picked by hand: a stacked DGEMM batch whose tile does not divide ``n``,
and CG, whose delta path declines everything, on ``k40-16nm``.  Pin a
shrunk counterexample the same way, and fix it by making that kernel's
delta path decline the case, never by changing the dense path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.arch import ResourceKind
from repro.arch.registry import DEVICE_FACTORIES, make_device
from repro.bitflip.models import (
    ExponentBitFlip,
    MantissaBitFlip,
    MultiBitFlip,
    SingleBitFlip,
    WordRandomize,
)
from repro.kernels.base import KernelCrashError, KernelFault
from repro.kernels.registry import make_kernel

#: Flip models drawn beside the device's own model for the struck resource.
FLIPS = {
    "single": SingleBitFlip(),
    "exponent": ExponentBitFlip(),
    "multi3": MultiBitFlip(n_bits=3),
    "randomize": WordRandomize(),
    "mantissa-top4": MantissaBitFlip(top_bits=4),
}

#: Longest burst drawn for a site that accepts extents.
MAX_EXTENT = 8


@st.composite
def configs(draw):
    """``(kernel name, tiny config)`` over all five registry kernels."""
    name = draw(st.sampled_from(["cg", "clamr", "dgemm", "hotspot", "lavamd"]))
    if name == "dgemm":
        n = draw(st.integers(2, 20))
        return name, {"n": n, "tile": draw(st.integers(1, n))}
    if name == "hotspot":
        iterations = draw(st.integers(1, 10))
        return name, {
            "n": draw(st.integers(4, 14)),
            "iterations": iterations,
            "snapshot_every": draw(
                st.none() | st.integers(1, iterations + 2)
            ),
        }
    if name == "lavamd":
        return name, {
            "nb": draw(st.integers(2, 3)),
            "particles_per_box": draw(st.integers(2, 5)),
            "include_forces": draw(st.booleans()),
        }
    if name == "clamr":
        steps = draw(st.integers(1, 8))
        return name, {
            "n": draw(st.sampled_from([8, 10, 12, 16])),
            "steps": steps,
            "scheme": draw(st.sampled_from(["rusanov", "muscl"])),
            "remesh_every": draw(st.integers(1, 6)),
            "coarsen_fraction": draw(st.sampled_from([0.0, 0.02, 0.1, 0.5])),
            "snapshot_every": draw(st.none() | st.integers(1, steps + 1)),
        }
    return name, {
        "n": draw(st.integers(4, 9)),
        "iterations": draw(st.integers(1, 6)),
        "tile": draw(st.integers(1, 5)),
    }


@st.composite
def fault_specs(draw, sites):
    """One fault as plain data: ``(site, progress, flip, seed, extent)``."""
    return (
        draw(st.sampled_from(sites)),
        draw(st.floats(0.0, 1.0, exclude_max=True)),
        draw(st.sampled_from(["device", *sorted(FLIPS)])),
        draw(st.integers(0, 2**31 - 1)),
        draw(st.integers(1, MAX_EXTENT)),
    )


@st.composite
def cases(draw):
    name, config = draw(configs())
    device = draw(st.sampled_from(sorted(DEVICE_FACTORIES)))
    sites = [site.name for site in make_kernel(name, **config).fault_sites()]
    faults = draw(st.lists(fault_specs(sites), min_size=1, max_size=4))
    return name, config, device, faults


def build_faults(kernel, device, specs) -> list:
    """Injector-shaped faults: the device's sharing breadth for the site's
    resource, an extent only where the site accepts bursts."""
    faults = []
    for site_name, progress, flip, seed, extent in specs:
        site = kernel.site(site_name)
        kind = ResourceKind(site.resource)
        faults.append(KernelFault(
            site=site_name,
            progress=progress,
            flip=(
                device.flip_model(kind, kernel.name) if flip == "device"
                else FLIPS[flip]
            ),
            seed=seed,
            extent=extent if site.supports_extent else 1,
            sharing=device.sharing_breadth(kind, kernel),
        ))
    return faults


def observation_bytes(observation) -> tuple:
    """A bit-exact projection of an ErrorObservation."""
    return (
        observation.is_sdc,
        tuple(observation.shape),
        np.ascontiguousarray(observation.indices).tobytes(),
        np.ascontiguousarray(observation.read).tobytes(),
        np.ascontiguousarray(observation.expected).tobytes(),
        np.ascontiguousarray(observation.coordinates_for_locality()).tobytes(),
    )


def check_case(name, config, device_name, specs) -> None:
    """Assert the three-way slot contract for one drawn batch."""
    kernel = make_kernel(name, **config)
    device = make_device(device_name)
    faults = build_faults(kernel, device, specs)
    slots = kernel.run_delta_batch(faults)
    assert len(slots) == len(faults)
    golden = kernel.golden().output
    for position, (fault, slot) in enumerate(zip(faults, slots)):
        if slot is None:
            continue
        where = f"{name} {config} on {device_name}, slot {position}: {fault}"
        try:
            dense = kernel.run(fault).output
        except KernelCrashError as crash:
            assert isinstance(slot, KernelCrashError), (
                f"{where}: run crashed ({crash}) but the replay did not"
            )
            assert str(slot) == str(crash), where
            continue
        assert not isinstance(slot, KernelCrashError), (
            f"{where}: the replay crashed ({slot}) but run did not"
        )
        materialized = slot.materialize(golden)
        assert materialized.dtype == dense.dtype, where
        assert materialized.tobytes() == dense.tobytes(), (
            f"{where}: the sparse delta diverges from full re-execution"
        )
        assert observation_bytes(kernel.observe_sparse(slot)) == (
            observation_bytes(kernel.observe(dense))
        ), f"{where}: observe_sparse diverges from observe"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
@example(case=("dgemm", {"n": 7, "tile": 3}, "k40", [
    ("scheduler_block", 0.5, "device", 11, 1),
    ("shared_tile", 0.9, "device", 12, 4),
]))
@example(case=("cg", {"n": 5, "iterations": 3, "tile": 2}, "k40-16nm", [
    ("direction", 0.25, "device", 3, 8),
]))
def test_delta_batch_matches_run(case):
    check_case(*case)
