"""The benchmark's workloads: seeded inputs, a timed phase, checked outputs.

Every workload drives the program through its public API only, with the
fast path and batched execution selected by the ``REPRO_FASTPATH`` and
``REPRO_BATCH`` environment variables (set by ``run.py``), the default
pool backend, and ``workers = nproc``.

A *request* is one thing a user waits for:

* on the journal workloads, one ``execute_spec`` call into the store —
  *fresh* when it runs a new spec to a sealed journal, *cached* when it
  resubmits a completed run and the store answers from the journal;
* on ``service-mixed``, one ``submit`` -> ``wait`` -> ``result`` round trip
  against an in-process campaign service, timed to the last byte of the
  result.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.kernels.base import clear_golden_cache
from repro.kernels.registry import make_kernel
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import CampaignService, ServiceConfig, ServiceServer
from repro.store import CampaignSpec, CampaignStore
from repro.store.runner import execute_spec

import verify

__all__ = [
    "NPROC",
    "STORED_SEED",
    "CLIENTS",
    "Request",
    "Phase",
    "JournalWorkload",
    "ServiceWorkload",
    "CATALOGUE",
    "seed_store",
]

#: Processors this process may run on: the pool size and the client cap.
NPROC = len(os.sched_getaffinity(0))

#: Upper bound on one request; a slower one counts as failed.
REQUEST_TIMEOUT_S = 120.0

#: Campaign seed of every pre-seeded run; fresh requests never draw it.
STORED_SEED = 1

#: Closed-loop client threads on ``service-mixed``.
CLIENTS = min(2, NPROC)


@dataclass
class Request:
    """One timed request and what it returned."""

    kind: str                  # "fresh" | "cached"
    seconds: float
    started: float = 0.0       # time.perf_counter() at submission
    run_id: str = ""
    strikes: int = 0           # executed strikes made durable (fresh only)
    error: str = ""
    fingerprint: object = None  # digest of the answer, checked by verify()
    body: "bytes | None" = None  # service fresh requests: the fetched log
    spec: "CampaignSpec | None" = None
    status: "dict | None" = None

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Phase:
    """What one timed phase produced, and where its outputs live."""

    requests: list
    wall: float                # timed wall seconds
    exec_per_s: float          # strikes made durable per second (see workloads)
    store: CampaignStore
    scratch: Path              # deleted by :meth:`cleanup`
    setup_times: list = field(default_factory=list)  # seconds per set-up
    problems: dict = field(default_factory=dict)  # run id -> [problem, ...]
    digests: dict = field(default_factory=dict)   # run id -> sealed log SHA-256
    expected: dict = field(default_factory=dict)  # run id -> digest of its answer

    def fresh(self) -> list:
        return [r for r in self.requests if r.kind == "fresh" and r.ok]

    def failed(self) -> int:
        return sum(
            1 for r in self.requests if not r.ok or self.problems.get(r.run_id)
        )

    def bytes_per_record(self) -> float:
        """Journal bytes per journal line, over the fresh runs' journals."""
        size = lines = 0
        for request in self.fresh():
            data = self.store.path_for(request.run_id).read_bytes()
            size += len(data)
            lines += data.count(b"\n")
        return size / lines if lines else 0.0

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _result_fingerprint(result) -> str:
    """A digest of a campaign result's records and fluence bookkeeping."""
    summary = [
        (record.index, record.outcome.value, record.site) for record in result.records
    ]
    payload = json.dumps([summary, result.fluence, result.n_executions])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# -- pre-seeded stores ---------------------------------------------------------------


def program_digest() -> str:
    """SHA-256 over the path and bytes of every source file of ``repro``."""
    package = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def seed_store(cache: Path, name: str, specs: list, sampling, digest) -> "tuple[Path, dict]":
    """A store pre-seeded with completed ``specs``, and its manifest.

    Built once per program version, untimed, and reused by every later
    run of that version in the same checkout; a run copies it, so each run
    starts from identical bytes.  The program's source digest is part of
    the store's identity, so a store is only ever read by the code that
    wrote its journals.  The manifest maps each run id to
    ``digest(store, run_id)``, the answer every cached request for that
    run must reproduce.
    """
    identity = json.dumps(
        [s.to_dict() for s in specs] + [sampling, program_digest()], sort_keys=True
    )
    root = cache / f"{name}-{verify.sha256(identity.encode())[:12]}"
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        building = Path(tempfile.mkdtemp(prefix="building-", dir=cache))
        store = CampaignStore(building / "store")
        manifest = {}
        for spec in specs:
            outcome = execute_spec(store, spec, workers=NPROC, sampling=sampling)
            manifest[outcome.run_id] = digest(store, outcome.run_id)
        (building / "manifest.json").write_text(json.dumps(manifest, indent=1))
        shutil.rmtree(root, ignore_errors=True)
        os.replace(building, root)
    return root / "store", json.loads(manifest_path.read_text())


def _stored_fingerprint(store: CampaignStore, run_id: str) -> str:
    return _result_fingerprint(store.load(run_id).result())


# -- journal workloads -------------------------------------------------------------


@dataclass
class JournalWorkload:
    """Fixed campaigns run through ``execute_spec`` into a durable store.

    The store starts as a copy of a pre-seeded store (the completed run
    of ``STORED_SEED``, built once per program version).  Each cycle runs
    ``fresh_per_cycle`` new seeded specs (fresh) and ``cached_per_cycle``
    resubmissions of the stored run (cached): every run reads the same
    cached bytes.
    ``exec_per_s`` is the fresh requests' strikes made durable per second
    of timed wall time (the summed time of every request).
    """

    #: Request kinds behind latency_tail_s: the slow fresh campaigns, as
    #: the few of them would otherwise leave the tail among cached loads.
    tail_kinds = ("fresh",)

    name: str
    kernel: str
    device: str
    config: dict
    n_faulty: int
    interactions: dict
    setups: int = 5            # set-up repetitions behind setup_s
    #: A run makes one cycle of requests per ``cycle_s`` of the
    #: ``--seconds`` asked for (rounded, at least one), about a cycle's
    #: duration on a 2-vCPU Xeon.  A deadline would end a run after a
    #: varying number of multi-second campaigns; a fixed count gives every
    #: seed the same requests to time.
    cycle_s: float = 5.0
    sample: int = 8            # journal rows recomputed per fresh run
    #: Request mix of a cycle.  One kind is always a clear majority, so
    #: latency_p50_s falls inside that kind's latencies, not in the gap
    #: between the fresh and the cached ones; cheap cached requests get
    #: more samples per cycle.
    fresh_per_cycle: int = 2
    cached_per_cycle: int = 1

    def _setup(self, root: Path) -> "tuple[CampaignStore, float]":
        """Store creation + kernel build + golden run (incl. CLAMR's chain)."""
        clear_golden_cache()
        start = time.perf_counter()
        store = CampaignStore(root)
        make_kernel(self.kernel, **self.config).shared_golden_payload()
        return store, time.perf_counter() - start

    def _measure_setup(self, work: Path) -> float:
        scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=work))
        try:
            return self._setup(scratch / "store")[1]
        finally:
            shutil.rmtree(scratch)

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            kernel=self.kernel, device=self.device, config=dict(self.config),
            seed=seed, n_faulty=self.n_faulty,
        )

    def _reaching(self, seed: int) -> int:
        """Data-reaching strikes of the campaign for ``seed`` (pure RNG)."""
        campaign = self.spec(seed).build_campaign(backend="serial")
        fates = campaign.injector.classify_batch(range(self.n_faulty))
        return sum(1 for outcome, _, _ in fates if outcome is None)

    def _campaign_seeds(self, rng: random.Random):
        """Seeded campaign seeds with a typical count of data-reaching strikes.

        Only data-reaching strikes run kernel code, and on CLAMR their
        count varies by +-15% between campaign seeds.  Drawing seeds until
        the count is within 2% of the median over fixed calibration seeds
        lets ``--seed`` change which strikes run but not how many.
        """
        target = statistics.median(self._reaching(seed) for seed in range(8))
        band = max(1.0, 0.02 * target)
        while True:
            seed = rng.randrange(1, 2**31)
            if seed == STORED_SEED:
                continue
            if abs(self._reaching(seed) - target) <= band:
                yield seed

    def _cycle(self, campaign_seeds) -> list:
        """One cycle's ``(kind, spec)``: each fresh request, then its share
        of the cached ones.

        Splitting the cached requests spreads them over more stretches of
        the run; on CLAMR they ran 0.11 s or 0.18 s a stretch at a time.
        """
        cached = [("cached", self.spec(STORED_SEED))]
        fresh, share = self.fresh_per_cycle, self.cached_per_cycle
        cycle = []
        for number in range(fresh):
            cycle.append(("fresh", self.spec(next(campaign_seeds))))
            cycle += cached * (share * (number + 1) // fresh - share * number // fresh)
        return cycle

    def _request(self, store: CampaignStore, spec: CampaignSpec, kind: str) -> Request:
        start = time.perf_counter()
        try:
            outcome = execute_spec(store, spec, workers=NPROC)
        except Exception as exc:  # a failed request is reported, not fatal
            return Request(
                kind=kind, seconds=time.perf_counter() - start,
                run_id=spec.run_id(), error=f"{type(exc).__name__}: {exc}",
            )
        request = Request(
            kind=kind, seconds=time.perf_counter() - start, run_id=outcome.run_id
        )
        if outcome.cached != (kind == "cached"):
            request.error = f"{kind} request answered with cached={outcome.cached}"
        if kind == "fresh":
            request.strikes = len(outcome.result.records)
        else:
            request.fingerprint = _result_fingerprint(outcome.result)
        return request

    def run(self, work: Path, seed: int, seconds: float, setups: int = 0) -> Phase:
        """The timed phase; ``setups`` set-ups are timed between its cycles."""
        campaign_seeds = self._campaign_seeds(random.Random(f"{self.name}/{seed}"))
        seeded, manifest = seed_store(
            work / "cache", self.name, [self.spec(STORED_SEED)], None,
            _stored_fingerprint,
        )
        scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=work))
        shutil.copytree(seeded, scratch / "store")
        store, _ = self._setup(scratch / "store")
        requests: list = []
        setup_times: list = []
        busy = 0.0
        cycles = max(1, round(seconds / self.cycle_s))
        # Whole cycles only, so every run has the same mix of request kinds.
        for number in range(cycles):
            # Set-ups spread over the run sample its machine states, as the
            # requests do; each leaves this kernel's golden run cached, as
            # the store's own set-up did.
            while len(setup_times) < setups * (number + 1) // cycles:
                setup_times.append(self._measure_setup(work))
            for kind, spec in self._cycle(campaign_seeds):
                # Each request starts from a collected heap, as a fresh
                # `repro queue` process would; collection is not timed.
                gc.collect()
                request = self._request(store, spec, kind)
                requests.append(request)
                busy += request.seconds
        strikes = sum(r.strikes for r in requests if r.ok)
        return Phase(
            requests=requests, wall=busy, exec_per_s=strikes / busy,
            store=store, scratch=scratch, expected=manifest,
            setup_times=setup_times,
        )

    def verify(self, phase: Phase, seed: int) -> None:
        rng = random.Random(f"{self.name}/verify/{seed}")
        for request in phase.requests:
            if not request.ok:
                continue
            if request.kind == "fresh":
                check = verify.check_journal(phase.store, request.run_id, rng, self.sample)
                phase.digests[request.run_id] = check.sha256
                if check.problems:
                    phase.problems.setdefault(request.run_id, []).extend(check.problems)
            elif request.fingerprint != phase.expected[request.run_id]:
                phase.problems.setdefault(request.run_id, []).append(
                    "cached answer differs from the pre-seeded run"
                )


# -- the service workload ------------------------------------------------------------


@dataclass
class _Running:
    service: CampaignService
    server: ServiceServer
    thread: threading.Thread

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10.0)
        self.service.shutdown()


@dataclass
class ServiceWorkload:
    """Closed-loop clients against an in-process campaign service.

    The store starts as a copy of a pre-seeded store (one completed
    adaptive run per kernel x device, built once per checkout).  Clients
    draw from one request sequence in a fixed order: every kernel x device
    in turn as a fresh adaptive campaign, with a resubmission of a stored
    run after every second one (the first included), the stored runs also
    taken in turn.  The seed draws the fresh campaigns' seeds, so runs
    differ in inputs, not in mix.
    """

    tail_kinds = ("fresh", "cached")

    name: str
    family: tuple              # (kernel, config) pairs
    devices: tuple
    pool: int                  # candidate strikes per campaign (n_faulty)
    sampling: dict
    interactions: dict
    setups: int = 7            # boots behind setup_s
    direct_checks: int = 2     # fresh runs re-run through execute_spec
    sample: int = 4            # journal rows recomputed per checked run

    # -- inputs ------------------------------------------------------------------

    def _spec(self, kernel, config, device, seed) -> CampaignSpec:
        return CampaignSpec(
            kernel=kernel, device=device, config=dict(config), seed=seed,
            n_faulty=self.pool,
        )

    def stored_specs(self) -> list:
        return [
            self._spec(kernel, config, device, STORED_SEED)
            for kernel, config in self.family
            for device in self.devices
        ]

    def _sequence(self, rng: random.Random):
        """The seeded request sequence: ``(kind, spec)`` forever."""
        stored = self.stored_specs()
        used = {STORED_SEED}
        combos = [(k, c, d) for k, c in self.family for d in self.devices]
        for number in itertools.count():
            kernel, config, device = combos[number % len(combos)]
            seed = rng.randrange(1, 2**31)
            while seed in used:
                seed = rng.randrange(1, 2**31)
            used.add(seed)
            yield "fresh", self._spec(kernel, config, device, seed)
            if number % 2 == 0:
                yield "cached", stored[number // 2 % len(stored)]

    def _seed_store(self, work: Path) -> "tuple[Path, dict]":
        return seed_store(
            work / "cache", self.name, self.stored_specs(), self.sampling,
            lambda store, run_id: verify.sha256(verify.log_bytes(store, run_id)),
        )

    # -- service lifecycle -----------------------------------------------------------

    def _boot(self, store_dir: Path) -> "tuple[_Running, float]":
        """Boot on ``store_dir``; returns the service and seconds to ready."""
        start = time.perf_counter()
        service = CampaignService(
            ServiceConfig(host="127.0.0.1", port=0, store=store_dir, workers=NPROC)
        )
        service.start()
        server = ServiceServer(service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        running = _Running(service, server, thread)
        client = ServiceClient(running.url)
        deadline = time.monotonic() + 60.0
        while not client.ready():
            if time.monotonic() >= deadline:
                running.stop()
                raise TimeoutError("service did not become ready")
            time.sleep(0.002)
        return running, time.perf_counter() - start

    def _measure_boots(self, work: Path, seeded: Path, setups: int) -> list:
        if not setups:
            return []
        scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-boot-", dir=work))
        try:
            store_dir = scratch / "store"
            shutil.copytree(seeded, store_dir)
            times = []
            for _ in range(setups):
                running, seconds = self._boot(store_dir)
                running.stop()
                times.append(seconds)
            return times
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # -- the timed phase -------------------------------------------------------------

    def _one(self, client: ServiceClient, kind: str, spec: CampaignSpec) -> Request:
        start = time.perf_counter()
        request = Request(kind=kind, seconds=0.0, started=start, spec=spec)
        try:
            admission = client.submit(spec, sampling=self.sampling)
            request.run_id = admission["run_id"]
            status = client.wait(request.run_id, timeout=REQUEST_TIMEOUT_S)
            body = client.result_text(request.run_id).encode("utf-8")
        except (ServiceError, TimeoutError, OSError, KeyError) as exc:
            request.seconds = time.perf_counter() - start
            request.error = f"{type(exc).__name__}: {exc}"
            return request
        request.seconds = time.perf_counter() - start
        request.status = status
        if status["status"] != "complete":
            request.error = f"run ended {status['status']}: {status.get('error')}"
        elif admission["cached"] != (kind == "cached"):
            request.error = f"{kind} request answered with cached={admission['cached']}"
        request.fingerprint = verify.sha256(body)
        if kind == "fresh":
            request.strikes = body.count(b"\n") - 1
            request.body = body
        return request

    def run(self, work: Path, seed: int, seconds: float, setups: int = 0) -> Phase:
        """The timed phase, after ``setups`` timed boots."""
        seeded, manifest = self._seed_store(work)
        setup_times = self._measure_boots(work, seeded, setups)
        scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=work))
        store_dir = scratch / "store"
        shutil.copytree(seeded, store_dir)
        clear_golden_cache()
        running, _ = self._boot(store_dir)
        sequence = self._sequence(random.Random(f"{self.name}/{seed}"))
        lock = threading.Lock()
        requests: list = []
        start = time.perf_counter()
        deadline = start + seconds
        finished = [start]

        def client_loop(number: int) -> None:
            client = ServiceClient(running.url, seed=seed * 1000 + number)
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    kind, spec = next(sequence)
                request = self._one(client, kind, spec)
                with lock:
                    requests.append(request)
                    finished[0] = max(finished[0], time.perf_counter())

        threads = [
            threading.Thread(target=client_loop, args=(n,), name=f"client-{n}")
            for n in range(CLIENTS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=REQUEST_TIMEOUT_S + seconds)
        finally:
            running.stop()
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("a client thread did not finish")
        wall = finished[0] - start
        strikes = sum(r.strikes for r in requests if r.ok)
        return Phase(
            requests=requests, wall=wall, exec_per_s=strikes / wall,
            store=CampaignStore(store_dir), scratch=scratch, expected=manifest,
            setup_times=setup_times,
        )

    def verify(self, phase: Phase, seed: int) -> None:
        rng = random.Random(f"{self.name}/verify/{seed}")
        first_fetch: dict = {}
        for request in phase.requests:
            if not request.ok:
                continue
            phase.digests[request.run_id] = request.fingerprint
            first = first_fetch.setdefault(request.run_id, request.fingerprint)
            if request.fingerprint != first:
                phase.problems.setdefault(request.run_id, []).append(
                    "fetch differs from the first fetch of the same run"
                )
            if request.kind == "cached" and request.fingerprint != phase.expected[request.run_id]:
                phase.problems.setdefault(request.run_id, []).append(
                    "cached fetch differs from the pre-seeded log"
                )
        fresh = phase.fresh()
        scratch = CampaignStore(phase.scratch / "direct")
        for request in rng.sample(fresh, min(self.direct_checks, len(fresh))):
            problems = verify.check_against_direct_run(
                request.body, request.spec, self.sampling, scratch, NPROC
            )
            problems += verify.check_journal(
                phase.store, request.run_id, rng, self.sample
            ).problems
            if problems:
                phase.problems.setdefault(request.run_id, []).extend(problems)


# -- the catalogue --------------------------------------------------------------------

CATALOGUE = {
    workload.name: workload
    for workload in (
        JournalWorkload(
            name="dgemm-journal",
            kernel="dgemm", device="k40", config={"n": 768}, n_faulty=1000,
            setups=21, cycle_s=4.0, fresh_per_cycle=3,
            interactions={
                "store.commit_s": "exec_per_s (moves)",
                "store.commits": "exec_per_s (moves)",
                "store.bytes_per_record": "exec_per_s, cached_mean_s (moves)",
                "beam.rows_s": "exec_per_s (moves)",
                "beam.rows": "exec_per_s (moves)",
                "store.load_s": "cached_mean_s (moves)",
                "faults.inject_s": (
                    "exec_per_s only once the parent stops being the "
                    "blocking step (worker-side)"
                ),
                "faults.self_s": "exec_per_s only once the parent stops blocking",
                "faults.evaluate_s": "exec_per_s only once the parent stops blocking",
                "kernels.delta_s": "exec_per_s only once the parent stops blocking",
                "kernels.golden_s": "setup_s (moves)",
            },
        ),
        JournalWorkload(
            name="clamr-dense",
            kernel="clamr", device="xeonphi", config={}, n_faulty=120,
            cached_per_cycle=4,
            interactions={
                "kernels.dense_s": "exec_per_s (moves)",
                "kernels.dense_runs": "exec_per_s (moves)",
                "kernels.delta_s": "exec_per_s (moves)",
                "kernels.delta_faults": "exec_per_s (moves)",
                "kernels.fastpath_hit_ratio": "exec_per_s (moves: the hit-rate push shows here)",
                "faults.inject_s": "exec_per_s (moves)",
                "kernels.golden_s": "setup_s (moves: golden run + fast-path chain)",
                "kernels.shared_export_s": "setup_s, exec_per_s (moves)",
                "store.commit_s": "exec_per_s (should not move)",
                "beam.rows_s": "exec_per_s (should not move)",
            },
        ),
        ServiceWorkload(
            name="service-mixed",
            family=(
                ("dgemm", {"n": 96}),
                ("lavamd", {"nb": 3, "particles_per_box": 12}),
                ("hotspot", {"n": 48, "iterations": 64}),
                ("cg", {"n": 16, "iterations": 24}),
            ),
            devices=("k40", "xeonphi"),
            pool=400,
            sampling={"target_ci": 0.1},
            interactions={
                "store.load_s": "cached_mean_s, latency_*, setup_s (moves)",
                "store.loads": "cached_mean_s, latency_* (moves)",
                "beam.log_lines_s": "cached_mean_s, latency_* (moves)",
                "service.status_s": "latency_*, fresh_p50_s (moves)",
                "service.status_polls": "latency_* (moves)",
                "service.result_s": "cached_mean_s, latency_* (moves)",
                "service.queue_wait_s": "fresh_p50_s, latency_tail_s (moves)",
                "kernels.golden_s": "fresh_p50_s (moves)",
                "kernels.golden_runs": "fresh_p50_s (moves)",
                "kernels.shared_export_s": "fresh_p50_s (moves)",
                "scheduler.run_s": "fresh_p50_s (moves)",
                "scheduler.batches": "fresh_p50_s (moves)",
                "scheduler.pool_starts": "fresh_p50_s (moves)",
                "scheduler.retries": "fresh_p50_s, failed requests (moves)",
                "sampling.plan_s": "fresh_p50_s (moves)",
                "sampling.rounds": "fresh_p50_s (moves)",
                "sampling.exec_ratio": "fresh_p50_s, exec_per_s (moves)",
            },
        ),
    )
}
