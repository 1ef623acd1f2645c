"""Shared pieces of the benchmark: paths, stored data, workload settings.

Every setting that decides *what* a workload computes lives here, so the
golden-data generator (``make_golden.py``) and the benchmark (``run.py``)
cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from tracer import OP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA_DIR = os.path.join(HERE, "data")
SRC_DIR = os.path.join(ROOT, "src")


def use_repo_sources() -> None:
    """Imports ``repro`` from the checkout's ``src/`` (never an installed
    copy), so the benchmark measures the tree it sits in."""
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


#: the paper's machine: 62 usable cores on an 8x8 mesh
PAPER_CORES = 62
MESH_WIDTH = 8

#: Figure 7 programs, in the paper's order
FIG7_PROGRAMS = ["Tracking", "KMeans", "MonteCarlo", "FilterBank", "Fractal", "Series"]
#: the committed Figure 7 62-core cycle counts the frozen layouts reproduce
FIG7_MANY_CYCLES = {
    "Tracking": 104355,
    "KMeans": 448363,
    "MonteCarlo": 148319,
    "FilterBank": 327618,
    "Fractal": 209341,
    "Series": 129406,
}
#: the DSA budget the committed Figure 7 layouts were searched with
FIG7_MAX_EVALUATIONS = 400

#: search-dsa: programs x core counts, and the anneal budget per synthesis
SEARCH_PROGRAMS = ["MonteCarlo", "Series", "KMeans"]
SEARCH_CORES = [16, 62]
SEARCH_MAX_EVALUATIONS = 60
#: anneal seeds a workload seed may draw from (each has a golden entry)
SEARCH_SEED_POOL = list(range(8))

#: serve-mix: programs the daemon serves, core counts and search budget
SERVE_PROGRAMS = ["Keyword", "Tracking", "Series"]
SERVE_CORES = [4, 16]
SERVE_MAX_EVALUATIONS = 60
SERVE_SEED_POOL = list(range(8))


#: iterations of the calibration loop, and its median CPU seconds on the
#: reference host (the 2-CPU host the benchmark was tuned on)
CALIBRATION_LOOPS = 500_000
CALIBRATION_REFERENCE_S = 0.040


def calibrate() -> float:
    """CPU seconds of one fixed pure-Python loop (no program code)."""
    start = time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.process_time() - start


def cpu_scale(samples: List[float]) -> float:
    """Factor turning CPU seconds measured next to ``samples`` into
    reference-host CPU seconds. A shared host's speed can drift by tens
    of percent from minute to minute and the calibration loop drifts
    with it, so the scaled times keep mostly the program's own cost."""
    if not samples:
        return 1.0
    return CALIBRATION_REFERENCE_S / statistics.median(samples)


def mesh_width_for(cores: int) -> Optional[int]:
    """62-core searches target the paper's 8-wide mesh; smaller core
    counts use the library's default (smallest square) mesh."""
    return MESH_WIDTH if cores == PAPER_CORES else None


def search_options(name: str, cores: int, seed: int):
    """The search-dsa synthesis: serial, default cache and delta settings,
    and a fixed budget. ``continue_probability=1`` stops the search only
    on its budget, so the CPU time per synthesis measures the search's
    speed rather than how early a seed happens to give up."""
    from repro.bench import get_spec
    from repro.core import SynthesisOptions
    from repro.schedule.anneal import AnnealConfig

    return SynthesisOptions(
        anneal=AnnealConfig(
            seed=seed,
            max_evaluations=SEARCH_MAX_EVALUATIONS,
            continue_probability=1.0,
        ),
        hints=get_spec(name).hints,
        mesh_width=mesh_width_for(cores),
        workers=1,
    )


def serve_params(name: str, cores: int, seed: int) -> Dict[str, object]:
    """The parameters of one serve-mix ``synthesize`` request."""
    params = program_params(name)
    params.update(cores=cores, seed=seed, max_evaluations=SERVE_MAX_EVALUATIONS)
    return params


def program_params(name: str) -> Dict[str, object]:
    """The parameters naming one serve-mix program and its profile input."""
    from repro.bench import get_spec, load_source

    spec = get_spec(name)
    return {
        "source": load_source(name),
        "filename": spec.filename,
        "args": list(spec.args),
        "optimize": False,
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: Dict[str, object]) -> str:
    return digest(json.dumps(result, sort_keys=True, separators=(",", ":")))


def load_data(name: str) -> Dict[str, object]:
    with open(os.path.join(DATA_DIR, name)) as handle:
        return json.load(handle)


def write_data(name: str, doc: Dict[str, object]) -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    path = os.path.join(DATA_DIR, name)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """What one workload's timed window produced."""

    def __init__(self):
        #: latency of every operation, in seconds of the workload's clock
        self.latencies: List[float] = []
        #: CPU seconds of each pass over the workload's machine runs
        self.passes: List[float] = []
        #: 1-core / N-core machine cycles of each checked layout
        self.speedups: List[float] = []
        #: |estimate / machine - 1| of each checked layout
        self.est_errors: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: work per second (see ``req_per_s`` in README.md)
        self.per_s = 0.0
        #: per-layer values the workload records itself
        self.layer: Dict[str, float] = {}
        #: peak RSS of helper processes (the daemon), MiB
        self.extra_rss_mb = 0.0
        #: CPU seconds of the calibration loop, sampled between operations
        self.calibration: List[float] = []

    def calibrate(self) -> None:
        self.calibration.append(calibrate())

    def cpu_scale(self) -> float:
        return cpu_scale(self.calibration)

    def add(self, name: str, amount: float = 1) -> None:
        self.layer[name] = self.layer.get(name, 0) + amount

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: failed: {what}", file=sys.stderr)


def timed(clock, tracer, call, *args, **kwargs):
    """Runs one operation; returns ``(result, seconds)``. When traced, the
    operation is the root span the layers' spans nest under."""
    start = clock()
    if tracer is None:
        result = call(*args, **kwargs)
    else:
        result = tracer.span(OP, call, *args, **kwargs)
    return result, clock() - start


@contextmanager
def paused(tracer):
    """Keeps untimed checking work out of the per-layer spans."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def units(seconds: float, unit_seconds: float) -> int:
    """Units of work (passes, rounds) a run of ``seconds`` makes: fixed by
    ``--seconds`` alone, never by how fast the host happens to be."""
    return max(1, round(seconds / unit_seconds))
