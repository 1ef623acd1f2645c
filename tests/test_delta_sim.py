"""Checkpointed resume of a search that checkpoints every iteration.

Simulation sessions are per-evaluator scratch state and are not written
to checkpoints; a resumed search rebuilds them cold. The contract kept
here is that this cannot show in the result: a search interrupted after
one iteration and resumed from its checkpoint — while still writing
checkpoints on every iteration — retraces the uninterrupted run exactly.
"""

from repro.bench import get_spec, load_benchmark
from repro.core import SynthesisOptions, synthesize_layout
from repro.schedule.anneal import AnnealConfig

from test_search import SMALL_ANNEAL, report_fingerprint, small_profile


class TestWarmSessionCheckpoint:
    def test_resume_with_warm_sessions_is_bit_identical(self, tmp_path):
        """An interrupted search resumed from its checkpoint retraces the
        uninterrupted run exactly."""
        compiled = load_benchmark("Tracking")
        profile = small_profile("Tracking")
        anneal = AnnealConfig(seed=7, checkpoint_every=1, **SMALL_ANNEAL)
        baseline = synthesize_layout(
            compiled, profile, 4,
            options=SynthesisOptions(
                anneal=anneal, hints=get_spec("Tracking").hints
            ),
        )
        short = AnnealConfig(
            seed=7, checkpoint_every=1,
            **{**SMALL_ANNEAL, "max_iterations": 1},
        )
        path = str(tmp_path / "search.ckpt")
        synthesize_layout(
            compiled, profile, 4,
            options=SynthesisOptions(
                anneal=short, hints=get_spec("Tracking").hints,
                checkpoint_path=path,
            ),
        )
        resumed = synthesize_layout(
            compiled, profile, 4,
            options=SynthesisOptions(
                anneal=anneal, hints=get_spec("Tracking").hints,
                checkpoint_path=path, resume=path,
            ),
        )
        assert report_fingerprint(resumed) == report_fingerprint(baseline)
