"""Regenerates the benchmark's stored data: golden references and the
frozen Figure 7 layouts.

Usage (from the repository root)::

    python3 perfbench/make_golden.py [fig7] [search] [serve]

The files under ``perfbench/data/`` were produced once with this script
and are checked in; the benchmark compares every operation against them.
Regenerate them only when a change is *meant* to alter program output or
simulated cycles, and say so in the change's description.
"""

from __future__ import annotations

import sys
import time

import common

common.use_repo_sources()

from repro.bench import get_spec, load_benchmark  # noqa: E402
from repro.core import (  # noqa: E402
    SynthesisOptions,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)
from repro.schedule.anneal import AnnealConfig  # noqa: E402
from repro.schedule.layout import Layout  # noqa: E402


def layout_doc(layout) -> dict:
    return {
        "num_cores": layout.num_cores,
        "mesh_width": layout.mesh_width,
        "topology": layout.topology,
        "instances": {task: list(cores) for task, cores in layout.as_dict().items()},
    }


def make_fig7() -> None:
    programs = {}
    for name in common.FIG7_PROGRAMS:
        spec = get_spec(name)
        compiled = load_benchmark(name)
        args = list(spec.args)
        started = time.process_time()
        seq = run_sequential(compiled, args)
        one = run_layout(compiled, single_core_layout(compiled), args)
        profile = profile_program(compiled, args)
        report = synthesize_layout(
            compiled,
            profile,
            common.PAPER_CORES,
            options=SynthesisOptions(
                seed=0,
                anneal=AnnealConfig(
                    seed=0, max_evaluations=common.FIG7_MAX_EVALUATIONS
                ),
                hints=spec.hints,
                mesh_width=common.MESH_WIDTH,
            ),
        )
        many = run_layout(compiled, report.layout, args)
        if not seq.stdout == one.stdout == many.stdout:
            raise SystemExit(f"{name}: run kinds disagree on stdout")
        if many.total_cycles != common.FIG7_MANY_CYCLES[name]:
            raise SystemExit(
                f"{name}: 62-core run took {many.total_cycles} cycles, "
                f"Figure 7 records {common.FIG7_MANY_CYCLES[name]}"
            )
        programs[name] = {
            "args": args,
            "stdout_sha256": common.digest(seq.stdout),
            "seq_cycles": seq.cycles,
            "one_cycles": one.total_cycles,
            "profile_cycles": profile.run_cycles,
            "profile_invocations": {
                task: stats.invocations for task, stats in profile.tasks.items()
            },
            "many_cycles": many.total_cycles,
            "layout": layout_doc(report.layout),
        }
        print(
            f"fig7 {name}: {time.process_time() - started:.1f}s cpu, "
            f"{one.total_cycles}/{many.total_cycles} cycles",
            flush=True,
        )
    common.write_data("fig7.json", {"programs": programs})


def make_search() -> None:
    programs = {}
    for name in common.SEARCH_PROGRAMS:
        spec = get_spec(name)
        compiled = load_benchmark(name)
        args = list(spec.args)
        profile = profile_program(compiled, args)
        seq = run_sequential(compiled, args)
        layouts = {}
        for cores in common.SEARCH_CORES:
            for seed in common.SEARCH_SEED_POOL:
                started = time.process_time()
                report = synthesize_layout(
                    compiled, profile, cores,
                    options=common.search_options(name, cores, seed),
                )
                synth_s = time.process_time() - started
                started = time.process_time()
                run = run_layout(compiled, report.layout, args)
                run_s = time.process_time() - started
                if run.stdout != seq.stdout:
                    raise SystemExit(f"{name}/{cores}/{seed}: wrong stdout")
                layouts[f"{cores}/{seed}"] = {
                    "estimated_cycles": report.estimated_cycles,
                    "machine_cycles": run.total_cycles,
                    "layout": layout_doc(report.layout),
                }
                print(
                    f"search {name}/{cores}/{seed}: synth {synth_s:.2f}s "
                    f"run {run_s:.2f}s evals {report.evaluations} "
                    f"est {report.estimated_cycles} real {run.total_cycles} "
                    f"err {abs(report.estimated_cycles / run.total_cycles - 1):.2%} "
                    f"speedup {profile.run_cycles / run.total_cycles:.1f}",
                    flush=True,
                )
        programs[name] = {
            "args": args,
            "stdout_sha256": common.digest(seq.stdout),
            "one_cycles": profile.run_cycles,
            "layouts": layouts,
        }
    common.write_data("search.json", {"programs": programs})


def make_serve() -> None:
    from repro.core.api import compile_program
    from repro.serve.service import ProgramMemo, execute_profile, execute_synthesize

    memo = ProgramMemo()
    programs = {}
    for name in common.SERVE_PROGRAMS:
        params = common.program_params(name)
        compiled = compile_program(params["source"], params["filename"])
        profile, _ = execute_profile(params, memo=memo)
        seq = run_sequential(compiled, params["args"])
        results = {}
        for cores in common.SERVE_CORES:
            for seed in common.SERVE_SEED_POOL:
                result, _ = execute_synthesize(
                    common.serve_params(name, cores, seed), memo=memo
                )
                layout = Layout.make(
                    result["num_cores"], result["layout"],
                    mesh_width=result["mesh_width"],
                )
                run = run_layout(compiled, layout, params["args"])
                if run.stdout != seq.stdout:
                    raise SystemExit(f"{name}/{cores}/{seed}: wrong stdout")
                results[f"{cores}/{seed}"] = {
                    "result_sha256": common.result_digest(result),
                    "estimated_cycles": result["estimated_cycles"],
                    "machine_cycles": run.total_cycles,
                }
                print(
                    f"serve {name}/{cores}/{seed}: est "
                    f"{result['estimated_cycles']} real {run.total_cycles}",
                    flush=True,
                )
        programs[name] = {
            "stdout_sha256": common.digest(seq.stdout),
            "profile_sha256": common.result_digest(profile),
            "synthesize": results,
        }
    common.write_data("serve.json", {"programs": programs})


SECTIONS = {"fig7": make_fig7, "search": make_search, "serve": make_serve}


def main(argv) -> int:
    names = argv or sorted(SECTIONS)
    for name in names:
        if name not in SECTIONS:
            raise SystemExit(f"unknown section {name!r} (have {sorted(SECTIONS)})")
        SECTIONS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
