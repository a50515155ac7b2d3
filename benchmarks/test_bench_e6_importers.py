"""E6 — importer correctness and throughput (paper §3.1's format list).

The same logical run is emitted in all seven formats; each import must
reconstruct a consistent model (same thread count; matching values for
the fields that format carries), and the XML exchange representation
must round-trip exactly.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.io_ import export_xml, load_profile, parse_profiles
from repro.core.toolkit.stats import event_statistics
from repro.tau.apps import SPPM
from repro.tau.writers import (
    write_dynaprof_output, write_gprof_output, write_hpm_output,
    write_mpip_report, write_psrun_output, write_svpablo_output,
    write_tau_profiles,
)

RANKS = 16


@pytest.fixture(scope="module")
def everything(tmp_path_factory):
    base = tmp_path_factory.mktemp("e6")
    run = SPPM(problem_size=0.02, timesteps=1).run(RANKS)
    write_tau_profiles(run, base / "tau")
    write_gprof_output(run, base / "gprof")
    write_mpip_report(run, base / "run.mpiP")
    write_dynaprof_output(run, base / "dyna")
    write_hpm_output(run, base / "hpm")
    write_psrun_output(run, base / "psrun")
    write_svpablo_output(run, base / "sv.sddf")
    export_xml(run, base / "trial.xml")
    return base, run


FORMATS = [
    ("tau", "tau"),
    ("gprof", "gprof"),
    ("mpip", "run.mpiP"),
    ("dynaprof", "dyna"),
    ("hpmtoolkit", "hpm"),
    ("psrun", "psrun"),
    ("svpablo", "sv.sddf"),
    ("xml", "trial.xml"),
]


@pytest.mark.parametrize("fmt,target", FORMATS)
def test_import_throughput(benchmark, everything, fmt, target, report):
    base, run = everything
    source = benchmark(load_profile, base / target)
    assert source.num_threads == RANKS
    report(
        f"E6  §3.1 importer [{fmt:<10}]             -> "
        f"{benchmark.stats['mean'] * 1e3:7.2f} ms, "
        f"{source.num_interval_events} events"
    )


def test_cross_format_value_consistency(benchmark, everything, report):
    """Formats carrying full per-event times must agree on them."""
    base, run = everything
    reference = event_statistics(run, "hydro_kernel", metric=0).mean

    def check() -> int:
        checked = 0
        for fmt, target, tolerance in [
            ("tau", "tau", 1e-6),
            ("dynaprof", "dyna", 1e-3),
            ("svpablo", "sv.sddf", 1e-6),
            ("xml", "trial.xml", 1e-9),
        ]:
            source = load_profile(base / target)
            time_metric = source.time_metric()
            got = event_statistics(
                source, "hydro_kernel", metric=time_metric.index
            ).mean
            assert got == pytest.approx(reference, rel=tolerance), fmt
            checked += 1
        return checked

    checked = benchmark.pedantic(check, rounds=1, iterations=1)
    report(
        f"E6  cross-format value agreement           -> "
        f"{checked} full-fidelity formats agree on hydro_kernel mean"
    )


def test_parallel_parse_speedup(benchmark, tmp_path_factory, report, bench_json):
    """Fan profile parsing out over a process pool (bulk-ingest stage 1).

    Parsing is CPU-bound pure-Python work, so worker processes should
    give near-linear speedup; the >1.5x assertion only applies on
    machines with at least 4 cores.  Single-core boxes still record
    their numbers (with ``cores``/``workers``) in
    ``BENCH_e1_ingest.json`` but then *skip* visibly rather than
    reporting a meaningless 1.0x pass.
    """
    base = tmp_path_factory.mktemp("e6par")
    dirs = []
    for i in range(8):
        run = SPPM(problem_size=0.02, timesteps=1, seed=50 + i).run(RANKS)
        d = base / f"run{i}"
        write_tau_profiles(run, d)
        dirs.append(d)
    cores = os.cpu_count() or 1
    workers = min(cores, len(dirs))

    def measure() -> dict:
        t0 = time.perf_counter()
        serial = parse_profiles(dirs, workers=1)
        serial_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = parse_profiles(dirs, workers=workers)
        parallel_seconds = time.perf_counter() - t0
        assert len(serial) == len(parallel) == len(dirs)
        for a, b in zip(serial, parallel):
            assert a.num_threads == b.num_threads == RANKS
        import multiprocessing

        return {
            "files": len(dirs),
            "cores": cores,
            # The fan-out configuration the parallel leg actually ran
            # with, so single-core records are self-describing instead
            # of implying an 8-worker pool that never existed.
            "workers": workers,
            "serial_workers": 1,
            "mp_start_method": multiprocessing.get_start_method(),
            "serial_seconds": round(serial_seconds, 3),
            "parallel_seconds": round(parallel_seconds, 3),
            "speedup": round(serial_seconds / parallel_seconds, 2),
        }

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    bench_json("e6_parallel_parse", result)
    report(
        f"E6  parallel profile parse                 -> "
        f"{result['speedup']:.2f}x over serial for {result['files']} files "
        f"[cores={result['cores']}, workers={result['workers']}]"
    )
    if workers == 1:
        # The numbers are still recorded above, but a 1.0x "speedup"
        # from a pool of one says nothing about the pipeline.
        pytest.skip(
            f"only {cores} core(s) available: worker pool degenerates to "
            "serial, speedup assertion not meaningful"
        )
    if cores >= 4:
        assert result["speedup"] > 1.5, (
            f"parallel parse must beat serial by >1.5x on {cores} cores, "
            f"got {result['speedup']}x"
        )


def test_xml_roundtrip_exact(benchmark, everything, report):
    base, run = everything
    back = benchmark(load_profile, base / "trial.xml")
    assert back.num_threads == run.num_threads
    assert set(back.interval_events) == set(run.interval_events)
    assert [m.name for m in back.metrics] == [m.name for m in run.metrics]
    for name, event in run.interval_events.items():
        back_event = back.get_interval_event(name)
        for thread in run.all_threads():
            src = thread.function_profiles.get(event.index)
            if src is None:
                continue
            dst = back.get_thread(*thread.triple).function_profiles[
                back_event.index
            ]
            for m, inc, exc in src.iter_metrics():
                assert dst.get_inclusive(m) == inc
                assert dst.get_exclusive(m) == exc
    report("E6  common-XML round trip                  -> exact (bit-equal)")
