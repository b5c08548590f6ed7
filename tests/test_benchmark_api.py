"""The library names and calls the benchmark under perfbench/ relies on.

perfbench/ is read here and never edited: a change to the library that
breaks the benchmark fails these tests instead of a benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

from conftest import _workloads

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # Tracer.install wraps each (module, attribute) of TARGETS, a
    # `Class.method` attribute in the class's own namespace
    missing = []
    for modname, attr, _ in _tracing().TARGETS:
        home = importlib.import_module(f"qsubspace.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert not missing


def test_sampled_seeds_rounds_pass_their_check(tmp_path):
    # set-up, two rounds of three pipelines each, and the benchmark's own
    # correctness check (exact limits against the builders, 6 sigma per
    # entry, bit-identical replay)
    work = _workloads().SampledSeeds(1, tmp_path)
    work.setup()
    for i in range(2):
        for step in work.steps(i):
            step()
    assert work.check() == (6, 0, True)


def test_sector_scan_cycle_passes_its_check(tmp_path):
    # one cycle: three seeded stretches and the stretched geometry, each
    # through the sector build, Lanczos, Davidson, the whole exact spectrum,
    # the Kaniel-Paige-Saad bound and the solve
    work = _workloads().SectorScan(1, tmp_path)
    work.setup()
    for i in range(work.cycle):
        for step in work.steps(i):
            step()
    assert work.check() == (28, 0, True)


def test_cli_panel_round_passes_its_check(tmp_path):
    # seven fresh in-process CLI calls, exact and sampled, each checked
    # against the schema and the dense reference
    work = _workloads().CliPanel(1, tmp_path)
    work.setup()
    for step in work.steps(0):
        step()
    assert work.check() == (7, 0, True)
