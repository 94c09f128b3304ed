"""The benchmark's workloads (perfbench/workloads.py) call swinmae's training,
masking and segmentation functions directly. This test loads them as they
are and runs one unit of the desk-pretrain and transfer workloads the way
perfbench/run.py does, so a changed signature or a failing check shows here
rather than in a benchmark run. fullscale-step is left out for its cost."""

import importlib.util
import math
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["desk-pretrain", "transfer"])
def test_one_unit_of_the_workload_passes_its_checks(tmp_path, name):
    tr, wl_mod = load("tracer"), load("workloads")
    wl = wl_mod.WORKLOADS[name](1, str(tmp_path))
    rec = tr.Recorder()
    wl.prepare()
    wl.setup()
    checks = list(wl.checks)
    wl.warmup()
    rec.install()
    try:
        wl.reset()
        rec.mark()
        result = wl.unit(rec, None)
    finally:
        rec.uninstall()
    checks += result["checks"]
    assert [c for c in checks if not c[1]] == []
    assert rec.steps and result["losses"]
    assert all(map(math.isfinite, result["losses"]))
