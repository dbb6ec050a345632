"""The benchmark's outside-in tracer wraps functions of patchep by name; a
refactor that moves or renames one of them must fail here, not in the bench."""

import importlib.util
import sys
from pathlib import Path

import patchep.ep_gaussian
import patchep.ep_poisson
import patchep.kl_updates
import patchep.operators
import patchep.pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = load_bench_module("tracer")
run = load_bench_module("run")


def test_install_and_uninstall_restore_every_original():
    tr = tracer.Tracer()
    tracer.install(tr, patchep)
    assert tr.uninstall() == []


def assert_restore_enters_every_required_span(workload):
    wl = run.WORKLOADS[workload]
    problem = run.set_up(patchep, wl, seed=1)[0]
    tr = tracer.Tracer()
    tracer.install(tr, patchep)
    try:
        result = run.restore(patchep, wl, problem)
    finally:
        broken = tr.uninstall()
    assert broken == []
    assert result.failed_checks == []
    assert [span for span in wl.spans if tr.calls[span] == 0] == []
    assert tr.counts["cg.not_converged"] == 0


def test_deblur_restore_enters_every_required_span():
    assert_restore_enters_every_required_span("deblur_gauss")


def test_poisson_restore_enters_every_required_span():
    assert_restore_enters_every_required_span("denoise_poisson")
