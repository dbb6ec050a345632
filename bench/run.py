"""Restoration benchmark for the patchep package.

Run from the root of a checkout:

    python3 bench/run.py --workload deblur_gauss --seed 1 --seconds 55 --trace 0

One invocation runs one workload in one process.  Set-up trains the patch
prior and draws the workload's test problems (scene, noisy observation and
pipeline seed, all derived from ``--seed``); it is repeated and timed.  The
benchmark then calls ``patchep.pipeline.run_pipeline`` on the problems in
whole cycles for about ``--seconds`` seconds and checks every output.

``--trace 0`` prints the end-to-end metrics: quality is the median over the
problems, ``restore_s`` the median of all untraced restores of the run,
``setup_s`` the median of the set-up repeats.
``--trace 1`` pairs an untraced restore with one traced from outside the
package (see ``tracer.py``) and prints the per-layer metrics of one restore
(medians over the first ``TRACED_PROBLEMS`` problems).  Lines before the last
one describe the run (environment, samples, quality details, failed checks);
the last line is the result as one JSON object.

BLAS threads are left at the machine default and recorded, never pinned.
Seed 1 is the default seed; seed 7919 is held out for validating claims.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The prior is trained on a fixed scene; the test scenes come from --seed.
TRAIN_SIZE = 64
TRAIN_COMPONENTS = 5
TRAIN_ITERATIONS = 50
SETUP_REPEATS = 3         # set-up runs at least this often ...
SETUP_SECONDS = 4.0       # ... and until this much time has gone into it
MIN_CYCLES = 2            # untraced restores of each problem, at least
TRACED_PROBLEMS = 3       # per-layer values are medians over these problems
GRAY_LEVELS = 255.0       # NLPD and interval score use an 8-bit gray scale
Z90 = 1.6448536269514722  # half-width of the central 90% interval in sds


@dataclass(frozen=True)
class Workload:
    size: int
    patch: int
    n_experts: int
    operator: str            # "identity" | "box3"
    noise: str               # "gaussian" | "poisson"
    level: float             # Gaussian sigma (unit intensities) or Poisson peak
    em: bool
    problems: int            # test problems per run; quality is their median
    ep: dict = field(default_factory=dict)
    pipeline: dict = field(default_factory=dict)
    spans: tuple = ()        # spans the traced run must enter


COMMON_SPANS = ("pipeline.restore", "pipeline.expert", "pipeline.fuse",
                "partitions.build", "ep.run", "ep_gaussian.prior_update",
                "ep_gaussian.lik_update", "ep_gaussian.sync", "gmm.tilted",
                "operators.apply")

# Sizes and caps keep one restore under 2 s on 2 cores, so a run restores
# each problem at least twice.  CG work differs from scene to scene (at 12x12
# the median over six scenes moves 12% between seeds), so deblur_gauss
# restores twelve scenes a few times each rather than a few scenes often.  EM is
# capped at 2 rounds: left free, the round count (2 or 3) jumps with the
# scene and moves restore time by half.
#
# Gaussian denoising has no workload of its own: its layers (tilted GMM
# moments, EP-EM M-step) are timed on denoise_poisson, and two workloads
# leave each run long enough to average over a shared host's busy phases.
WORKLOADS = {
    # Block path: CG with the convolution, RBMC, block KL precision solves.
    # The iteration cap ends every EP run.
    "deblur_gauss": Workload(
        size=12, patch=4, n_experts=1, operator="box3", noise="gaussian",
        level=10 / 255, em=False, problems=12, ep={"max_iterations": 2},
        spans=COMMON_SPANS + ("ep_gaussian.rbmc", "cg.solve",
                              "operators.gram_block", "kl.block", "kl.loss")),
    # Poisson path: 1D quadrature, isotropic KL, many 16-dim tilted blocks.
    "denoise_poisson": Workload(
        size=32, patch=4, n_experts=1, operator="identity", noise="poisson",
        level=20.0, em=True, problems=4,
        pipeline={"outer_rounds": 2},
        spans=COMMON_SPANS + ("pipeline.m_step", "pipeline.e_cost", "kl.iso",
                              "ep_poisson.u0_update", "ep_poisson.quadrature",
                              "ep_poisson.u1_update")),
}

END_TO_END_UNITS = {
    "restore_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "psnr_db": "dB",
    "nlpd": "nats/px", "interval90_score": "gray", "iter_budget_frac": "frac",
    "success_frac": "frac",
}
QUALITY = ("psnr_db", "nlpd", "interval90_score", "iter_budget_frac")

SPANS = ("pipeline.restore", "pipeline.expert", "pipeline.m_step",
         "pipeline.e_cost", "pipeline.fuse", "partitions.build", "ep.run",
         "ep_gaussian.prior_update", "ep_gaussian.lik_update",
         "ep_gaussian.rbmc", "ep_gaussian.sync", "cg.solve", "operators.apply",
         "operators.gram_block", "gmm.tilted", "kl.block", "kl.loss", "kl.iso",
         "ep_poisson.u0_update", "ep_poisson.quadrature", "ep_poisson.u1_update")


def _ratio(num, den):
    return num / den if den else 0.0


# count metric -> (unit, value from the span calls c and counters n of one restore)
COUNTS = {
    "pipeline.e_cost_evals": ("count", lambda c, n: c["pipeline.e_cost"]),
    "pipeline.outer_rounds": ("count", lambda c, n: n["pipeline.outer_rounds"]),
    "pipeline.experts_failed": ("count", lambda c, n: n["pipeline.experts_failed"]),
    "ep.runs": ("count", lambda c, n: c["ep.run"]),
    "ep.iterations": ("count", lambda c, n: n["ep.iterations"]),
    "ep.warnings": ("count", lambda c, n: n["ep.warnings"]),
    "ep.converged": ("count", lambda c, n: n["ep.converged"]),
    "cg.solves": ("count", lambda c, n: c["cg.solve"]),
    "cg.iterations": ("count", lambda c, n: n["cg.iterations"]),
    "cg.iters_per_solve": ("count", lambda c, n: _ratio(n["cg.iterations"], c["cg.solve"])),
    "cg.not_converged": ("count", lambda c, n: n["cg.not_converged"]),
    "cg.rel_residual_max": ("ratio", lambda c, n: n["cg.rel_residual_max"]),
    "operators.apply_calls": ("count", lambda c, n: c["operators.apply"]),
    "operators.gram_block_calls": ("count", lambda c, n: c["operators.gram_block"]),
    "gmm.tilted_calls": ("count", lambda c, n: c["gmm.tilted"]),
    "gmm.tilted_blocks": ("count", lambda c, n: n["gmm.tilted_blocks"]),
    "kl.block_updates": ("count", lambda c, n: c["kl.block"]),
    "kl.block_steps": ("count", lambda c, n: n["kl.block_steps"]),
    "kl.loss_evals": ("count", lambda c, n: c["kl.loss"]),
    "kl.step_accept_ratio": ("ratio", lambda c, n: _ratio(
        n["kl.block_steps"], c["kl.loss"] - c["kl.block"])),
    "kl.iso_calls": ("count", lambda c, n: c["kl.iso"]),
    "ep_poisson.quadrature_pixels": ("count", lambda c, n: n["ep_poisson.quadrature_pixels"]),
    "ep_poisson.escapes": ("count", lambda c, n: n["ep_poisson.escapes"]),
}


def load_patchep():
    """Import patchep from this checkout's sources, never from elsewhere."""
    if not (SRC / "patchep" / "__init__.py").is_file():
        sys.exit(f"error: patchep sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import patchep
    import patchep.ep_gaussian
    import patchep.ep_poisson
    import patchep.kl_updates
    import patchep.metrics
    import patchep.operators
    import patchep.phantoms
    import patchep.pipeline

    if Path(patchep.__file__).resolve().parent != (SRC / "patchep").resolve():
        sys.exit(f"error: imported patchep from {patchep.__file__}, not from {SRC}")
    return patchep


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, if it can."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


@dataclass
class Problem:
    truth: np.ndarray
    y: np.ndarray
    operator: object
    noise: object
    base: object
    config: object


def set_up(patchep, wl: Workload, seed: int) -> list[Problem]:
    """Train the prior and draw the test problems; all of it is set-up."""
    from patchep.gmm import train_em
    from patchep.operators import Conv2D, GaussianNoise, Identity, PoissonNoise
    from patchep.phantoms import extract_patches, make_phantom
    from patchep.pipeline import EPConfig, PipelineConfig

    train = make_phantom(TRAIN_SIZE, TRAIN_SIZE, seed=0)
    base = train_em(extract_patches(train, wl.patch), TRAIN_COMPONENTS,
                    max_iters=TRAIN_ITERATIONS, seed=0)
    if wl.operator == "identity":
        operator = Identity(wl.size, wl.size)
    else:
        operator = Conv2D(wl.size, wl.size, np.full((3, 3), 1.0 / 9.0))
    noise = GaussianNoise(wl.level ** 2) if wl.noise == "gaussian" else PoissonNoise()

    problems = []
    for child in np.random.SeedSequence(seed).spawn(wl.problems):
        scene_seed, noise_seed, config_seed = (int(s) for s in child.generate_state(3))
        truth = make_phantom(wl.size, wl.size, seed=scene_seed).ravel()
        if wl.noise == "poisson":
            truth = wl.level * truth          # intensities in expected counts
        y = patchep.operators.simulate(operator, truth, noise, seed=noise_seed)
        # theta_init stays None: run_pipeline starts from default_theta
        config = PipelineConfig(ep=EPConfig(**wl.ep), patch_size=wl.patch,
                                n_experts=wl.n_experts, em_enabled=wl.em,
                                seed=config_seed, **wl.pipeline)
        problems.append(Problem(truth, y, operator, noise, base, config))
    return problems


@dataclass
class Restore:
    wall_s: float
    cpu_s: float
    quality: dict
    dropped: int
    failed_checks: list


def restore(patchep, wl: Workload, p: Problem) -> Restore:
    """One timed call of run_pipeline, then the output checks."""
    from patchep.metrics import coverage, psnr

    start, cpu = time.perf_counter(), time.process_time()
    try:
        result = patchep.pipeline.run_pipeline(p.y, p.operator, p.noise, p.base, p.config)
    except RuntimeError:          # every expert failed
        result = None
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu
    if result is None:
        return Restore(wall_s, cpu_s, {}, wl.n_experts, ["pipeline_raised"])

    mean, var = result.fused.mean, result.fused.marginal_var
    dropped = len(result.report["failures"])
    checks = {
        "mean_finite": bool(np.all(np.isfinite(mean))),
        "variances_positive": bool(np.all(np.isfinite(var)) and np.all(var > 0)),
        "expert_count": len(result.experts) == wl.n_experts - dropped,
    }
    quality = {}
    if checks["mean_finite"] and checks["variances_positive"]:
        gray = GRAY_LEVELS / (wl.level if wl.noise == "poisson" else 1.0)
        psnr_db = psnr(p.truth, mean)
        checks["psnr_gain"] = psnr_db > psnr(p.truth, p.y)
        half = Z90 * np.sqrt(var)
        miss = np.maximum(np.abs(p.truth - mean) - half, 0.0)
        coverage90 = coverage(p.truth, mean, var, 0.9).fraction_inside
        cap = p.config.ep.max_iterations
        quality = {
            "psnr_db": psnr_db,
            "nlpd": float(np.mean(0.5 * np.log(2 * np.pi * var * gray ** 2)
                                  + (p.truth - mean) ** 2 / (2 * var))),
            # Gneiting-Raftery interval score of the central 90% interval
            "interval90_score": gray * float(np.mean(2 * half + miss / 0.05)),
            "coverage90": coverage90,
            "coverage90_gap": abs(coverage90 - 0.9),
            "iter_budget_frac": sum(e.iterations for e in result.experts)
            / (cap * sum(e.outer_rounds for e in result.experts)),
            "converged_frac": float(np.mean([e.converged for e in result.experts])),
        }
    failed = [name for name, ok in checks.items() if not ok]
    return Restore(wall_s, cpu_s, quality, dropped, failed)


def traced_restore(patchep, wl: Workload, p: Problem):
    from tracer import Tracer, install

    tr = Tracer()
    install(tr, patchep)
    try:
        r = restore(patchep, wl, p)
    finally:
        broken = tr.uninstall()
    r.failed_checks += [f"trace_restore:{a}" for a in broken]
    return r, tr


def layer_metrics(tr, r: Restore, untraced: Restore) -> dict:
    """Per-layer metrics of one traced restore, as name -> (unit, value)."""
    out = {}
    for span in SPANS:
        out[f"{span}_s"] = ("s", tr.total_s[span])
        out[f"{span}_self_s"] = ("s", tr.self_s[span])
    for name, (unit, fn) in COUNTS.items():
        out[name] = (unit, float(fn(tr.calls, tr.counts)))
    out["gmm.tilted_us_per_block_component"] = (
        "us", 1e6 * _ratio(tr.total_s["gmm.tilted"], tr.counts["gmm.tilted_block_components"]))
    out["run.cpu_s"] = ("s", r.cpu_s)
    out["run.cpu_per_wall"] = ("ratio", r.cpu_s / r.wall_s)
    out["trace.overhead_frac"] = ("ratio", r.wall_s / untraced.wall_s - 1.0)
    return out


def compare(prefix: str, a: dict, b: dict) -> list:
    """Names of the fields on which two records of one problem differ."""
    return [f"{prefix}:{k}" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def run(args) -> dict:
    patchep = load_patchep()
    wl = WORKLOADS[args.workload]
    checks = []

    setup_s, setups = [], []
    while len(setup_s) < (1 if args.trace else SETUP_REPEATS) or (
            not args.trace and sum(setup_s) < SETUP_SECONDS):
        start = time.perf_counter()
        setups.append(set_up(patchep, wl, args.seed))
        setup_s.append(time.perf_counter() - start)
    problems = setups[0]
    for other in setups[1:]:
        if any(not np.array_equal(a.base.covs, b.base.covs) or not np.array_equal(a.y, b.y)
               for a, b in zip(problems, other)):
            checks.append("determinism:setup")

    # Untraced mode restores every problem in whole cycles, at least
    # MIN_CYCLES, as long as one more cycle fits in --seconds; every repeat
    # must match the first cycle.  Traced mode pairs an untraced and a traced
    # restore of the first TRACED_PROBLEMS problems (more while time is left)
    # and re-traces p_0.  Quality and per-layer values come from these fixed
    # sets only.
    n = wl.problems
    untraced, traced = [], []      # (problem index, Restore[, Tracer])
    begin = time.perf_counter()
    if args.trace:
        while time.perf_counter() - begin < args.seconds or len(untraced) < TRACED_PROBLEMS:
            i = len(untraced) % n
            untraced.append((i, restore(patchep, wl, problems[i])))
            traced.append((i, *traced_restore(patchep, wl, problems[i])))
        if len(traced) <= n:
            traced.append((0, *traced_restore(patchep, wl, problems[0])))
    else:
        cycles = 0
        while cycles < MIN_CYCLES or (time.perf_counter() - begin) * (cycles + 1) / cycles <= args.seconds:
            untraced += [(i, restore(patchep, wl, p)) for i, p in enumerate(problems)]
            cycles += 1

    first = {}
    for i, r in untraced:
        first.setdefault(i, r)
        checks += compare("determinism", first[i].quality, r.quality)
    for i, r, _ in traced:
        checks += compare("determinism", first[i].quality, r.quality)
    restores = [r for _, r in untraced] + [r for _, r, _ in traced]
    for r in restores:
        checks += r.failed_checks

    record = {"workload": args.workload, "environment": environment(args.seed),
              "problems": n, "setup_s": setup_s,
              "restore_s": [r.wall_s for _, r in untraced],
              "quality": {k: [first[i].quality.get(k) for i in sorted(first)]
                          for k in QUALITY + ("coverage90", "coverage90_gap", "converged_frac")}}

    if args.trace:
        seen = {}
        for i, r, tr in traced:
            if i in seen:
                checks += compare("determinism", dict(seen[i].calls), dict(tr.calls))
                checks += compare("determinism", dict(seen[i].counts), dict(tr.counts))
            seen.setdefault(i, tr)
        checks += [f"trace_calls:{s}" for s in wl.spans if seen[0].calls[s] == 0]
        record["traced_restore_s"] = [r.wall_s for _, r, _ in traced]

    attempted = wl.n_experts * len(restores)
    failed = sum(r.dropped for r in restores) + len(checks)
    failed_frac = min(1.0, failed / attempted)
    record["failed_frac"] = failed_frac
    record["failed_checks"] = sorted(set(checks))

    if args.trace:
        per = [layer_metrics(tr, r, first[i]) for i, r, tr in traced
               if i < TRACED_PROBLEMS and seen[i] is tr]
        metrics = {name: {"value": statistics.median(m[name][1] for m in per), "unit": unit}
                   for name, (unit, _) in per[0].items()}
    else:
        values = {k: statistics.median(first[i].quality.get(k, 0.0) for i in first)
                  for k in QUALITY}
        # Other tenants of a shared machine slow it down in phases of seconds
        # to minutes.  A problem's fastest restore hinges on one quiet moment;
        # the median over every restore of the run spread less across runs.
        values["restore_s"] = statistics.median(r.wall_s for _, r in untraced)
        values["setup_s"] = statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["success_frac"] = 1.0 - failed_frac
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    print(json.dumps(record))
    for check in record["failed_checks"]:
        print(f"FAILED CHECK {check}")
    return {"correct": not checks, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
