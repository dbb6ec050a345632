"""Outside-in span tracer for the patchep restoration benchmark.

The tracer replaces functions of the ``patchep`` modules with timing
wrappers for the duration of one traced run and puts the originals back
afterwards.  Nothing under ``src/`` knows about it.

Modules import their collaborators with ``from ... import name``, so a
function is looked up in the namespace of the module that calls it, not in
the module that defines it.  Each wrapper is therefore installed in every
namespace the call goes through (``ep_poisson.update_q_x0`` as well as
``ep_gaussian.update_q_x0``).  Methods are wrapped on the class that defines
them.  A wrapper passes its arguments through unchanged and returns the
original return value; counters only read them.

A span's time is its wall time; its self time is that minus the time of the
spans it called.  ``install`` lists the spans and the counters of each layer.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span statistics and counters for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.kl_loss = None     # last accepted loss of the open KL block update
        self._stack = []        # child time accumulated by each open span
        self._patches = []      # (owner, attribute, original)

    def wrap(self, owner, attr: str, span: str, on_call=None, on_return=None):
        """Replace ``owner.attr`` by a timing wrapper recorded under ``span``.

        ``on_call(tracer, args, kwargs)`` runs before the call and
        ``on_return(tracer, args, kwargs, result)`` after a normal return;
        both only read what they are given.
        """
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__}.{attr} is inherited; wrap it where it is defined")
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - child
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Put every original back; returns the attributes that did not
        end up holding their original object (empty when sound)."""
        broken = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            current = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return broken


# --- counters ---------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_restore(tr, args, kwargs, result):
    tr.counts["pipeline.experts_failed"] += len(result.report["failures"])


def _count_expert(tr, args, kwargs, result):
    tr.counts["pipeline.outer_rounds"] += result.outer_rounds


def _count_ep(tr, args, kwargs, result):
    tr.counts["ep.iterations"] += result.iterations
    tr.counts["ep.warnings"] += result.warnings
    tr.counts["ep.converged"] += bool(result.converged)


def _count_cg(tr, args, kwargs, result):
    _, iterations, residual, info = result
    rhs_norm = float(np.linalg.norm(_arg(args, kwargs, 1, "rhs")))
    tr.counts["cg.iterations"] += iterations
    tr.counts["cg.not_converged"] += info != 0
    rel = residual / rhs_norm if rhs_norm > 0 else residual
    tr.counts["cg.rel_residual_max"] = max(tr.counts["cg.rel_residual_max"], rel)


def _count_tilted(tr, args, kwargs, result):
    blocks = np.shape(_arg(args, kwargs, 1, "cavity_means"))[0]
    tr.counts["gmm.tilted_blocks"] += blocks
    tr.counts["gmm.tilted_block_components"] += blocks * _arg(args, kwargs, 0, "adapted").n_components


def _start_kl_block(tr, args, kwargs):
    tr.kl_loss = None


def _count_kl_loss(tr, args, kwargs, result):
    # update_block_precision evaluates the loss once at its start, then once
    # per candidate; a candidate is accepted iff its loss is strictly lower
    # than the current one (the same test the solver makes).
    if tr.kl_loss is None or result < tr.kl_loss:
        if tr.kl_loss is not None:
            tr.counts["kl.block_steps"] += 1
        tr.kl_loss = result


def _count_escapes(tr, args, kwargs, result):
    tr.counts["ep_poisson.escapes"] += result


def _count_quadrature(tr, args, kwargs, result):
    tr.counts["ep_poisson.quadrature_pixels"] += np.size(_arg(args, kwargs, 0, "y"))


def install(tracer: Tracer, patchep) -> None:
    """Wrap the layers of the ``patchep`` package (its modules are read as
    attributes of the package object ``patchep``)."""
    pipeline = patchep.pipeline
    ep_gaussian = patchep.ep_gaussian
    ep_poisson = patchep.ep_poisson
    operators = patchep.operators
    kl_updates = patchep.kl_updates
    w = tracer.wrap

    w(pipeline, "run_pipeline", "pipeline.restore", on_return=_count_restore)
    w(pipeline, "_run_expert", "pipeline.expert", on_return=_count_expert)
    w(pipeline, "epem_m_step", "pipeline.m_step")
    w(pipeline, "epem_e_cost", "pipeline.e_cost")
    w(pipeline, "fuse_poe", "pipeline.fuse")
    w(pipeline, "build_shifted_partitions", "partitions.build")
    w(pipeline, "run_ep_gaussian", "ep.run", on_return=_count_ep)
    w(pipeline, "run_ep_poisson", "ep.run", on_return=_count_ep)

    for ns in (ep_gaussian, ep_poisson):
        w(ns, "update_q_x0", "ep_gaussian.prior_update")
        w(ns, "update_q_x1", "ep_gaussian.lik_update")
    w(ep_gaussian, "tilted_p1_moments", "ep_gaussian.rbmc")
    w(ep_gaussian.EPState, "sync", "ep_gaussian.sync")
    w(ep_gaussian, "solve_cg", "cg.solve", on_return=_count_cg)
    w(ep_gaussian, "_tilted_moments_stack", "gmm.tilted", on_return=_count_tilted)
    w(ep_gaussian, "update_block_precision", "kl.block", on_call=_start_kl_block)
    w(kl_updates, "kl_block_loss", "kl.loss", on_return=_count_kl_loss)
    w(ep_poisson, "iso_kl_update", "kl.iso")

    for cls in (operators.Identity, operators.Conv2D):
        w(cls, "apply", "operators.apply")
        w(cls, "apply_adjoint", "operators.apply")
    w(operators.DegradationOperator, "gram_block", "operators.gram_block")

    w(ep_poisson, "update_q_u0", "ep_poisson.u0_update", on_return=_count_escapes)
    w(ep_poisson, "_tilted_positive_counts", "ep_poisson.quadrature",
      on_return=_count_quadrature)
    w(ep_poisson, "update_q_u1", "ep_poisson.u1_update")

