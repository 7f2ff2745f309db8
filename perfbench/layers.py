"""Which public calls the traced run times, layer by layer.

Each span name starts with its layer — ``blocking``, ``features``,
``core``, ``incremental`` or ``serve`` — the modules of ``src/repro``.
The ``features`` spans include the ``text`` kernels they call. The
index and store wrappers go on ``type(resolver.index)`` and
``type(resolver.store)``, so they time whichever classes the resolver
runs on.
"""

from __future__ import annotations

from .tracing import Tracer

#: Layers whose exclusive (self) time the traced run reports.
LAYERS = ("blocking", "features", "core", "incremental", "serve")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_engine(tracer: Tracer) -> None:
    """Wrap the batch engine and the resolver entry points."""
    from repro.blocking.base import Blocker
    from repro.core.em import EMRunner
    from repro.core.linkage import ZeroERLinkage
    from repro.core.model import ZeroER
    from repro.core.transitivity import (
        DedupTransitivityCalibrator,
        LinkageTransitivityCalibrator,
    )
    from repro.features.generator import FeatureGenerator
    from repro.incremental.resolver import IncrementalResolver

    # importing repro.blocking.base ran the package __init__, which imports
    # every shipped Blocker subclass
    for cls in (Blocker, *_subclasses(Blocker)):
        if "block" in cls.__dict__:
            tracer.wrap(cls, "block", "blocking.block",
                        result_attrs=lambda r: {"pairs": len(r)})
    tracer.wrap(FeatureGenerator, "fit", "features.fit")
    tracer.wrap(FeatureGenerator, "transform", "features.transform",
                result_attrs=lambda X: {"pairs": int(X.shape[0])})
    tracer.wrap(EMRunner, "m_step", "core.em.m_step")
    tracer.wrap(EMRunner, "e_step", "core.em.e_step")
    for cls in (LinkageTransitivityCalibrator, DedupTransitivityCalibrator):
        tracer.wrap(cls, "calibrate", "core.transitivity.calibrate",
                    result_attrs=lambda n: {"adjusted": int(n)})
    for cls in (ZeroER, ZeroERLinkage):
        tracer.wrap(cls, "fit", "core.fit")
        tracer.wrap(cls, "predict_proba", "core.predict_proba")
    tracer.wrap(
        IncrementalResolver, "resolve", "incremental.resolver.resolve",
        result_attrs=lambda r: {
            "records": len(r.record_ids), "matches": len(r.matches), "pairs": len(r.pairs),
        },
    )
    tracer.wrap(IncrementalResolver, "load", "incremental.artifacts.load",
                after=lambda resolver: install_resolver(tracer, resolver))


def install_resolver(tracer: Tracer, resolver) -> None:
    """Wrap the index and store classes a live resolver runs on."""
    index, store = type(resolver.index), type(resolver.store)
    tracer.wrap(index, "candidates", "incremental.index.candidates",
                result_attrs=lambda c: {"candidate_pairs": len(c)})
    tracer.wrap(index, "add", "incremental.index.add")
    tracer.wrap(store, "add", "incremental.store.add")
    tracer.wrap(store, "add_records", "incremental.store.add")
    tracer.wrap(store, "merge", "incremental.store.merge")
    tracer.wrap(store, "snapshot", "incremental.store.snapshot")


def _route(request) -> str:
    path = request.path
    if path == "/resolve":
        return "resolve"
    if path.startswith("/lookup/"):
        return "lookup"
    return "other"


def install_serve(tracer: Tracer) -> None:
    """Wrap the serving layer: dispatch, admission/queueing, engine pass.

    ``ServingState.execute_batch`` runs on the batcher's writer thread;
    its span is parented on the ``MicroBatcher.submit`` span of the
    batch's first request, so the engine pass nests under the request
    that waited for it.
    """
    from repro.serve.batcher import MicroBatcher
    from repro.serve.handlers import Router
    from repro.serve.state import ServingState

    tracer.wrap(Router, "dispatch", "serve.dispatch",
                call_attrs=lambda args, kwargs: {"route": _route(args[1])})
    tracer.wrap(MicroBatcher, "submit", "serve.submit", link_from=lambda args: args[1])
    tracer.wrap(
        ServingState, "execute_batch", "serve.execute_batch",
        parent_from=lambda args: args[1][0] if args[1] else None,
        call_attrs=lambda args, kwargs: {
            "requests": len(args[1]),
            "records": sum(len(r.records) for r in args[1]),
        },
    )
