"""Pluggable query-engine layer: the :class:`QueryEngine` protocol and the
engine registry.

PR 1 introduced ``engine="fast"`` as an ad-hoc branch inside
``ISLabelIndex.build``; this module turns the idea into an explicit seam.
A *query engine* is the compute backend behind an index's distance API —
frozen read-only structures that answer Equation 1 and run Algorithm 1's
search stage.  The index facades (:class:`repro.core.index.ISLabelIndex`,
:class:`repro.core.directed.DirectedISLabelIndex`) own storage, I/O
accounting and vertex-coverage checks; the engine owns the hot path.

Engines register themselves by *kind* (``"undirected"`` / ``"directed"``)
and name.  The reference ``"dict"`` implementation is special: it lives
inside the index classes themselves (it shares their mutable structures and
supports paths/dynamic updates), so its registry entry is ``None`` and the
facades fall back to their built-in code path when the registry resolves to
it.  Everything else — today :class:`repro.core.fastlabels.FastEngine` and
:class:`repro.core.fastdirected.DirectedFastEngine`, later sharded or
incrementally-invalidated backends — is constructed through the registered
factory, so new backends plug in without touching ``index.py``, the
snapshot loaders in ``serialization.py`` or the CLI.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import IndexBuildError

__all__ = [
    "QueryEngine",
    "EngineFactory",
    "UNDIRECTED",
    "DIRECTED",
    "CAP_LOCAL",
    "CAP_SNAPSHOT",
    "CAP_SHARDED",
    "CAP_REMOTE",
    "CAP_FAULT_TOLERANT",
    "CAP_CACHED",
    "KNOWN_CAPABILITIES",
    "PROTOCOL_METHODS",
    "CACHED_PREFIX",
    "register_engine",
    "resolve_engine",
    "available_engines",
    "engine_capabilities",
    "engines_with_capability",
]

#: Registry kinds — one namespace per graph orientation.
UNDIRECTED = "undirected"
DIRECTED = "directed"

# ----------------------------------------------------------------------
# Capability flags
# ----------------------------------------------------------------------
#: The engine computes answers in-process over structures it holds itself
#: (as opposed to delegating to another process over a transport).
CAP_LOCAL = "local"
#: The engine can adopt a zero-copy serving snapshot
#: (:mod:`repro.core.snapshot`) instead of heap-packing entry lists.
CAP_SNAPSHOT = "snapshot"
#: The engine routes label lookups across vertex-id-range shards, so the
#: shard-aware scheduler (:mod:`repro.serving.scheduler`) has locality to
#: exploit when it buckets queries per shard pair.
CAP_SHARDED = "sharded"
#: The engine answers queries over the network — it needs worker
#: addresses, not labels, and serving topology (not the facade) decides
#: where the index actually lives.
CAP_REMOTE = "remote"
#: The engine survives worker faults: replica-aware retry with backoff,
#: health-checked membership (suspect/dead/recovered), and staleness
#: refresh on ownership rejections — a single worker's death never loses
#: or corrupts a query when shard ownership is replicated.
CAP_FAULT_TOLERANT = "fault_tolerant"
#: The engine fronts its compute with the hot-pair distance cache
#: (:mod:`repro.caching`): batch queries are partitioned into hits and
#: misses and only the misses reach the inner backend.
CAP_CACHED = "cached"

#: Name prefix of the cache decorator: ``cached:fast`` resolves the
#: ``fast`` factory and wraps whatever it builds in a read-through
#: :class:`~repro.caching.engine.CachedEngine`.
CACHED_PREFIX = "cached:"

#: Every capability flag an engine may declare.  Registration validates
#: against this set, and the ``protocol-conformance`` rule of
#: ``repro analyze`` reads it as machine-readable metadata.
KNOWN_CAPABILITIES = frozenset(
    {
        CAP_LOCAL,
        CAP_SNAPSHOT,
        CAP_SHARDED,
        CAP_REMOTE,
        CAP_FAULT_TOLERANT,
        CAP_CACHED,
    }
)

#: The :class:`QueryEngine` protocol as data: method name -> required
#: parameter names (beyond ``self``).  Kept in lockstep with the Protocol
#: below; ``repro analyze`` checks every registered factory class against
#: this spec, including methods inherited across modules.
PROTOCOL_METHODS = {
    "freeze": (),
    "distance": ("source", "target"),
    "distances": ("pairs",),
    "invalidate": ("dirty",),
}


@runtime_checkable
class QueryEngine(Protocol):
    """What an index facade requires of a pluggable compute backend.

    ``freeze`` materializes the read-only query structures (idempotent;
    engines are expected to freeze lazily on first use so index build time
    is unaffected).  ``distance``/``distances`` answer validated queries —
    the facade has already checked vertex coverage and charged any
    simulated I/O.  ``invalidate`` tells the engine the labels (and
    possibly ``G_k``) it snapshotted have changed — the hook §8.3 dynamic
    maintenance uses so dynamic indexes keep serving from a fast engine
    between rebuilds.  Called with no argument it must drop every frozen
    structure so the next query re-freezes from the current labels; called
    with ``dirty`` (the vertices whose labels changed since the last
    freeze/invalidate) an engine *may* instead repair its frozen state
    incrementally, as long as subsequent answers are identical to a full
    re-freeze.  Treating ``dirty`` as "drop everything" is always a
    correct implementation.
    """

    #: Registry name of the backend (e.g. ``"fast"``), surfaced by the
    #: facades' ``engine`` property.
    name: str

    #: True once the query structures are materialized.
    frozen: bool

    def freeze(self) -> "QueryEngine": ...

    def distance(self, source: int, target: int) -> float: ...

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> List[float]: ...

    def invalidate(self, dirty: Optional[Iterable[int]] = None) -> None: ...


#: A registered constructor.  ``None`` marks the built-in dict reference
#: path of the index facades.  Factory signatures are kind-specific:
#: undirected factories take ``(gk, entry_lists, arrays=None)``, directed
#: factories ``(gk, out_lists, in_lists)``.
EngineFactory = Optional[Callable[..., QueryEngine]]

_REGISTRY: Dict[str, Dict[str, EngineFactory]] = {UNDIRECTED: {}, DIRECTED: {}}
_CAPABILITIES: Dict[str, Dict[str, frozenset]] = {UNDIRECTED: {}, DIRECTED: {}}


def register_engine(
    kind: str,
    name: str,
    factory: EngineFactory,
    capabilities: Iterable[str] = (CAP_LOCAL,),
) -> None:
    """Register (or replace) the engine ``name`` under ``kind``.

    ``capabilities`` describes what the backend can do (the ``CAP_*``
    flags) so tooling — CLI help, the serving layer, benchmarks — can
    select engines by trait instead of hard-coding names.  Most engines
    are plain in-process backends, hence the :data:`CAP_LOCAL` default.
    """
    if kind not in _REGISTRY:
        raise IndexBuildError(
            f"unknown engine kind {kind!r} (expected {UNDIRECTED!r} or {DIRECTED!r})"
        )
    caps = frozenset(capabilities)
    unknown = caps - KNOWN_CAPABILITIES
    if unknown:
        raise IndexBuildError(
            f"engine {name!r} declares unknown capability flag(s) "
            f"{sorted(unknown)}; known: {sorted(KNOWN_CAPABILITIES)}"
        )
    _REGISTRY[kind][name] = factory
    _CAPABILITIES[kind][name] = caps


def _wrap_cached(kind: str, base: str) -> EngineFactory:
    """Factory for ``cached:<base>``: resolve the base, decorate the build.

    The import is lazy — nothing should pay for :mod:`repro.caching`
    unless a cached engine is requested — and it also avoids a cycle
    (caching imports this module's constants).
    """
    base_factory = _REGISTRY[kind][base]
    if base_factory is None:
        raise IndexBuildError(
            f"engine {CACHED_PREFIX}{base!r} is not cacheable: the dict "
            "reference path has no engine object to wrap"
        )
    from repro.caching.engine import cached_factory

    return cached_factory(base_factory, directed=(kind == DIRECTED))


def resolve_engine(kind: str, name: str) -> EngineFactory:
    """Factory registered for ``name``; raises on unknown names.

    A ``None`` return means the reference dict path: the caller keeps its
    built-in structures and attaches no engine object.  Names of the form
    ``cached:<base>`` resolve ``<base>`` and wrap its factory in the
    read-through cache decorator.
    """
    if kind not in _REGISTRY:
        raise IndexBuildError(
            f"unknown engine kind {kind!r} (expected {UNDIRECTED!r} or {DIRECTED!r})"
        )
    table = _REGISTRY[kind]
    if name.startswith(CACHED_PREFIX):
        base = name[len(CACHED_PREFIX) :]
        if base not in table:
            raise IndexBuildError(
                f"unknown {kind} engine {name!r} "
                f"(available: {', '.join(available_engines(kind))})"
            )
        return _wrap_cached(kind, base)
    if name not in table:
        raise IndexBuildError(
            f"unknown {kind} engine {name!r} "
            f"(available: {', '.join(available_engines(kind))})"
        )
    return table[name]


def available_engines(kind: str) -> Tuple[str, ...]:
    """Sorted names resolvable under ``kind`` (for CLI choices and docs).

    Includes a ``cached:<base>`` variant for every wrappable base (every
    registered engine except the dict reference path, which has no engine
    object to decorate).
    """
    if kind not in _REGISTRY:
        raise IndexBuildError(
            f"unknown engine kind {kind!r} (expected {UNDIRECTED!r} or {DIRECTED!r})"
        )
    names = list(_REGISTRY[kind])
    names.extend(
        f"{CACHED_PREFIX}{base}"
        for base, factory in _REGISTRY[kind].items()
        if factory is not None
    )
    return tuple(sorted(names))


def engine_capabilities(kind: str, name: str) -> frozenset:
    """Capability flags declared for engine ``name`` under ``kind``.

    ``cached:<base>`` engines report the base's capabilities plus
    :data:`CAP_CACHED` — the decorator is transparent to everything the
    inner engine can do.
    """
    if kind not in _REGISTRY:
        raise IndexBuildError(
            f"unknown engine kind {kind!r} (expected {UNDIRECTED!r} or {DIRECTED!r})"
        )
    table = _CAPABILITIES[kind]
    if name.startswith(CACHED_PREFIX):
        base = name[len(CACHED_PREFIX) :]
        if base not in table or _REGISTRY[kind][base] is None:
            raise IndexBuildError(
                f"unknown {kind} engine {name!r} "
                f"(available: {', '.join(available_engines(kind))})"
            )
        return table[base] | {CAP_CACHED}
    if name not in table:
        raise IndexBuildError(
            f"unknown {kind} engine {name!r} "
            f"(available: {', '.join(available_engines(kind))})"
        )
    return table[name]


def engines_with_capability(kind: str, capability: str) -> Tuple[str, ...]:
    """Sorted engine names under ``kind`` declaring ``capability``."""
    return tuple(
        name
        for name in available_engines(kind)
        if capability in engine_capabilities(kind, name)
    )


# The dict reference implementation is built into the index facades; its
# registry entry exists so name validation and CLI choices have one source
# of truth.  Fast engines self-register on import (see fastlabels.py /
# fastdirected.py).
register_engine(UNDIRECTED, "dict", None, {CAP_LOCAL})
register_engine(DIRECTED, "dict", None, {CAP_LOCAL})
