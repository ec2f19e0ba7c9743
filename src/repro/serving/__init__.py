"""Shard-aware query scheduling and remote (network) shard serving.

The serving subsystem turns the on-disk sharding of
:mod:`repro.core.snapshot` into a multi-process architecture:

* :mod:`repro.serving.scheduler` — :class:`ShardScheduler` buckets a
  query stream by owning shard pair and dispatches each bucket as one
  batched ``distances()`` call (policy knobs: max bucket size, max
  latency);
* :mod:`repro.serving.wire` — the length-prefixed JSON frame protocol
  (optional per-connection timeouts via ``REPRO_WIRE_TIMEOUT_S``), plus
  :class:`PipelinedConnection`, the client channel that keeps many
  requests in flight per socket and matches answers by request id;
* :mod:`repro.serving.membership` — versioned cluster membership
  (epoch-stamped shard→owners map), worker health states and the
  retry/backoff policy of replica-aware dispatch;
* :mod:`repro.serving.server` — :class:`ShardServer`, one fleet worker
  serving its owned shard slice over the wire (``repro serve``);
* :mod:`repro.serving.remote` — the ``"remote"`` query engine (both
  orientations, registered through the ordinary engine registry), which
  routes scheduled buckets to the workers owning them and fails over to
  surviving replicas on worker death;
* :mod:`repro.serving.chaos` — the failure-injection harness (fleet
  subprocess control + a frame-corrupting TCP proxy) behind the chaos
  property suite.

Importing this package registers the remote engine.
:mod:`repro.serving.server` is intentionally *not* imported here — it
pulls in the serialization layer, which itself imports this package to
perform the registration.
"""

from repro.serving.scheduler import (
    SchedulerPolicy,
    ShardScheduler,
    assign_shards,
    shard_starts_of,
)
from repro.serving.membership import (
    DEAD,
    LIVE,
    SUSPECT,
    MembershipMap,
    RetryPolicy,
    WorkerHealth,
)
from repro.serving.remote import (
    REMOTE_ADDRS_ENV,
    REMOTE_HEARTBEAT_ENV,
    DirectedRemoteEngine,
    RemoteEngine,
    parse_addresses,
)
from repro.serving.wire import (
    PROTOCOL_VERSION,
    WIRE_TIMEOUT_ENV,
    PipelinedConnection,
    WireError,
    WireTimeout,
    recv_frame,
    request,
    send_frame,
)

__all__ = [
    "SchedulerPolicy",
    "ShardScheduler",
    "assign_shards",
    "shard_starts_of",
    "MembershipMap",
    "WorkerHealth",
    "RetryPolicy",
    "LIVE",
    "SUSPECT",
    "DEAD",
    "RemoteEngine",
    "DirectedRemoteEngine",
    "REMOTE_ADDRS_ENV",
    "REMOTE_HEARTBEAT_ENV",
    "parse_addresses",
    "WireError",
    "WireTimeout",
    "WIRE_TIMEOUT_ENV",
    "PROTOCOL_VERSION",
    "PipelinedConnection",
    "send_frame",
    "recv_frame",
    "request",
]
