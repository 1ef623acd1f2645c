"""repro.serve — the synthesis service with a persistent, shared SimCache.

An asyncio daemon (:mod:`repro.serve.server`) exposes the offline
pipeline's compile/profile/synthesize/simulate operations over a
newline-delimited-JSON socket protocol (:mod:`repro.serve.protocol`),
backed by a disk-persistent simulation cache shared across requests,
connections, and daemon restarts (:mod:`repro.serve.store`).

The load-bearing guarantee is **serving transparency**: a served
synthesize result is bit-identical to the same request run through the
offline pipeline, with a warm or a cold cache. The cache only changes
how fast an answer arrives, never which answer arrives.

The failure story rides on the same determinism: a
:class:`ClientRetryPolicy` makes the client survive connection drops and
overloaded/draining daemons (a re-sent request can only *recover* the
answer, never change it); the server enforces per-request deadlines with
cooperative cancellation, drains gracefully on shutdown, and reports
``degraded`` when it can no longer persist its cache; and
:mod:`repro.serve.netchaos` machine-checks the whole contract under
seeded network and daemon-process faults.

Entry points: ``repro serve`` / ``repro request`` / ``repro serve-chaos``
on the CLI, :class:`repro.serve.client.ServeClient` as a library, and
:class:`repro.serve.testing.ServerThread` for in-process tests.
"""

from .client import (
    ClientRetryPolicy,
    ServeClient,
    ServeError,
    ServeUnavailable,
    wait_for_server,
)
from .netchaos import (
    ChaosProxy,
    NetChaosPlan,
    NetChaosReport,
    run_net_chaos,
)
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL,
    RETRYABLE_CODES,
    TRACE_FIELD,
    ProtocolError,
    context_key,
    request_key,
)
from .server import ServeConfig, SynthesisServer, run_server
from .service import (
    ProgramMemo,
    ProgramSpec,
    SimulateSpec,
    SynthesizeSpec,
    execute_compile,
    execute_profile,
    execute_simulate,
    execute_synthesize,
)
from .store import SIMCACHE_FORMAT, SimCacheStore, StoreLoadReport
from .testing import ServerThread

__all__ = [
    "ChaosProxy",
    "ClientRetryPolicy",
    "MAX_LINE_BYTES",
    "NetChaosPlan",
    "NetChaosReport",
    "OPS",
    "PROTOCOL",
    "ProgramMemo",
    "ProgramSpec",
    "ProtocolError",
    "RETRYABLE_CODES",
    "SIMCACHE_FORMAT",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeUnavailable",
    "ServerThread",
    "SimCacheStore",
    "SimulateSpec",
    "StoreLoadReport",
    "SynthesisServer",
    "SynthesizeSpec",
    "TRACE_FIELD",
    "context_key",
    "execute_compile",
    "execute_profile",
    "execute_simulate",
    "execute_synthesize",
    "request_key",
    "run_net_chaos",
    "run_server",
    "wait_for_server",
]
