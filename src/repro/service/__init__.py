"""Non-answer debugging as a service (ROADMAP: "library" -> "system").

The paper frames debugging as an interactive investigation; this package
is the serving half of that claim.  The event-driven core
(:mod:`repro.service.events`) turns each run's
:class:`~repro.obs.trace.ProbeTracer` stream into a typed, gap-free
per-session event log; :class:`~repro.service.manager.SessionManager`
runs many such sessions concurrently over one shared backend and cache
store; :class:`~repro.service.app.ServiceApp` exposes
the whole thing over HTTP (stdlib-only asyncio server in
:mod:`repro.service.server`).
"""

from repro.service.app import Response, ServiceApp
from repro.service.events import TERMINAL_EVENTS, SessionEventLog
from repro.service.manager import (
    ServiceClosed,
    SessionHandle,
    SessionManager,
    UnknownSession,
)
from repro.service.server import ServiceServer

__all__ = [
    "Response",
    "ServiceApp",
    "ServiceClosed",
    "ServiceServer",
    "SessionEventLog",
    "SessionHandle",
    "SessionManager",
    "TERMINAL_EVENTS",
    "UnknownSession",
]
