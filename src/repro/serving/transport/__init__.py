"""Network transport for the navigation serving layer.

Splits the in-process :class:`~repro.serving.server.NavigationServer` /
:class:`~repro.serving.client.NavigationClient` pair across a socket:

* :mod:`.protocol` — the versioned wire format (request/response
  dataclasses, typed error envelopes, tenant + idempotency headers);
* :mod:`.server` — :class:`NavigationHTTPServer`, a stdlib
  ``ThreadingHTTPServer`` front-end over an existing navigation server;
* :mod:`.client` — :class:`RemoteNavigationClient`, a
  :class:`~repro.serving.client.NavigationClient` whose transport
  primitives run over HTTP long-polling and raise the same typed errors.

Callers are transport-agnostic by construction: the tenant surface is
defined once, so a tenant moves between ``NavigationClient(server)`` and
``RemoteNavigationClient(url)`` by swapping one constructor.
"""

from repro.serving.transport.client import RemoteNavigationClient
from repro.serving.transport.protocol import (
    API_PREFIX,
    IDEMPOTENCY_HEADER,
    PROTOCOL_VERSION,
    TENANT_HEADER,
)
from repro.serving.transport.server import NavigationHTTPServer

__all__ = [
    "API_PREFIX",
    "IDEMPOTENCY_HEADER",
    "PROTOCOL_VERSION",
    "TENANT_HEADER",
    "NavigationHTTPServer",
    "RemoteNavigationClient",
]
