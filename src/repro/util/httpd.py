"""The one threaded HTTP server behind every endpoint the package serves.

``repro serve`` (:class:`~repro.service.http.ExperimentServer`) and
``repro watch --serve`` (:class:`~repro.telemetry.live.MetricsServer`)
are both a :class:`ThreadedServer` with their own
:class:`QuietHandler` subclass.  Stdlib ``http.server`` only.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Content type of a Prometheus text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class QuietHandler(BaseHTTPRequestHandler):
    """Request handler base: no access log, one-write replies.

    ``self.server.owner`` is the :class:`ThreadedServer` the request
    arrived on.
    """

    def reply(self, status: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        """Send the status line, headers and body in one write.

        Headers and body sent as two writes on a kept-alive connection
        let Nagle's algorithm hold the body back until the client's
        delayed ACK, about 40 ms a request.
        """
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}"
                     for name, value in (headers or {}).items())
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, format, *args):  # noqa: A002 (http.server API)
        pass  # quiet: metrics and dashboards own the output


class ThreadedServer:
    """A ``ThreadingHTTPServer`` serving ``handler`` from a daemon thread.

    ``port=0`` binds an ephemeral port (:attr:`port` reports it).
    Handler threads are daemons, so a hung client never wedges
    :meth:`stop` or the caller's own loop.
    """

    def __init__(self, handler: type[QuietHandler], host: str = "127.0.0.1",
                 port: int = 0):
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._server.owner = self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        """``host:port`` the server is bound to (port resolved when 0)."""
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self):
        """Begin serving; returns ``self`` for one-line construction."""
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
