"""The ``repro serve`` HTTP front door over :class:`ExperimentService`.

Stdlib ``http.server`` only, on the same :mod:`repro.util.httpd` server
as the watch plane's :class:`~repro.telemetry.live.MetricsServer`.  JSON
in, JSON out; every error response carries one structured shape -- the
same payload fields as :class:`~repro.noc.backends.BackendCapabilityError`::

    {"error": {"type": ..., "message": ..., "missing": [...],
               "alternatives": [...]}}

so a client can branch on ``type`` without parsing prose.  Endpoints:

==========================  ===================================================
``POST /v1/evaluate``       submit one spec; blocks up to ``wait_s`` for the
                            result (202 with the key if still running)
``POST /v1/sweeps``         submit a batch; 202 with a sweep ticket
``GET /v1/sweeps/{id}``     ticket progress; results inlined once complete
``GET /v1/results/{key}``   cache hit 200 / in flight 202 / ledger fallback
                            200 (headline only) / 404
``GET /v1/runs/{run_id}``   one run-ledger record (id or unique prefix)
``GET /metrics``            Prometheus exposition (``service_*`` + cache)
``GET /healthz``            liveness probe
==========================  ===================================================

Clients identify themselves with the ``X-Repro-Client`` header
(``anonymous`` otherwise); rate limits and simulated-seconds budgets are
accounted per client.
"""

from __future__ import annotations

import json

from repro.noc.backends import BackendCapabilityError
from repro.noc.spec import WireFormatError
from repro.service.budget import BudgetExhausted, RateLimited
from repro.service.core import ExperimentService
from repro.util.httpd import PROMETHEUS_CONTENT_TYPE, QuietHandler, ThreadedServer

#: Default seconds ``POST /v1/evaluate`` blocks before answering 202.
DEFAULT_WAIT_S = 60.0

#: Submission bodies above this are refused (413) unread.
MAX_BODY_BYTES = 8 * 1024 * 1024

CLIENT_HEADER = "X-Repro-Client"


def error_payload(err: Exception) -> tuple[int, dict]:
    """(HTTP status, structured body) for every refusal the API issues.

    One shape for every error type -- ``missing`` and ``alternatives``
    are meaningful for capability refusals and empty otherwise, exactly
    the fields :class:`BackendCapabilityError` carries in-process.
    """
    body = {
        "type": "error",
        "message": str(err),
        "missing": [],
        "alternatives": [],
    }
    if isinstance(err, BackendCapabilityError):
        body.update(
            type="backend_capability",
            missing=sorted(err.missing),
            alternatives=list(err.alternatives),
            backend=err.backend,
        )
        return 400, body
    if isinstance(err, WireFormatError):
        body.update(type="wire_format", code=err.code)
        return 400, body
    if isinstance(err, RateLimited):
        body.update(type="rate_limited", client=err.client,
                    retry_after_s=round(err.retry_after_s, 3))
        return 429, body
    if isinstance(err, BudgetExhausted):
        body.update(type="budget_exhausted", client=err.client,
                    spent_s=err.spent_s, budget_s=err.budget_s)
        return 402, body
    if isinstance(err, (ValueError, TypeError, KeyError)):
        body.update(type="validation")
        return 400, body
    body.update(type="internal")
    return 500, body


def _wire_value(value) -> dict:
    """Serialize whatever the cache holds (results carry ``to_wire``)."""
    to_wire = getattr(value, "to_wire", None)
    if callable(to_wire):
        return to_wire()
    return {"v": 1, "kind": "opaque", "repr": repr(value)}


def _refusal(kind: str, message: str, **extra) -> dict:
    """An error body in the one structured shape every refusal shares."""
    return {"error": {"type": kind, "message": message, "missing": [],
                      "alternatives": [], **extra}}


#: Returned by ``_ServiceHandler._read_json`` once it has answered the
#: request itself; any parsed body, ``None`` included, goes to the decoder.
_REFUSED = object()


class _ServiceHandler(QuietHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def _client(self) -> str:
        return self.headers.get(CLIENT_HEADER, "").strip() or "anonymous"

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.reply(status, body, "application/json; charset=utf-8", headers)

    def _send_error_payload(self, err: Exception) -> None:
        status, body = error_payload(err)
        headers = {}
        if isinstance(err, RateLimited):
            headers["Retry-After"] = str(
                max(1, int(err.retry_after_s + 0.999)))
        self._send_json(status, {"error": body}, headers)

    def _refuse_unread(self, status: int, payload: dict) -> None:
        """Refuse a request whose body stays unread, and close: the
        unread bytes would otherwise parse as the next request."""
        self.close_connection = True
        self._send_json(status, payload, {"Connection": "close"})

    def _read_json(self):
        """The parsed request body, or ``_REFUSED`` once answered."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._refuse_unread(400, _refusal(
                "bad_request",
                "Content-Length must be a non-negative integer"))
            return _REFUSED
        if length > MAX_BODY_BYTES:
            self._refuse_unread(413, _refusal(
                "too_large", f"body exceeds {MAX_BODY_BYTES} bytes"))
            return _REFUSED
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            self._send_json(400, _refusal("bad_json",
                                          "request body is not valid JSON"))
            return _REFUSED

    # -- GET -----------------------------------------------------------
    def do_GET(self):  # noqa: N802 (http.server API)
        outer = self.server.owner
        outer.service._count("service_requests_total")
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "":
            self._send_json(200, outer._index())
        elif path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/metrics":
            self.reply(200, outer.service.metrics_text().encode("utf-8"),
                       PROMETHEUS_CONTENT_TYPE)
        elif path.startswith("/v1/results/"):
            outer._get_result(self, path[len("/v1/results/"):])
        elif path.startswith("/v1/runs/"):
            outer._get_run(self, path[len("/v1/runs/"):])
        elif path.startswith("/v1/sweeps/"):
            outer._get_sweep(self, path[len("/v1/sweeps/"):])
        else:
            self._send_json(404, outer._not_found(path))

    # -- POST ----------------------------------------------------------
    def do_POST(self):  # noqa: N802 (http.server API)
        outer = self.server.owner
        outer.service._count("service_requests_total")
        path = self.path.split("?", 1)[0].rstrip("/")
        payload = self._read_json()
        if payload is _REFUSED:
            return
        try:
            if path == "/v1/evaluate":
                outer._post_evaluate(self, payload)
            elif path == "/v1/sweeps":
                outer._post_sweeps(self, payload)
            else:
                self._send_json(404, outer._not_found(path))
        except Exception as err:  # noqa: BLE001 -- one error schema
            self._send_error_payload(err)

    def do_PUT(self):  # noqa: N802
        self._send_json(405, _refusal("method_not_allowed",
                                      "only GET and POST are supported"))

    do_DELETE = do_PUT


class ExperimentServer(ThreadedServer):
    """The ``repro serve`` HTTP front end over one ExperimentService.

    :meth:`stop` also closes the service (drains its executor) when the
    server owns it (``own_service=True``, the CLI default).
    """

    def __init__(self, service: ExperimentService, host: str = "127.0.0.1",
                 port: int = 0, own_service: bool = True):
        self.service = service
        self._own_service = own_service
        super().__init__(_ServiceHandler, host, port)

    # ------------------------------------------------------------------
    # endpoint bodies (methods on the server so tests can drive them)
    # ------------------------------------------------------------------
    @staticmethod
    def _index() -> dict:
        return {
            "service": "repro",
            "endpoints": [
                "POST /v1/evaluate", "POST /v1/sweeps",
                "GET /v1/sweeps/{sweep_id}", "GET /v1/results/{cache_key}",
                "GET /v1/runs/{run_id}", "GET /metrics", "GET /healthz",
            ],
        }

    @staticmethod
    def _not_found(path: str) -> dict:
        return _refusal("not_found", f"no such endpoint: {path or '/'}")

    def _failed(self, key: str) -> dict:
        return _refusal("simulation_failed",
                        self.service.error(key) or "simulation failed",
                        key=key)

    def _post_evaluate(self, handler, payload) -> None:
        # accept a bare wire document or an {"spec": ..., "wait_s": ...}
        # envelope; the bare form is what `repro submit` sends
        if isinstance(payload, dict) and "spec" in payload and "v" not in payload:
            wait_s = float(payload.get("wait_s", DEFAULT_WAIT_S))
            document = payload["spec"]
        else:
            wait_s = DEFAULT_WAIT_S
            document = payload
        ticket = self.service.submit([document], client=handler._client())
        key = ticket.keys[0]
        if wait_s > 0:
            value = self.service.wait(key, timeout_s=wait_s)
        else:
            value = self.service.result(key)
        if value is not None:
            handler._send_json(200, {
                "key": key, "status": "done", "sweep_id": ticket.sweep_id,
                "cached": bool(ticket.cached), "result": _wire_value(value),
            })
            return
        state = self.service.status(key)
        if state == "failed":
            handler._send_json(500, self._failed(key))
            return
        handler._send_json(202, {
            "key": key, "status": "running", "sweep_id": ticket.sweep_id,
        })

    def _post_sweeps(self, handler, payload) -> None:
        if not isinstance(payload, dict) or not isinstance(
                payload.get("specs"), list) or not payload["specs"]:
            raise ValueError('batch body must be {"specs": [<wire spec>, ...]}')
        ticket = self.service.submit(payload["specs"],
                                     client=handler._client())
        handler._send_json(202, ticket.to_dict())

    def _get_sweep(self, handler, sweep_id: str) -> None:
        doc = self.service.sweep_status(sweep_id)
        if doc is None:
            handler._send_json(404, self._not_found(f"/v1/sweeps/{sweep_id}"))
            return
        if doc["complete"] and not doc["failed"]:
            doc["results"] = {
                key: _wire_value(self.service.result(key))
                for key in set(doc["keys"])
            }
        handler._send_json(200, doc)

    def _get_result(self, handler, key: str) -> None:
        value = self.service.result(key)
        if value is not None:
            handler._send_json(200, {"key": key, "status": "done",
                                     "source": "cache",
                                     "result": _wire_value(value)})
            return
        state = self.service.status(key)
        if state == "running":
            handler._send_json(202, {"key": key, "status": "running"})
            return
        if state == "failed":
            handler._send_json(500, self._failed(key))
            return
        record = self.service.ledger_lookup(key)
        if record is not None:
            # durable fallback: the cache was wiped but the run ledger
            # still holds the point's headline metrics
            handler._send_json(200, {"key": key, "status": "done",
                                     "source": "ledger",
                                     "run_id": record.run_id,
                                     "headline": record.points[key]})
            return
        handler._send_json(404, _refusal(
            "not_found", f"unknown result key {key}", key=key))

    def _get_run(self, handler, ref: str) -> None:
        record = self.service.run_record(ref)
        if record is None:
            handler._send_json(404, self._not_found(f"/v1/runs/{ref}"))
            return
        handler._send_json(200, {"run": record.to_json()})

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.address}"

    def stop(self) -> None:
        super().stop()
        if self._own_service:
            self.service.close()


__all__ = [
    "CLIENT_HEADER",
    "DEFAULT_WAIT_S",
    "MAX_BODY_BYTES",
    "ExperimentServer",
    "error_payload",
]
