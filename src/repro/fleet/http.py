"""Zero-dependency HTTP API over :class:`~repro.fleet.service.FleetService`.

A ``http.server.ThreadingHTTPServer`` (stdlib, one thread per request —
plenty for a control plane that does milliseconds of work per call)
exposing:

======  ==================  =============================================
POST    ``/jobs``           submit a job (JSON or TOML body)
GET     ``/jobs``           list jobs (``?tenant=`` / ``?state=`` filters)
GET     ``/jobs/{id}``      one job record with its transition history
DELETE  ``/jobs/{id}``      cancel a job (drains running pipelines)
GET     ``/metrics``        Prometheus scrape for the whole fleet
GET     ``/healthz``        liveness + version + per-state job counts
======  ==================  =============================================

Submission bodies reuse the exact config surface of the CLI: the
``deploy`` table is handed to :meth:`DeployConfig.from_dict`, so anything
a ``strata.toml`` can say, a POST body can say — send
``Content-Type: application/toml`` and the raw TOML document, or JSON
with the same shape. Errors map onto structured JSON: 400 for malformed
bodies/configs, 404 for unknown jobs, 409 for impossible cancels, and
429 with a machine-readable quota code for admission rejections.
"""

from __future__ import annotations

import json
import logging
import threading
import tomllib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..core.errors import DeployConfigError
from ..obs.exporters import write_http_response
from .errors import AdmissionError, FleetError, UnknownJobError
from .service import FleetService

logger = logging.getLogger("repro.fleet.http")

MAX_BODY_BYTES = 1 << 20  # a config document, not a dataset


class FleetRequestHandler(BaseHTTPRequestHandler):
    """Routes one request at the service; all state lives in the service."""

    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> FleetService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        write_http_response(self, status, "application/json", body)

    def _error(self, status: int, code: str, message: str, detail: Any = None) -> None:
        self._send_json(
            status, {"code": code, "message": message, "detail": detail or {}}
        )

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        content_type = (self.headers.get("Content-Type") or "application/json").split(
            ";"
        )[0].strip().lower()
        if content_type in ("application/toml", "text/toml", "text/x-toml"):
            try:
                return tomllib.loads(raw.decode())
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"invalid TOML body: {exc}") from exc
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc
        if not isinstance(parsed, dict):
            raise ValueError("request body must be a JSON object")
        return parsed

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._send_json(200, self.service.health())
            elif parts == ["metrics"]:
                write_http_response(
                    self, 200, "text/plain; version=0.0.4",
                    self.service.prometheus().encode(),
                )
            elif parts == ["jobs"]:
                query = parse_qs(url.query)
                records = self.service.list(
                    tenant=(query.get("tenant") or [None])[0],
                    state=(query.get("state") or [None])[0],
                )
                self._send_json(200, {"jobs": [r.to_dict() for r in records]})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, self.service.get(parts[1]).to_dict())
            else:
                self._error(404, "not-found", f"no route for GET {url.path}")
        except UnknownJobError as exc:
            self._error(404, "unknown-job", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("GET %s failed", self.path)
            self._error(500, "internal", f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["jobs"]:
            self._error(404, "not-found", f"no route for POST {url.path}")
            return
        try:
            body = self._read_body()
            record = self.service.submit(body)
            self._send_json(201, record.to_dict())
        except AdmissionError as exc:
            self._send_json(429, exc.to_dict())
        except (DeployConfigError, ValueError) as exc:
            self._error(400, "invalid-submission", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("POST /jobs failed")
            self._error(500, "internal", f"{type(exc).__name__}: {exc}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, "not-found", f"no route for DELETE {url.path}")
            return
        try:
            record = self.service.cancel(parts[1])
            self._send_json(200, record.to_dict())
        except UnknownJobError as exc:
            self._error(404, "unknown-job", str(exc))
        except FleetError as exc:
            self._error(409, "not-cancellable", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("DELETE %s failed", self.path)
            self._error(500, "internal", f"{type(exc).__name__}: {exc}")


class FleetHTTPServer:
    """The fleet API server: a threading HTTP server plus its service."""

    def __init__(
        self,
        service: FleetService,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.service = service
        host = host if host is not None else service.config.host
        port = port if port is not None else service.config.port
        self._server = ThreadingHTTPServer((host, port), FleetRequestHandler)
        self._server.daemon_threads = True
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral ``port=0`` request)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in a background thread (tests, embedded use)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="fleet-http",
            daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``serve`` verb)."""
        self._server.serve_forever(poll_interval=0.1)

    def stop(self, drain_timeout: float = 30.0) -> None:
        """Stop accepting requests, then drain the fleet."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.drain(timeout=drain_timeout)
