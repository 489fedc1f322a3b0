"""Asyncio HTTP/JSON front door for the durable coordinator.

No third-party web framework is available in the toolchain, so this is
a deliberately small HTTP/1.1 server on raw ``asyncio`` streams: enough
for keep-alive JSON request/response traffic from the bench harness and
``curl``, with none of the framework surface.  Endpoints:

==========================  =====================================================
``POST /submit``            durably accept a job; 200 ``{"job_id": ...}`` only
                            after the WAL fsync (crash-safe ack)
``GET /status/<job_id>``    job state (stable across coordinator restarts)
``GET /result/<job_id>``    proof + public inputs + logits once DONE (202 while
                            pending)
``GET /metrics``            coordinator + journal + autoscaler + HTTP telemetry
``GET /healthz``            liveness (never requires auth)
==========================  =====================================================

A ``/submit`` body is the job's :class:`~repro.core.spec.CircuitSpec` as
its flat keys (``gadgets`` defaults to :attr:`GatewayConfig.gadgets`) plus
``image_seed``, ``priority``, ``timeout``, ``tenant`` and ``request_id``;
a value out of range is a 400 naming the field, before anything is
journaled.

Multi-tenancy: requests authenticate with ``X-API-Key``; each key maps
to a tenant.  Every tenant has a token bucket (``rate`` req/s, ``burst``
capacity — 429 when empty) and a fair-share weight: concurrent submits
are admitted by stride scheduling, so a tenant with weight 3 gets 3x
the admission slots of a weight-1 tenant under contention, and an idle
tenant's share is redistributed instead of wasted.

The server runs its event loop in a dedicated thread; journal fsyncs
(the blocking part of a durable submit) run in a small executor pool so
group commit can batch concurrent submissions into one fsync.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.spec import CircuitSpec

MAX_BODY_BYTES = 8 << 20
MAX_HEADER_BYTES = 64 << 10
KEEPALIVE_TIMEOUT = 75.0
_STRIDE_UNIT = 1 << 20
ADMISSION_WORKERS = 8  # concurrent durable submits (group commit batches them)

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class GatewayConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; bound port lands in GatewayServer.port
    # key -> tenant; empty dict disables auth (everything is "default"
    # unless the submit body names a tenant).
    api_keys: Dict[str, str] = field(default_factory=dict)
    # tenant -> fair-share weight (unlisted tenants get weight 1).
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    rate: float = 0.0  # token-bucket refill, requests/sec (0 = unlimited)
    burst: int = 64  # token-bucket capacity
    gadgets: str = "lean"  # CircuitSpec.gadgets of a body that names none


class TokenBucket:
    """Classic token bucket; ``rate`` tokens/sec up to ``burst``."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def try_take(self, n: float = 1.0) -> bool:
        now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.updated) * self.rate
        )
        self.updated = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class StrideScheduler:
    """Weighted fair-share pick among tenants with queued work.

    Each tenant advances a virtual ``pass`` by ``stride = UNIT/weight``
    per admission; the runnable tenant with the smallest pass goes next.
    A tenant becoming active after idling starts at the current global
    minimum, so idle time is redistributed, not banked.
    """

    def __init__(self, weights: Dict[str, float]) -> None:
        self._weights = weights
        self._passes: Dict[str, float] = {}
        self._queues: Dict[str, List[Any]] = {}

    def _stride(self, tenant: str) -> float:
        return _STRIDE_UNIT / max(self._weights.get(tenant, 1.0), 1e-9)

    def push(self, tenant: str, item: Any) -> None:
        queue = self._queues.setdefault(tenant, [])
        if not queue:  # tenant was idle: catch its pass up to the pack
            active = [
                self._passes.get(t, 0.0)
                for t, q in self._queues.items() if q
            ]
            floor = min(active) if active else 0.0
            self._passes[tenant] = max(self._passes.get(tenant, 0.0), floor)
        queue.append(item)

    def pop(self) -> Optional[Tuple[str, Any]]:
        runnable = [t for t, q in self._queues.items() if q]
        if not runnable:
            return None
        tenant = min(runnable, key=lambda t: self._passes.get(t, 0.0))
        self._passes[tenant] = (
            self._passes.get(tenant, 0.0) + self._stride(tenant)
        )
        return tenant, self._queues[tenant].pop(0)

    def depth(self) -> int:
        return sum(len(q) for q in self._queues.values())


class GatewayServer:
    """HTTP front end over a :class:`DurableCoordinator`."""

    def __init__(
        self,
        durable,  # DurableCoordinator
        config: Optional[GatewayConfig] = None,
        autoscaler=None,
    ) -> None:
        self.durable = durable
        self.config = config or GatewayConfig()
        self.autoscaler = autoscaler
        self.port: Optional[int] = None
        self.host = self.config.host
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._executor = ThreadPoolExecutor(
            max_workers=ADMISSION_WORKERS,
            thread_name_prefix="gateway-submit",
        )
        self._buckets: Dict[str, TokenBucket] = {}
        self.http_stats: Dict[str, Any] = {
            "requests": 0,
            "submitted": 0,
            "rate_limited": 0,
            "auth_failures": 0,
            "errors": 0,
            "admitted_by_tenant": {},
        }

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "GatewayServer":
        self._thread = threading.Thread(
            target=self._run_loop, name="gateway-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("gateway HTTP server failed to start")
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway HTTP server failed to bind: {self._startup_error}"
            )
        return self

    def stop(self) -> None:
        self._stopping.set()
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._shutdown_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._executor.shutdown(wait=False)

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # bind failure before ready
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._scheduler = StrideScheduler(self.config.tenant_weights)
        self._admit_wakeup = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_HEADER_BYTES,
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        admitters = [
            asyncio.create_task(self._admission_worker())
            for _ in range(ADMISSION_WORKERS)
        ]
        async with server:
            await self._shutdown_event.wait()
        for task in admitters:
            task.cancel()

    # -- fair-share admission --------------------------------------------------------

    async def _admission_worker(self) -> None:
        """Pull (kwargs, future) pairs off the stride scheduler and run
        the durable submit in the executor pool.  Multiple workers run
        concurrently so the journal's group commit can merge their
        fsyncs; fairness comes from pop() ordering, not worker count."""
        while True:
            picked = self._scheduler.pop()
            if picked is None:
                self._admit_wakeup.clear()
                await self._admit_wakeup.wait()
                continue
            tenant, (kwargs, future) = picked
            try:
                gid = await self._loop.run_in_executor(
                    self._executor,
                    lambda: self.durable.submit(**kwargs),
                )
            except Exception as exc:
                if not future.done():
                    future.set_exception(exc)
                continue
            by_tenant = self.http_stats["admitted_by_tenant"]
            by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
            if not future.done():
                future.set_result(gid)

    async def _admit(self, tenant: str, kwargs: Dict[str, Any]) -> str:
        future: asyncio.Future = self._loop.create_future()
        self._scheduler.push(tenant, (kwargs, future))
        self._admit_wakeup.set()
        return await future

    # -- HTTP plumbing ---------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    raw = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"),
                        timeout=KEEPALIVE_TIMEOUT,
                    )
                except asyncio.LimitOverrunError:  # the stream's limit
                    await self._respond(writer, 413, {"error": "headers too large"})
                    break
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionError,
                ):
                    break
                method, path, headers, err = self._parse_head(raw)
                if err is not None:
                    await self._respond(writer, 400, {"error": err})
                    break
                length = int(headers.get("content-length") or 0)
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413, {"error": "body too large"})
                    break
                body = await reader.readexactly(length) if length else b""
                self.http_stats["requests"] += 1
                try:
                    status, payload = await self._route(
                        method, path, headers, body
                    )
                except Exception as exc:
                    self.http_stats["errors"] += 1
                    status, payload = 500, {"error": repr(exc)}
                keep = headers.get("connection", "keep-alive") != "close"
                await self._respond(writer, status, payload, keep_alive=keep)
                if not keep:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    def _parse_head(raw: bytes):
        try:
            head = raw.decode("latin-1")
            lines = head.split("\r\n")
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            return None, None, None, "malformed request line"
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length") or "0"
        if not length.isdigit():
            return None, None, None, f"content-length={length!r}: expected digits"
        return method.upper(), path.split("?", 1)[0], headers, None

    async def _respond(
        self, writer, status: int, payload: Dict[str, Any],
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # -- routing ---------------------------------------------------------------------

    def _authenticate(self, headers: Dict[str, str]) -> Optional[str]:
        """Returns the tenant, or None if the request is unauthorized."""
        if not self.config.api_keys:
            return "default"
        key = headers.get("x-api-key", "")
        return self.config.api_keys.get(key)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.rate, self.config.burst)
            self._buckets[tenant] = bucket
        return bucket

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            return 200, {
                "ok": True,
                "nodes": len(self.durable.coordinator.live_nodes()),
                "pending_submits": self._scheduler.depth(),
            }
        tenant = self._authenticate(headers)
        if tenant is None:
            self.http_stats["auth_failures"] += 1
            return 401, {"error": "missing or unknown X-API-Key"}
        if self.config.rate > 0 and not self._bucket(tenant).try_take():
            self.http_stats["rate_limited"] += 1
            return 429, {"error": "rate limit exceeded", "tenant": tenant}

        if method == "POST" and path == "/submit":
            return await self._handle_submit(tenant, body)
        if method == "GET" and path.startswith("/status/"):
            view = self.durable.status(path[len("/status/"):])
            return (200, view) if view else (404, {"error": "unknown job"})
        if method == "GET" and path.startswith("/result/"):
            return self._handle_result(path[len("/result/"):])
        if method == "GET" and path == "/metrics":
            return 200, self._metrics()
        if path in ("/submit", "/metrics") or path.startswith(
            ("/status/", "/result/")
        ):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route for {path}"}

    async def _handle_submit(
        self, tenant: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            req = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body must be JSON"}
        if not isinstance(req, dict):
            return 400, {"error": "body must be a JSON object"}
        # Without auth, the body may name its tenant; with auth the API
        # key decides and the body field is ignored.
        if not self.config.api_keys:
            tenant = str(req.get("tenant", tenant))
        try:
            kwargs = {
                # The spec's flat keys; a missing model is a TypeError.
                "circuit": CircuitSpec.from_mapping(
                    dict(req, gadgets=req.get("gadgets") or self.config.gadgets)
                ),
                "image_seed": req.get("image_seed"),
                "priority": _number(req, "priority", int, 0),
                "timeout": _number(req, "timeout", float, None),
                "tenant": tenant,
                "request_id": req.get("request_id"),
            }
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        try:
            gid = await self._admit(tenant, kwargs)
        except ValueError as exc:  # the image_seed, checked at the door
            return 400, {"error": str(exc)}
        self.http_stats["submitted"] += 1
        return 200, {"job_id": gid, "tenant": tenant, "durable": True}

    def _handle_result(self, gid: str) -> Tuple[int, Dict[str, Any]]:
        view = self.durable.status(gid)
        if view is None:
            return 404, {"error": "unknown job"}
        if view["state"] in ("queued", "running"):
            return 202, view
        return 200, self.durable.result_view(gid) or view  # or failed

    def _metrics(self) -> Dict[str, Any]:
        snap = self.durable.stats()
        snap["http"] = dict(
            self.http_stats, pending_submits=self._scheduler.depth()
        )
        if self.autoscaler is not None:
            snap["autoscaler"] = self.autoscaler.stats()
        return snap


def _number(req: Dict[str, Any], name: str, kind: Callable, default: Any) -> Any:
    """``req[name]`` as ``kind`` (absent or null: ``default``); a
    ``ValueError`` naming the field when it is not a number."""
    value = req.get(name)
    try:
        return default if value is None else kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name}={value!r}: expected {kind.__name__}") from None
