"""The asyncio HTTP/JSON frontend of ``repro serve`` — stdlib only.

A deliberately small HTTP/1.1 server built directly on
:func:`asyncio.start_server`: no framework, no dependency, one connection
per request (``Connection: close``), JSON in and JSON out.  The interesting
machinery all lives in :class:`~repro.serve.service.AgreementService`; this
module adds the concurrency shell around it:

* a **bounded** :class:`asyncio.Queue` of admitted jobs — when it is full
  new work is refused with ``429 Too Many Requests`` and a ``Retry-After``
  estimated from the queue depth and the observed mean execution latency,
  so overload degrades into explicit backpressure instead of unbounded
  memory growth;
* a small pool of worker tasks draining the queue through
  ``run_in_executor`` (simulations are CPU-bound synchronous code); a
  worker whose job raises keeps running — the failure goes to the waiting
  client, the worker survives;
* **streaming sweeps**: ``POST /sweep`` answers with chunked NDJSON, one
  line per report *in completion order*, cached entries first and instantly;
* **recovery on boot**: journal-replayed pending requests are enqueued
  before the listening socket opens (they were journaled as accepted
  pre-crash, so they are executed without being re-journaled);
* **graceful drain**: on SIGTERM/SIGINT (or :meth:`HttpFrontend.stop`) the
  server stops accepting, waits up to ``drain_deadline`` seconds for queued
  jobs, then closes and compacts the journal — anything not finished stays
  journaled as accepted and re-runs on the next boot.

Endpoints::

    POST /run      one RunRequest              -> {"id", "cached", "outcome", ...}
    POST /sweep    SweepSpec | request list    -> NDJSON stream of results
    GET  /healthz  liveness  (503 once the service has faulted)
    GET  /readyz   readiness (503 while draining or faulted)
    GET  /metrics  Prometheus text, or JSON with ?format=json
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.request import RunRequest, SweepSpec
from ..runtime.chaos import chaos_scope
from ..runtime.errors import (CheckpointWriteError, ConfigurationError,
                              ReproError)
from .service import (AdmissionError, AgreementService, ServeResult,
                      ServiceUnavailableError)

#: Largest request body we will buffer (a generous bound for sweep specs).
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Per-read timeout while parsing a request (slowloris guard).
READ_TIMEOUT = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: Keys that mark a JSON object as a full SweepSpec rather than a request.
_SWEEP_KEYS = ("requests", "seed_policy", "sweep_seed")


@dataclass
class _Job:
    """One admitted request waiting in the queue for a worker."""

    digest: str
    request: RunRequest
    future: "asyncio.Future[ServeResult]"
    index: Optional[int] = None  # position within a sweep, for the stream


@dataclass
class _ParsedRequest:
    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


class HttpFrontend:
    """The asyncio server wrapping one :class:`AgreementService`.

    Run it blocking with :meth:`run` (the CLI does), or from a thread in
    tests: construct, ``threading.Thread(target=frontend.run).start()``,
    wait on :attr:`ready`, talk HTTP to :attr:`port`, then :meth:`stop`.
    """

    def __init__(self, service: AgreementService, host: str = "127.0.0.1",
                 port: int = 8484, max_queue: int = 64, workers: int = 2,
                 drain_deadline: float = 10.0,
                 chaos: Any = None) -> None:
        if max_queue < 1:
            raise ConfigurationError(
                f"the work queue needs at least one slot, got {max_queue}")
        if workers < 1:
            raise ConfigurationError(
                f"the service needs at least one worker, got {workers}")
        self.service = service
        self.host = host
        self.requested_port = port
        self.max_queue = max_queue
        self.workers = workers
        self.drain_deadline = drain_deadline
        self.chaos = chaos
        #: Set once the socket is listening; :attr:`port` is valid after.
        self.ready = threading.Event()
        #: The actually bound port (meaningful with ``port=0`` in tests).
        self.port: Optional[int] = None
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional["asyncio.Queue[_Job]"] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._inflight = 0
        self._started_at = 0.0
        self._run_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------
    def run(self) -> None:
        """Serve until :meth:`stop` or a termination signal; blocks."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._run_error = exc
            self.ready.set()  # never leave a waiter hanging on a boot error
            raise

    def stop(self) -> None:
        """Request a graceful drain-and-exit; safe from any thread."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._started_at = time.monotonic()
        with chaos_scope(self.chaos):
            recovery = self.service.start()
            workers = [asyncio.ensure_future(self._worker(n))
                       for n in range(self.workers)]
            # Re-enqueue what the journal says never finished -- before the
            # socket opens, so recovered work is ahead of new arrivals.
            for digest, request in self.service.pending:
                job = _Job(digest, request, self._loop.create_future())
                job.future.add_done_callback(_swallow)
                await self._queue.put(job)
            self.service.pending = []
            server = await asyncio.start_server(self._handle_connection,
                                                self.host,
                                                self.requested_port)
            self.port = server.sockets[0].getsockname()[1]
            self._install_signal_handlers()
            if recovery:
                self.service.metrics.increment("recovered_jobs_total",
                                               recovery.get("pending", 0))
            self.ready.set()
            try:
                await self._shutdown.wait()
            finally:
                self.draining = True
                server.close()
                await server.wait_closed()
                await self._drain(workers)
                self.service.close()
                self.service.compact_journal()

    async def _drain(self, workers: List["asyncio.Future[None]"]) -> None:
        """Finish queued work under the deadline; checkpoint the rest.

        Jobs still queued (or mid-flight) when the deadline lapses remain
        ``accepted`` in the journal and re-run on the next boot — drain
        never loses work, it only bounds how long shutdown waits for it.
        """
        assert self._queue is not None
        deadline = time.monotonic() + self.drain_deadline
        while (self._queue.qsize() or self._inflight) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task in workers:
            task.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
        # Unblock any clients still waiting on jobs we are abandoning.
        while not self._queue.empty():
            job = self._queue.get_nowait()
            if not job.future.done():
                job.future.set_exception(ServiceUnavailableError(
                    "server shut down before this job ran; it stays "
                    "journaled and will execute on the next start"))
                job.future.add_done_callback(_swallow)

    def _install_signal_handlers(self) -> None:
        import signal
        assert self._loop is not None and self._shutdown is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return  # not the main thread (tests) or unsupported platform

    # -- the worker pool -----------------------------------------------------
    async def _worker(self, number: int) -> None:
        assert self._loop is not None and self._queue is not None
        while True:
            job = await self._queue.get()
            self._inflight += 1
            try:
                if job.future.done():  # client gone / shutdown raced us
                    continue
                call = self._loop.run_in_executor(
                    None, self.service.run_job, job.digest, job.request)
                call.add_done_callback(_swallow)
                try:
                    result = await asyncio.shield(call)
                except asyncio.CancelledError:
                    raise
                # repro-lint: waive[errors/broad-except] -- the failure
                # is forwarded into the job future, where the request
                # handler turns it into the client's 500 response
                except BaseException as exc:
                    if not job.future.done():
                        job.future.set_exception(exc)
                else:
                    if not job.future.done():
                        job.future.set_result(result)
            except asyncio.CancelledError:
                # Shutdown: the executor thread (if any) runs to completion
                # in the background; the journal keeps the job accepted.
                raise
            # repro-lint: waive[errors/broad-except] -- the worker loop
            # must survive any single job's failure; the restart is
            # counted in worker_restarts_total
            except Exception:  # pragma: no cover - the pool must survive
                self.service.metrics.increment("worker_restarts_total")
            finally:
                self._inflight -= 1
                self._queue.task_done()

    def _retry_after(self) -> int:
        """A Retry-After estimate: queue depth x observed mean latency."""
        assert self._queue is not None
        snap = self.service.metrics.snapshot()
        buckets = [b for engine, b in snap["engine_latency"].items()
                   if engine != "cache"]
        count = sum(b["count"] for b in buckets)
        total = sum(b["total_seconds"] for b in buckets)
        mean = (total / count) if count else 0.25
        depth = self._queue.qsize() + self._inflight
        return max(1, math.ceil(depth * mean / max(1, self.workers)))

    # -- HTTP plumbing -------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            parsed, error = await self._read_request(reader)
            if error is not None:
                status, message = error
                await _respond(writer, status, {"error": message})
            elif parsed is not None:
                await self._route(parsed, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Tuple[
            Optional[_ParsedRequest], Optional[Tuple[int, str]]]:
        try:
            line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT)
        except asyncio.TimeoutError:
            return None, (408, "timed out reading the request line")
        if not line:
            return None, None  # connection opened and closed; no request
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return None, (400, "malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        path, _, raw_query = target.partition("?")
        query: Dict[str, str] = {}
        for pair in raw_query.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await asyncio.wait_for(reader.readline(), READ_TIMEOUT)
            except asyncio.TimeoutError:
                return None, (408, "timed out reading headers")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        # RFC 9110: Content-Length = 1*DIGIT.  int() alone would accept a
        # sign, and a negative length then fails inside readexactly().
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            return None, (400, "unreadable Content-Length")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            return None, (413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length),
                                              READ_TIMEOUT)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                return None, (400, "request body shorter than Content-Length")
        return _ParsedRequest(method, path, query, body), None

    async def _route(self, request: _ParsedRequest,
                     writer: asyncio.StreamWriter) -> None:
        handler = {
            ("GET", "/"): self._get_root,
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/readyz"): self._get_readyz,
            ("GET", "/metrics"): self._get_metrics,
            ("POST", "/run"): self._post_run,
            ("POST", "/sweep"): self._post_sweep,
        }.get((request.method, request.path))
        if handler is None:
            known = {"/", "/healthz", "/readyz", "/metrics", "/run", "/sweep"}
            if request.path in known:
                await _respond(writer, 405,
                               {"error": f"{request.method} is not "
                                         f"supported on {request.path}"})
            else:
                await _respond(writer, 404,
                               {"error": f"no route for {request.path}"})
            return
        await handler(request, writer)

    # -- GET endpoints -------------------------------------------------------
    async def _get_root(self, request: _ParsedRequest,
                        writer: asyncio.StreamWriter) -> None:
        await _respond(writer, 200, {
            "service": "repro-serve",
            "endpoints": ["/run", "/sweep", "/healthz", "/readyz",
                          "/metrics"],
            "recovery": self.service.last_recovery,
        })

    async def _get_healthz(self, request: _ParsedRequest,
                           writer: asyncio.StreamWriter) -> None:
        if self.service.fault is not None:
            await _respond(writer, 503, {
                "status": "faulted",
                "fault": f"{type(self.service.fault).__name__}: "
                         f"{self.service.fault}"})
            return
        await _respond(writer, 200, {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3)})

    async def _get_readyz(self, request: _ParsedRequest,
                          writer: asyncio.StreamWriter) -> None:
        assert self._queue is not None
        if self.service.fault is not None:
            await _respond(writer, 503, {"status": "faulted"})
        elif self.draining:
            await _respond(writer, 503, {"status": "draining"})
        else:
            await _respond(writer, 200, {
                "status": "ready", "queue_depth": self._queue.qsize(),
                "queue_capacity": self.max_queue})

    async def _get_metrics(self, request: _ParsedRequest,
                           writer: asyncio.StreamWriter) -> None:
        assert self._queue is not None
        kwargs = dict(queue_depth=self._queue.qsize(),
                      queue_capacity=self.max_queue,
                      cache_stats=self.service.cache.stats(),
                      extra={"inflight": self._inflight,
                             "draining": self.draining})
        if request.query.get("format") == "json":
            await _respond(writer, 200, self.service.metrics.snapshot(
                **kwargs))
            return
        text = self.service.metrics.render_text(**kwargs)
        await _respond_raw(writer, 200, text.encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")

    # -- POST /run -----------------------------------------------------------
    def _admit_one(self, data: Any) -> Tuple[str, RunRequest]:
        """Parse and admit one request dict; raises AdmissionError on junk."""
        if not isinstance(data, dict):
            raise AdmissionError(
                f"a run request is a JSON object, got "
                f"{type(data).__name__}")
        try:
            request = RunRequest.from_dict(data)
        except (ReproError, TypeError, ValueError, KeyError) as exc:
            raise AdmissionError(str(exc)) from exc
        return self.service.admit(request), request

    async def _post_run(self, parsed: _ParsedRequest,
                        writer: asyncio.StreamWriter) -> None:
        assert self._loop is not None and self._queue is not None
        try:
            data = json.loads(parsed.body or b"null")
        except json.JSONDecodeError as exc:
            await _respond(writer, 400,
                           {"error": f"request body is not JSON: {exc}"})
            return
        if self.draining:
            await _respond(writer, 503, {"error": "server is draining"})
            return
        try:
            digest, request = await self._loop.run_in_executor(
                None, self._admit_one, data)
        except AdmissionError as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        except ServiceUnavailableError as exc:
            await _respond(writer, 503, {"error": str(exc)})
            return
        cached = self.service.cached_result(digest)
        if cached is not None:
            await _respond(writer, 200, cached.to_dict())
            return
        job = _Job(digest, request, self._loop.create_future())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.service.metrics.increment("backpressure_rejects_total")
            retry = self._retry_after()
            await _respond(writer, 429,
                           {"error": "work queue is full; retry later",
                            "retry_after_seconds": retry},
                           extra_headers=[("Retry-After", str(retry))])
            return
        try:
            self.service.accept(digest, request)
        except CheckpointWriteError as exc:
            job.future.cancel()
            await _respond(writer, 500, {"error": str(exc)})
            return
        try:
            result = await job.future
        # repro-lint: waive[errors/broad-except] -- any execution failure
        # becomes the client's 500 body, name and message included
        except Exception as exc:
            await _respond(writer, 500, {
                "error": f"{type(exc).__name__}: {exc}"})
            return
        await _respond(writer, 200, result.to_dict())

    # -- POST /sweep ---------------------------------------------------------
    def _parse_sweep(self, data: Any) -> SweepSpec:
        if isinstance(data, list):
            return SweepSpec.from_dict({"requests": data})
        if isinstance(data, dict) and any(key in data
                                          for key in _SWEEP_KEYS):
            return SweepSpec.from_dict(data)
        raise AdmissionError(
            "a sweep body is a SweepSpec object or a list of run requests")

    async def _post_sweep(self, parsed: _ParsedRequest,
                          writer: asyncio.StreamWriter) -> None:
        assert self._loop is not None and self._queue is not None
        try:
            data = json.loads(parsed.body or b"null")
        except json.JSONDecodeError as exc:
            await _respond(writer, 400,
                           {"error": f"request body is not JSON: {exc}"})
            return
        if self.draining:
            await _respond(writer, 503, {"error": "server is draining"})
            return

        def admit_all() -> List[Tuple[str, RunRequest]]:
            spec = self._parse_sweep(data)
            admitted = []
            for index, request in enumerate(spec.resolved_requests()):
                try:
                    admitted.append((self.service.admit(request), request))
                except AdmissionError as exc:
                    raise AdmissionError(
                        f"request {index}: {exc}") from exc
            return admitted

        try:
            admitted = await self._loop.run_in_executor(None, admit_all)
        except AdmissionError as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        except ServiceUnavailableError as exc:
            await _respond(writer, 503, {"error": str(exc)})
            return
        except (ReproError, TypeError, ValueError) as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        uncached = [index for index, (digest, _) in enumerate(admitted)
                    if self.service.cache.peek(digest) is None]
        free = self.max_queue - self._queue.qsize()
        if len(uncached) > free:
            self.service.metrics.increment("backpressure_rejects_total")
            retry = self._retry_after()
            await _respond(
                writer, 429,
                {"error": f"sweep needs {len(uncached)} queue slots, "
                          f"{free} free; retry later",
                 "retry_after_seconds": retry},
                extra_headers=[("Retry-After", str(retry))])
            return

        stream = _NdjsonStream(writer)
        await stream.begin()
        jobs: List[_Job] = []
        cached_count = 0
        for index, (digest, request) in enumerate(admitted):
            cached = self.service.cached_result(digest)
            if cached is not None:
                cached_count += 1
                await stream.send({"index": index, **cached.to_dict()})
                continue
            job = _Job(digest, request, self._loop.create_future(),
                       index=index)
            try:
                self.service.accept(digest, request)
            except CheckpointWriteError as exc:
                await stream.send({"index": index, "id": digest,
                                   "error": str(exc)})
                continue
            await self._queue.put(job)
            jobs.append(job)
        pending = {job.future: job for job in jobs}
        while pending:
            done, _ = await asyncio.wait(pending,
                                         return_when=asyncio.FIRST_COMPLETED)
            for future in done:
                job = pending.pop(future)
                try:
                    result = future.result()
                # repro-lint: waive[errors/broad-except] -- one cell's
                # failure is streamed as its error record; the rest of
                # the sweep keeps going
                except Exception as exc:
                    await stream.send({
                        "index": job.index, "id": job.digest,
                        "error": f"{type(exc).__name__}: {exc}"})
                else:
                    await stream.send({"index": job.index,
                                       **result.to_dict()})
        await stream.end({"event": "done", "total": len(admitted),
                          "cached": cached_count,
                          "executed": len(jobs)})


def _swallow(future: "asyncio.Future[Any]") -> None:
    """Consume a future's exception so abandoned jobs never warn at exit."""
    if not future.cancelled():
        future.exception()


class _NdjsonStream:
    """A chunked-encoding NDJSON response: one JSON line per completion."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer

    async def begin(self) -> None:
        head = (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n")
        self.writer.write(head)
        await self.writer.drain()

    async def send(self, payload: Dict[str, Any]) -> None:
        line = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.writer.write(f"{len(line):x}\r\n".encode("ascii") + line
                          + b"\r\n")
        await self.writer.drain()

    async def end(self, payload: Optional[Dict[str, Any]] = None) -> None:
        if payload is not None:
            await self.send(payload)
        self.writer.write(b"0\r\n\r\n")
        await self.writer.drain()


async def _respond(writer: asyncio.StreamWriter, status: int,
                   payload: Dict[str, Any],
                   extra_headers: Optional[List[Tuple[str, str]]] = None
                   ) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    await _respond_raw(writer, status, body, "application/json",
                       extra_headers)


async def _respond_raw(writer: asyncio.StreamWriter, status: int,
                       body: bytes, content_type: str,
                       extra_headers: Optional[List[Tuple[str, str]]] = None
                       ) -> None:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in extra_headers or ():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
    await writer.drain()
