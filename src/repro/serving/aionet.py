"""The listener: one asyncio event loop in front of sans-IO connection objects.

Every TCP front end in the serving stack is this transport (there is no
other): :class:`~.netserver.EvaTcpServer` and
:class:`~.netserver.ClusterTcpServer` subclass :class:`AsyncWireServer` and
only say which connection object to build.

* **The event loop owns every socket.**  An idle connection costs a heap
  object and a file descriptor, not a thread, so thousands of mostly-idle
  sessions are cheap.  The loop feeds received bytes to the connection's
  :class:`~repro.wire.FrameDecoder` — the one place the first-byte
  JSON/binary sniff and the frame-header checks live — and writes back
  whatever the connection object returns.
* **A slot pool runs the blocking work.**  CKKS evaluation and cluster
  forwarding block, so each complete message is handed to
  :class:`_DaemonDispatchPool`, a bounded pool of daemon threads.  A
  connection binds, when it opens, the lowest-index slot no live connection
  holds (the least-loaded slot once all are held) and runs on that one
  worker, one message at a time: pipelined requests keep their order, and
  the router's thread-keyed upstream connections stay coherent.  It
  releases the slot once its ``close`` is queued, so the next client reuses
  the thread — and its malloc arena — instead of starting its own.
* **Connection objects are sans-IO.**  They take a decoded message and
  return ``(reply_bytes, keep_open)``; they never see a socket, a stream or
  the loop, so the protocol can be driven by a test with no network.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import queue
import socket
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import TransportError
from ..wire import FrameDecoder
from ..wire.frames import READ_BYTES

#: Dispatch slots, each with at most one thread.  A connection binds the
#: lowest-index slot no live connection holds (the least-loaded once all are
#: held), so sequential clients share one thread and live ones get one each.
#: Workers exit after ``_WORKER_IDLE_SECONDS`` without work.
DISPATCH_WORKERS = 64
_WORKER_IDLE_SECONDS = 30.0


class _WorkerSlot:
    __slots__ = ("index", "queue", "lock", "running", "connections")

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self.lock = threading.Lock()
        self.running = False
        #: Live connections bound to this slot (guarded by the pool's lock).
        self.connections = 0


class _DaemonDispatchPool:
    """Bounded pool of daemon threads; each connection is bound to one slot.

    A connection submits every message to the slot :meth:`bind` gave it until
    :meth:`release`, so all its requests run on the *same* OS thread, in
    order — which keeps the cluster router's thread-keyed upstream
    connections coherent: the CHUNK frames of a streaming upload and the
    request that finally references the upload must reach the shard over one
    upstream socket.

    ``concurrent.futures.ThreadPoolExecutor`` is deliberately not used: it
    has no affinity, and its workers are non-daemon and joined at interpreter
    exit, so one handler stuck on a dead upstream would hang process
    shutdown.  Workers spawn on first use of their slot and retire after a
    quiet period; ``on_threads`` is called with the live worker count
    whenever it changes.
    """

    def __init__(
        self, max_workers: int, name: str, on_threads: Callable[[int], None] = lambda count: None
    ) -> None:
        self._slots = [_WorkerSlot(index) for index in range(max(1, int(max_workers)))]
        self._name = name
        self._lock = threading.Lock()
        self._threads = 0
        self._on_threads = on_threads

    def bind(self) -> _WorkerSlot:
        """The lowest-index slot no live connection holds, else the least-loaded."""
        with self._lock:
            slot = min(self._slots, key=lambda slot: slot.connections)
            slot.connections += 1
        return slot

    def release(self, slot: _WorkerSlot) -> None:
        """Give up a slot; what the connection queued on it still runs first."""
        with self._lock:
            slot.connections -= 1

    def submit(self, slot: _WorkerSlot, fn, *args) -> "concurrent.futures.Future":
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        slot.queue.put((future, fn, args))
        with slot.lock:
            if not slot.running:
                slot.running = True
                self._count_thread(+1)
                threading.Thread(
                    target=self._worker,
                    args=(slot,),
                    name=f"{self._name}-{slot.index}",
                    daemon=True,
                ).start()
        return future

    def _count_thread(self, delta: int) -> None:
        with self._lock:
            self._threads += delta
            self._on_threads(self._threads)

    def _worker(self, slot: _WorkerSlot) -> None:
        while True:
            try:
                item = slot.queue.get(timeout=_WORKER_IDLE_SECONDS)
            except queue.Empty:
                with slot.lock:
                    # Re-check under the lock: a submit racing the timeout
                    # either saw running=True (and skipped spawning) or put
                    # an item we must drain before retiring.
                    if slot.queue.empty():
                        slot.running = False
                        self._count_thread(-1)
                        return
                continue
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn(*args)
            except BaseException as exc:  # delivered to the awaiting coroutine
                future.set_exception(exc)
            else:
                future.set_result(result)


class AsyncWireServer:
    """Event-loop listener and connection registry.

    Subclasses set :attr:`connection_class`; the listener builds one per
    accepted socket as ``connection_class(self, key, peer)`` — ``key`` is the
    connection's registry key, unique for the listener's life — and drives it
    through ``handle(message) -> (reply_bytes, keep_open)`` for each decoded
    message, ``info()`` for the ``stats`` op, and, once the socket is gone
    and only if ``needs_close`` is true, ``close()``.  ``handle`` and
    ``close`` run on the dispatch slot the connection bound when it opened
    and may block.  Subclasses set :attr:`telemetry` before calling
    ``__init__``; the live dispatch worker count is its gauge
    ``serving.dispatch.threads``.

    The listening socket is bound synchronously in ``__init__`` so
    ``.address`` answers immediately after construction — the CLI and the
    cluster's shard bootstrap read the bound port before serving starts.
    ``serve_forever`` runs the event loop in the calling thread (blocking);
    ``shutdown`` is thread-safe and waits for the loop to wind down, closing
    live connections as it goes.

    Every listener accepts both framings, sniffed per message from its first
    byte, and answers each message in its own framing; nothing is
    negotiated (an earlier build's client's ``hello`` is simply acked).
    """

    connection_class: Any = None
    telemetry: Any = None

    #: Name of the background serving thread (and prefix of its workers).
    thread_name = "eva-aio-server"

    def __init__(self, host: str, port: int) -> None:
        self._conn_lock = threading.Lock()
        self._conn_seq = 0
        self._connections: Dict[int, Any] = {}
        self._socket = socket.create_server((host, port), backlog=512)
        self.telemetry.set_gauge("serving.dispatch.threads", 0)
        self._pool = _DaemonDispatchPool(
            DISPATCH_WORKERS,
            f"{self.thread_name}-dispatch",
            on_threads=lambda count: self.telemetry.set_gauge("serving.dispatch.threads", count),
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._conn_tasks = set()

    # -- connection registry -------------------------------------------------------
    def _open_connection(self, peer: str):
        with self._conn_lock:
            self._conn_seq += 1
            conn = self.connection_class(self, self._conn_seq, peer)
            self._connections[conn.key] = conn
            self._connections_changed()
        return conn

    def _connections_changed(self) -> None:
        """Called under the registry lock after a connection opens or closes."""

    def connection_infos(self) -> List[Dict[str, Any]]:
        """Live connections with their reported protocol and byte counters
        (the ``stats`` op's ``connections`` field)."""
        with self._conn_lock:
            connections = list(self._connections.values())
        return [conn.info() for conn in connections]

    # -- public lifecycle ----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful after binding port 0."""
        name = self._socket.getsockname()
        return name[0], name[1]

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns once the loop is accepting."""
        thread = threading.Thread(
            target=self.serve_forever, name=self.thread_name, daemon=True
        )
        thread.start()
        self._started.wait(timeout=10)
        return thread

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking call)."""
        asyncio.run(self._serve())

    def shutdown(self) -> None:
        """Stop serving; thread-safe, idempotent, waits for the loop to exit."""
        if self._started.is_set() and not self._stopped.is_set():
            loop = self._loop
            if loop is not None:
                try:
                    loop.call_soon_threadsafe(self._signal_stop)
                except RuntimeError:
                    pass  # loop already closed between the checks
            self._stopped.wait(timeout=10)
        else:
            self.server_close()

    def server_close(self) -> None:
        """Release the listening socket (no-op once the loop has closed it)."""
        try:
            self._socket.close()
        except OSError:
            pass

    def _signal_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    # -- event loop ----------------------------------------------------------------
    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._socket, limit=READ_BYTES
        )
        self._started.set()
        try:
            async with server:
                await self._stop_event.wait()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        finally:
            self._stopped.set()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        conn = self._open_connection(f"{peername[0]}:{peername[1]}" if peername else "?")
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # A reply's final partial segment must never wait on a delayed ACK.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        slot = self._pool.bind()
        try:
            await self._connection_loop(conn, slot, reader, writer)
        except asyncio.CancelledError:
            pass  # server shutting down
        except (ConnectionError, OSError):
            pass  # peer went away mid-message
        except Exception:
            pass  # handler failure: drop the connection, keep serving others
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            with self._conn_lock:
                self._connections.pop(conn.key, None)
                self._connections_changed()
            try:
                writer.close()
            except Exception:
                pass
            if conn.needs_close:
                # Queued behind the connection's last message on its own
                # slot; not awaited, because this task may be the one
                # being cancelled.
                self._pool.submit(slot, conn.close)
            # The next connection to bind this slot queues behind that close.
            self._pool.release(slot)

    async def _connection_loop(
        self, conn, slot: _WorkerSlot, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Decode, dispatch, reply — one message at a time, in arrival order.

        Payload errors are answered by the connection object; framing errors
        drop the connection, because nothing downstream of a desynchronized
        stream can be trusted.
        """
        decoder = FrameDecoder()
        while True:
            try:
                message = decoder.next_message()
            except TransportError:
                return  # broken framing: the stream cannot resync
            if message is None:
                data = await reader.read(READ_BYTES)
                if not data:
                    return
                decoder.feed(data)
                continue
            reply, keep_open = await asyncio.wrap_future(
                self._pool.submit(slot, conn.handle, message)
            )
            if reply:
                try:
                    writer.write(reply)
                    await writer.drain()
                except (ConnectionError, OSError, RuntimeError):
                    return  # the peer is gone
            if not keep_open:
                return
