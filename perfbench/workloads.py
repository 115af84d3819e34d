"""The benchmark's workloads and the closed loop that drives them.

Every workload is one process holding one client connection and waiting for
each reply before it sends the next request (the callers it models wait for
their answers).  Requests go round-robin over the workload's request
classes, one method per class, so every class samples the same stretch of
host time.  The workload seed picks the query order and the Zipf
permutation; the query set itself is fixed (see ``prepare.py``).
"""

from __future__ import annotations

import http.client
import secrets
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from measure import cycled_permutation, speed_factors, zipf_stream
from repro.api.options import ExpandOptions
from repro.client import ExpansionClient
from repro.client.transport import HttpTransport
from repro.eval.metrics import MetricSet, query_metrics
from repro.exceptions import ReproError
from repro.obs.trace import (
    TRACE_SPANS_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
    format_traceparent,
)
from repro.serve.protocol import ExpandRequest, ExpandResponse

LIGHT_METHODS = ("retexpan", "cgexpan", "probexpan")
HEAVY_METHODS = ("genexpan", "case", "setexpan", "gpt4")
#: queries carried by one ``POST /v1/expand/batch`` call.
BATCH_SIZE = 16


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    #: ``expand`` (uncached single expands), ``batch`` or ``cached``.
    kind: str
    #: how many queries of the fixed stratified set this workload uses.
    queries: int
    #: the percentile ``tail_ms`` reports.  ``light`` and ``cached`` keep at
    #: least ten samples beyond p90 in every class of a 20 s run on a 2-vCPU
    #: host (``cached``'s p99 swung 2.1-8.9 ms across runs).  ``heavy`` and
    #: ``batch`` get only 18-25 rounds in 20 s, so their p75 has 4-6 samples
    #: beyond it (see README).
    tail_pct: float
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "heavy", HEAVY_METHODS, "expand", 8, 75,
            "Uncached expands over genexpan, case, setexpan and gpt4: paper-side "
            "compute (GenExpan beam, CaSE BM25) is nearly all of each request.",
        ),
        Workload(
            "light", LIGHT_METHODS, "expand", 32, 90,
            "Uncached expands over retexpan, cgexpan and probexpan: the serving "
            "shell (HTTP, batcher window) is a large share of each request.",
        ),
        Workload(
            "batch", LIGHT_METHODS, "batch", 32, 75,
            "POST /v1/expand/batch with 16 queries of one light method per call: "
            "the only traffic where micro-batches hold more than one query.",
        ),
        Workload(
            "cached", LIGHT_METHODS, "cached", 32, 90,
            "Zipf-popular keys over the light methods after a warm-up that caches "
            "every key: all hits, so only the cache and the HTTP shell work.",
        ),
    )
}


#: milliseconds the host probe reads on the reference host; every timed
#: end-to-end metric is scaled to it (see ``HostProbe``).
REFERENCE_PROBE_MS = 0.5
#: the loop reads the host probe after a timed request when at least this
#: many seconds have passed since the last reading.
PROBE_INTERVAL_SECONDS = 0.1
#: a request is scaled by the probe readings within this many seconds.
PROBE_WINDOW_SECONDS = 1.0


class HostProbe:
    """A fixed probe of the host's speed, independent of the program, read
    between requests.

    The host's speed drifts by 30-50 % over tens of seconds (shared cores).
    Every process of a run is pinned to the CPU the probe runs on, so a
    reading tells how fast the host ran the requests around it.  A reading
    is the geometric mean of the three kinds of work a request is made of,
    each timed as the mean of three runs:

    - bytecode: a pure-Python loop of 10k multiply-adds;
    - memory: a sum over a 4 MiB array;
    - system calls and wake-ups: 20 one-byte round trips over a socket pair
      to an echo thread, as in an HTTP round trip between two processes.
    """

    def __init__(self):
        self._stream = np.ones(512 * 1024)
        self._socket, echo = socket.socketpair()
        self._echo = threading.Thread(target=_echo, args=(echo,), daemon=True)
        self._echo.start()

    def read(self) -> float:
        """One reading, in milliseconds."""
        product = 1.0
        for work in (self._loop, self._stream.sum, self._round_trips):
            started = time.perf_counter()
            for _ in range(3):
                work()
            product *= (time.perf_counter() - started) / 3
        return product ** (1 / 3) * 1000.0

    def close(self) -> None:
        if self._echo.is_alive():
            self._socket.close()  # the echo thread's recv returns b"" and it ends
            self._echo.join(timeout=5.0)

    @staticmethod
    def _loop() -> None:
        total = 0
        for value in range(10_000):
            total += value * value

    def _round_trips(self) -> None:
        for _ in range(20):
            self._socket.sendall(b"x")
            self._socket.recv(1)


def _echo(sock: socket.socket) -> None:
    with sock:
        while data := sock.recv(1):
            sock.sendall(data)


class SpanCapturingTransport(HttpTransport):
    """An HTTP transport that can send a sampled ``traceparent`` and keep the
    span fragment the server returns for it.

    The server's handler-level spans (``expand_batch``) live on the trace the
    HTTP handler opens, which only a remote ``traceparent`` brings back to
    the caller; ``include_timings`` carries the per-item spans only."""

    def __init__(self, url: str, **kwargs):
        super().__init__(url, **kwargs)
        self.send_traceparent = False
        self.last_fragment: str | None = None

    def _fresh_connection(self) -> http.client.HTTPConnection:
        connection = super()._fresh_connection()
        send, receive = connection.request, connection.getresponse

        def request(verb, url, body=None, headers=None):
            headers = dict(headers or {})
            if self.send_traceparent:
                context = TraceContext(secrets.token_hex(16), secrets.token_hex(8), True)
                headers[TRACEPARENT_HEADER] = format_traceparent(context)
            send(verb, url, body=body, headers=headers)

        def getresponse():
            response = receive()
            self.last_fragment = response.getheader(TRACE_SPANS_HEADER)
            return response

        connection.request = request
        connection.getresponse = getresponse
        return connection


def connect(url: str) -> ExpansionClient:
    # No client retries: a failed request is counted, never replayed away.
    return ExpansionClient(SpanCapturingTransport(url, timeout=120.0, max_retries=0))


class ClosedLoop:
    """Drives one workload through one client and checks every reply
    against the reference rankings."""

    def __init__(self, workload: Workload, client: ExpansionClient, reference: dict,
                 seed: int, server_cpu, probe: HostProbe):
        self.workload = workload
        self.client = client
        self.probe = probe
        #: CPU seconds the serving process has used so far.
        self.server_cpu = server_cpu
        self._cpu_mark = server_cpu()
        self.top_k = reference["top_k"]
        self.query_ids = [row["query_id"] for row in reference["queries"][: workload.queries]]
        self.targets = {
            row["query_id"]: (set(row["positive_targets"]), set(row["negative_targets"]))
            for row in reference["queries"]
        }
        self.expected = {
            (method, query_id): tuple(tuple(item) for item in ranking)
            for method, rankings in reference["rankings"].items()
            for query_id, ranking in rankings.items()
        }
        self.streams = {}
        for index, method in enumerate(workload.methods):
            class_seed = seed * 1009 + index
            if workload.kind == "cached":
                self.streams[method] = zipf_stream(self.query_ids, class_seed)
            else:
                self.streams[method] = cycled_permutation(self.query_ids, class_seed)
        #: per class, ``(client-observed latency ms, key, send time, server
        #: CPU ms)`` of the timed plain segments ...  The key is the query
        #: (the 16 queries of a batch call); ``cached`` uses one key, so its
        #: Zipf popularity weighs in.  The server CPU is all the server used
        #: since the previous reply, so idle-time work is billed too.
        self.samples: dict[str, list[tuple]] = {m: [] for m in workload.methods}
        #: ... and of the timed traced segments (include_timings).
        self.traced_samples: dict[str, list[tuple]] = {m: [] for m in workload.methods}
        #: ``(time, probe reading ms)`` read between timed requests.
        self.probes: list[tuple[float, float]] = []
        self.probe_seconds = 0.0
        #: traced requests: (method, rtt_ms, request_id, replies, fragment).
        self.records: list[tuple] = []
        self.items_per_call = BATCH_SIZE if workload.kind == "batch" else 1
        self.expansions = 0
        self.attempted = 0
        self.failed = 0
        self.failure_reasons: Counter = Counter()
        self.invalid_replies = 0
        self.ranking_mismatches = 0
        self.first_rankings: dict[tuple[str, str], list[int]] = {}

    # -- request classes ---------------------------------------------------------
    def cycle(self, *, timed: bool, traced: bool = False):
        """One request per class, in class order."""
        expect_cached = self.workload.kind == "cached"
        for method in self.workload.methods:
            stream = self.streams[method]
            keys = [next(stream) for _ in range(self.items_per_call)]
            self.send(method, keys, timed=timed, traced=traced, expect_cached=expect_cached)

    def send(self, method: str, keys: list[str], *, timed: bool, traced: bool,
             expect_cached: bool) -> None:
        options = ExpandOptions(
            top_k=self.top_k,
            use_cache=self.workload.kind == "cached",
            include_timings=traced,
        )
        transport = self.client.transport
        transport.send_traceparent = traced and self.workload.kind == "batch"
        self.attempted += len(keys)
        started = time.perf_counter()
        try:
            if self.workload.kind == "batch":
                replies = self.client.expand_batch(
                    [ExpandRequest(method=method, query_id=key, options=options) for key in keys]
                )
            else:
                replies = [self.client.expand(method, query_id=keys[0], options=options)]
        except ReproError as exc:
            self._fail(f"{type(exc).__name__}: {exc}", len(keys))
            return
        rtt_ms = (time.perf_counter() - started) * 1000.0
        cpu_mark, self._cpu_mark = self._cpu_mark, self.server_cpu()
        cpu_ms = (self._cpu_mark - cpu_mark) * 1000.0
        good = 0
        for key, reply in zip(keys, replies):
            if isinstance(reply, ReproError):
                self._fail(f"{type(reply).__name__}: {reply}", 1)
            elif self._check(method, key, reply, expect_cached):
                good += 1
        if good != len(keys):
            return
        if timed:
            self.expansions += len(keys)
            key = "hit" if self.workload.kind == "cached" else tuple(keys)
            (self.traced_samples if traced else self.samples)[method].append(
                (rtt_ms, key, started, cpu_ms)
            )
            self.probe_host()
        if traced:
            fragment = transport.last_fragment if transport.send_traceparent else None
            self.records.append((method, rtt_ms, self.client.last_request_id, replies, fragment))

    def _fail(self, reason: str, count: int) -> None:
        self.failed += count
        self.failure_reasons[reason[:200]] += count

    def _check(self, method: str, query_id: str, reply, expect_cached: bool) -> bool:
        valid = (
            isinstance(reply, ExpandResponse)
            and reply.method == method
            and reply.query_id == query_id
            and reply.top_k == self.top_k
            and reply.offset == 0
            and reply.total == len(reply.ranking)
            and reply.cached is expect_cached
        )
        if not valid:
            self.invalid_replies += 1
            self._fail(f"invalid reply for {method} {query_id}", 1)
            return False
        served = tuple((item.entity_id, item.score) for item in reply.ranking)
        if served != self.expected[(method, query_id)]:
            self.ranking_mismatches += 1
            self._fail(f"ranking differs from reference: {method} {query_id}", 1)
            return False
        self.first_rankings.setdefault((method, query_id), [eid for eid, _ in served])
        return True

    def probe_host(self) -> None:
        now = time.perf_counter()
        if self.probes and now - self.probes[-1][0] < PROBE_INTERVAL_SECONDS:
            return
        self.probes.append((now, self.probe.read()))
        self.probe_seconds += time.perf_counter() - now

    def scaled(self, samples: dict[str, list[tuple]]) -> dict[str, list[tuple]]:
        """``samples`` with each latency and server CPU time scaled to the
        reference host speed by the probe readings around its send time."""
        scaled = {}
        for method, values in samples.items():
            factors = speed_factors(
                [sent for _, _, sent, _ in values], self.probes,
                REFERENCE_PROBE_MS, PROBE_WINDOW_SECONDS,
            )
            scaled[method] = [
                (rtt_ms * factor, key, sent, cpu_ms * factor)
                for (rtt_ms, key, sent, cpu_ms), factor in zip(values, factors)
            ]
        return scaled

    # -- phases ------------------------------------------------------------------
    def warm_up(self, seconds: float) -> None:
        """Untimed: ``cached`` first requests every key once, filling the
        result cache; then every workload runs whole rounds for ``seconds``,
        so a fresh server's allocator and caches settle before timing."""
        if self.workload.kind == "cached":
            for method in self.workload.methods:
                for key in self.query_ids:
                    self.send(method, [key], timed=False, traced=False, expect_cached=False)
        deadline = time.perf_counter() + seconds
        while True:
            self.cycle(timed=False)
            if time.perf_counter() >= deadline:
                break

    def run_for(self, seconds: float, *, traced: bool = False) -> float:
        """Whole class rounds for about ``seconds``: a round starts only
        while at least half of the previous round's time remains, so a slow
        round does not overshoot the budget by a whole round.  Returns the
        elapsed time, less the time the host probe took."""
        started = now = time.perf_counter()
        probing = self.probe_seconds
        deadline = started + seconds
        last_round = 0.0
        while now + last_round / 2 < deadline:
            self.cycle(timed=True, traced=traced)
            finished = time.perf_counter()
            last_round, now = finished - now, finished
        return now - started - (self.probe_seconds - probing)

    def cover(self) -> None:
        """Untimed: request every key no reply has answered yet, so
        ``comb_avg`` always scores the whole query set."""
        for method in self.workload.methods:
            for key in self.query_ids:
                if (method, key) not in self.first_rankings:
                    self.send(method, [key], timed=False, traced=False,
                              expect_cached=self.workload.kind == "cached")

    # -- results -----------------------------------------------------------------
    def comb_avg(self) -> float:
        """The paper's Comb "Avg" of the first served ranking of each key,
        averaged over the workload's methods."""
        per_method = []
        for method in self.workload.methods:
            metric_sets = [
                query_metrics(self.first_rankings[(method, key)], *self.targets[key])
                for key in self.query_ids
            ]
            per_method.append(MetricSet.mean(metric_sets).average("comb"))
        return sum(per_method) / len(per_method)

    def covered(self) -> bool:
        return all(
            (method, key) in self.first_rankings
            for method in self.workload.methods
            for key in self.query_ids
        )
