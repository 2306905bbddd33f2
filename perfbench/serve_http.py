"""Workload ``serve-http``: what an operator runs, over HTTP.

Before timing, the benchmark trains LogiRec++ for one epoch on the
``book`` config at x10 (3.2k users, 5k items) and exports its index: the
index the CLI produces for ``book`` has 320 users, which all fit in the
workers' 1024-entry response caches, so scoring would never run.

One round:

1. spawn ``repro serve http <index> --workers 2`` and poll ``/health``
   until it answers 200 (``setup_s``: the edge's cold start);
2. ``WINDOWS`` times in turn: an open-loop window of ``/recommend``
   requests at a fixed rate over two connections, each timed from its
   due time to its last byte, and a closed-loop window over two
   connections (throughput);
3. ``/status``, then SIGTERM; the edge must drain and exit 0, leaving no
   listening port, child process or shared-memory segment behind.

Users are drawn from a fixed Zipf-like distribution (exponent
``ZIPF_S`` over a fixed permutation of the users); the draws come from
the workload seed.  Latency quantiles are taken over every open-loop
request of the run; the closed-loop rate is the median over windows, so
a burst of host contention that spoils a few windows does not move it.
Every response is checked after the round against
the top-k of the index's score row with the user's seen items removed,
by descending score and ascending id, computed here.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import statistics
import subprocess
import threading
import time
from typing import Dict, List, Optional

import numpy as np

import common
from common import Tally, median, metric, percentile
from tracing import Tracer

DATASET, SCALE, MODEL = "book", 10, "LogiRec++"
K = 10
WORKERS = 2
CONNECTIONS = 2
RATE_QPS = 100.0
WINDOWS = 6            # per round, each an open then a closed window
N_OPEN = 100           # requests per open-loop window (1 s at the rate)
N_CLOSED = 200         # requests per closed-loop window
ZIPF_S = 0.8
USER_PERMUTATION_SEED = 0   # fixes the distribution, not the draws
START_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class ServeInputs:
    """The x10 index, the user distribution and the expected answers."""

    def __init__(self, seed: int):
        common.use_program_sources()
        from repro.data import load_dataset, temporal_split
        from repro.experiments import build_model
        from repro.serve import build_index, load_index
        self.dataset = load_dataset(DATASET, scale=SCALE)
        split = temporal_split(self.dataset)
        model = build_model(MODEL, self.dataset, seed=seed)
        model.config.epochs = 1
        model.fit(self.dataset, split)
        self.index_dir = common.fresh_workdir("serve-http/index")
        build_index(model, self.dataset, split).save(self.index_dir)
        self.index = load_index(self.index_dir)
        self.seen = self.dataset.items_of_user(split.train)
        n = self.dataset.n_users
        weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
        self.p = weights / weights.sum()
        self.perm = np.random.default_rng(
            USER_PERMUTATION_SEED).permutation(n)
        self.rng = np.random.default_rng(seed)
        self._expected: Dict[int, List[int]] = {}

    def draw(self, n: int) -> np.ndarray:
        return self.perm[self.rng.choice(len(self.p), size=n, p=self.p)]

    def expected(self, user: int) -> List[int]:
        if user not in self._expected:
            scores = self.index.score_user(user)
            order = np.argsort(-scores, kind="stable")
            seen = {int(i) for i in self.seen.get(user, ())}
            self._expected[user] = [int(i) for i in order
                                    if int(i) not in seen][:K]
        return self._expected[user]

    def answer_ok(self, user: int, response: Dict[str, object]) -> bool:
        return (response.get("source") in ("index", "cache")
                and not response.get("degraded")
                and not response.get("fallback")
                and response.get("items") == self.expected(user))


# ----------------------------------------------------------------------
# A minimal HTTP/1.1 client (one connection per request: the edge
# answers with Connection: close)
# ----------------------------------------------------------------------
def http_get(port: int, path: str, timeout: float = 10.0):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     f"\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def _loop(port: int, users: np.ndarray, rate: Optional[float],
          connections: int):
    """Send one request per user over ``connections`` threads.

    With ``rate`` the schedule is open-loop: request ``i`` is due at
    ``t0 + i / rate`` whether or not earlier ones finished, and its
    latency runs from the due time.  Without, each connection sends its
    next request as soon as the last one completed.
    """
    n = len(users)
    latency_ms = np.zeros(n)
    late_ms = np.zeros(n)
    answers: List[Optional[tuple]] = [None] * n
    cursor = iter(range(n))
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.01

    def connection():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = t0 + i / rate if rate else time.perf_counter()
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                status, body = http_get(port, f"/recommend?user="
                                              f"{int(users[i])}&k={K}")
            except OSError as exc:
                status, body = -1, str(exc).encode()
            done = time.perf_counter()
            latency_ms[i] = (done - due) * 1e3
            late_ms[i] = max(0.0, sent - due) * 1e3
            answers[i] = (status, body)

    threads = [threading.Thread(target=connection)
               for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latency_ms, late_ms, answers, time.perf_counter() - start


def check_answers(inputs: ServeInputs, users, answers, tally: Tally) -> None:
    for user, (status, body) in zip(users, answers):
        ok = status == 200
        if ok:
            response = json.loads(body)
            ok = tally.check(inputs.answer_ok(int(user), response),
                             f"user {int(user)}: answer "
                             f"{response} differs from the index top-{K}")
        tally.op(ok, f"user {int(user)}: HTTP {status}")


# ----------------------------------------------------------------------
# The edge process
# ----------------------------------------------------------------------
class Edge:
    """One ``repro serve http`` process, from spawn to reaped exit."""

    def __init__(self, index_dir):
        work = common.fresh_workdir("serve-http/edge")
        self.port_file = work / "port"
        self.shm_before = common.shm_segments()
        self._out = open(work / "edge.log", "wb")
        self.port: Optional[int] = None
        self.exit_code: Optional[int] = None
        self.maxrss_mb = 0.0
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            common.repro_argv("serve", "http", str(index_dir),
                              "--workers", str(WORKERS), "--port", "0",
                              "--port-file", str(self.port_file)),
            env=common.program_env(), cwd=str(common.ROOT),
            stdout=self._out, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)
        self.port = self._wait_healthy(t0)
        self.cold_start_s = time.perf_counter() - t0

    def _wait_healthy(self, t0: float) -> int:
        port = None
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                break
            if port is None:
                try:
                    port = int(self.port_file.read_text())
                except (OSError, ValueError):
                    time.sleep(0.002)
                    continue
            try:
                if http_get(port, "/health")[0] == 200:
                    return port
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise common.BenchError("serve http never became healthy")

    def status(self) -> Dict[str, object]:
        code, body = http_get(self.port, "/status")
        if code != 200:
            raise common.BenchError(f"/status answered {code}")
        return json.loads(body)

    def stop(self) -> bool:
        """SIGTERM, reap; True when the drain left nothing behind."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            code, rusage = common.wait_with_rusage(self.proc, 30.0)
            self.exit_code = code
            self.maxrss_mb = rusage.ru_maxrss / 1024.0
        self._out.close()
        leaked_shm = common.shm_segments() - self.shm_before
        children = common.live_children()
        port_closed = self.port is None or common.port_is_closed(self.port)
        if leaked_shm or children or not port_closed:
            common.log(f"[leak] shm={sorted(leaked_shm)} "
                       f"children={children} port_open={not port_closed}")
        return (self.exit_code == 0 and not leaked_shm and not children
                and port_closed)


def shard_cache_hit_ratio(status: Dict[str, object]) -> float:
    shards = status["fleet"]["shards"].values()
    hits = sum(s["stats"].get("cache_hits", 0) for s in shards)
    requests = sum(s["stats"].get("requests", 0) for s in shards)
    return hits / requests if requests else 0.0


# ----------------------------------------------------------------------
# Untraced rounds
# ----------------------------------------------------------------------
def run_round(inputs: ServeInputs, tally: Tally, samples) -> Dict:
    """Cold start, then open and closed windows in turn, then drain.

    Alternating short windows spreads both measurements over the whole
    round, so a burst of host contention weighs on both alike.
    """
    edge = Edge(inputs.index_dir)
    samples["setup_s"].append(edge.cold_start_s)
    sent, late = [], []
    try:
        for _ in range(WINDOWS):
            users = inputs.draw(N_OPEN)
            latency, late_ms, answers, _ = _loop(edge.port, users,
                                                 RATE_QPS, CONNECTIONS)
            samples["latency_ms"].extend(latency.tolist())
            late.extend(late_ms.tolist())
            sent.append((users, answers))
            users = inputs.draw(N_CLOSED)
            _, _, answers, wall = _loop(edge.port, users, None,
                                        CONNECTIONS)
            samples["qps"].append(N_CLOSED / wall)
            sent.append((users, answers))
            common.log(f"[serve-http] window p50 "
                       f"{percentile(latency, 50):.2f} ms, "
                       f"{samples['qps'][-1]:.0f} req/s")
        status = edge.status()
    finally:
        clean = edge.stop()
    samples["peak_rss_mb"].append(edge.maxrss_mb)
    for users, answers in sent:
        check_answers(inputs, users, answers, tally)
    tally.op(clean, f"edge exit {edge.exit_code} or left state behind")
    return {"status": status, "late_ms": late,
            "latency_ms": samples["latency_ms"]}


def new_samples() -> Dict[str, list]:
    return {key: [] for key in ("setup_s", "latency_ms", "qps",
                                "peak_rss_mb")}


def run(seed: int, seconds: float, tally: Tally) -> Dict[str, dict]:
    inputs = ServeInputs(seed)
    samples = new_samples()
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        run_round(inputs, tally, samples)
    return {
        "setup_s": metric(median(samples["setup_s"]), "s"),
        "latency_ms": metric(percentile(samples["latency_ms"], 50), "ms"),
        "tail_latency_ms": metric(percentile(
            samples["latency_ms"], common.TAIL_PERCENTILE), "ms"),
        "throughput_per_s": metric(median(samples["qps"]), "1/s"),
        "peak_rss_mb": metric(median(samples["peak_rss_mb"]), "MB"),
    }


# ----------------------------------------------------------------------
# Traced rendering: the edge's start-up and request path in-process
# ----------------------------------------------------------------------
def frontend_config(index_dir):
    """The configuration ``repro serve http`` builds, from the CLI
    parser's own defaults (as in ``repro.cli._serve_http``)."""
    from repro.cli import build_parser
    from repro.serve import ServiceConfig
    from repro.serve.frontend import FrontendConfig
    args = build_parser().parse_args(
        ["serve", "http", str(index_dir), "--workers", str(WORKERS)])
    return FrontendConfig(
        n_workers=args.workers, service=ServiceConfig(k=args.k),
        max_queue_depth=args.queue_depth,
        wait_budget_ms=args.wait_budget_ms,
        default_deadline_ms=args.deadline_ms if args.deadline_ms > 0
        else None)


def in_process(inputs: ServeInputs, config, users, tracer: Tracer,
               traced: bool):
    """``load_index`` + ``ServingFrontend.start``, one ``query`` per
    user, ``drain``; spans only when ``traced``.

    Returns the wall time of the whole and the resolutions.
    """
    from repro.serve import load_index
    from repro.serve.frontend import ServingFrontend
    span = tracer.span if traced else (lambda _: contextlib.nullcontext())
    resolutions = []
    t0 = time.perf_counter()
    with span("serve.index_load"):
        index = load_index(inputs.index_dir)
    frontend = ServingFrontend(index, config)
    with span("frontend.start"):
        frontend.start()
    try:
        for user in users:
            with span("frontend.query"):
                resolutions.append(frontend.query(int(user), K))
    finally:
        with span("frontend.drain"):
            frontend.drain()
    return time.perf_counter() - t0, resolutions


def traced(seed: int, tracer: Tracer, tally: Tally) -> Dict[str, object]:
    """Start-up and request path in-process, then one HTTP round.

    The in-process path also runs untraced just before and just after
    the traced pass; the tracing overhead is the traced pass over the
    mean of those two.
    """
    from repro.serve import RecommendService, ServiceConfig
    inputs = ServeInputs(seed)
    users = inputs.draw(WINDOWS * N_CLOSED)
    out: Dict[str, object] = {}

    config = frontend_config(inputs.index_dir)
    untraced_s = [in_process(inputs, config, users, tracer, False)[0]]
    import_s = common.cli_import_s()
    tracer.add("cli.import", import_s)
    pass_s, resolutions = in_process(inputs, config, users, tracer, True)
    untraced_s.append(in_process(inputs, config, users, tracer, False)[0])
    out["wall_s"] = import_s + pass_s
    out["trace_overhead"] = pass_s / statistics.mean(untraced_s) - 1.0
    for user, resolution in zip(users, resolutions):
        tally.op(resolution.get("status") == "ok" and tally.check(
            inputs.answer_ok(int(user), resolution["result"]),
            f"in-process answer for {int(user)}: {resolution}"),
            f"in-process query for {int(user)}: {resolution}")

    # Scoring alone, cache off: not part of the rendering's wall.
    engine = RecommendService(inputs.index, ServiceConfig(k=K, cache_size=0))
    engine_ms, responses = [], []
    for user in users:
        t = time.perf_counter()
        responses.append(engine.query(int(user), K))
        engine_ms.append((time.perf_counter() - t) * 1e3)
    out["engine_ms"] = engine_ms
    for user, response in zip(users, responses):
        tally.op(tally.check(inputs.answer_ok(int(user), response),
                             f"engine answer for {int(user)}: {response}"))

    samples = new_samples()
    out["http"] = run_round(inputs, tally, samples)
    return out

