"""End-to-end benchmark of the LogiRec reproduction, with per-layer traces.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {train-cli,serve-http,online-cycle}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` runs whole rounds of the workload until ``--seconds`` have
passed and reports its end-to-end metrics.  ``--trace 1`` runs one traced
rendering of every workload, each in a fresh process of the benchmark,
timing the calls into each layer's public functions, and reports the
per-layer metrics; the named workload also gets one untraced round,
against which the tracing overhead is measured.  ``BENCHMARK.json``
gates ``serve-http`` and ``online-cycle``; ``train-cli`` runs the same
way by hand (README.md says why it is not gated).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Progress and the
traced ledger go to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
from typing import Dict

import common
from common import BenchError, Tally, median, metric, percentile

WORKLOADS = ("train-cli", "serve-http", "online-cycle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--render", choices=WORKLOADS,
                        help=argparse.SUPPRESS)   # one traced rendering
    args = parser.parse_args(argv)
    if not args.render and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    return args


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally):
    if workload == "train-cli":
        import train_cli
        return train_cli.run(seed, seconds, tally)
    if workload == "serve-http":
        import serve_http
        return serve_http.run(seed, seconds, tally)
    import online_cycle
    return online_cycle.run(seed, seconds, tally)


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _mean_ms(tracer, layer: str) -> float:
    return 1e3 * tracer.total(layer) / max(1, tracer.count(layer))


def _median_of(tracer, layer: str, scale: float = 1.0) -> float:
    return scale * median(tracer.calls[layer])


def print_ledger(name: str, tracer, wall_s: float) -> None:
    common.log(f"--- {name}: traced wall {wall_s:.3f} s")
    for layer, self_s, calls in tracer.ledger():
        common.log(f"  {layer:<28s} {self_s:9.3f} s  {calls:6d} calls "
                   f"{100.0 * self_s / wall_s:6.1f} %")
    rest = wall_s - tracer.attributed_s()
    common.log(f"  {'(unattributed)':<28s} {rest:9.3f} s  "
               f"{'':12s}{100.0 * rest / wall_s:6.1f} %")


def render(workload: str, seed: int) -> Dict[str, object]:
    """One traced rendering in this (fresh) process: ``--render``."""
    from tracing import Tracer
    if workload == "train-cli":
        from train_cli import traced_half as traced
    elif workload == "serve-http":
        from serve_http import traced
    else:
        from online_cycle import traced
    tracer, tally = Tracer(), Tally()
    record = traced(seed, tracer, tally)
    return {"record": record, "tracer": tracer.to_json(),
            **tally.as_record()}


def render_in_child(workload: str, seed: int, tally: Tally):
    """Each rendering gets a fresh process, so none inherits another's
    heap, threads or warmed caches."""
    from tracing import Tracer
    res = common.run_process([sys.executable, __file__, "--render",
                              workload, "--seed", str(seed)],
                             timeout_s=170.0)
    sys.stderr.write(res.stderr)
    if not res.ok:
        raise BenchError(f"traced {workload} rendering exit {res.code}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    tally.absorb(out)
    return out["record"], Tracer.from_json(out["tracer"])


def run_traced(workload: str, seed: int, tally: Tally):
    import online_cycle
    import serve_http
    import train_cli
    # The named workload's untraced comparison runs right after its own
    # rendering, so host drift between the two stays small.
    train, t_train = render_in_child("train-cli", seed, tally)
    if workload == "train-cli":
        overhead = train["wall_s"] / train_cli.untraced_half_wall(
            seed, tally) - 1.0
    serve, t_serve = render_in_child("serve-http", seed, tally)
    if workload == "serve-http":
        # In-process path, untraced on either side of the traced pass.
        overhead = serve["trace_overhead"]
    online, t_online = render_in_child("online-cycle", seed, tally)
    if workload == "online-cycle":
        child, _ = online_cycle.run_child(seed, tally)
        overhead = online["timed_s"] / child["timed_s"] - 1.0

    print_ledger("train-cli", t_train, train["wall_s"])
    print_ledger("serve-http", t_serve, serve["wall_s"])
    print_ledger("online-cycle", t_online, online["wall_s"])

    imports = [d for t in (t_train, t_serve, t_online)
               for d in t.calls["cli.import"]]
    status = serve["http"]["status"]
    counters = status["counters"]
    engine_p50 = percentile(serve["engine_ms"], 50)
    frontend_ms = [1e3 * d for d in t_serve.calls["frontend.query"]]
    frontend_p50 = percentile(frontend_ms, 50)
    http_p50 = percentile(serve["http"]["latency_ms"], 50)
    cycles = online["cycles"]
    values = {
        "cli.import_s": (median(imports), "s"),
        "data.generate_s": (_median_of(t_train, "data.generate"), "s"),
        "data.split_s": (_median_of(t_train, "data.split"), "s"),
        "data.sample_ms": (_mean_ms(t_train, "data.sample"), "ms"),
        "data.snapshot_save_s": (
            _median_of(t_online, "data.snapshot_save"), "s"),
        "core.prepare_s": (_median_of(t_train, "core.prepare"), "s"),
        "train.arena_hit_rate": (train["arena_hit_rate"], "ratio"),
        "eval.users_per_s": (
            train["valid_users"] * t_train.count("eval.valid")
            / t_train.total("eval.valid"), "1/s"),
        "serve.checkpoint_save_s": (
            _median_of(t_online, "serve.checkpoint_save"), "s"),
        "serve.checkpoint_load_s": (
            _median_of(t_online, "serve.checkpoint_load"), "s"),
        "serve.index_build_s": (
            _median_of(t_online, "serve.index_build"), "s"),
        "serve.index_save_s": (
            _median_of(t_online, "serve.index_save"), "s"),
        "serve.index_load_s": (
            _median_of(t_serve, "serve.index_load"), "s"),
        "engine.query_ms.p50": (engine_p50, "ms"),
        "engine.query_ms.p90": (percentile(serve["engine_ms"], 90), "ms"),
        "engine.cache_hit_ratio": (
            serve_http.shard_cache_hit_ratio(status), "ratio"),
        "frontend.start_s": (_median_of(t_serve, "frontend.start"), "s"),
        "frontend.query_ms.p50": (frontend_p50, "ms"),
        "frontend.query_ms.p90": (percentile(frontend_ms, 90), "ms"),
        "frontend.dispatch_ms": (frontend_p50 - engine_p50, "ms"),
        "http.overhead_ms": (http_p50 - frontend_p50, "ms"),
        "http.latency_ms.p90": (
            percentile(serve["http"]["latency_ms"], 90), "ms"),
        "frontend.admitted": (counters["admitted"], "count"),
        "frontend.completed": (counters["completed"], "count"),
        "frontend.shed": (counters["shed_requests"], "count"),
        "frontend.degraded": (counters["degraded_fallbacks"], "count"),
        "frontend.restarts": (status["fleet"]["total_restarts"], "count"),
        "frontend.ewma_queue_wait_ms": (status["ewma_queue_wait_ms"], "ms"),
        "loadgen.late_ms.p90": (
            percentile(serve["http"]["late_ms"], 90), "ms"),
        "online.append_ms": (_median_of(t_online, "online.append", 1e3),
                             "ms"),
        "online.ingest_ms": (_median_of(t_online, "online.ingest", 1e3),
                             "ms"),
        "online.finetune_s": (_median_of(t_online, "online.finetune"), "s"),
        "online.swap_ms": (_median_of(t_online, "online.swap", 1e3), "ms"),
        "online.duplicate_ratio": (
            sum(c["duplicates"] for c in cycles)
            / sum(c["read"] for c in cycles), "ratio"),
        "train-cli.wall_s": (train["wall_s"], "s"),
        "serve-http.wall_s": (serve["wall_s"], "s"),
        "online-cycle.wall_s": (online["wall_s"], "s"),
        "train-cli.unattributed_s": (
            train["wall_s"] - t_train.attributed_s(), "s"),
        "serve-http.unattributed_s": (
            serve["wall_s"] - t_serve.attributed_s(), "s"),
        "online-cycle.unattributed_s": (
            online["wall_s"] - t_online.attributed_s(), "s"),
        "obs.trace_overhead": (overhead, "ratio"),
    }
    for backend in ("fast", "reference"):
        for kind in ("forward", "backward", "step"):
            values[f"train.{kind}_ms.{backend}"] = (
                _mean_ms(t_train, f"train.{kind}.{backend}"), "ms")
        values[f"train.batches.{backend}"] = (
            t_train.count(f"train.forward.{backend}"), "count")
    return {name: metric(value, unit)
            for name, (value, unit) in sorted(values.items())}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    if any(name in os.environ for name in common.PINNING_VARS):
        # Measure the program under its own thread defaults.
        env = {k: v for k, v in os.environ.items()
               if k not in common.PINNING_VARS}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every ``finally`` that stops
    # a serving edge or a child process still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.check_checkout()
    except BenchError as exc:
        common.log(f"error: {exc}")
        return 2
    if args.render:
        common.use_program_sources()
        common.emit(render(args.render, args.seed))
        return 0
    shutil.rmtree(common.WORK, ignore_errors=True)
    common.WORK.mkdir(parents=True)
    # Every timed process reads compiled bytecode, as an installed
    # program would, whichever run in a fresh checkout comes first.
    compileall.compile_dir(str(common.SRC), quiet=1)
    common.use_program_sources()
    shm_before = common.shm_segments()
    tally = Tally()
    try:
        if args.trace:
            metrics = run_traced(args.workload, args.seed, tally)
        else:
            metrics = run_untraced(args.workload, args.seed, args.seconds,
                                   tally)
    except BenchError as exc:
        common.log(f"error: {exc}")
        return 1
    leaked = common.shm_segments() - shm_before
    children = common.live_children()
    tally.op(not leaked and not children,
             f"run left shm={sorted(leaked)} children={children}")
    shutil.rmtree(common.WORK, ignore_errors=True)
    common.emit({"correct": tally.correct, "attempted": tally.attempted,
                 "failed": tally.failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
