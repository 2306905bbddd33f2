"""Workload ``online-cycle``: the continuous-update path.

One round runs in a fresh process (so its peak RSS is the loop's own):

* set-up (``setup_s``): generate the ``cd`` config at x10 (~37k
  interactions), write it as the loop's dataset snapshot, and run
  ``OnlineLoop.bootstrap`` (BPRMF, reference backend);
* a ``RecommendService`` on the bootstrapped index is attached to the
  loop;
* ``CYCLES`` cycles of append -> ingest -> fine-tune -> swap, each
  bringing ``N_NEW_USERS`` new users and ``N_NEW_ITEMS`` new items,
  warm traffic, and ``N_DUPLICATES`` re-sent events the ingest must
  skip;
* with the loop released, ``SETUPS - 1`` more timed set-ups in work
  directories of their own, so a run holds several set-up samples per
  round.

Every round repeats the same inputs (the seed fixes them), so each
cycle position sees the same history size in every round and every run.

Checks after every swap: the attached service serves the new version;
every new user is answered from the index; the dataset grew by exactly
the non-duplicate events read; the journal cursor equals the journal's
length; and no ingested (user, item) pair is recommended to that user.

Run as a script, this module is the child process of one round and
prints its record as one JSON line.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List

import numpy as np

import common
from common import Tally, median, metric, percentile
from tracing import Tracer

DATASET, SCALE, MODEL = "cd", 10, "BPRMF"
CYCLES = 12
SETUPS = 3             # set-up samples per round (see ``one_round``)
N_NEW_USERS = 4
N_NEW_ITEMS = 4
EVENTS_PER_NEW_USER = 3
EVENTS_PER_NEW_ITEM = 2
N_WARM = 180
N_DUPLICATES = 10
K = 10


def make_events(dataset, rng: np.random.Generator):
    """One cycle's events: cold-start, warm, then re-sent duplicates."""
    from repro.online import InteractionEvent
    n_users, n_items = dataset.n_users, dataset.n_items
    taken = set(zip(dataset.user_ids.tolist(), dataset.item_ids.tolist()))
    pairs: List[tuple] = []

    def add(user: int, item: int) -> bool:
        if (user, item) in taken:
            return False
        taken.add((user, item))
        pairs.append((user, item))
        return True

    for j in range(N_NEW_USERS):
        for item in rng.choice(n_items, EVENTS_PER_NEW_USER, replace=False):
            add(n_users + j, int(item))
    for j in range(N_NEW_ITEMS):
        for user in rng.choice(n_users, EVENTS_PER_NEW_ITEM, replace=False):
            add(int(user), n_items + j)
    while len(pairs) < (N_NEW_USERS * EVENTS_PER_NEW_USER
                        + N_NEW_ITEMS * EVENTS_PER_NEW_ITEM + N_WARM):
        add(int(rng.integers(n_users)), int(rng.integers(n_items)))
    order = rng.permutation(len(pairs))
    unique = [pairs[j] for j in order]
    resent = [unique[j] for j in rng.choice(len(unique), N_DUPLICATES,
                                            replace=False)]
    t0 = int(dataset.timestamps.max()) + 1
    events = [InteractionEvent(u, i, t0 + rank)
              for rank, (u, i) in enumerate(unique + resent)]
    return events, unique


def setup(workdir, seed: int, tracer: Tracer):
    """Dataset build plus ``OnlineLoop.bootstrap``; returns the loop.

    The x10 history reaches the loop as its dataset snapshot, which
    ``OnlineLoop`` reads in place of regenerating the named config.
    """
    import repro.data.io
    from repro.data import load_dataset
    from repro.online import OnlineLoop
    dataset = tracer.call("data.generate", load_dataset, DATASET,
                          scale=SCALE)
    repro.data.io.save_dataset(dataset, workdir / "dataset")
    loop = OnlineLoop(workdir, model_name=MODEL, dataset_name=DATASET,
                      seed=seed)
    tracer.call("online.bootstrap", loop.bootstrap)
    return loop


def cycle(loop, service, rng, tracer: Tracer, tally: Tally) -> Dict:
    """One append -> ingest -> fine-tune -> swap cycle, then its checks."""
    dataset = loop.dataset
    old_users, old_n = dataset.n_users, dataset.n_interactions
    events, unique = make_events(dataset, rng)
    start = time.perf_counter()
    with tracer.span("online.append"):
        loop.append_events(events)
    t0 = time.perf_counter()
    with tracer.span("online.ingest"):
        ingest = loop.ingest()
    ingest_s = time.perf_counter() - t0
    with tracer.span("online.finetune"):
        finetune = loop.finetune()
    with tracer.span("online.swap"):
        swap = loop.swap(finetune["version"])
    cycle_s = time.perf_counter() - start

    what = f"cycle to v{finetune['version']}"
    ok = tally.check(
        service.index.meta.get("online_version") == finetune["version"],
        f"{what}: service not on the new version")
    ok &= tally.check(
        ingest["n_read"] == len(events)
        and ingest["n_duplicates"] == N_DUPLICATES
        and dataset.n_interactions - old_n
        == ingest["n_read"] - ingest["n_duplicates"] == len(unique),
        f"{what}: dataset grew by {dataset.n_interactions - old_n}, "
        f"read {ingest['n_read']}, skipped {ingest['n_duplicates']}")
    journal_bytes = loop.journal.path.stat().st_size
    ok &= tally.check(
        int(loop.state["journal_offset"]) == journal_bytes,
        f"{what}: cursor {loop.state['journal_offset']} != journal "
        f"length {journal_bytes}")
    new_users = range(old_users, dataset.n_users)
    ok &= tally.check(len(new_users) == N_NEW_USERS and all(
        service.query(u, K)["source"] == "index" for u in new_users),
        f"{what}: a new user was not answered from the index")
    ingested: Dict[int, set] = {}
    for user, item in unique:
        ingested.setdefault(user, set()).add(item)
    ok &= tally.check(all(
        not ingested[u] & set(service.query(u, K)["items"])
        for u in ingested), f"{what}: an ingested pair was recommended")
    tally.op(ok, f"{what} failed its checks")
    return {"freshness_s": swap["event_to_servable_s"],
            "cycle_s": cycle_s, "ingest_s": ingest_s,
            "appended": ingest["n_appended"], "read": ingest["n_read"],
            "duplicates": ingest["n_duplicates"]}


def attach_service(loop):
    from repro.serve import RecommendService, ServiceConfig, load_index
    service = RecommendService(load_index(loop.current_index_path()),
                               ServiceConfig(k=K))
    loop.attach(service)
    return service


def timed_setup(workdir, seed: int, tracer: Tracer, tally: Tally,
                samples: List[float], count: int = 1):
    """``setup`` timed into ``samples``; None when it raised, which
    fails ``count`` operations: itself and what depended on it."""
    t0 = time.perf_counter()
    try:
        loop = setup(workdir, seed, tracer)
    except Exception as exc:   # noqa: BLE001 - counted
        common.log(traceback.format_exc())
        for _ in range(count):
            tally.op(False, f"set-up raised {exc!r}")
        return None
    samples.append(time.perf_counter() - t0)
    tally.op(True)
    return loop


def one_round(seed: int, tracer: Tracer, tally: Tally,
              name: str = "online-cycle/round") -> Dict:
    """Set-up plus every cycle, then ``SETUPS - 1`` more set-ups.

    The extra set-ups run in their own work directories once the loop
    is released, so the process's peak RSS stays the loop's own; each
    round thus yields ``SETUPS`` set-up samples.  ``timed_s`` covers
    every set-up and each cycle from append to swap; event generation,
    attaching the service and the checks fall outside it.
    """
    rng = np.random.default_rng(seed)
    setups: List[float] = []
    cycles: List[Dict] = []
    loop = timed_setup(common.fresh_workdir(name), seed, tracer, tally,
                       setups, 1 + CYCLES)
    if loop is not None:
        service = attach_service(loop)
        for done in range(CYCLES):
            try:
                cycles.append(cycle(loop, service, rng, tracer, tally))
            except Exception as exc:   # noqa: BLE001 - counted
                common.log(traceback.format_exc())
                for _ in range(CYCLES - done):
                    tally.op(False, f"cycle raised {exc!r}")
                break
        del loop, service
        gc.collect()
    for extra in range(1, SETUPS):
        workdir = common.fresh_workdir(f"{name}-setup{extra}")
        timed_setup(workdir, seed, tracer, tally, setups)
        gc.collect()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setups": setups, "cycles": cycles,
            "timed_s": sum(setups) + sum(c["cycle_s"] for c in cycles)}


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, tally: Tally) -> Dict[str, dict]:
    rounds = []
    rss = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        record, maxrss = run_child(seed, tally)
        common.log("[online-cycle] setups " + " ".join(
                       f"{t:.3f}" for t in record["setups"])
                   + " s, freshness " + " ".join(
                       f"{c['freshness_s']:.3f}" for c in record["cycles"]))
        rounds.append(record)
        rss.append(maxrss)
    cycles = [c for r in rounds for c in r["cycles"]]
    freshness_ms = [1e3 * c["freshness_s"] for c in cycles]
    return {
        # Each round's mean keeps its first (fresh-process) set-up in
        # the figure; the median over rounds drops an upset round.
        "setup_s": metric(median(statistics.mean(r["setups"])
                                 for r in rounds if r["setups"]), "s"),
        "latency_ms": metric(median(freshness_ms), "ms"),
        "tail_latency_ms": metric(
            percentile(freshness_ms, common.TAIL_PERCENTILE), "ms"),
        "throughput_per_s": metric(
            median(c["appended"] / c["ingest_s"] for c in cycles), "1/s"),
        "peak_rss_mb": metric(median(rss), "MB"),
    }


def run_child(seed: int, tally: Tally):
    """One round in a fresh process; folds its tally into ``tally``."""
    res = common.run_process([sys.executable, __file__, "--seed",
                              str(seed)], timeout_s=150.0)
    try:
        record = json.loads(res.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        record = None
    if not res.ok or record is None:
        tally.op(False, f"online round exit {res.code}: "
                        f"{res.stderr[-500:]}")
        raise common.BenchError("online-cycle round failed")
    tally.absorb(record)
    return record, res.maxrss_mb


def preload() -> None:
    """Import before the clock starts: set-up is the dataset build and
    the bootstrap, not the interpreter's start-up."""
    import repro.data.io  # noqa: F401
    import repro.online  # noqa: F401
    import repro.serve  # noqa: F401


def child_main(argv: List[str]) -> int:
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    common.use_program_sources()
    preload()
    tally = Tally()
    record = one_round(args.seed, Tracer(), tally)
    record.update(tally.as_record())
    common.emit(record)
    return 0


# ----------------------------------------------------------------------
# Traced rendering
# ----------------------------------------------------------------------
def instrument(tracer: Tracer) -> None:
    """Wrap what the loop's verbs call: fit, checkpoints, index, data."""
    import repro.data.io
    import repro.serve.checkpoint
    import repro.serve.index
    from repro.models.base import Recommender
    from repro.serve.index import RetrievalIndex
    tracer.wrap(Recommender, "fit", "models.fit")
    tracer.wrap(repro.serve.checkpoint, "save_checkpoint",
                "serve.checkpoint_save")
    tracer.wrap(repro.serve.checkpoint, "load_checkpoint",
                "serve.checkpoint_load")
    tracer.wrap(repro.serve.index, "build_index", "serve.index_build")
    tracer.wrap(repro.serve.index, "load_index", "serve.index_load")
    tracer.wrap(RetrievalIndex, "save", "serve.index_save")
    tracer.wrap(repro.data.io, "save_dataset", "data.snapshot_save")


def traced(seed: int, tracer: Tracer, tally: Tally) -> Dict:
    """One round in this process under ``tracer``.

    The rendering's wall is a fresh interpreter's import plus the
    round's timed part; the service is attached through
    ``repro.serve.load_index``, which the wrapping leaves alone, so no
    span falls outside that wall.
    """
    tracer.add("cli.import", common.cli_import_s())
    preload()
    with tracer.patched():
        instrument(tracer)
        record = one_round(seed, tracer, tally, "online-cycle/traced")
    record["import_s"] = tracer.calls["cli.import"][-1]
    record["wall_s"] = record["import_s"] + record["timed_s"]
    return record


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
