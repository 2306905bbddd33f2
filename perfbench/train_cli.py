"""Workload ``train-cli``: what a researcher runs, as CLI processes.

One round is the sequence

    setup, fast, reference, export(fast), setup, reference, fast,
    export(reference)

where *setup* is ``repro train LogiRec++ --dataset book --epochs 0``,
*fast* / *reference* are full default-budget ``repro train ... --save``
runs on that backend, and *export* is ``repro serve export`` of the
checkpoint just written.  The second half runs the backends in the
opposite order so a drift in host speed during the round weighs on both.

Checks, made apart from the program after the timed processes:

* test Recall@10 / NDCG@10 recomputed from each saved checkpoint with a
  plain per-user stable sort that drops training items, equal to what
  ``repro train`` printed, to the printed precision;
* fast and reference within 0.5 pp of each other, and recall well above
  the random-ranking expectation computed here;
* every exported index score row bit-identical to the checkpoint
  model's ``score_users`` row.
"""

from __future__ import annotations

import re
from typing import Dict, List

import numpy as np

import common
from common import Tally, median, metric
from tracing import Tracer

MODEL = "LogiRec++"
DATASET = "book"
K = 10
BAND_PP = 0.5          # DESIGN.md §10: fast vs reference metric band
RANDOM_MARGIN = 3.0    # trained recall must exceed 3x the random one

_PRINTED = re.compile(r"^LogiRec\+\+ on book: (.*)$", re.MULTILINE)


def train_argv(seed: int, backend=None, save=None, epochs=None) -> List[str]:
    args = ["train", MODEL, "--dataset", DATASET, "--seed", str(seed)]
    if backend:
        args += ["--backend", backend]
    if epochs is not None:
        args += ["--epochs", str(epochs)]
    if save:
        args += ["--save", str(save)]
    return common.repro_argv(*args)


def parse_printed(stdout: str) -> Dict[str, float]:
    match = _PRINTED.search(stdout)
    if not match:
        return {}
    return {key: float(value) for key, value in
            (part.split("=") for part in match.group(1).split())}


# ----------------------------------------------------------------------
# Independent checks
# ----------------------------------------------------------------------
class Checker:
    """Recomputes the CLI's reported results from its saved artifacts."""

    def __init__(self):
        common.use_program_sources()
        from repro.data import load_dataset, temporal_split
        self.dataset = load_dataset(DATASET)
        self.split = temporal_split(self.dataset)
        self.train_items = self.dataset.items_of_user(self.split.train)
        self.test_items = self.dataset.items_of_user(self.split.test)
        self.test_users = np.array(sorted(
            u for u, items in self.test_items.items() if len(items)),
            dtype=np.int64)

    def load_model(self, ckpt, backend: str):
        from repro.serve import load_checkpoint
        from repro.tensor.backend import use_backend
        with use_backend(backend):
            return load_checkpoint(ckpt, dataset=self.dataset,
                                   split=self.split)

    def test_metrics(self, ckpt, backend: str) -> Dict[str, float]:
        """Recall@10 / NDCG@10 (percent) plus the random expectation."""
        from repro.tensor.backend import use_backend
        model = self.load_model(ckpt, backend)
        with use_backend(backend):
            scores = np.asarray(model.score_users(self.test_users),
                                dtype=np.float64)
        recall, ndcg, random_recall = [], [], []
        for row, user in enumerate(self.test_users):
            truth = {int(i) for i in self.test_items[user]}
            seen = {int(i) for i in self.train_items.get(user, ())}
            order = np.argsort(-scores[row], kind="stable")
            top = [int(i) for i in order if int(i) not in seen][:K]
            gains = [1.0 if item in truth else 0.0 for item in top]
            dcg = sum(g / np.log2(r + 2) for r, g in enumerate(gains))
            idcg = sum(1.0 / np.log2(r + 2)
                       for r in range(min(K, len(truth))))
            recall.append(sum(gains) / len(truth))
            ndcg.append(dcg / idcg)
            candidates = self.dataset.n_items - len(seen)
            random_recall.append(
                K * len(truth - seen) / candidates / len(truth))
        return {"recall@10": 100.0 * float(np.mean(recall)),
                "ndcg@10": 100.0 * float(np.mean(ndcg)),
                "random_recall@10": 100.0 * float(np.mean(random_recall))}

    def index_matches(self, ckpt, index_dir) -> bool:
        """Every index score row equals the model's, bit for bit."""
        from repro.serve import IndexFormatError, load_index
        try:
            index = load_index(index_dir)
        except IndexFormatError:       # the export failed or was cut
            return False
        model = self.load_model(ckpt, "reference")
        if index.n_users != self.dataset.n_users:
            return False
        for user in range(index.n_users):
            live = model.score_users(np.array([user], dtype=np.int64))[0]
            if not np.array_equal(index.score_user(user), live):
                return False
        return True


def check_training(checker: Checker, tally: Tally, ckpt, backend: str,
                   printed: Dict[str, float]) -> bool:
    from repro.serve import CheckpointError
    ok = tally.check(bool(printed), f"{backend}: no metrics printed")
    if not ok:
        return False
    try:
        mine = checker.test_metrics(ckpt, backend)
    except CheckpointError as exc:
        return tally.check(False, f"{backend}: checkpoint unreadable: {exc}")
    for key in ("recall@10", "ndcg@10"):
        ok &= tally.check(
            abs(mine[key] - printed[key]) <= 0.005 + 1e-9,
            f"{backend}: recomputed {key} {mine[key]:.4f} != printed "
            f"{printed[key]:.2f}")
    ok &= tally.check(
        mine["recall@10"] > RANDOM_MARGIN * mine["random_recall@10"],
        f"{backend}: recall@10 {mine['recall@10']:.2f} not above "
        f"{RANDOM_MARGIN}x random {mine['random_recall@10']:.2f}")
    return ok


# ----------------------------------------------------------------------
# Untraced rounds
# ----------------------------------------------------------------------
HALVES = (("fast", "reference"), ("reference", "fast"))


def run_half(seed: int, order, tally: Tally, samples: Dict[str, list],
             checker: Checker, half: int) -> float:
    """setup, both trainings in ``order``, export; returns summed wall."""
    work = common.fresh_workdir(f"train-cli/h{half}")
    wall = 0.0
    setup = common.run_process(train_argv(seed, epochs=0))
    tally.op(setup.ok and bool(parse_printed(setup.stdout)),
             f"setup exit {setup.code}: {setup.stderr[-300:]}")
    samples["setup_s"].append(setup.wall_s)
    wall += setup.wall_s
    printed, results = {}, {}
    for backend in order:
        ckpt = work / backend
        res = common.run_process(train_argv(seed, backend, ckpt))
        results[backend] = res
        printed[backend] = parse_printed(res.stdout)
        samples[f"train_{backend}_s"].append(res.wall_s)
        common.log(f"[train-cli] {backend} {res.wall_s:.3f} s")
        if backend == "fast":
            samples["peak_rss_mb"].append(res.maxrss_mb)
        wall += res.wall_s
    exported = order[0]
    index_dir = work / "index"
    export = common.run_process(common.repro_argv(
        "serve", "export", str(work / exported), "--out", str(index_dir)))
    samples["export_s"].append(export.wall_s)
    wall += export.wall_s

    # Output checks, after every timed process of the half.
    ok = check_outputs(checker, tally, work, printed, exported, index_dir)
    for backend in order:
        res = results[backend]
        tally.op(res.ok and ok[backend], f"{backend} training exit "
                                         f"{res.code}: {res.stderr[-300:]}")
    tally.op(export.ok and ok["export"],
             f"export exit {export.code}: {export.stderr[-300:]}")
    return wall


def check_outputs(checker: Checker, tally: Tally, work, reported,
                  exported: str, index_dir) -> Dict[str, bool]:
    """Every check on one half's artifacts; per-operation verdicts.

    ``reported`` maps each backend to the test metrics its training
    reported (printed by the CLI, or returned in the traced rendering).
    """
    ok = {backend: check_training(checker, tally, work / backend, backend,
                                  metrics)
          for backend, metrics in reported.items()}
    if reported["fast"] and reported["reference"]:
        for key in ("recall@10", "ndcg@10"):
            gap = abs(reported["fast"][key] - reported["reference"][key])
            tally.check(gap <= BAND_PP,
                        f"fast vs reference {key} differ by {gap:.2f} pp")
    ok["export"] = tally.check(
        checker.index_matches(work / exported, index_dir),
        f"index from {exported} checkpoint differs from score_users")
    return ok


def new_samples() -> Dict[str, list]:
    return {key: [] for key in ("setup_s", "train_fast_s",
                                "train_reference_s", "peak_rss_mb",
                                "export_s")}


def run(seed: int, seconds: float, tally: Tally) -> Dict[str, dict]:
    """Whole rounds until ``seconds`` have passed (one round is ~50 s).

    The metrics carry their own names (``train_fast_s``, ...): this
    workload is run by hand and by the steadiness report, not gated by
    ``BENCHMARK.json`` (README.md says why).
    """
    import time
    checker = Checker()
    samples = new_samples()
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        for half, order in enumerate(HALVES):
            run_half(seed, order, tally, samples, checker, half)
    return {
        "setup_s": metric(median(samples["setup_s"]), "s"),
        "train_fast_s": metric(median(samples["train_fast_s"]), "s"),
        "train_ref_s": metric(median(samples["train_reference_s"]), "s"),
        "export_s": metric(median(samples["export_s"]), "s"),
        "peak_rss_mb": metric(median(samples["peak_rss_mb"]), "MB"),
    }


# ----------------------------------------------------------------------
# Traced rendering: the same four processes, in this process
# ----------------------------------------------------------------------
def instrument_training(tracer: Tracer, model_cls) -> None:
    """Wrap the public calls ``Recommender.fit`` makes per batch/epoch."""
    from repro.data.sampling import TripletSampler
    from repro.eval import Evaluator
    from repro.tensor import Tensor
    from repro.tensor.backend import get_backend

    def per_backend(kind: str):
        return lambda: f"train.{kind}.{get_backend().name}"

    tracer.wrap(model_cls, "batch_loss", per_backend("forward"))
    tracer.wrap(Tensor, "backward", per_backend("backward"))
    make_optimizer = model_cls.make_optimizer

    def make_timed_optimizer(model):
        optimizer = make_optimizer(model)
        tracer.wrap(optimizer, "step", per_backend("step"))
        return optimizer

    tracer.replace(model_cls, "make_optimizer", make_timed_optimizer)
    tracer.wrap(model_cls, "prepare", "core.prepare")
    tracer.wrap_generator(TripletSampler, "epoch", "data.sample")
    tracer.wrap(Evaluator, "evaluate_valid", "eval.valid")
    tracer.wrap(Evaluator, "evaluate_test", "eval.test")


def traced_process(tracer: Tracer, seed: int, backend: str, epochs=None,
                   save=None):
    """``repro train`` rendered in-process under ``tracer``."""
    from repro.data import load_dataset, temporal_split
    from repro.eval import Evaluator
    from repro.experiments import build_model
    from repro.serve import save_checkpoint
    from repro.tensor import set_backend
    tracer.add("cli.import", common.cli_import_s())
    set_backend(backend)
    dataset = tracer.call("data.generate", load_dataset, DATASET)
    split = tracer.call("data.split", temporal_split, dataset)
    model = tracer.call("models.build", build_model, MODEL, dataset,
                        seed=seed)
    if epochs is not None:
        model.config.epochs = epochs
    evaluator = tracer.call("eval.setup", Evaluator, dataset, split)
    tracer.call("models.fit", model.fit, dataset, split,
                evaluator=evaluator)
    result = evaluator.evaluate_test(model)
    if save:
        tracer.call("serve.checkpoint_save", save_checkpoint, model,
                    save, dataset=dataset)
    return result.means


def traced_export(tracer: Tracer, ckpt, out):
    from repro.data import load_dataset, temporal_split
    from repro.serve import build_index, load_checkpoint
    from repro.tensor import set_backend
    tracer.add("cli.import", common.cli_import_s())
    set_backend("reference")
    dataset = tracer.call("data.generate", load_dataset, DATASET)
    split = tracer.call("data.split", temporal_split, dataset)
    model = tracer.call("serve.checkpoint_load", load_checkpoint, ckpt,
                        dataset=dataset, split=split)
    index = tracer.call("serve.index_build", build_index, model,
                        dataset, split)
    tracer.call("serve.index_save", index.save, out)


def traced_half(seed: int, tracer: Tracer, tally: Tally
                ) -> Dict[str, object]:
    """One half-round (setup, fast, reference, export) under ``tracer``."""
    import time
    from repro.core.logirec_pp import LogiRecPP
    from repro.tensor.backend import arena_stats, set_backend
    work = common.fresh_workdir("train-cli/traced")
    out: Dict[str, object] = {}
    reported = {}
    t0 = time.perf_counter()
    with tracer.patched():
        instrument_training(tracer, LogiRecPP)
        traced_process(tracer, seed, "reference", epochs=0)
        for backend in ("fast", "reference"):
            reported[backend] = traced_process(tracer, seed, backend,
                                               save=work / backend)
            if backend == "fast":
                stats = arena_stats() or {}
                out["arena_hit_rate"] = float(stats.get("hit_rate", 0.0))
        traced_export(tracer, work / "fast", work / "index")
    out["wall_s"] = time.perf_counter() - t0
    set_backend("reference")
    checker = Checker()
    out["valid_users"] = sum(1 for items in checker.dataset.items_of_user(
        checker.split.valid).values() if len(items))
    ok = check_outputs(checker, tally, work, reported, "fast",
                       work / "index")
    tally.op(True)          # the --epochs 0 rendering ran to its end
    for verdict in ok.values():
        tally.op(verdict, "traced train-cli output failed its checks")
    return out


def untraced_half_wall(seed: int, tally: Tally) -> float:
    """The same four processes as the CLI runs them, for the overhead."""
    return run_half(seed, HALVES[0], tally, new_samples(), Checker(), 0)

