#!/usr/bin/env python3
"""Benchmark for mole: training and analysis workloads, checked and traced.

Run from the repository root:

    python3 perfbench/run.py --workload train-uniform --seed 1 --seconds 30 --trace 0

Workloads (see README.md for their make-up):
  train-uniform    mole train on copy, counts=2,2,2,2, K=2: every expert routed
  train-inverted   the same with inverted:2468, K=2: experts outnumber K
  analyze-mixed    load, evaluate, router_stats, redundancy_report over four
                   prompt lengths, plus a short length-bucketed fine-tune

A run repeats whole rounds of its workload until --seconds are used (at least
one round), then checks every output against computations made apart from the
program, and prints one JSON object as its last line. With --trace 1 it
alternates untraced and traced rounds and reports per-layer figures instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Patches, Tracer, install

# Pin every BLAS/OpenMP pool to one thread. numpy (and checks.py, which
# imports it) is imported only after this, in import_program and later.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TRAIN_STEPS = 100            # fixed budget; copy reaches 1.0 accuracy by step ~75
TRAIN_ANALYSIS_PASSES = 5    # analysis passes per training run, for a steadier median
SETUP_REPEATS = 5
MIXED_KINDS = ("modular_add", "copy", "parity", "keyed_lookup")   # lengths 4, 7, 9, 11
MIXED_PER_KIND = 48
FINETUNE_STEPS = 8           # two per prompt length, one length per batch
FINETUNE_BATCH = 25
FINETUNE_LR = 3e-3
ROUTER_STD = 0.5             # spreads routing across the drawn experts
FACTOR_STD = 0.05
MIN_ACCURACY = 0.95

END_TO_END_UNITS = {
    "setup_s": "s", "train_tokens_per_s": "tokens/s", "train_run_s": "s",
    "eval_tokens_per_s": "tokens/s", "analyze_s": "s", "peak_rss_mb": "MB",
    "checkpoint_bytes": "bytes",
}

# per-layer metric -> (unit, how it is read from a traced round)
PER_LAYER = {
    "tensor.backward_ms": ("ms", "total", "tensor.backward"),
    "tensor.graph_nodes": ("count", "median_sample", "graph_nodes"),
    "tensor.rng_child_calls": ("count", "calls", "tensor.rng_child"),
    "tensor.rng_child_ms": ("ms", "total", "tensor.rng_child"),
    "adapters.linear_self_ms": ("ms", "self", "adapters.linear"),
    "adapters.gate_ms": ("ms", "total", "adapters.gate"),
    "adapters.expert_ms": ("ms", "total", "adapters.expert"),
    "adapters.expert_rows": ("count", "count", "expert_rows"),
    "adapters.routed_rows": ("count", "count", "routed_rows"),
    "adapters.routed_share": ("ratio", "share", ("routed_rows", "expert_rows")),
    "adapters.balance_loss_ms": ("ms", "total", "adapters.balance_loss"),
    "model.forward_ms": ("ms", "total", "model.forward"),
    "model.block_self_ms": ("ms", "self", "model.block"),
    "model.head_ms": ("ms", "self", "model.forward"),
    "model.loss_ms": ("ms", "total", "model.loss"),
    "model.adamw_ms": ("ms", "total", "model.adamw"),
    "model.evaluate_ms": ("ms", "total", "model.evaluate"),
    "checkpoint.save_ms": ("ms", "total", "checkpoint.save"),
    "checkpoint.load_ms": ("ms", "total", "checkpoint.load"),
    "analysis.router_stats_ms": ("ms", "total", "analysis.router_stats"),
    "analysis.redundancy_ms": ("ms", "total", "analysis.redundancy"),
    "tasks.generate_ms": ("ms", "setup_total", "tasks.generate"),
    "cli.loop_self_ms": ("ms", "self", "cli.main"),
    "trace.overhead": ("%", "overhead", None),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("train-uniform", "train-inverted", "analyze-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import mole from this checkout's src/, never from anywhere else."""
    if not (SRC / "mole" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'mole'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import mole
    import mole.cli  # noqa: F401  (the CLI entry point the train workloads call)
    if Path(mole.__file__).resolve().parent != (SRC / "mole").resolve():
        raise SystemExit(f"error: imported mole from {mole.__file__}, not from {SRC}")
    return mole


def machine_facts() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Probe:
    """Always-on timing of train_step and evaluate calls (two clock reads each)."""

    def __init__(self):
        self.steps: list[tuple[int, float, object]] = []   # (tokens, seconds, stats)
        self.evals: list[tuple[int, float, float]] = []    # (tokens, seconds, accuracy)
        self.model = None

    def install(self, patches) -> None:
        def wrap_step(original):
            def train_step(model, batch, *args, **kwargs):
                batch = list(batch)
                tokens = sum(len(ex.prompt) for ex in batch)
                start = perf_counter()
                stats = original(model, batch, *args, **kwargs)
                self.steps.append((tokens, perf_counter() - start, stats))
                self.model = model
                return stats
            return train_step

        def wrap_eval(original):
            def evaluate(model, examples, *args, **kwargs):
                examples = list(examples)
                tokens = sum(len(ex.prompt) for ex in examples)
                start = perf_counter()
                accuracy = original(model, examples, *args, **kwargs)
                self.evals.append((tokens, perf_counter() - start, accuracy))
                return accuracy
            return evaluate

        for attr, make in (("train_step", wrap_step), ("evaluate", wrap_eval)):
            if not patches.function("mole.model", attr, make):
                raise SystemExit(f"error: mole.model.{attr} not found")


class Round:
    """Outputs, op durations and probe slices of one round of a workload.

    An operation may run several times in a round, so `out` and `times` map
    each operation name to the list of its results and durations."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.out: dict[str, list] = {}
        self.times: dict[str, list[float]] = {}
        self.ok = False
        self.wall = 0.0
        self.steps: list = []
        self.evals: list = []
        self.model = None
        self.trace: dict | None = None


ANALYSIS = ("load", "evaluate", "router_stats", "redundancy")


class Workload:
    """Set-up, a round of operations, and the checks on what the rounds made.

    The analysis pass (load a checkpoint, then evaluate, router_stats and
    redundancy_report over the workload's corpus) is shared by all workloads."""

    ops: tuple[str, ...] = ()

    def __init__(self, mole, seed: int, work: Path, probe: Probe):
        self.mole = mole
        self.seed = seed
        self.work = work
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def run_round(self, rnd: Round) -> None:
        """Run this workload's operations in order; an operation that raises
        fails the round, and the operations after it count as failed too."""
        steps0, evals0 = len(self.probe.steps), len(self.probe.evals)
        self.attempted += len(self.ops)
        for i, name in enumerate(self.ops):
            start = perf_counter()
            try:
                value = getattr(self, "op_" + name)(rnd.out)
            except Exception:  # an operation of the program failed: count it, keep running
                traceback.print_exc(file=sys.stderr)
                self.failed += len(self.ops) - i
                break
            rnd.times.setdefault(name, []).append(perf_counter() - start)
            rnd.out.setdefault(name, []).append(value)
        else:
            rnd.ok = True
        rnd.steps = self.probe.steps[steps0:]
        rnd.evals = self.probe.evals[evals0:]
        rnd.model = self.probe.model
        if rnd.ok:
            self.collect(rnd)

    def collect(self, rnd: Round) -> None:
        """Untimed bookkeeping after a round (hashes, sizes)."""

    def op_load(self, out):
        return self.mole.load(self.analysis_checkpoint(out))

    def op_evaluate(self, out):
        return self.mole.evaluate(out["load"][-1], self.corpus)

    def op_router_stats(self, out):
        return self.mole.router_stats(out["load"][-1], self.corpus)

    def op_redundancy(self, out):
        return self.mole.redundancy_report(out["load"][-1])

    def analyze_seconds(self, rnd: Round) -> list[float]:
        """One sample per analysis pass: load + router_stats + redundancy_report."""
        t = rnd.times
        return [a + b + c for a, b, c in zip(t["load"], t["router_stats"], t["redundancy"])]

    def run_analysis_checks(self, model, rounds: list[Round]):
        """Checks on the analysis passes, all of which analysed `model`'s weights."""
        from checks import (check_accuracy, check_program_logits, check_redundancy,
                            check_router_stats, check_same, reference_pass,
                            single_example_rows)
        corpus = self.corpus
        ref = reference_pass(model, corpus)
        check_program_logits(model, corpus, ref)
        first = rounds[0].out
        check_accuracy(first["evaluate"][0], corpus, ref.last_logits,
                       "evaluate vs reference forward")
        check_accuracy(first["evaluate"][0], corpus, single_example_rows(model, corpus),
                       "evaluate vs single-example forward")
        check_router_stats(first["router_stats"][0], corpus, model, ref)
        check_redundancy(first["redundancy"][0], model)
        every = [r.out for r in rounds]
        check_same([v for o in every for v in o["evaluate"]], "evaluate accuracy")
        check_same([[(u.layer, u.tag, u.tokens, list(u.selection_counts)) for u in v]
                    for o in every for v in o["router_stats"]], "router_stats counts")
        check_same([[(e.layer, e.value) for e in v] for o in every for v in o["redundancy"]],
                   "redundancy_report")
        return ref


class TrainWorkload(Workload):
    """`mole train` on copy at the CLI defaults with a fixed step budget, then
    analysis passes over the saved checkpoint and the task's examples."""

    ops = ("train",) + ANALYSIS * TRAIN_ANALYSIS_PASSES

    def __init__(self, mole, seed, work, probe, alloc: str):
        super().__init__(mole, seed, work, probe)
        self.alloc = alloc

    def setup(self) -> None:
        mole = self.mole
        plan = mole.parse_alloc_spec(self.alloc, 4, k=2)
        self.fresh = mole.AdaptedModel.build(mole.ToyTransformerConfig(allocation=plan,
                                                                       seed=self.seed))
        self.task = mole.generate_task("copy", 200, seed=self.seed)
        self.corpus = self.task.all_examples

    def op_train(self, out):
        runs = self.work / "runs"
        shutil.rmtree(runs, ignore_errors=True)
        argv = ["train", "--dataset", "copy", "--alloc", self.alloc, "--k", "2",
                "--steps", str(TRAIN_STEPS), "--seed", str(self.seed), "--out", str(runs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.mole.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mole {' '.join(argv)} exited {code}")
        (run_dir,) = list(runs.iterdir())
        return run_dir

    def analysis_checkpoint(self, out):
        return out["train"][-1] / "model.ckpt"

    def collect(self, rnd):
        run_dir = rnd.out["train"][-1]
        rnd.summary = json.loads((run_dir / "summary.json").read_text())
        rnd.ckpt_bytes = (run_dir / "model.ckpt").stat().st_size
        rnd.hashes = (sha256(run_dir / "model.ckpt"), sha256(run_dir / "metrics.csv"))

    def train_seconds(self, rnd):
        return rnd.times["train"]

    def check(self, rounds: list[Round]) -> None:
        from checks import (check_accuracy, check_fresh_is_base, check_frozen_equal,
                            check_losses_finite, check_min_accuracy, check_reload_identical,
                            check_same, check_step_count, check_trainable_total)
        check_losses_finite([s for r in rounds for _, _, s in r.steps])
        for r in rounds:
            check_step_count(len(r.steps), TRAIN_STEPS, f"round {r.index}")
            check_min_accuracy(r.summary["train_accuracy"], MIN_ACCURACY, "final train")
            check_min_accuracy(r.summary["eval_accuracy"], MIN_ACCURACY, "final held-out")
        check_same([r.hashes for r in rounds], "model.ckpt and metrics.csv bytes")
        last = rounds[-1]
        trained, loaded = last.model, last.out["load"][-1]
        check_frozen_equal(trained, self.fresh)
        check_trainable_total(trained)
        check_reload_identical(trained, loaded, self.corpus)
        ref = self.run_analysis_checks(loaded, rounds)
        n_train = len(self.task.train)
        check_accuracy(last.summary["train_accuracy"], self.task.train,
                       ref.last_logits[:n_train], "summary train accuracy vs reference")
        check_accuracy(last.summary["eval_accuracy"], self.task.eval,
                       ref.last_logits[n_train:], "summary held-out accuracy vs reference")
        check_fresh_is_base(self.fresh, self.corpus)


class AnalyzeWorkload(Workload):
    """Load a drawn inverted:2468 checkpoint and analyse a four-length corpus;
    then fine-tune the loaded model briefly on length-homogeneous batches."""

    ops = ANALYSIS + ("finetune",)
    alloc = "inverted:2468"

    def setup(self) -> None:
        import numpy as np
        mole = self.mole
        config = mole.ToyTransformerConfig(allocation=mole.parse_alloc_spec(self.alloc, 4, k=2),
                                           seed=self.seed)
        model = mole.AdaptedModel.build(config)
        draw = np.random.default_rng([self.seed, 2468])
        for name, p in model.trainable_parameters().items():
            std = ROUTER_STD if name.endswith("router") else FACTOR_STD
            p.data[...] = draw.normal(0.0, std, size=p.shape)
        tasks = [mole.generate_task(kind, MIXED_PER_KIND, seed=self.seed) for kind in MIXED_KINDS]
        self.corpus = [ex for task in tasks for ex in task.all_examples]
        self.ckpt = self.work / "drawn.ckpt"
        mole.save(model, self.ckpt)
        self.config = config
        self.batches = []
        for step in range(FINETUNE_STEPS):
            pool = tasks[step % len(tasks)].all_examples
            picks = draw.choice(len(pool), size=FINETUNE_BATCH, replace=False)
            self.batches.append([pool[i] for i in picks])

    def analysis_checkpoint(self, out):
        return self.ckpt

    def op_finetune(self, out):
        mole = self.mole
        model = out["load"][-1]
        optimizer = mole.AdamW(model.trainable_parameters(), lr=FINETUNE_LR)
        rng = mole.Rng(self.seed).child("finetune")
        for batch in self.batches:
            mole.train_step(model, batch, optimizer, rng)
        path = self.work / "finetuned.ckpt"
        mole.save(model, path)
        return path

    def collect(self, rnd):
        rnd.ckpt_bytes = rnd.out["finetune"][-1].stat().st_size
        rnd.hashes = (sha256(rnd.out["finetune"][-1]),)

    def train_seconds(self, rnd):
        return rnd.times["finetune"]

    def check(self, rounds: list[Round]) -> None:
        from checks import (check_fresh_is_base, check_frozen_equal, check_losses_finite,
                            check_reload_identical, check_same, check_step_count,
                            check_trainable_total)
        mole = self.mole
        check_losses_finite([s for r in rounds for _, _, s in r.steps])
        for r in rounds:
            check_step_count(len(r.steps), FINETUNE_STEPS, f"round {r.index}")
        check_same([r.hashes for r in rounds], "fine-tuned checkpoint bytes")
        self.run_analysis_checks(mole.load(self.ckpt), rounds)
        fresh = mole.AdaptedModel.build(self.config)
        check_fresh_is_base(fresh, self.corpus)
        tuned = rounds[-1].model
        check_frozen_equal(tuned, fresh)
        check_trainable_total(tuned)
        check_reload_identical(tuned, mole.load(rounds[-1].out["finetune"][-1]), self.corpus)


def make_workload(name, mole, seed, work, probe) -> Workload:
    if name == "train-uniform":
        return TrainWorkload(mole, seed, work, probe, "counts=2,2,2,2")
    if name == "train-inverted":
        return TrainWorkload(mole, seed, work, probe, "inverted:2468")
    return AnalyzeWorkload(mole, seed, work, probe)


# -- metrics ---------------------------------------------------------------------


def rate(samples: list[tuple[int, float]]) -> float:
    return sum(t for t, _ in samples) / sum(s for _, s in samples)


def end_to_end(workload: Workload, rounds: list[Round], setup_s: float, rss: float) -> dict:
    """Token rates are all tokens over all seconds of the calls in the run;
    wall times are medians over training runs and analysis passes."""
    good = [r for r in rounds if r.ok]
    steps = [(tokens, seconds) for r in good for tokens, seconds, _ in r.steps]
    evals = [(tokens, seconds) for r in good for tokens, seconds, _ in r.evals]
    values = {
        "setup_s": setup_s,
        "train_tokens_per_s": rate(steps),
        "train_run_s": statistics.median(s for r in good for s in workload.train_seconds(r)),
        "eval_tokens_per_s": rate(evals),
        "analyze_s": statistics.median(s for r in good for s in workload.analyze_seconds(r)),
        "peak_rss_mb": rss,
        "checkpoint_bytes": statistics.median(r.ckpt_bytes for r in good),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(rounds: list[Round], setup_trace: dict, setup_reps: int) -> tuple[dict, list]:
    traced = [r for r in rounds if r.traced and r.ok]
    plain = [r for r in rounds[1:] if not r.traced and r.ok]
    metrics, absent = {}, []

    def read(kind, key, t):
        if kind in ("total", "self"):
            seconds = t[kind + "_s"].get(key)
            return None if seconds is None else seconds * 1000.0
        if kind == "calls":
            return t["calls"].get(key)
        if kind == "count":
            return t["counts"].get(key)
        if kind == "median_sample":
            samples = t["samples"].get(key)
            return statistics.median(samples) if samples else None
        if kind == "share":
            num, den = (t["counts"].get(k) for k in key)
            return num / den if num and den else None
        raise ValueError(kind)

    for name, (unit, kind, key) in PER_LAYER.items():
        if kind == "overhead":
            value = None
            if traced and plain:
                base = statistics.median(r.wall for r in plain)
                value = 100.0 * (statistics.median(r.wall for r in traced) - base) / base
        elif kind == "setup_total":
            ms = setup_trace["total_s"].get(key)
            value = None if ms is None else ms * 1000.0 / setup_reps
        else:
            got = [read(kind, key, r.trace) for r in traced]
            got = [v for v in got if v is not None]
            value = statistics.median(got) if got else None
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def print_span_table(rounds: list[Round]) -> None:
    traced = [r for r in rounds if r.traced and r.ok]
    if not traced:
        return
    names = sorted({n for r in traced for n in r.trace["calls"]})
    print(f"span table (mean per traced round over {len(traced)} rounds):")
    print(f"  {'span':28s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}")
    for n in names:
        calls = sum(r.trace["calls"].get(n, 0) for r in traced) / len(traced)
        total = sum(r.trace["total_s"].get(n, 0.0) for r in traced) * 1000 / len(traced)
        own = sum(r.trace["self_s"].get(n, 0.0) for r in traced) * 1000 / len(traced)
        print(f"  {n:28s} {calls:9.0f} {total:11.2f} {own:11.2f}")


# -- rounds and entry point -------------------------------------------------------


def run_round(workload: Workload, rounds: list[Round], tracer=None) -> None:
    """One round, traced when a tracer is given; appended to `rounds`."""
    rnd = Round(len(rounds), tracer is not None)
    patches = Patches()
    if tracer is not None:
        tracer.reset_round()
        install(tracer, patches)
        tracer.mark(f"round {rnd.index}")
    start = perf_counter()
    try:
        workload.run_round(rnd)
    finally:
        rnd.wall = perf_counter() - start
        patches.restore()
    if tracer is not None:
        rnd.trace = tracer.round_summary()
    rounds.append(rnd)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its work directory (finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    origin = perf_counter()
    mole = import_program()
    import_s = perf_counter() - origin
    from checks import CheckFailed

    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = Probe()
    probe.install(Patches())
    tracer = Tracer(origin)
    workload = make_workload(args.workload, mole, args.seed, work, probe)
    try:
        setup_times = []
        setup_patches = Patches()
        if args.trace:
            install(tracer, setup_patches)
            tracer.mark("setup")
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - start)
        setup_trace = tracer.round_summary()
        setup_patches.restore()
        setup_s = import_s + statistics.median(setup_times)
        print(f"setup: import {import_s:.3f} s, repeats "
              + " ".join(f"{t:.3f}" for t in setup_times) + " s")

        rounds: list[Round] = []
        # A traced run starts with an untraced warm-up round, left out of the
        # overhead because first rounds also pay for growing the heap.
        cycle = [True, False] if args.trace else [False]
        start = perf_counter()
        cycles = 0
        if args.trace:
            run_round(workload, rounds, None)
        while True:
            for traced in cycle:
                run_round(workload, rounds, tracer if traced else None)
            cycles += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / cycles > args.seconds:
                break
        rss = peak_rss_mb()

        good = [r for r in rounds if r.ok]
        correct = bool(good)
        if good:
            try:
                workload.check(good)
            except CheckFailed as err:
                correct = False
                print(f"CHECK FAILED: {err}", file=sys.stderr)
            except Exception:  # a check that cannot run has not passed
                correct = False
                traceback.print_exc(file=sys.stderr)
        else:
            print("no round completed, so nothing could be checked", file=sys.stderr)
        print(f"rounds: {len(rounds)} ({len(good)} complete), walls "
              + " ".join(f"{r.wall:.2f}{'T' if r.traced else ''}" for r in rounds)
              + " s; analysis passes "
              + " ".join(f"{t:.3f}" for r in good for t in workload.analyze_seconds(r))
              + f" s; checks {'passed' if correct else 'FAILED'}")

        if args.trace:
            metrics, absent = per_layer(rounds, setup_trace, SETUP_REPEATS)
            print_span_table(rounds)
            if absent:
                print("absent spans (reported as 0): " + ", ".join(absent))
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed})
        elif good:
            metrics = end_to_end(workload, rounds, setup_s, rss)
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": correct, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
