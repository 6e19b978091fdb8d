"""Command-line entry point: params, train, continual, analyze.

Each command parses its flags and config file into the library's configs,
calls the library (`mole.model.fit` trains) and writes the files; only the
command that reads a key takes it (`train`'s data keys, `continual`'s domain
keys). Every run is fully determined by its configuration (seed included) and
the BLAS thread count, which the configuration does not record; artifacts land
in a directory named by the hash of the configuration, so rerunning a command
at the same thread count reproduces its outputs byte for byte. Exit codes: 0
success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .allocation import DIMS_PRESETS, ModelDims, parse_alloc_spec, trainable_param_count, validate
from .analysis import AccuracyMatrix, build_report, dumps_report, emit_report
from .checkpoint import CheckpointError, atomic_write, load, save
from .model import (
    METRICS_HEADER,
    PRECISIONS,
    AdaptedModel,
    RunConfig,
    ToyTransformerConfig,
    TrainingDiverged,
    evaluate,
    fit,
)
from .tasks import (
    TASK_KINDS,
    Example,
    TaskData,
    check_vocab,
    generate_domain_sequence,
    generate_task,
    load_jsonl,
)
from .tensor import NonFiniteError

# The keys both commands take, with defaults: every field of the two configs
# but the allocation (given as alloc and k) and the mandatory seed. Each
# command adds the keys only it reads.
_SHARED_DEFAULTS = {"alloc": "counts=2,2,2,2", "k": 2, **{
    f.name: f.default for f in (*fields(RunConfig), *fields(ToyTransformerConfig))
    if f.name not in ("allocation", "seed")}}
TRAIN_DEFAULTS = {"dataset": "copy", "data_size": 200, "cutoff_len": 64, **_SHARED_DEFAULTS}
CONTINUAL_DEFAULTS = {**_SHARED_DEFAULTS, "domains": 5, "domain_size": 150, "steps": 300,
                      "eval_split": "eval", "identical_domains": False}


class UsageError(Exception):
    """Bad flags, unparseable specs, or invalid configuration."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_kv_config(path: str) -> dict[str, str]:
    """Flat `key = value` config file; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path} line {lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if key == "allocation":
            key = "alloc"
        values[key] = value.strip()
    return values


# The value type of every settings key; keys whose default is None are listed.
_TYPES = {"epochs": int, "target_acc": float, "seed": int, "out": str, **{
    key: type(v) for key, v in (TRAIN_DEFAULTS | CONTINUAL_DEFAULTS).items() if v is not None}}
_CHOICES = {"eval_split": ("eval", "train", "all"), "precision": tuple(sorted(PRECISIONS))}
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_HELP = {
    "dataset": f"task kind {TASK_KINDS} or jsonl:PATH",
    "alloc": "allocation spec, e.g. inverted:2468 or counts=1,1,3,3",
    "k": "router top-K",
    "epochs": "overrides --steps as epochs x batches-per-epoch",
    "cutoff_len": "left-truncate prompts longer than this (at most max_seq_len)",
    "target_acc": "stop once train accuracy reaches this level",
    "identical_domains": "repeat the first domain at every stage (no-shift null test)",
    "out": "output directory for run artifacts",
}


def _coerce(key: str, raw: str):
    kind = _TYPES[key]
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise UsageError(f"config key {key!r}: {raw!r} is not a valid {kind.__name__}") from None
    if key in _CHOICES and value not in _CHOICES[key]:
        raise UsageError(f"config key {key!r}: {raw!r} is not one of {_CHOICES[key]}")
    return value


def _resolve(args, defaults: dict) -> tuple[dict, set, ToyTransformerConfig, RunConfig]:
    """Merge precedence: explicit flags > config file > built-in defaults."""
    merged = dict(defaults)
    given = set()
    if getattr(args, "config", None):
        file_values = _read_kv_config(args.config)
        for key, raw in file_values.items():
            if key not in defaults and key not in ("seed", "out"):
                raise UsageError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, raw)
            given.add(key)
    for key in list(defaults) + ["seed", "out"]:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
            given.add(key)
    if merged.get("seed") is None:
        raise UsageError("a seed is mandatory (--seed or config file)")
    config = ToyTransformerConfig(
        allocation=parse_alloc_spec(merged["alloc"], merged["num_layers"], k=merged["k"]),
        seed=merged["seed"], **{f.name: merged[f.name] for f in fields(ToyTransformerConfig)
                                if f.name in defaults})
    return merged, given, config, RunConfig(**{f.name: merged[f.name] for f in fields(RunConfig)})


def _run_dir(resolved: dict) -> Path:
    """Create the run directory; write its config.json and metrics.csv header."""
    out = resolved.get("out")
    if not out:
        raise UsageError("an output directory is mandatory (--out or config file)")
    payload = {k: v for k, v in resolved.items() if k != "out"}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:12]
    run_dir = Path(out) / digest
    run_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(run_dir / "config.json") as fh:
        fh.write(json.dumps(resolved, sort_keys=True, indent=2, default=str) + "\n")
    (run_dir / "metrics.csv").write_text(METRICS_HEADER + "\n")
    return run_dir


def _truncate(examples, cutoff: int):
    """Left-truncate overlong prompts so the answer position survives."""
    return [Example(prompt=ex.prompt[-cutoff:], label=ex.label, choices=ex.choices)
            if len(ex.prompt) > cutoff else ex for ex in examples]


def _load_dataset(dataset: str, size: int, seed: int, cutoff: int) -> TaskData:
    if cutoff < 1:
        raise UsageError(f"cutoff_len must be at least 1, got {cutoff}")
    if dataset.startswith("jsonl:"):
        path = dataset[len("jsonl:"):]
        try:
            examples = _truncate(load_jsonl(path), cutoff)
        except OSError as err:
            raise UsageError(f"cannot read dataset {path}: {err}") from err
        return TaskData(name=f"jsonl:{path}", train=examples, eval=examples)
    if dataset in TASK_KINDS:
        task = generate_task(dataset, size, seed=seed)
        return TaskData(name=task.name, train=_truncate(task.train, cutoff),
                        eval=_truncate(task.eval, cutoff))
    raise UsageError(f"unknown dataset spec {dataset!r}: use a task kind "
                     f"{TASK_KINDS} or jsonl:PATH")


def cmd_params(args) -> int:
    dims_spec = args.dims
    if dims_spec in DIMS_PRESETS:
        dims = DIMS_PRESETS[dims_spec]
    else:
        values = _read_kv_config(dims_spec)
        try:
            dims = ModelDims(num_layers=int(values["num_layers"]),
                             d_model=int(values["d_model"]),
                             d_ffn=int(values["d_ffn"]), rank=int(values["rank"]))
        except KeyError as err:
            raise UsageError(f"dims file {dims_spec} missing key {err.args[0]!r}") from err
    plan = parse_alloc_spec(args.alloc, dims.num_layers, k=args.k)
    problems = validate(plan, dims)
    if problems:
        raise UsageError("invalid allocation: " + "; ".join(problems))
    print(f"trainable_params {trainable_param_count(plan, dims)}")
    print(f"total_experts {plan.total_experts}")
    return 0


def cmd_train(args) -> int:
    resolved, given, config, run = _resolve(args, TRAIN_DEFAULTS)
    if resolved["dataset"].startswith("jsonl:") and "data_size" in given:
        raise UsageError("data_size is not read with a jsonl: dataset: the file is the data")
    # a prompt over max_seq_len fails the forward: the default cutoff shrinks, a given one fails
    if "cutoff_len" not in given:
        resolved["cutoff_len"] = min(resolved["cutoff_len"], config.max_seq_len)
    elif resolved["cutoff_len"] > config.max_seq_len:
        raise UsageError(f"cutoff_len {resolved['cutoff_len']} exceeds max_seq_len "
                         f"{config.max_seq_len}")
    task = _load_dataset(resolved["dataset"], resolved["data_size"], config.seed,
                         resolved["cutoff_len"])
    check_vocab(task.all_examples, config.vocab_size)
    model = AdaptedModel.build(config)  # its own checks fire before anything is written
    run_dir = _run_dir(resolved)
    try:
        with open(run_dir / "metrics.csv", "a", encoding="utf-8") as log:
            train_acc, eval_acc = fit(model, task, run, log)
    except TrainingDiverged as err:
        print(f"training halted: {err}", file=sys.stderr)
        save(model, run_dir / "model.ckpt")
        return 2
    save(model, run_dir / "model.ckpt")
    summary = {"train_accuracy": train_acc, "eval_accuracy": eval_acc,
               "steps_taken": model.step}
    with atomic_write(run_dir / "summary.json") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"run_dir {run_dir}")
    print(f"train_accuracy {train_acc!r}")
    print(f"eval_accuracy {eval_acc!r}")
    return 0


def _continual_eval_pool(domain: TaskData, split: str):
    return {"train": domain.train, "all": domain.all_examples}.get(split, domain.eval)


def cmd_continual(args) -> int:
    resolved, _, config, run = _resolve(args, CONTINUAL_DEFAULTS)
    domains = generate_domain_sequence(resolved["domains"], resolved["domain_size"],
                                       seed=config.seed)
    if resolved["identical_domains"]:
        # null test: every stage revisits the first domain, so no shift occurs
        domains = [TaskData(name=f"stage{k}", train=domains[0].train,
                            eval=domains[0].eval) for k in range(len(domains))]
    for domain in domains:
        check_vocab(domain.all_examples, config.vocab_size)
    model = AdaptedModel.build(config)
    run_dir = _run_dir(resolved)
    t = len(domains)
    values = np.full((t, t), np.nan)
    names = tuple(d.name for d in domains)
    matrix_path = run_dir / "matrix.csv"
    split = resolved["eval_split"]
    with open(run_dir / "metrics.csv", "a", encoding="utf-8") as log:
        for stage, domain in enumerate(domains):
            try:
                current = fit(model, domain, run, log, tag=domain.name)
            except TrainingDiverged as err:
                AccuracyMatrix(values, names).to_csv(matrix_path)  # keep rows so far
                print(f"continual run halted in {domain.name}: {err}", file=sys.stderr)
                return 2
            for i in range(stage + 1):
                if i == stage and split != "all":
                    # fit measured this pool on these weights
                    values[stage, i] = current[0 if split == "train" else 1]
                else:
                    values[stage, i] = evaluate(model, _continual_eval_pool(domains[i], split))
            AccuracyMatrix(values, names).to_csv(matrix_path)
    matrix = AccuracyMatrix(values, names)
    report = build_report(model=model, matrix=matrix)
    emit_report(report, "json", run_dir / "report.json")
    save(model, run_dir / "model.ckpt")
    op = report["metrics"]["overall_performance"]
    pd = report["metrics"]["performance_drop"]
    print(f"run_dir {run_dir}")
    print(f"overall_performance {op!r}")
    print(f"performance_drop {pd!r}")
    return 0


def cmd_analyze(args) -> int:
    if not args.checkpoint and not args.matrix:
        raise UsageError("analyze needs --checkpoint and/or --matrix")
    if args.dataset is not None and not args.checkpoint:
        raise UsageError("--dataset needs --checkpoint: it picks the prompts the model gates")
    if args.seed is not None and (args.dataset or "jsonl:").startswith("jsonl:"):
        raise UsageError("--seed needs --dataset of a task kind: it seeds the generated prompts")
    if args.format == "csv" and not args.out:
        raise UsageError("csv output needs --out PATH")
    model = examples = matrix = None
    if args.checkpoint:
        ckpt = Path(args.checkpoint)
        if not ckpt.exists():
            raise UsageError(f"checkpoint not found: {ckpt}")
        model = load(ckpt)
        if args.dataset is not None:
            # prompts are cut as a run with this max_seq_len cut them
            examples = _load_dataset(
                args.dataset, TRAIN_DEFAULTS["data_size"],
                args.seed if args.seed is not None else model.config.seed,
                min(TRAIN_DEFAULTS["cutoff_len"], model.config.max_seq_len)).all_examples
    if args.matrix:
        if not Path(args.matrix).exists():
            raise UsageError(f"matrix file not found: {args.matrix}")
        matrix = AccuracyMatrix.from_csv(args.matrix)
    report = build_report(model=model, examples=examples, matrix=matrix)
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"report {args.out}")
    else:
        sys.stdout.write(dumps_report(report))
    return 0


def _add_run_flags(parser: Parser, defaults: dict) -> None:
    """One flag per settings key: `--` plus the key with `-` for `_`."""
    parser.add_argument("--config", help="flat key=value config file")
    for key in [*defaults, "seed", "out"]:
        flag = "--" + key.replace("_", "-")
        kind = _TYPES[key]
        if kind is bool:
            parser.add_argument(flag, dest=key, action="store_const", const=True,
                                help=_HELP.get(key))
        else:
            parser.add_argument(flag, dest=key, type=kind, choices=_CHOICES.get(key),
                                help=_HELP.get(key))


def build_parser() -> Parser:
    parser = Parser(prog="mole", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="trainable-parameter accounting")
    p_params.add_argument("--dims", required=True,
                          help=f"dims preset {sorted(DIMS_PRESETS)} or a key=value file")
    p_params.add_argument("--alloc", required=True)
    p_params.add_argument("--k", type=int, default=2)
    p_params.set_defaults(fn=cmd_params)

    p_train = sub.add_parser("train", help="train on one dataset")
    _add_run_flags(p_train, TRAIN_DEFAULTS)
    p_train.set_defaults(fn=cmd_train)

    p_cont = sub.add_parser("continual", help="sequential multi-domain fine-tuning")
    _add_run_flags(p_cont, CONTINUAL_DEFAULTS)
    p_cont.set_defaults(fn=cmd_continual)

    p_an = sub.add_parser("analyze", help="redundancy / router stats / matrix metrics")
    p_an.add_argument("--checkpoint")
    p_an.add_argument("--dataset")
    p_an.add_argument("--matrix", help="accuracy-matrix CSV to score")
    p_an.add_argument("--format", choices=("csv", "json"), default="json")
    p_an.add_argument("--out")
    p_an.add_argument("--seed", type=int)
    p_an.set_defaults(fn=cmd_analyze)
    return parser


# glibc's mallopt parameter that sets how much freed memory at the top of the
# heap stays mapped (and how much more each heap growth asks for)
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


def _keep_heap_resident() -> None:
    """Keep 64 MiB of freed heap mapped, on glibc; elsewhere do nothing.

    Inference frees and reallocates arrays of about 1 MB op after op. By
    default glibc hands each one back to the kernel and the next op faults
    its pages in again: about 12k minor faults per analysis pass at
    counts=2,2,2,2, against about 10 with the pad. Only the CLI asks for this;
    importing mole leaves the process's malloc as it is."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _keep_heap_resident()
        return args.fn(args)
    except (TrainingDiverged, CheckpointError, NonFiniteError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
