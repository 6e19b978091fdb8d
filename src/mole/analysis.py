"""Expert-redundancy, router-utilization, and continual-learning metrics.

Redundancy of a layer is the mean pairwise Frobenius distance between its
experts' effective update matrices; near-zero means the experts are
interchangeable. Router statistics summarize how often each expert fires and
with what fusion weight. The continual-learning metrics reduce a stage-by-
domain accuracy matrix to an overall-performance score (mean accuracy over
all domains after the final stage) and a performance-drop score (mean
stage-to-stage change on previously learned domains; negative = forgetting).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .adapters import ADAPTED_TAGS, AdaptedLinear
from .checkpoint import atomic_write
from .model import INFERENCE_ROWS, AdaptedModel, length_batches

ATTENTION_TAGS = ("q", "k", "v", "o")


# -- accuracy matrix and continual-learning metrics ---------------------------


@dataclass
class AccuracyMatrix:
    """Stage-by-domain accuracies: entry [k, i] is accuracy on domain i after
    training through domain k. Entries are fractions in [0, 1]; NaN marks
    not-yet-measured cells (stages evaluate only domains seen so far)."""

    values: np.ndarray
    domains: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        t = len(self.domains)
        if self.values.shape != (t, t):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match {t} domains")
        finite = self.values[np.isfinite(self.values)]
        if finite.size and (finite.min() < 0.0 or finite.max() > 1.0):
            raise ValueError("accuracies must lie in [0, 1] after normalization")

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @classmethod
    def from_rows(cls, rows, domains=None) -> "AccuracyMatrix":
        """Build from nested lists; None marks absent cells. Values above 1
        are read as percentages and divided by 100 (with a warning)."""
        t = len(rows)
        values = np.full((t, t), np.nan)
        for k, row in enumerate(rows):
            if len(row) > t:
                raise ValueError(f"row {k} has {len(row)} entries for {t} domains")
            for i, v in enumerate(row):
                if v is not None:
                    values[k, i] = float(v)
        finite = values[np.isfinite(values)]
        if finite.size and finite.max() > 1.0:
            warnings.warn("accuracy values above 1 interpreted as percent; dividing by 100",
                          stacklevel=2)
            values /= 100.0
        names = tuple(domains) if domains else tuple(f"domain{i}" for i in range(t))
        return cls(values=values, domains=names)

    @classmethod
    def from_csv(cls, path) -> "AccuracyMatrix":
        """Read a matrix CSV: header row of domain names, then one row per
        training stage (blank cells for not-yet-measured domains)."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty accuracy matrix") from None
            rows = [[float(cell) if cell.strip() else None for cell in row]
                    for row in reader if row]
        if len(rows) != len(header):
            raise ValueError(
                f"{path}: {len(rows)} data rows for {len(header)} domains")
        return cls.from_rows(rows, domains=header)

    def to_csv(self, path) -> None:
        with atomic_write(path, encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.domains)
            for row in self.values:
                writer.writerow(["" if not np.isfinite(v) else repr(float(v))
                                 for v in row])


def overall_performance(matrix: AccuracyMatrix) -> float:
    """Mean accuracy over every domain after the final training stage."""
    if matrix.num_domains == 0:
        raise ValueError("empty accuracy matrix")
    final = matrix.values[-1]
    if not np.isfinite(final).all():
        raise ValueError("final stage row is incomplete")
    return float(final.mean())


def performance_drop(matrix: AccuracyMatrix) -> float:
    """Mean stage-over-stage accuracy change on previously learned domains.

    Averages (R[k, i] - R[k-1, i]) over all stages k >= 2 and domains i < k,
    normalized by t(t-1)/2. Negative values indicate forgetting.
    """
    t = matrix.num_domains
    if t < 2:
        raise ValueError(f"performance drop needs at least 2 domains, got {t}")
    total = 0.0
    for k in range(1, t):
        for i in range(k):
            delta = matrix.values[k, i] - matrix.values[k - 1, i]
            if not np.isfinite(delta):
                raise ValueError(f"missing entry at stage {k}, domain {i}")
            total += float(delta)
    return total / (t * (t - 1) / 2)


# -- expert redundancy ---------------------------------------------------------


@dataclass
class LayerRedundancy:
    """Mean pairwise expert distance for one layer.

    `value` averages the four attention matrices and is None when the layer
    has fewer than two experts (reported as absent, never as zero). The
    per-matrix breakdown also covers the MLP matrices.
    """

    layer: int
    num_experts: int
    value: float | None
    per_matrix: dict[str, float | None] = field(default_factory=dict)


def mean_pairwise_distance(layer: AdaptedLinear) -> float | None:
    """Mean Frobenius distance over unordered expert pairs; None below 2 experts."""
    if len(layer.experts) < 2:
        return None
    pairs = list(combinations([e.effective_delta() for e in layer.experts], 2))
    return sum(float(np.linalg.norm(a - b)) for a, b in pairs) / len(pairs)


def redundancy(model: AdaptedModel, layer_index: int) -> LayerRedundancy:
    """Expert-similarity measurement for one layer.

    The headline value averages the q, k, v, o matrices; layers with fewer
    than two experts yield an "insufficient experts" result (value None).
    """
    block = model.blocks[layer_index]
    per_matrix = {tag: mean_pairwise_distance(block.adapted[tag])
                  for tag in ADAPTED_TAGS}
    attention = [per_matrix[tag] for tag in ATTENTION_TAGS]
    value = None if any(v is None for v in attention) else float(np.mean(attention))
    return LayerRedundancy(layer=layer_index,
                           num_experts=len(block.adapted["q"].experts),
                           value=value, per_matrix=per_matrix)


def redundancy_report(model: AdaptedModel) -> list[LayerRedundancy]:
    return [redundancy(model, j) for j in range(model.config.num_layers)]


# -- router utilization --------------------------------------------------------


@dataclass
class RouterUsage:
    """Selection counts and fusion weights for one router over a corpus."""

    layer: int
    tag: str
    tokens: int
    selection_counts: list[int]
    weight_sums: list[float]

    @property
    def mean_selected_weight(self) -> list[float | None]:
        return [s / c if c else None
                for s, c in zip(self.weight_sums, self.selection_counts)]


def router_stats(model: AdaptedModel, examples) -> list[RouterUsage]:
    """Stream a dataset through the model in eval mode and aggregate, per
    router in model order, how often each expert is selected and its mean
    fusion weight, from each gate's :meth:`~mole.adapters.GateBatch.tally`.

    Passes of the block trunk over at most `INFERENCE_ROWS` rows of one prompt
    length, recording no graph (`record=False`) and skipping the final norm and
    head, whose logits it would not read, so each pass's gates are all it keeps."""
    examples = list(examples)
    if not examples:
        raise ValueError("router_stats needs a non-empty dataset")
    usage = {(j, tag): RouterUsage(layer=j, tag=tag, tokens=0,
                                   selection_counts=[0] * layer.router.num_experts,
                                   weight_sums=[0.0] * layer.router.num_experts)
             for j, block in enumerate(model.blocks) for tag, layer in block.adapted.items()}
    for _, ids in length_batches(examples, INFERENCE_ROWS):
        _, gates = model.trunk(ids, record=False)
        for key, gate in gates.items():
            entry = usage[key]
            counts, sums = gate.tally()
            entry.tokens += len(gate.selected)
            entry.selection_counts = [c + int(n) for c, n in zip(entry.selection_counts, counts)]
            entry.weight_sums = [s + float(w) for s, w in zip(entry.weight_sums, sums)]
    return list(usage.values())


# -- report emission -----------------------------------------------------------


def build_report(model: AdaptedModel | None = None, examples=None,
                 matrix: AccuracyMatrix | None = None) -> dict:
    """Assemble the analysis sections that apply to the given inputs."""
    report: dict = {}
    if model is not None:
        report["config"] = model.config.to_dict()
        report["redundancy"] = [
            {"layer": r.layer, "num_experts": r.num_experts, "value": r.value,
             "per_matrix": r.per_matrix}
            for r in redundancy_report(model)]
        if examples is not None:
            report["router_stats"] = [
                {"layer": u.layer, "tag": u.tag, "tokens": u.tokens,
                 "selection_counts": u.selection_counts,
                 "mean_selected_weight": u.mean_selected_weight}
                for u in router_stats(model, examples)]
    if matrix is not None:
        report["accuracy_matrix"] = {
            "domains": list(matrix.domains),
            "rows": [[None if not np.isfinite(v) else float(v) for v in row]
                     for row in matrix.values],
        }
        report["metrics"] = {"overall_performance": overall_performance(matrix),
                             "performance_drop": performance_drop(matrix)}
    return report


def dumps_report(report: dict) -> str:
    """Canonical JSON text: parse -> dumps reproduces the same bytes."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit_report(report: dict, fmt: str, path) -> None:
    """Write a report as canonical JSON or as stable-ordered CSV sections,
    atomically (:func:`~mole.checkpoint.atomic_write`)."""
    if fmt == "json":
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write(dumps_report(report))
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}; expected csv or json")
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        first = True
        if "config" in report:
            first = _section_gap(fh, first)
            writer.writerow(["section", "key", "value"])
            for key in sorted(report["config"]):
                writer.writerow(["config", key, json.dumps(report["config"][key],
                                                           sort_keys=True)])
        if "redundancy" in report:
            first = _section_gap(fh, first)
            writer.writerow(["layer", "num_experts", "value"] + list(ADAPTED_TAGS))
            for row in report["redundancy"]:
                writer.writerow([row["layer"], row["num_experts"],
                                 _cell(row["value"])]
                                + [_cell(row["per_matrix"][t]) for t in ADAPTED_TAGS])
        if "router_stats" in report:
            first = _section_gap(fh, first)
            writer.writerow(["layer", "tag", "expert", "selection_count",
                             "mean_selected_weight"])
            for entry in report["router_stats"]:
                for i, (count, weight) in enumerate(zip(entry["selection_counts"],
                                                        entry["mean_selected_weight"])):
                    writer.writerow([entry["layer"], entry["tag"], i, count, _cell(weight)])
        if "metrics" in report:
            first = _section_gap(fh, first)
            writer.writerow(["overall_performance", "performance_drop"])
            writer.writerow([_cell(report["metrics"]["overall_performance"]),
                             _cell(report["metrics"]["performance_drop"])])


def _section_gap(fh, first: bool) -> bool:
    if not first:
        fh.write("\n")
    return False


def _cell(value) -> str:
    return "" if value is None else repr(float(value))
