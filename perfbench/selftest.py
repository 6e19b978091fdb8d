#!/usr/bin/env python3
"""Shows that each benchmark check accepts a right result and rejects a
deliberately wrong one. Run from the repository root:

    python3 perfbench/selftest.py

It prints one line per case and exits 1 if any check let a wrong result pass
or rejected a right one.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import mole  # noqa: E402
from checks import CheckFailed  # noqa: E402


def small_model(seed: int = 5, drawn: bool = True):
    config = mole.ToyTransformerConfig(num_layers=4, d_model=16, d_ffn=24, num_heads=2,
                                       max_seq_len=16, rank=2,
                                       allocation=mole.AllocationPlan((2, 2, 4, 4), k=2),
                                       seed=seed)
    model = mole.AdaptedModel.build(config)
    if drawn:
        draw = np.random.default_rng(seed)
        for name, p in model.trainable_parameters().items():
            p.data[...] = draw.normal(0.0, 0.5 if name.endswith("router") else 0.2, p.shape)
    return model


def corpus(seed: int = 5):
    return (mole.generate_task("copy", 20, seed=seed).all_examples
            + mole.generate_task("modular_add", 12, seed=seed).all_examples)


def nudge(array: np.ndarray) -> None:
    """Move one entry to the next representable float."""
    array.flat[0] = np.nextafter(array.flat[0], np.inf)


CASES = []


def case(fn):
    CASES.append(fn)
    return fn


@case
def reference_forward_catches_perturbed_expert(expect):
    model, data = small_model(), corpus()
    ref = checks.reference_pass(model, data)
    expect.passes(lambda: checks.check_program_logits(model, data, ref))
    model.blocks[3].adapted["down"].experts[2].in_factor.data[0, 0] += 1e-6
    expect.fails(lambda: checks.check_program_logits(model, data, ref))


@case
def accuracy_off_by_one_example(expect):
    model, data = small_model(), corpus()
    ref = checks.reference_pass(model, data)
    acc = mole.evaluate(model, data)
    rows = checks.single_example_rows(model, data)
    expect.passes(lambda: checks.check_accuracy(acc, data, ref.last_logits, "reference"))
    expect.passes(lambda: checks.check_accuracy(acc, data, rows, "single"))
    off = acc + 1 / len(data) if acc < 1 else acc - 1 / len(data)
    expect.fails(lambda: checks.check_accuracy(off, data, ref.last_logits, "reference"))
    expect.fails(lambda: checks.check_accuracy(off, data, rows, "single"))


@case
def router_count_with_one_extra_token(expect):
    model, data = small_model(), corpus()
    ref = checks.reference_pass(model, data)
    usages = mole.router_stats(model, data)
    expect.passes(lambda: checks.check_router_stats(usages, data, model, ref))
    usages[5].selection_counts[1] += 1
    expect.fails(lambda: checks.check_router_stats(usages, data, model, ref))
    usages[5].selection_counts[1] -= 1
    usages[9].tokens += 1
    expect.fails(lambda: checks.check_router_stats(usages, data, model, ref))
    usages[9].tokens -= 1
    moved = usages[12].selection_counts
    moved[0], moved[-1] = moved[0] + 1, moved[-1] - 1      # same total, wrong expert
    expect.fails(lambda: checks.check_router_stats(usages, data, model, ref))


@case
def redundancy_value_off_the_oracle(expect):
    model = small_model()
    report = mole.redundancy_report(model)
    expect.passes(lambda: checks.check_redundancy(report, model))
    report[2].per_matrix["up"] *= 1 + 1e-6
    expect.fails(lambda: checks.check_redundancy(report, model))
    report = mole.redundancy_report(model)
    report[3].value *= 1 + 1e-6
    expect.fails(lambda: checks.check_redundancy(report, model))


@case
def fresh_model_with_a_live_adapter(expect):
    data = corpus()
    expect.passes(lambda: checks.check_fresh_is_base(small_model(drawn=False), data))
    model = small_model(drawn=False)
    factor = model.blocks[0].adapted["q"].experts[0].in_factor.data
    factor[...] = np.random.default_rng(1).normal(0.0, 0.1, factor.shape)
    expect.fails(lambda: checks.check_fresh_is_base(model, data))


@case
def non_finite_loss(expect):
    good = [SimpleNamespace(total_loss=1.0, cross_entropy=0.9, aux_loss=1.0)] * 3
    expect.passes(lambda: checks.check_losses_finite(good))
    bad = good[:2] + [SimpleNamespace(total_loss=float("nan"), cross_entropy=0.9, aux_loss=1.0)]
    expect.fails(lambda: checks.check_losses_finite(bad))
    expect.fails(lambda: checks.check_losses_finite([]))


@case
def step_budget_not_met(expect):
    expect.passes(lambda: checks.check_step_count(100, 100, "round 0"))
    expect.fails(lambda: checks.check_step_count(99, 100, "round 0"))


@case
def accuracy_below_target(expect):
    expect.passes(lambda: checks.check_min_accuracy(0.95, 0.95, "train"))
    expect.fails(lambda: checks.check_min_accuracy(0.95 - 1e-12, 0.95, "train"))


@case
def frozen_weight_one_ulp_off(expect):
    model, fresh = small_model(), small_model(drawn=False)
    expect.passes(lambda: checks.check_frozen_equal(model, fresh))
    nudge(model.blocks[1].adapted["o"].frozen.data)
    expect.fails(lambda: checks.check_frozen_equal(model, fresh))


@case
def trainable_total_off_the_closed_form(expect):
    model = small_model()
    expect.passes(lambda: checks.check_trainable_total(model))
    model.config.allocation = mole.AllocationPlan((2, 2, 4, 5), k=2)
    expect.fails(lambda: checks.check_trainable_total(model))


@case
def reloaded_logits_one_ulp_off(expect):
    model, data = small_model(), corpus()
    twin = small_model()
    expect.passes(lambda: checks.check_reload_identical(model, twin, data))
    nudge(twin.blocks[2].adapted["gate"].experts[3].out_factor.data)
    expect.fails(lambda: checks.check_reload_identical(model, twin, data))


@case
def rounds_that_disagree(expect):
    expect.passes(lambda: checks.check_same([("a", 1), ("a", 1)], "hashes"))
    expect.fails(lambda: checks.check_same([("a", 1), ("a", 2)], "hashes"))


@case
def top_k_ties_go_to_the_lower_index(expect):
    probs = np.array([[0.1, 0.3, 0.3, 0.3], [0.4, 0.1, 0.4, 0.1]])

    def run():
        got = checks.top_k(probs, 2).tolist()
        checks.require(got == [[1, 2], [0, 2]], f"top_k gave {got}")
    expect.passes(run)


class Expect:
    def __init__(self):
        self.problems: list[str] = []

    def passes(self, fn) -> None:
        try:
            fn()
        except CheckFailed as err:
            self.problems.append(f"rejected a right result: {err}")

    def fails(self, fn) -> None:
        try:
            fn()
        except CheckFailed:
            return
        self.problems.append("accepted a wrong result")


def main() -> int:
    bad = 0
    for fn in CASES:
        expect = Expect()
        fn(expect)
        status = "ok" if not expect.problems else "FAIL: " + "; ".join(expect.problems)
        print(f"{fn.__name__:48s} {status}")
        bad += bool(expect.problems)
    print(f"{len(CASES) - bad}/{len(CASES)} self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
