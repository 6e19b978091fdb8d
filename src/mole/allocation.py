"""Layer-wise expert allocation plans and trainable-parameter accounting.

A plan assigns an expert count to every transformer layer. The four named
shapes split the layers into four equal groups and give each group a count:
triangle puts more experts low, inverted_triangle more experts high, hourglass
more at both ends, rectangle the same everywhere. Counts are always stored
fully expanded per layer; a 4-digit group code like "2468" is parsing sugar.
"""

from __future__ import annotations

from dataclasses import dataclass

SHAPES = ("triangle", "inverted_triangle", "hourglass", "rectangle")

_SHAPE_ALIASES = {
    "triangle": "triangle", "tri": "triangle",
    "inverted_triangle": "inverted_triangle", "inverted": "inverted_triangle",
    "inv": "inverted_triangle",
    "hourglass": "hourglass", "hg": "hourglass",
    "rectangle": "rectangle", "rect": "rectangle", "square": "rectangle",
}


@dataclass(frozen=True)
class AllocationPlan:
    """Per-layer expert counts plus the router's top-K."""

    counts: tuple[int, ...]
    k: int = 2

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"top-K must be positive, got {self.k}")
        if any(not isinstance(n, int) or n < 0 for n in self.counts):
            raise ValueError(f"expert counts must be non-negative integers, got {self.counts}")

    @classmethod
    def default(cls, num_layers: int) -> "AllocationPlan":
        """The library's default plan: two experts in every layer, at the default K."""
        return cls((2,) * num_layers)

    @property
    def num_layers(self) -> int:
        return len(self.counts)

    @property
    def total_experts(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ModelDims:
    """Shape information needed for parameter accounting."""

    num_layers: int
    d_model: int
    d_ffn: int
    rank: int

    def __post_init__(self):
        if min(self.num_layers, self.d_model, self.d_ffn, self.rank) < 1:
            raise ValueError("all dimensions must be positive")
        bound = min(min(i, o) for _, i, o in self.adapted_matrices)
        if self.rank >= bound:
            raise ValueError(f"rank {self.rank} must be below the smallest matrix dim {bound}")

    @property
    def adapted_matrices(self) -> tuple[tuple[str, int, int], ...]:
        """(tag, in_dim, out_dim) of every matrix that receives experts: the
        four attention projections and the three MLP matrices."""
        d, f = self.d_model, self.d_ffn
        return (("q", d, d), ("k", d, d), ("v", d, d), ("o", d, d),
                ("gate", d, f), ("up", d, f), ("down", f, d))


def _shape_consistent(shape: str, groups: tuple[int, ...]) -> bool:
    a, b, c, d = groups
    if shape == "rectangle":
        return a == b == c == d
    if shape == "triangle":
        return a >= b >= c >= d and a > d
    if shape == "inverted_triangle":
        return a <= b <= c <= d and a < d
    if shape == "hourglass":
        return a >= b and d >= c and (a > b or d > c)
    raise ValueError(f"unknown shape {shape!r}")


def plan_from_shape(shape: str, group_values: tuple[int, int, int, int],
                    num_layers: int, k: int = AllocationPlan.k) -> AllocationPlan:
    """Expand a 4-group allocation over `num_layers` layers, lowest layer first.

    The layer count must divide into four equal groups; arbitrary per-layer
    counts remain available through an explicit AllocationPlan.
    """
    shape = _SHAPE_ALIASES.get(shape, shape)
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
    groups = tuple(int(g) for g in group_values)
    if len(groups) != 4:
        raise ValueError(f"expected 4 group values, got {len(groups)}")
    if num_layers % 4 != 0:
        raise ValueError(
            f"num_layers={num_layers} is not divisible into 4 equal groups; "
            "pass explicit per-layer counts instead")
    if any(g < k for g in groups):
        raise ValueError(f"every group value must be >= top-K ({k}), got {groups}")
    if not _shape_consistent(shape, groups):
        raise ValueError(f"group values {groups} do not follow the {shape} pattern")
    per_group = num_layers // 4
    counts = tuple(g for g in groups for _ in range(per_group))
    return AllocationPlan(counts=counts, k=k)


def trainable_param_count(plan: AllocationPlan, dims: ModelDims) -> int:
    """Exact trainable-parameter total: expert factor pairs plus router weights.

    Per layer j with n_j experts, each adapted matrix (in, out) contributes
    n_j * rank * (in + out) expert parameters and in * n_j router parameters.
    """
    total = 0
    for n in plan.counts:
        for _, in_dim, out_dim in dims.adapted_matrices:
            total += n * dims.rank * (in_dim + out_dim) + in_dim * n
    return total


def per_layer_param_slope(dims: ModelDims) -> int:
    """Parameters added by one more expert in one layer."""
    return sum(dims.rank * (i + o) + i for _, i, o in dims.adapted_matrices)


def validate(plan: AllocationPlan, dims: ModelDims) -> list[str]:
    """Collect every violation between a plan and model dims; empty means ok.

    The rank bound needs no check here: `ModelDims` already rejects it.
    """
    violations = []
    if plan.num_layers != dims.num_layers:
        violations.append(
            f"plan has {plan.num_layers} layers but model has {dims.num_layers}")
    for j, n in enumerate(plan.counts):
        if n < plan.k:
            violations.append(f"layer {j}: expert count {n} < top-K {plan.k}")
    return violations


def parse_alloc_spec(spec: str, num_layers: int, k: int = AllocationPlan.k) -> AllocationPlan:
    """Parse an allocation string from a CLI or config file.

    Accepted forms:
      "counts=1,1,3,3"            explicit per-layer counts
      "inverted:2468"             shape keyword + 4-digit group code
      "rect:5,5,5,5"              shape keyword + comma-separated groups
      "shape=inverted group=2468" key=value form
    """
    spec = spec.strip()
    if spec.startswith("counts="):
        counts = tuple(int(v) for v in spec[len("counts="):].split(","))
        if len(counts) != num_layers:
            raise ValueError(
                f"counts list has {len(counts)} entries for {num_layers} layers")
        return AllocationPlan(counts=counts, k=k)
    if "=" in spec and ":" not in spec:
        fields = dict(part.split("=", 1) for part in spec.split())
        if "shape" not in fields or "group" not in fields:
            raise ValueError(f"allocation spec {spec!r} needs shape= and group=")
        shape, group = fields["shape"], fields["group"]
    elif ":" in spec:
        shape, group = spec.split(":", 1)
    else:
        raise ValueError(f"cannot parse allocation spec {spec!r}")
    if "," in group:
        groups = tuple(int(v) for v in group.split(","))
    else:
        groups = tuple(int(ch) for ch in group)
    if len(groups) != 4:
        raise ValueError(f"group code must have 4 values, got {group!r}")
    return plan_from_shape(shape, groups, num_layers, k=k)
