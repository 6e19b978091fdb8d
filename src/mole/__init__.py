"""mole: a mixture-of-LoRA-experts toolkit with layer-wise expert allocation.

Desk-scale and fully testable: a frozen toy decoder transformer whose seven
linear matrices per layer carry routed low-rank adapter experts, allocation
plans with exact trainable-parameter accounting, training and continual-
learning harnesses, and expert-redundancy / router-utilization / forgetting
analyses.
"""

from .adapters import AdaptedLinear, GateBatch, LoraExpert, Router, balance_loss_tensor
from .allocation import (
    AllocationPlan,
    ModelDims,
    parse_alloc_spec,
    plan_from_shape,
    trainable_param_count,
    validate,
)
from .analysis import (
    AccuracyMatrix,
    overall_performance,
    performance_drop,
    redundancy,
    redundancy_report,
    router_stats,
)
from .checkpoint import load, save
from .model import (
    AdamW,
    AdaptedModel,
    RunConfig,
    ToyTransformerConfig,
    TrainingDiverged,
    evaluate,
    fit,
    train_step,
)
from .tasks import Example, TaskData, generate_domain_sequence, generate_task, load_jsonl
from .tensor import Rng, Tensor, grad_check

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix", "AdamW", "AdaptedLinear", "AdaptedModel", "AllocationPlan",
    "Example", "GateBatch", "LoraExpert", "ModelDims", "Rng", "Router", "RunConfig",
    "TaskData", "Tensor", "ToyTransformerConfig", "TrainingDiverged",
    "balance_loss_tensor", "evaluate", "fit", "generate_domain_sequence",
    "generate_task", "grad_check", "load", "load_jsonl",
    "overall_performance", "parse_alloc_spec", "performance_drop",
    "plan_from_shape", "redundancy", "redundancy_report", "router_stats",
    "save", "trainable_param_count", "train_step", "validate",
]
