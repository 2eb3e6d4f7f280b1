"""Multi-channel GCN fusing topology-space and feature-space representations."""

from .graphs import (
    Graph,
    degree_stats,
    homophily_ratio,
    knn_feature_graph,
    normalized_adjacency,
)
from .autodiff import Tape, TensorNode, backward, finite_diff_check
from .losses import LossWeights, closeness_loss, disparity_loss, classification_loss, total_loss
from .model import ForwardState, forward_full, gcn_baseline_forward, init_params
from .training import (
    RunTrace,
    Split,
    TrainConfig,
    adam_step,
    attention_norm_trace,
    evaluate,
    make_split,
    model_gradient_check,
    train,
    train_baseline,
)
from .heterophily import (
    SweepPlan,
    SynthSpec,
    generate_synthetic,
    heterophily_sweep,
    inject_heterophilous_edges,
    make_sweep_plan,
    required_edges,
)
from .dataio import DatasetError, emit_trace, load_dataset, parse_config, save_dataset

__version__ = "0.1.0"
