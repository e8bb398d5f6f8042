"""RBM logic circuits: merge small Boltzmann machines into invertible ones.

Binary arithmetic units (gates, adders, multipliers) are realized as
restricted Boltzmann machines whose low-energy states are exactly the
valid rows of the unit's truth table.  Merging models by summing shared
visible units composes circuits whose joint distribution still
concentrates on valid assignments, so the same model runs forward
(multiply) or backward (divide, factor) depending on which terminals the
Gibbs sampler clamps.

``RBMLOGIC_THREADS``, when it is a positive integer, fills in any unset
BLAS thread-count variable here, before the first import below loads
numpy: BLAS reads them once, at load.  Any other value is left out; the
CLI refuses it.
"""

import os


def _is_thread_count(value: str | None) -> bool:
    """Whether ``value`` is a positive integer in decimal digits."""
    return value is not None and value.isascii() and value.isdigit() and int(value) > 0


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if _is_thread_count(os.environ.get("RBMLOGIC_THREADS")):
    for _var in _BLAS_THREAD_VARS:
        os.environ.setdefault(_var, os.environ["RBMLOGIC_THREADS"])

from .model import (
    BinaryState,
    Rbm,
    energy,
    free_energy,
    free_energy_batch,
)
from .merge import MergedModel, Netlist, compose, merge_pair
from .synthesis import (
    DEFAULT_SHARPNESS,
    TruthTable,
    adder_table,
    build_adder,
    build_multiplier,
    builtin_model,
    full_adder_netlist,
    gate,
    multiplier_table,
    rbm_from_truth_table,
)
from .exact import (
    ExactDistribution,
    convergence_bound,
    delta_bound,
    delta_exact,
    exact_joint_distribution,
    exact_visible_distribution,
    gibbs_transition_matrix,
    kl_divergence,
    l1_distance,
    propagate_distribution,
    tv_distance,
)
from .sampler import (
    ChainTrace,
    Histogram,
    autocorrelation,
    integrated_autocorrelation_time,
    mode_estimate,
    multistart,
    run_chain,
)
from .training import TrainConfig, cd_step, evaluate_accuracy, generate_dataset, train
from .tasks import (
    SolveResult,
    SolveSettings,
    TaskSpec,
    decode_int,
    encode_int,
    random_task,
    solve,
    success_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryState", "Rbm", "energy", "free_energy", "free_energy_batch",
    "MergedModel", "Netlist", "compose", "merge_pair",
    "DEFAULT_SHARPNESS", "TruthTable", "adder_table", "build_adder",
    "build_multiplier", "builtin_model", "full_adder_netlist", "gate",
    "multiplier_table", "rbm_from_truth_table",
    "ExactDistribution", "convergence_bound", "delta_bound", "delta_exact",
    "exact_joint_distribution", "exact_visible_distribution",
    "gibbs_transition_matrix", "kl_divergence", "l1_distance",
    "propagate_distribution", "tv_distance",
    "ChainTrace", "Histogram", "autocorrelation", "integrated_autocorrelation_time",
    "mode_estimate", "multistart", "run_chain",
    "TrainConfig", "cd_step", "evaluate_accuracy", "generate_dataset", "train",
    "SolveResult", "SolveSettings", "TaskSpec", "decode_int", "encode_int",
    "random_task", "solve", "success_curve",
]
