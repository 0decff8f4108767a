"""surropt: surrogate-based derivative-free optimization toolkit.

Gaussian-process Bayesian optimization, linear and quadratic trust-region
methods, RBF dynamic-coordinate search, synthetic and chemical-engineering
benchmark problems, and a reproducible benchmarking harness with normalized
relative scores.
"""

__version__ = "0.1.0"  # before the imports: bench records it in each manifest

from .core import (
    Bounds,
    BudgetExhausted,
    ConfigError,
    Dataset,
    EvaluationFailed,
    NoiseSpec,
    Problem,
    Trajectory,
    best_so_far,
    derive_seed,
    evaluate,
    latin_hypercube,
    substream,
)
from .optimizers import (
    ALGORITHMS,
    DycorsState,
    TrustRegionState,
    run_optimizer,
)
from .problems import get_problem, list_problems
from .bench import (
    BenchmarkConfig,
    ScoreTable,
    count_violations,
    run_benchmark,
    score_p,
    score_r,
    score_results,
)
