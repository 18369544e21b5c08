"""predfuse: combine probability outputs of binary classifiers.

Three combiner families over K per-model class-1 probabilities:

* a trained weighted combiner (non-negative weights, shift, sigmoid),
* fixed decision rules (sum, average, max, majority vote),
* a base-plus-fallback hybrid gated by a confidence threshold,

plus an interval diagnostic for the trained weight sum, a calibrated
synthetic suite generator, a cross-validation harness, and CSV/JSON file
formats with a CLI (``predfuse --help``).
"""

from .bounds import BoundReport, weight_sum, weight_sum_bounds
from .combiner import (CombinerWeights, TrainConfig, TrainResult, gradient,
                       loss, predict, train, train_runs)
from .core import (LabelVector, PredictionMatrix, ProbSeries, accuracy,
                   harden, sigmoid, thresholded_distance, thresholded_norm)
from .errors import (AlignmentError, ConstraintError, DegenerateWeightsError,
                     PredfuseError, ValidationError)
from .evaluate import (EvalReport, HybridMethod, NNMethod, RuleMethod,
                       RunPlan, RunRecord, cross_validate, derive_seed,
                       kfold_split, mean_stdev, report_render)
from .hybrid import (HybridConfig, HybridPrediction, SweepResult,
                     default_theta_grid, hybrid_predict, theta_sweep)
from .rules import RULE_KINDS, apply_rule
from .synth import (SyntheticSpec, estimate_error_correlation, generate,
                    inv_norm_cdf)

import types as _types

__version__ = "0.1.0"

__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_")
                 and not isinstance(obj, _types.ModuleType))
