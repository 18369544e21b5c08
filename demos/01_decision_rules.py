"""Fixed decision rules over a panel of correlated synthetic classifiers.

Generates three classifiers with known accuracies, applies each combination
rule, and prints the resulting test accuracies side by side.  With only two
models all rules except majority vote coincide; differences appear from
three models up.
"""

import numpy as np

from predfuse import accuracy, apply_rule, estimate_error_correlation, generate
from predfuse.synth import SyntheticSpec

spec = SyntheticSpec(k=3, target_acc=(0.85, 0.88, 0.91), rho=0.3,
                     n=20_000, seed=42)
labels, matrix = generate(spec)

print("individual models:")
for name, target in zip(matrix.model_names, spec.target_acc):
    acc = accuracy(matrix.column(name), labels)
    print(f"  {name}: target {target:.2f}, empirical {acc:.4f}")

print("\npairwise error correlation (rho = 0.3):")
print(np.round(estimate_error_correlation(matrix, labels), 3))

print("\ncombination rules over all three models:")
for rule in ("sum", "avg", "max", "maj"):
    scores = apply_rule(rule, matrix)
    print(f"  {rule}: {accuracy(scores, labels):.4f}")

# restricted to two models, sum/avg/max give identical decisions
print("\ntwo-model subset (M1, M3):")
for rule in ("sum", "avg", "max"):
    scores = apply_rule(rule, matrix.select(["M1", "M3"]))
    print(f"  {rule}: {accuracy(scores, labels):.4f}")
