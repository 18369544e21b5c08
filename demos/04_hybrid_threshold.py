"""Base-plus-fallback combining with a swept confidence threshold.

The best model answers alone while its confidence max(p, 1-p) stays at or
above theta; below that, a decision rule over the remaining models takes
over.  The sweep tunes theta on a training pool, then the tuned hybrid is
scored on a fresh pool.
"""

from predfuse import (HybridConfig, accuracy, generate, hybrid_predict,
                      theta_sweep)
from predfuse.synth import SyntheticSpec

suite = dict(k=4, target_acc=(0.88, 0.90, 0.93, 0.88), rho=0.3)
tune_labels, tune_matrix = generate(SyntheticSpec(n=5_000, seed=1, **suite))
test_labels, test_matrix = generate(SyntheticSpec(n=25_000, seed=1001, **suite))

base, aux = "M3", ("M1", "M2", "M4")
sweep = theta_sweep(base, aux, "max", tune_matrix, tune_labels)

print("theta sweep on the tuning pool (every 6th grid point):")
print("theta  accuracy  fallback_fraction")
for theta, acc, frac in sweep.rows[::6]:
    print(f"{theta:.2f}   {acc:.4f}    {frac:.3f}")
print(f"\nbest theta: {sweep.best_theta} "
      f"(tuning accuracy {sweep.best_accuracy:.4f})")

cfg = HybridConfig(base=base, aux=aux, rule="max", theta=sweep.best_theta)
pred = hybrid_predict(cfg, test_matrix)
print(f"\non the test pool: accuracy "
      f"{accuracy(pred.series, test_labels):.4f}, "
      f"fallback used on {pred.fallback_fraction:.1%} of samples")
print(f"pure base model:  accuracy "
      f"{accuracy(test_matrix.column(base), test_labels):.4f}")
