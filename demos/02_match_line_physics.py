# The analog match: why a stored range behaves like a box function.
#
# One cell holds two memristor conductances. Each sits in a voltage
# divider against a transistor driven by the data line; the divider
# node steers a discharge transistor hanging on the match line. The
# lower-bound side conducts when the input voltage is BELOW the stored
# edge, the upper-bound side (through a small inverter) when it is
# ABOVE. Inside the range both sides are cut off, the pre-charged match
# line keeps its voltage, and the sense amp reads a match.

import numpy as np

from camforest.cell import (
    CellParams, Parasitics, lower_branch_current, upper_branch_current,
    ml_voltage_at,
)
from camforest.device import (
    DeviceModel, ThresholdRange, build_calibration, encode_range,
    feature_to_voltage, reference_current,
)

params = CellParams()
device = DeviceModel()
par = Parasitics()

t_clk = 1e-6
v_ml0, v_sa = 0.8, 0.4
c_ml = par.ml_capacitance(16)
i_ref = reference_current(c_ml, v_ml0, v_sa, t_clk)
print(f"ML capacitance (16 cells): {c_ml * 1e15:.2f} fF")
print(f"reference current (discharge to the sense threshold in one clock): "
      f"{i_ref * 1e9:.2f} nA")

# Store the range [0.35, 0.65] of a feature spanning [0, 1].
cal = build_calibration(params, device, i_ref)
bounds = (0.0, 1.0)
pair = encode_range(ThresholdRange(0.35, 0.65), bounds, device, cal)
print(f"\nprogrammed conductances: g_m1 = {pair.g_m1 * 1e6:.2f} uS, "
      f"g_m2 = {pair.g_m2 * 1e6:.2f} uS")

# Sweep the input across the feature span and look at both branch
# currents and the final ML voltage. The currents are compared against
# i_ref: a branch above it discharges the line past the threshold.
print(f"\n input   v_dl    i_lower    i_upper    v_ml(t_clk)  match")
for x in np.linspace(0.0, 1.0, 21):
    v_dl = feature_to_voltage(x, bounds)
    i_lo = float(lower_branch_current(v_dl, pair.g_m1, params))
    i_hi = float(upper_branch_current(v_dl, pair.g_m2, params))
    v_ml = float(ml_voltage_at(np.array([pair.g_m1]), np.array([pair.g_m2]),
                               np.array([v_dl]), t_clk, v_ml0, c_ml, params))
    verdict = "MATCH" if v_ml > v_sa else "  -  "
    bar = "#" * int(v_ml * 40)
    print(f"  {x:4.2f}  {v_dl:.4f}  {i_lo:9.2e}  {i_hi:9.2e}   {v_ml:6.3f} {verdict} {bar}")

# Note the sharpness: a couple of millivolts outside the stored edge the
# discharge current is orders of magnitude above i_ref, and inside the
# range both branches carry exactly zero. That cliff is what lets the
# behavioral simulator reproduce software predictions bit for bit.
#
# Look closely at the two edges: ranges are half-open, (lo, hi]. The
# calibration places each edge so that an input AT the stored bound
# draws the reference current give or take a relative margin of 1e-9:
# a hair more on the lower side, which leaves the line just below the
# sense threshold (a mismatch), a hair less on the upper side, which
# leaves it just above (a match).
