"""Trading altitude for anchor count.

Compares a single high triangle (3 anchors at 1000 m) against growing
constellations of low anchors (triangles of 50 m anchors, sides 100 m,
120 m, 140 m, ...). The probe is the standard ring of eight nodes at 650 m.

Two readings of "error" diverge here. The position error improves steadily
with more anchors: more range constraints, better geometry. The range-error
norm xi grows instead, because it stacks one error term per anchor and the
50 m links are individually much noisier than the 1000 m ones.

Equivalent CLI run:

    uavloc count-sweep --out count.csv --seed 0
"""

from dataclasses import replace

import uavloc as u


def main():
    high = u.default_config(variable="anchor_count", trials=30, seed=0,
                            sweep=u.SweepSpec("anchor_count", (3.0,)))
    ref = u.run_sweep(high)
    print(f"reference: 3 anchors at 1000 m -> mean xi {ref.mean_error[0]:.0f} m, "
          f"mean position error {ref.mean_position_error[0]:.0f} m")

    low = u.default_config(variable="anchor_count", trials=30, seed=0,
                           sweep=u.SweepSpec("anchor_count",
                                             tuple(float(n) for n
                                                   in range(3, 25, 3))))
    low = replace(low, constellation=replace(low.constellation, altitude=50.0))
    res = u.run_sweep(low)

    print("\nlow constellation (50 m altitude):")
    print("  N anchors   mean xi (m)   mean position err (m)")
    for i, n in enumerate(res.sweep_values):
        print(f"  {int(n):9d}   {res.mean_error[i]:11.0f}   "
              f"{res.mean_position_error[i]:15.0f}")

    print("\nEvery 50 m link is nearly grazing, so each added anchor adds a "
          "large range\nerror to xi while still (slowly) helping the position "
          "fix. No practical\nnumber of street-level anchors matches the "
          "high triangle on either metric.")


if __name__ == "__main__":
    main()
