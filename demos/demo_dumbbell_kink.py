"""The one-parameter dumbbell family and the kink in its first width.

Scaling one bell of the dumbbell by the family parameter t makes the
first width follow c*(1+|t|): the realizing equator jumps from one bell
to the other at t = 0, so the width has a corner there.  The script
tabulates width estimates against the model and reports the one-sided
slopes around the kink.
"""

import geonets as gn


def main():
    base = gn.Dumbbell()
    c = base.great_circle_length
    rows, sp, sm = gn.dumbbell_kink(base)
    print(f"bell equator length c = {c:.6f}\n")
    print(f"{'t':>6} {'width':>12} {'c(1+|t|)':>12} {'rel err':>10} realizer")
    for r in rows:
        print(f"{r['t']:6.2f} {r['upper_bound']:12.6f} {r['model']:12.6f} "
              f"{r['rel_error']:10.2e} {r['realizer']}")
    print(f"\none-sided slopes at t=0: {sp:.4f} / {sm:.4f}; "
          f"gap {sp - sm:.4f} vs model 2c = {2 * c:.4f}")


if __name__ == "__main__":
    main()
