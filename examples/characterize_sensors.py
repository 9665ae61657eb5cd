#!/usr/bin/env python3
"""Sensor characterization: a scaled-down Fig 2 sweep with ASCII plots.

Activates 0..160 groups of power-virus instances and compares how the
four observation channels track the victim: hwmon current, voltage and
power, plus the crafted ring-oscillator baseline of prior work.

Run:  python examples/characterize_sensors.py
"""


from repro import characterize
from repro.session import AttackSession


def ascii_plot(name, levels, means, width=60):
    """One-line-per-decile ASCII rendering of a sweep curve."""
    lo, hi = means.min(), means.max()
    span = hi - lo if hi > lo else 1.0
    print(f"  {name} (min={lo:.6g}, max={hi:.6g})")
    for index in range(0, levels.size, max(1, levels.size // 8)):
        bar = int((means[index] - lo) / span * width)
        print(f"    level {levels[index]:3d} | {'#' * bar}")


def main():
    print("Running the characterization sweep "
          "(161 levels x 1000 samples)...")
    result = characterize(AttackSession.create(seed=7), samples_per_level=1000, seed=7)

    print("\nPer-channel statistics (paper Fig 2):")
    print(f"  {'channel':8s} {'pearson':>8s} {'LSB/step':>9s}")
    for sweep in (result.current, result.voltage, result.power, result.ro):
        print(f"  {sweep.name:8s} {sweep.pearson:8.3f} {sweep.lsb_step:9.2f}")

    ratio = result.current_vs_ro_variation
    print(f"\nCurrent shows {ratio:.0f}x greater relative variation than "
          f"the RO baseline (paper: 261x).")
    print()

    ascii_plot("FPGA current (mA)", result.levels, result.current.means)
    ascii_plot("FPGA voltage (mV)", result.levels, result.voltage.means)
    ascii_plot("RO counts", result.levels, result.ro.means)

    print("\nReading the curves: current climbs ~40 mA per activated")
    print("group; voltage moves ~3 mV across the whole sweep (inside the")
    print("0.825-0.876 V stabilizer band); the RO count drops by barely")
    print("one count end to end — the crafted circuit is nearly blind.")


if __name__ == "__main__":
    main()
