#!/usr/bin/env python3
"""Covert channel across the FPGA/CPU boundary (AmpereBleed corollary).

A conspirator circuit on the FPGA has no bus, no shared memory, and no
network path to the unprivileged process on the ARM cores.  But it can
modulate its own power draw — and the process can watch that draw in
the world-readable current file.  This example sends a short message
across that gap and sweeps the signaling rate against the sensor's
35 ms refresh wall.

Run:  python examples/covert_channel.py
"""


from repro.core.covert_channel import CovertChannel
from repro.session import AttackSession


def text_to_bits(text):
    return [int(bit) for byte in text.encode() for bit in f"{byte:08b}"]


def bits_to_text(bits):
    data = bytearray()
    for index in range(0, len(bits) - 7, 8):
        data.append(int("".join(map(str, bits[index:index + 8])), 2))
    return data.decode(errors="replace")


def main():
    channel = CovertChannel(AttackSession.create(seed=21))
    message = "AMPERE"
    bits = text_to_bits(message)

    print(f"Sending {message!r} ({len(bits)} bits) through the FPGA "
          f"current sensor at 5 bps...")
    report = channel.transmit(bits, bit_period=0.2)
    print(f"  received: {bits_to_text(list(report.received))!r}  "
          f"(BER {report.bit_error_rate:.3f})")

    print("\nCapacity sweep (the wall is the 35 ms hwmon refresh):")
    print(f"  {'bit period':>11s} {'raw bps':>8s} {'BER':>6s} "
          f"{'goodput':>8s}")
    for report in channel.capacity_sweep(
        bit_periods=[0.4, 0.2, 0.1, 0.06, 0.04], n_bits=64, seed=2
    ):
        print(f"  {report.bit_period * 1e3:9.0f} ms "
              f"{report.raw_throughput_bps:8.1f} "
              f"{report.bit_error_rate:6.3f} "
              f"{report.effective_throughput_bps:8.1f}")

    print("\nBelow ~3x the update interval the channel is error-free;")
    print("at the interval itself it collapses — the root-only")
    print("update_interval knob directly caps covert bandwidth.")


if __name__ == "__main__":
    main()
