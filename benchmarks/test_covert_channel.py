"""Extension bench: covert-channel capacity across the FPGA/CPU boundary.

Sweeps the OOK signaling rate against the 35 ms sensor update interval
and reports BER/goodput — quantifying the communication corollary of
AmpereBleed.  The capacity wall should sit right at the update
interval: bit periods comfortably above it are error-free, bit periods
at or below it collapse.
"""

from conftest import print_table

from repro.core.covert_channel import CovertChannel

BIT_PERIODS = (0.40, 0.20, 0.12, 0.08, 0.05, 0.035)


def run_capacity_sweep():
    channel = CovertChannel()
    return channel.capacity_sweep(BIT_PERIODS, n_bits=96, seed=1)


def test_covert_channel_capacity(benchmark):
    reports = benchmark.pedantic(run_capacity_sweep, rounds=1, iterations=1)

    rows = [
        (
            f"{report.bit_period * 1e3:.0f} ms",
            f"{report.raw_throughput_bps:.1f}",
            f"{report.bit_error_rate:.3f}",
            f"{report.effective_throughput_bps:.1f}",
        )
        for report in reports
    ]
    print_table(
        "Covert channel: OOK over the FPGA current sensor (35 ms refresh)",
        ("bit period", "raw bps", "BER", "goodput bps"),
        rows,
    )

    by_period = {r.bit_period: r for r in reports}
    # Slow signaling is error-free.
    assert by_period[0.40].bit_error_rate == 0.0
    assert by_period[0.20].bit_error_rate == 0.0
    # At/below the sensor update interval the channel collapses.
    assert by_period[0.035].bit_error_rate > 0.15
    # BER is (weakly) monotone in rate across the sweep extremes.
    assert by_period[0.035].bit_error_rate >= by_period[0.40].bit_error_rate
    # Error-free goodput of several bits/second exists.
    best = max(r.effective_throughput_bps for r in reports
               if r.bit_error_rate == 0.0)
    assert best >= 5.0
