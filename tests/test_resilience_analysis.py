"""Appendix E resilience analysis: validation, the worked example, and
the formula cross-checked against *measured* simulated recovery.

The cross-check is the point of this file: the 652us number stops
being a formula the simulator merely prints and becomes a prediction
the simulator is held to, within tolerance, for matched protocol
parameters.
"""

from __future__ import annotations

import pytest

from repro.analysis.resilience import (
    ReachabilityParams,
    messages_per_table,
    reachability_overhead_fraction,
    recovery_time_ns,
)
from repro.core.config import StardustConfig
from repro.fabrics import OneTierSpec, StardustNetwork
from repro.fabrics.wiring import FABRIC_PROPAGATION_NS
from repro.faults import FaultPlan, attach_plan, link_down
from repro.net.addressing import PortAddress
from repro.sim.units import MICROSECOND, gbps

from tests.conftest import RecordingHost


class TestParameterValidation:
    def test_tiers_must_be_positive(self):
        with pytest.raises(ValueError, match="tiers"):
            ReachabilityParams(tiers=0, propagation_ns=())

    def test_propagation_length_must_match_hop_count(self):
        # 2n-1 hops: a two-tier fabric crosses three links.
        with pytest.raises(ValueError, match="per-hop propagation"):
            ReachabilityParams(tiers=2, propagation_ns=(500, 50))
        with pytest.raises(ValueError, match="per-hop propagation"):
            ReachabilityParams(tiers=1, propagation_ns=(500, 50, 10))
        # Correct lengths construct fine.
        ReachabilityParams(tiers=1, propagation_ns=(500,))
        ReachabilityParams(tiers=3, propagation_ns=(1, 2, 3, 4, 5))

    def test_message_interval_is_cycles_over_frequency(self):
        params = ReachabilityParams(
            core_frequency_hz=2_000_000_000, cycles_between_messages=10_000
        )
        assert params.message_interval_ns == pytest.approx(5_000)


class TestWorkedExample:
    def test_652us_table4_example(self):
        """Table 4's values reproduce Appendix E's 652us exactly."""
        params = ReachabilityParams()
        assert messages_per_table(params) == 7
        assert recovery_time_ns(params) == pytest.approx(652_050)
        assert reachability_overhead_fraction(params) == pytest.approx(
            0.000384
        )

    def test_messages_per_table_ceiling(self):
        # 32_000 hosts / (40 x 128) = 6.25 -> 7 messages.
        assert messages_per_table(ReachabilityParams()) == 7
        exact = ReachabilityParams(total_hosts=5_120)
        assert messages_per_table(exact) == 1

    def test_recovery_time_formula_shape(self):
        """t = sum over 2n-1 hops of (t' + pd_i) x M x th."""
        params = ReachabilityParams(
            tiers=1, propagation_ns=(100,),
            cycles_between_messages=10_000,  # t' = 10us at 1GHz
            total_hosts=128, hosts_per_fa=1, bitmap_bits=128,  # M = 1
            confirm_threshold=3,
        )
        assert recovery_time_ns(params) == pytest.approx(
            (10_000 + 100) * 1 * 3
        )


class TestMeasuredVsAnalytical:
    """Fail a link in a live dynamic-reachability fabric and compare
    the measured remote-exclusion time against the Appendix E formula
    for the *same* protocol parameters."""

    PERIOD = 10 * MICROSECOND

    def _converged_net(self):
        spec = OneTierSpec(num_fas=4, uplinks_per_fa=4, hosts_per_fa=1)
        config = StardustConfig(
            reachability="dynamic",
            reachability_period_ns=self.PERIOD,
            reachability_miss_threshold=3,
            reachability_up_threshold=3,
        )
        net = StardustNetwork(spec, config=config, link_rate_bps=gbps(25))
        hosts = {}
        for fa in range(spec.num_fas):
            addr = PortAddress(fa, 0)
            host = RecordingHost(net.sim, f"h{fa}", addr)
            net.attach_host(addr, host)
            hosts[addr] = host
        net.run(500 * MICROSECOND)  # converge
        return spec, net, hosts

    def test_remote_exclusion_within_tolerance_of_formula(self):
        spec, net, _hosts = self._converged_net()
        analytical = net.analytical_recovery_ns()
        # Matched mapping: t' = period, M = 1 (4 hosts), th = miss
        # threshold, one hop at the fabric propagation delay.
        assert analytical == pytest.approx(
            (self.PERIOD + FABRIC_PROPAGATION_NS) * 3
        )

        plan = FaultPlan(events=[link_down(0, 0, 0)])
        attach_plan(plan, net)
        t_fail = net.sim.now
        net.sim.run(until=t_fail + 1)  # apply the scheduled fault

        fa0, fa1 = net.fas[0], net.fas[1]
        # Local exclusion is loss-of-signal, instantaneous (§5.10).
        assert len(fa0.eligible_uplinks(2)) == spec.uplinks_per_fa - 1

        # Remote exclusion runs at protocol speed: fa1 must learn, via
        # the failed FE's shrunken advertisement, that the FE no longer
        # reaches fa0.
        t_excluded = None
        for _ in range(400):
            net.run(5 * MICROSECOND)
            if len(fa1.eligible_uplinks(0)) < spec.uplinks_per_fa:
                t_excluded = net.sim.now
                break
        assert t_excluded is not None, "remote FA never learned"
        measured = t_excluded - t_fail

        # The formula predicts the order of magnitude, not the exact
        # event: detection needs th missed periods plus advertisement
        # and confirmation latency, so hold the measurement to a
        # [0.5x, 3x] band around the analytical value.
        assert analytical * 0.5 <= measured <= analytical * 3, (
            f"measured {measured}ns vs analytical {analytical}ns"
        )

    def test_injector_reports_detection_alongside_analytical(self):
        _spec, net, hosts = self._converged_net()
        plan = FaultPlan(
            events=[link_down(50 * MICROSECOND, 0, 0)],
            sample_period_ns=5_000,
        )
        attach_plan(plan, net)
        src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
        for _ in range(50):
            src.send_to(dst, 1000)
        net.run(2_000 * MICROSECOND)
        resilience = net.collect_metrics().resilience
        analytical = resilience.analytical_recovery_ns
        measured = resilience.protocol_detect_ns
        assert analytical is not None and measured is not None
        # Same tolerance band, sampling quantization included.
        assert analytical * 0.5 - 5_000 <= measured <= analytical * 3

    def test_static_reachability_has_no_analytical_prediction(self):
        spec = OneTierSpec(num_fas=2, uplinks_per_fa=2, hosts_per_fa=1)
        net = StardustNetwork(spec)
        assert net.analytical_recovery_ns() is None
