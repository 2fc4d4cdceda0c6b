"""The push fabric's device hop: oracles and deterministic pins.

Two kinds of test guard the one-frame ``EthernetSwitch.receive`` and the
``Link.send`` idle fast path:

* **oracles** — the pre-memoization forwarding logic (``_route`` /
  ``_live`` / ``_pick`` / ``_enqueue``) and the always-queue
  ``Link.send`` live on here as small reference functions, and
  hypothesis drives them side by side with the real code through
  generated packet streams, failures, repairs and clock advances;
* **pins** — exact call counts (md5 runs, candidate-list builds, table
  rebuilds) that state the saving without timing anything.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ethernet
from repro.baselines.ethernet import EthConfig, EthernetSwitch, _flow_hash
from repro.core.fabric_element import FabricElement
from repro.experiments import runner
from repro.experiments.registry import build_scenario
from repro.experiments.runner import run_spec_with_network
from repro.experiments.spec import TopologySpec
from repro.fabrics.push import PushFabricNetwork
from repro.fabrics.wiring import OneTierSpec
from repro.net.addressing import PortAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.entity import Entity
from repro.sim.link import Link, LinkDown
from repro.sim.units import MICROSECOND, gbps

from tests.conftest import RecordingHost

SWITCH_ID = 3
REHASH_NS = 5_000


class Sink(Entity):
    """Records what a link delivers."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, payload, link):
        self.received.append(payload)


# ----------------------------------------------------------------------
# Oracle 1: EthernetSwitch.receive vs. the deleted per-packet chain
# ----------------------------------------------------------------------


def reference_forward(sw, packet):
    """``EthernetSwitch.receive``'s hop as it was before it was fused:
    rebuild the live candidate list and hash the flow for every packet.
    Works on a real switch's tables and counters; returns the port it
    chose (None when there was none)."""
    cfg, now, rehash = sw.config, sw.sim.now, sw.config.ecmp_rehash_ns
    if not sw.alive:
        sw.dead_drops += 1
        return None

    def live(ports):
        return [
            p for p in ports
            if p.out.up or (rehash and now < p.out.failed_at_ns + rehash)
        ]

    if packet.dst.fa == sw.switch_id and sw._host_ports:
        port = sw._host_ports.get(packet.dst.port)
    else:
        candidates = live(sw._down_map.get(packet.dst.fa, ())) or live(
            [p for p in sw._ports if p.direction == "up"]
        )
        if len(candidates) <= 1:
            port = candidates[0] if candidates else None
        elif cfg.load_balance == "packet":
            sw._spray_cursor = (sw._spray_cursor + 1) % len(candidates)
            port = candidates[sw._spray_cursor]
        else:
            digest = hashlib.md5(
                f"{packet.flow_id}:{sw.switch_id}".encode()
            ).digest()
            port = candidates[
                int.from_bytes(digest[:4], "big") % len(candidates)
            ]
    if port is None:
        sw.no_route_drops += 1
        return None
    out = port.out
    if not out.up:
        sw.blackholed += 1
        sw.blackholed_flow_ids.add(packet.flow_id)
    elif out.queued_bytes + packet.wire_bytes > cfg.port_buffer_bytes:
        sw.dropped += 1
    else:
        threshold = cfg.ecn_threshold_bytes
        if threshold is not None and out.queued_bytes >= threshold:
            packet.ecn = True
            sw.ecn_marked += 1
        sw.forwarded += 1
        if port.direction == "host":
            sw.delivered_host_bytes += packet.size_bytes
        out.send(packet, packet.wire_bytes)
    return port


def build_world(shape, load_balance, rehash_ns):
    """One switch with sinks on every port; ``shape`` fixes the wiring."""
    n_up, down_routes, n_host = shape
    sim = Simulator()
    config = EthConfig(
        port_buffer_bytes=12_000,
        ecn_threshold_bytes=3_000,
        load_balance=load_balance,
        ecmp_rehash_ns=rehash_ns,
    )
    sw = EthernetSwitch(sim, config, SWITCH_ID, "sw")
    sinks = []

    def attach(direction, **kw):
        sink = Sink(sim, f"sink{len(sinks)}")
        sinks.append(sink)
        return sw.add_port(Link(sim, sw, sink, gbps(10), 10), direction, **kw)

    for _ in range(n_up):
        attach("up")
    # Destination ToR 10+i is reached through i+1 down ports; the
    # first port is shared by every route.
    down_ports = [attach("down") for _ in range(len(down_routes))]
    for tor, width in enumerate(down_routes):
        for port in down_ports[:width]:
            sw.add_down_route(10 + tor, port)
    for index in range(n_host):
        attach("host", host_port_index=index)
    return SimpleNamespace(sim=sim, sw=sw, sinks=sinks)


def port_index(sw, port):
    return None if port is None else sw._ports.index(port)


def observe(world):
    sw = world.sw
    return (
        sw.forwarded, sw.dropped, sw.ecn_marked, sw.blackholed,
        sw.no_route_drops, sw.dead_drops, sw.delivered_host_bytes,
        sorted(sw.blackholed_flow_ids), sw._spray_cursor,
        [(p.out.queued_bytes, p.out.queued_frames, p.out.busy)
         for p in sw._ports],
    )


shapes = st.tuples(
    st.integers(2, 6),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
        lambda widths: [min(w, len(widths)) for w in widths]
    ),
    st.integers(0, 2),
)
packets = st.tuples(
    st.just("packet"),
    # dst ToR: the switch itself (host ports), a down-routed ToR, or
    # one only the up ports reach.
    st.sampled_from([SWITCH_ID, 10, 11, 12, 13, 99]),
    st.integers(0, 2),  # dst host port (2 is never attached)
    st.integers(0, 7),  # flow id
    st.sampled_from([64, 1500, 9000]),
    st.booleans(),  # also ask route() first
)
steps = st.one_of(
    packets,
    packets,
    packets,
    st.tuples(st.just("advance"), st.sampled_from([1, 300, 2_000, 9_000])),
    st.tuples(st.sampled_from(["fail", "restore"]), st.integers(0, 11)),
    st.tuples(st.sampled_from(["kill", "revive"])),
)


@settings(max_examples=150, deadline=None)
@given(
    shape=shapes,
    load_balance=st.sampled_from(["flow", "packet"]),
    rehash_ns=st.sampled_from([0, REHASH_NS]),
    program=st.lists(steps, min_size=1, max_size=60),
)
def test_receive_matches_the_per_packet_reference(
    shape, load_balance, rehash_ns, program
):
    new = build_world(shape, load_balance, rehash_ns)
    ref = build_world(shape, load_balance, rehash_ns)
    for seq, step in enumerate(program):
        kind = step[0]
        if kind == "packet":
            _, tor, host_port, flow_id, size, probe = step
            fields = dict(
                size_bytes=size, src=PortAddress(50, 0),
                dst=PortAddress(tor, host_port), flow_id=flow_id, seq=seq,
            )
            sent = Packet(**fields)
            chosen = reference_forward(ref.sw, Packet(**fields))
            if probe and new.sw.alive:
                assert port_index(new.sw, new.sw.route(sent)) == port_index(
                    ref.sw, chosen
                )
            new.sw.receive(sent, None)
        elif kind == "advance":
            for world in (new, ref):
                world.sim.run(until=world.sim.now + step[1])
        elif kind in ("fail", "restore"):
            for world in (new, ref):
                ports = world.sw._ports
                target = ports[step[1] % len(ports)].out
                if kind == "fail":
                    target.fail()
                else:
                    target.restore()
        else:
            for world in (new, ref):
                if kind == "kill":
                    world.sw.fail()
                else:
                    world.sw.restore()
        assert observe(new) == observe(ref), (seq, step)
    # Same port per packet, same ECN marks: every sink saw the same
    # packets in the same order.
    for world in (new, ref):
        world.sim.run()
    assert [
        [(p.seq, p.ecn) for p in sink.received] for sink in new.sinks
    ] == [[(p.seq, p.ecn) for p in sink.received] for sink in ref.sinks]


def test_flow_hash_values_are_the_historical_ones():
    # Computed at the parent commit: goldens and every recorded push
    # result depend on these staying put.
    cases = [(1, 0, 4), (2, 7, 4), (9, 2, 5), (77, 10001, 2), (12345, 3, 6)]
    assert [_flow_hash(*case) for case in cases] == [0, 2, 0, 1, 1]


# ----------------------------------------------------------------------
# Oracle 2: Link.send on an idle link vs. queue-then-_start_next
# ----------------------------------------------------------------------


def reference_send(link, payload, size_bytes):
    """``Link.send`` before the idle fast path: always queue the frame,
    then let ``_start_next`` take it straight back off."""
    if not link.up:
        raise LinkDown(link.name)
    link._queue.append((payload, size_bytes))
    link._queued_bytes += size_bytes
    link.peak_queue_bytes = max(link.peak_queue_bytes, link._queued_bytes)
    link.peak_queue_frames = max(link.peak_queue_frames, len(link._queue))
    if not link._busy:
        link._start_next()


def link_state(link):
    entry = link._tx_entry
    return (
        link._ser_payload, link._ser_size, link._ser_done,
        list(link._ser_extra), link._busy, link._queued_bytes,
        list(link._queue), link.peak_queue_bytes, link.peak_queue_frames,
        entry[0], entry[1], entry[2] is not None,
        link.tx_frames, link.tx_bytes, link.dropped_frames,
        link.dropped_bytes, link.sim.now, len(link.sim),
    )


link_steps = st.one_of(
    st.tuples(st.just("send"), st.sampled_from([64, 200, 1500])),
    st.tuples(st.just("send"), st.sampled_from([64, 200, 1500])),
    st.tuples(st.just("advance"), st.sampled_from([1, 40, 160, 1_300])),
    st.tuples(st.just("fail")),
    st.tuples(st.just("restore")),
)


@settings(max_examples=200, deadline=None)
@given(program=st.lists(link_steps, min_size=1, max_size=50))
def test_idle_send_leaves_the_state_start_next_would(program):
    worlds = []
    for send in (Link.send, reference_send):
        sim = Simulator()
        sink = Sink(sim, "dst")
        link = Link(sim, Sink(sim, "src"), sink, gbps(10), 25)
        worlds.append((sim, link, sink, send))
    for seq, step in enumerate(program):
        for sim, link, _, send in worlds:
            if step[0] == "send":
                if link.up:
                    send(link, seq, step[1])
            elif step[0] == "advance":
                sim.run(until=sim.now + step[1])
            elif step[0] == "fail":
                link.fail()
            else:
                link.restore()
        assert link_state(worlds[0][1]) == link_state(worlds[1][1]), (seq, step)
    for sim, _, _, _ in worlds:
        sim.run()
    assert worlds[0][2].received == worlds[1][2].received
    assert link_state(worlds[0][1]) == link_state(worlds[1][1])


def test_idle_send_after_fail_restore_with_stale_serialization():
    # The hand-picked corner the property also reaches: a frame still
    # serializing when the link fails stays pending across restore(),
    # and the next send must lay a fresh train entry beside it.
    sim = Simulator()
    sink = Sink(sim, "dst")
    link = Link(sim, Sink(sim, "src"), sink, gbps(10), 0)
    link.send("stale", 1500)  # done at 1200 ns
    sim.run(until=100)
    link.fail()
    link.restore()
    stale_entry = link._tx_entry
    link.send("fresh", 64)  # idle (restore cleared _busy) but not clean
    assert link._tx_entry is not stale_entry
    assert [p for p, _, _ in link._ser_extra] == ["stale"]
    sim.run()
    assert sink.received == ["fresh", "stale"]


# ----------------------------------------------------------------------
# Pins: the saving as exact counts
# ----------------------------------------------------------------------

_TWO_TIER = TopologySpec(
    "two_tier",
    dict(pods=2, fas_per_pod=2, fes_per_pod=2, spines=2, hosts_per_fa=2),
)


def run_mixed_cell(monkeypatch, measure_ns):
    """A small mixed/dctcp cell with md5 runs and candidate-list builds
    counted."""
    md5_calls = []
    builds = []
    real_candidates = EthernetSwitch._candidates

    def counting_md5(data):
        md5_calls.append(data)
        return hashlib.md5(data)

    def counting_candidates(self, dst_tor):
        builds.append((self.name, self.sim.topology_epoch, dst_tor))
        return real_candidates(self, dst_tor)

    monkeypatch.setattr(ethernet, "hashlib", SimpleNamespace(md5=counting_md5))
    monkeypatch.setattr(EthernetSwitch, "_candidates", counting_candidates)
    spec = build_scenario(
        "mixed", kind="dctcp", topology=_TWO_TIER, seed=3, load=1.0,
        web_fraction=1.0, warmup_ns=100 * MICROSECOND, measure_ns=measure_ns,
    )
    result, net = run_spec_with_network(spec)
    return result, [*net.tors, *net.fabric], md5_calls, builds


@pytest.mark.parametrize("measure_ns", [1_000 * MICROSECOND, 2_000 * MICROSECOND])
def test_md5_runs_once_per_flow_and_lists_build_once_per_epoch(
    monkeypatch, measure_ns
):
    result, switches, md5_calls, builds = run_mixed_cell(monkeypatch, measure_ns)
    flows = result.metrics["offered_flows"]
    forwarded = sum(sw.forwarded for sw in switches)
    assert forwarded > 20 * flows  # a real packet stream
    # md5: once per (switch, flow, fan-out), never per packet.  The
    # bound is in flows, so doubling the window (more packets per
    # flow-hop) leaves it standing.
    assert len(md5_calls) == sum(len(sw._hash_memo) for sw in switches)
    for sw in switches:
        fan_outs = {n for _, n in sw._hash_memo}
        assert len(sw._hash_memo) <= flows * len(fan_outs)
    assert len(md5_calls) * 10 < forwarded
    # Candidate lists: at most one build per (switch, epoch,
    # destination ToR) — with no faults, one epoch.
    assert len(builds) == len(set(builds))
    assert len({epoch for _, epoch, _ in builds}) == 1
    assert len(builds) <= len(switches) * 4  # four ToRs


def nic_hooks(net):
    """Per host: (NIC link carries the wake hook, a sender waits)."""
    return [
        (host.ports[0].on_transmit is not None, bool(host._blocked_senders))
        for host in net._host_sinks.values()
    ]


def test_nic_wake_hook_is_installed_exactly_while_a_sender_waits(monkeypatch):
    # Host.block_on_nic hooks the NIC link's on_transmit and
    # _on_nic_transmit unhooks it with the last waiter, so an unblocked
    # NIC takes the link's train path.  Checked at every probe sample
    # and at the end of a small dctcp push cell.
    samples = []
    build_network = runner.build_network

    def build_and_probe(spec):
        net = build_network(spec)
        net.sim.set_probe(lambda now: samples.append(nic_hooks(net)), MICROSECOND)
        return net

    monkeypatch.setattr(runner, "build_network", build_and_probe)
    spec = build_scenario(
        "mixed", kind="dctcp", topology=_TWO_TIER, seed=3, load=1.0,
        web_fraction=1.0, warmup_ns=100 * MICROSECOND,
        measure_ns=1_000 * MICROSECOND,
    )
    _, net = runner.run_spec_with_network(spec)
    samples.append(nic_hooks(net))
    assert len(samples) > 500
    for sample in samples:
        assert all(hooked == waiting for hooked, waiting in sample)
    # The cell does block senders, and does let them go again.
    waiting = [w for sample in samples for _, w in sample]
    assert any(waiting) and not all(waiting)


def push_one_tier(rehash_ns):
    spec = OneTierSpec(num_fas=3, uplinks_per_fa=4, hosts_per_fa=1)
    net = PushFabricNetwork(
        spec, config=EthConfig(ecmp_rehash_ns=rehash_ns),
        link_rate_bps=gbps(10),
    )
    hosts = {}
    for tor in range(spec.num_fas):
        address = PortAddress(tor, 0)
        hosts[address] = RecordingHost(net.sim, f"h{tor}", address)
        net.attach_host(address, hosts[address])
    return net, hosts


def test_rehash_window_is_not_memoized_and_ends_without_an_epoch_bump(
    monkeypatch,
):
    rehash = 300 * MICROSECOND
    net, hosts = push_one_tier(rehash)
    sim, tor0 = net.sim, net.tors[0]
    src, dst = hosts[PortAddress(0, 0)], PortAddress(2, 0)
    sim.run(until=10 * MICROSECOND)
    dead = tor0.up_ports[0]
    dead.out.fail()
    epoch = sim.topology_epoch
    victim = next(
        flow_id for flow_id in range(200)
        if tor0.route(Packet(1000, src.address, dst, flow_id=flow_id)) is dead
    )

    builds = []
    real_candidates = EthernetSwitch._candidates

    def counting_candidates(self, dst_tor):
        if self is tor0:
            builds.append(self.sim.now)
        return real_candidates(self, dst_tor)

    monkeypatch.setattr(EthernetSwitch, "_candidates", counting_candidates)
    # Inside the window the list depends on the clock: rebuilt for
    # every packet, the dead port stays a candidate, the flow blackholes.
    for _ in range(5):
        src.send_to(dst, 1000, flow_id=victim)
        sim.run(until=sim.now + 5 * MICROSECOND)
    assert len(builds) == 5
    assert tor0.blackholed == 5 and not hosts[dst].received
    # Past failed_at + rehash the same flow reroutes — and nothing
    # bumped the epoch in between, which is why nothing was cached.
    sim.run(until=dead.out.failed_at_ns + rehash)
    assert tor0.route(Packet(1000, src.address, dst, flow_id=victim)) is not dead
    src.send_to(dst, 1000, flow_id=victim)
    sim.run(until=sim.now + 50 * MICROSECOND)
    assert len(hosts[dst].received) == 1
    assert tor0.blackholed == 5
    assert sim.topology_epoch == epoch


def test_wiring_after_traffic_spoils_the_memoized_candidates():
    sim = Simulator()
    sw = EthernetSwitch(sim, EthConfig(), SWITCH_ID, "sw", tier=1)
    up_sink, down_sink = Sink(sim, "up"), Sink(sim, "down")
    down = sw.add_port(Link(sim, sw, down_sink, gbps(10)), "down")
    packet = dict(size_bytes=500, src=PortAddress(1, 0), dst=PortAddress(7, 0))

    def forward_one():
        sw.receive(Packet(**packet), None)
        sim.run()
        return len(up_sink.received), len(down_sink.received), sw.no_route_drops

    assert forward_one() == (0, 0, 1)  # nowhere to go yet
    # A port attached after traffic has flowed is used by the next packet…
    epoch = sim.topology_epoch
    sw.add_port(Link(sim, sw, up_sink, gbps(10)), "up")
    assert sim.topology_epoch > epoch
    assert forward_one() == (1, 0, 1)
    # …and so is a down-route installed on a port that was already there.
    epoch = sim.topology_epoch
    sw.add_down_route(7, down)
    assert sim.topology_epoch > epoch
    assert sw.route(Packet(**packet)) is down
    assert forward_one() == (1, 1, 1)


_SIXTEEN_FA = TopologySpec(
    "three_tier",
    dict(
        pods=2, fas_per_pod=8, fes1_per_pod=4, fes2_per_pod=4,
        spines=4, hosts_per_fa=1,
    ),
)


def test_dynamic_tables_rebuild_on_read_not_on_every_change(monkeypatch):
    counts = dict(changed=0, rebuilt=0, advertise=0, eligible_miss=0)

    def counted(name, key):
        real = getattr(FabricElement, name)

        def wrapper(self, *args):
            counts[key] += 1
            return real(self, *args)

        monkeypatch.setattr(FabricElement, name, wrapper)

    counted("_tables_changed", "changed")
    counted("_rebuild_tables", "rebuilt")
    counted("_advertise", "advertise")
    # receive() inlines the cache hit: every call that gets here from
    # the data path is a miss.
    counted("eligible_ports", "eligible_miss")
    spec = build_scenario(
        "permutation_three_tier", kind="stardust", reachability="dynamic",
        topology=_SIXTEEN_FA, seed=7,
        warmup_ns=20 * MICROSECOND, measure_ns=60 * MICROSECOND,
    )
    result, net = run_spec_with_network(spec)
    # Same simulation as at the parent commit, event for event.
    assert net.sim.events_fired == 37_126
    assert result.delivered_bytes == 1_218_560
    assert 0 < counts["rebuilt"] <= counts["advertise"] + counts["eligible_miss"]
    assert counts["rebuilt"] * 2 < counts["changed"]
