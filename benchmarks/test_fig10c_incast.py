"""Fig 10(c): incast completion time vs number of backend servers.

A frontend collects a fixed-size response (450KB in the paper; scaled
here) from N backends simultaneously.  The paper's claims: Stardust's
*last* FCT matches DCTCP's, its *first-to-last spread* (fairness) is
far better, and no packets drop inside the Stardust fabric.
"""

from dataclasses import replace

from harness import print_series

from repro.fabrics import OneTierSpec, PushFabricNetwork, StardustNetwork
from repro.net.addressing import PortAddress
from repro.net.flow import reset_flow_ids
from repro.sim.units import KB, MB, MILLISECOND, gbps
from repro.transport.host import make_hosts
from repro.workloads.incast import run_incast

RATE = gbps(10)
RESPONSE = 150 * KB
BACKEND_COUNTS = [4, 8, 16, 23]
SPEC = OneTierSpec(num_fas=24, uplinks_per_fa=4, hosts_per_fa=1)
ADDRS = [PortAddress(fa, 0) for fa in range(SPEC.num_fas)]


def run_one(kind: str, n_backends: int):
    if kind == "stardust":
        net = StardustNetwork.for_experiment(
            SPEC, RATE, cell_size_bytes=256, ingress_buffer_bytes=32 * MB
        )
    else:
        net = PushFabricNetwork.for_experiment(
            SPEC, RATE,
            port_buffer_bytes=150_000,
            ecn_threshold_bytes=30_000 if kind == "dctcp" else None,
        )
    hosts, tracker = make_hosts(net, ADDRS)
    result = run_incast(
        net, hosts, tracker,
        frontend=ADDRS[0],
        backends=ADDRS[1 : n_backends + 1],
        response_bytes=RESPONSE,
        transport="dctcp" if kind == "dctcp" else "tcp",
        timeout_ns=400 * MILLISECOND,
    )
    if kind == "stardust":
        return result
    # An incast's bottleneck is the frontend's ToR, which the push
    # fabric books as edge loss: its drops column is all in-network loss.
    return replace(result, fabric_drops=net.collect_metrics().total_drops)


def test_fig10c_incast(benchmark):
    def run():
        # Flow ids feed the push fabric's ECMP hash: restart them so the
        # rows do not depend on what ran earlier in the process.
        reset_flow_ids()
        return {
            kind: [run_one(kind, n) for n in BACKEND_COUNTS]
            for kind in ("stardust", "dctcp", "tcp")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [("scheme", "backends", "first [ms]", "last [ms]",
             "spread", "done", "drops")]
    for kind, runs in results.items():
        for r in runs:
            rows.append(
                (kind, r.n_backends,
                 f"{r.first_fct_ns / 1e6:.2f}" if r.first_fct_ns else "-",
                 f"{r.last_fct_ns / 1e6:.2f}" if r.last_fct_ns else "-",
                 f"{r.fairness_spread:.2f}" if r.fairness_spread else "-",
                 f"{r.completed}/{r.n_backends}", r.fabric_drops)
            )
    print_series("Fig 10(c): incast completion vs backend count", rows)

    for i in range(len(BACKEND_COUNTS)):
        star = results["stardust"][i]
        dctcp = results["dctcp"][i]
        # Everything completes, and the Stardust fabric never drops.
        assert star.all_completed
        assert star.fabric_drops == 0
        # Last FCT comparable to DCTCP (within 1.5x either way).
        if dctcp.last_fct_ns and star.last_fct_ns:
            assert star.last_fct_ns < 1.5 * dctcp.last_fct_ns
        # Fairness: Stardust's first-to-last spread is far tighter.
        if star.fairness_spread and dctcp.fairness_spread:
            assert star.fairness_spread < dctcp.fairness_spread

    # Last FCT grows with incast degree (the port is the bottleneck).
    lasts = [r.last_fct_ns for r in results["stardust"]]
    assert lasts == sorted(lasts)
