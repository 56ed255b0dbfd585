"""E5-internet — paper Secs. 4.1–4.2.

Internet virtual circuits chained through 0…4 gateways: establishment
cost (virtual time, wire frames), steady-state per-call latency, the
absence of any inter-gateway control plane, and topology reads confined
to (rare) establishment.  Ablation: the first-hop route cache.
"""

from deployments import chain_nets, echo_server
from repro.util.counters import IP_CREDIT_STALLS, LVC_RX_QUEUE_HIGH_WATER


def _chain_metrics(hops):
    bed = chain_nets(hops)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")

    frames_before = sum(net.frames_sent for net in bed.networks.values())
    t0 = bed.now
    client.ali.call(uadd, "echo", {"n": 0, "text": "establish"})
    establish_time = bed.now - t0
    establish_frames = sum(net.frames_sent
                           for net in bed.networks.values()) - frames_before

    # Steady state: average over warm calls.
    t0 = bed.now
    calls = 20
    for i in range(calls):
        client.ali.call(uadd, "echo", {"n": i, "text": "steady"})
    steady = (bed.now - t0) / calls

    control = sum(gw.inter_gateway_control_messages
                  for gw in bed.gateways.values())
    topo = client.nucleus.counters["topology_queries"]
    zero_copy = sum(gw.frames_forwarded_zero_copy
                    for gw in bed.gateways.values())
    deferred = sum(stack.counters["gateway_checksum_verifies_deferred"]
                   for gw in bed.gateways.values()
                   for stack in gw.stacks.values())
    # Queueing under flow control (PROTOCOL.md §12): a call/reply
    # workload consumes as it goes, so the per-LVC receive queues
    # never build and no sender ever stalls for credit.
    rx_high_water = max(mod.nucleus.counters[LVC_RX_QUEUE_HIGH_WATER]
                        for mod in bed.modules.values())
    credit_stalls = sum(mod.nucleus.counters[IP_CREDIT_STALLS]
                        for mod in bed.modules.values())
    return bed, client, uadd, {
        "establish_ms": establish_time * 1000,
        "establish_frames": establish_frames,
        "steady_ms": steady * 1000,
        "inter_gw_control": control,
        "topology_queries": topo,
        "frames_zero_copy": zero_copy,
        "checksum_deferred": deferred,
        "rx_high_water": rx_high_water,
        "credit_stalls": credit_stalls,
    }


def test_bench_internet(benchmark, report):
    rows = []
    results = {}
    for hops in (0, 1, 2, 3, 4):
        bed, client, uadd, metrics = _chain_metrics(hops)
        results[hops] = (bed, client, uadd, metrics)
        rows.append((
            hops,
            f"{metrics['establish_ms']:.2f}",
            metrics["establish_frames"],
            f"{metrics['steady_ms']:.2f}",
            metrics["inter_gw_control"],
            metrics["topology_queries"],
            f"{metrics['rx_high_water']}/{metrics['credit_stalls']}",
        ))
    report.table(
        "E5-internet: circuits chained through k gateways",
        ["gateways", "establish virtual-ms", "establish frames",
         "steady call virtual-ms", "inter-gw control msgs",
         "topology queries", "rx queue high-water / credit stalls"],
        rows,
    )
    # Shape claims: establishment and steady latency grow with hops;
    # control plane stays empty; topology read O(1) per destination net.
    establish = [results[h][3]["establish_ms"] for h in (0, 1, 2, 3, 4)]
    steady = [results[h][3]["steady_ms"] for h in (0, 1, 2, 3, 4)]
    assert all(a < b for a, b in zip(establish, establish[1:]))
    assert all(a <= b for a, b in zip(steady, steady[1:]))
    assert all(results[h][3]["inter_gw_control"] == 0 for h in results)
    # Flow control is on by default and must be free here: a call/reply
    # workload consumes as it goes, so no queue builds and no stall.
    assert all(results[h][3]["credit_stalls"] == 0 for h in results)
    assert all(results[h][3]["rx_high_water"] == 0 for h in results)
    report.note(
        "Establishment cost grows with chain length while no gateway "
        "ever exchanges a routing/control message with another gateway "
        "(Sec. 4.2: circuit establishment is decentralized; topology is "
        "read from the naming service only when a route is first needed)."
    )

    # Fast path: per-hop work the zero-copy splice saves (PROTOCOL.md,
    # "Fast path and wire invariance").
    report.table(
        "E5-internet fast path: per-hop work saved by the zero-copy splice",
        ["gateways", "frames forwarded zero-copy",
         "checksum verifies deferred"],
        [(hops,
          results[hops][3]["frames_zero_copy"],
          results[hops][3]["checksum_deferred"])
         for hops in (0, 1, 2, 3, 4)],
    )
    assert results[0][3]["frames_zero_copy"] == 0
    for hops in (1, 2, 3, 4):
        assert results[hops][3]["frames_zero_copy"] > 0
        assert results[hops][3]["checksum_deferred"] > 0
    report.note(
        "Every spliced hop forwards the received frame verbatim (no "
        "header re-serialization) and defers the header-checksum "
        "verification to the terminating endpoint: forwarded DATA "
        "frames cost one verification end-to-end instead of one per "
        "hop."
    )

    # Ablation: route cache — second circuit to the same network.
    bed, client, uadd, _ = results[3]
    echo_server(bed, "far.echo2", "mEnd")
    uadd2 = client.ali.locate("far.echo2")
    topo_before = client.nucleus.counters["topology_queries"]
    t0 = bed.now
    client.ali.call(uadd2, "echo", {"n": 0, "text": "x"})
    cached_ms = (bed.now - t0) * 1000
    topo_cached = client.nucleus.counters["topology_queries"] - topo_before

    client.nucleus.lcm._drop_route(uadd2)
    client.nucleus.ip.route_cache.clear()
    client.nucleus.addr_cache.invalidate(uadd2)
    bed.settle()
    topo_before = client.nucleus.counters["topology_queries"]
    t0 = bed.now
    client.ali.call(uadd2, "echo", {"n": 1, "text": "x"})
    cold_ms = (bed.now - t0) * 1000
    topo_cold = client.nucleus.counters["topology_queries"] - topo_before
    report.table(
        "E5-internet ablation: first-hop route cache (3-gateway chain, "
        "second destination on the far network)",
        ["route cache", "circuit setup virtual-ms", "topology queries"],
        [("warm", f"{cached_ms:.2f}", topo_cached),
         ("cleared", f"{cold_ms:.2f}", topo_cold)],
    )
    assert topo_cached == 0 and topo_cold >= 1

    benchmark.pedantic(lambda: _chain_metrics(2), rounds=3, iterations=1)
