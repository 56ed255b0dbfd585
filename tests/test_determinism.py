"""Determinism tests: the simulation substrate makes every experiment
exactly reproducible — same build steps, same virtual timeline, same
traces, same counters."""

import hashlib
import json

from deployments import (chain_nets, echo_server, register_app_types,
                         single_net, two_nets)
from repro import SUN3, Testbed, VAX
from repro.ntcs.nucleus import NucleusConfig


def _run_scenario():
    bed = single_net(config=NucleusConfig(trace=True))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    for i in range(5):
        client.ali.call(uadd, "echo", {"n": i, "text": f"msg{i}"})
    bed.settle()
    trace = [(r.time, r.layer, r.operation, r.phase, r.depth)
             for r in client.nucleus.tracer.records]
    return {
        "now": bed.now,
        "events": bed.scheduler.events_processed,
        "frames": bed.networks["ether0"].frames_sent,
        "bytes": bed.networks["ether0"].bytes_sent,
        "counters": client.nucleus.counters.snapshot(),
        "trace": trace,
        "ns_counters": bed.name_server_instance.counters.snapshot(),
    }


def test_identical_runs_produce_identical_timelines():
    first = _run_scenario()
    second = _run_scenario()
    assert first == second


def _application_answers(cache_enabled):
    """Everything an application can observe from a locate/call/negative
    workload, plus the Name-Server resolution traffic it cost."""
    from repro.errors import NoSuchName

    bed = single_net(config=NucleusConfig(nsp_cache_enabled=cache_enabled))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    answers = []
    for i in range(5):
        uadd = client.ali.locate("dest")
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        answers.append((uadd.value, reply.values["n"], reply.values["text"]))
    try:
        client.ali.locate("ghost")
        answers.append("resolved")
    except NoSuchName:
        answers.append("no-such-name")
    resolves = bed.name_server_instance.counters["ns_resolve_name"]
    return answers, resolves


def test_cache_ablation_same_answers_fewer_messages():
    """PROTOCOL.md §9: the resolution cache changes control-plane
    traffic, never application-visible answers — and turning it off
    reproduces the historical one-round-trip-per-resolution counts."""
    on_answers, on_resolves = _application_answers(cache_enabled=True)
    off_answers, off_resolves = _application_answers(cache_enabled=False)
    assert on_answers == off_answers
    assert off_resolves == 6   # 5 locates + 1 failed locate, uncached
    assert on_resolves == 2    # one per distinct name, then cache hits


def _run_faulty_scenario(seed):
    bed = two_nets()
    bed.networks["ether0"].faults._rng.seed(seed)
    bed.networks["ether0"].faults.drop_probability = 0.05
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda m: received.append(m.values["n"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    for i in range(30):
        src.ali.send(uadd, "echo", {"n": i, "text": ""})
        bed.run_for(0.02)
    bed.settle()
    return received, bed.scheduler.events_processed


def test_seeded_faults_are_reproducible():
    run_a = _run_faulty_scenario(seed=7)
    run_b = _run_faulty_scenario(seed=7)
    assert run_a == run_b


def test_different_seeds_diverge():
    run_a = _run_faulty_scenario(seed=7)
    run_b = _run_faulty_scenario(seed=8)
    # Different loss patterns almost surely process different event
    # counts; if not, the delivered sets must still match (TCP hides
    # loss) so compare the full tuple only loosely.
    assert run_a[0] == run_b[0] or run_a[1] != run_b[1]

# ---------------------------------------------------------------------------
# Sharding ablation (PROTOCOL.md §14)
# ---------------------------------------------------------------------------

def _naming_frames(log):
    """(type_id, body) for every naming-protocol frame (type ids 10–39)
    in a wire trace, in transmission order.  TCP DATA segments carry
    length-prefixed NTCS frames; everything else is transport noise."""
    from repro.ntcs.message import HEADER_BYTES, HeaderView
    from repro.errors import ProtocolError

    out = []
    for event in log.events:
        for blob_hex in event["args"]["frames"]:
            blob = bytes.fromhex(blob_hex)
            while len(blob) >= 4:
                length = int.from_bytes(blob[:4], "big")
                frame, blob = blob[4:4 + length], blob[4 + length:]
                try:
                    header = HeaderView(frame)
                except ProtocolError:
                    break
                if 10 <= header.type_id < 40:
                    out.append((header.type_id, frame[HEADER_BYTES:]))
    return out


def _naming_service_run(kind):
    """One fixed locate/call/batch/deregister workload against either a
    2-replica naming service or the same two machines as a single
    1-shard × 2-replica sharded deployment."""
    from repro.errors import NoSuchName
    from repro.naming.replicated import deploy_replicated_naming
    from repro.naming.shards import deploy_sharded_naming

    bed = Testbed()
    bed.network("ether0", protocol="tcp")
    bed.machine("ns0", VAX, networks=["ether0"])
    bed.machine("ns1", SUN3, networks=["ether0"])
    bed.machine("app1", SUN3, networks=["ether0"])
    bed.machine("app2", VAX, networks=["ether0"])
    if kind == "replicated":
        deploy_replicated_naming(bed, ["ns0", "ns1"])
    else:
        deploy_sharded_naming(bed, [["ns0", "ns1"]])
    register_app_types(bed)
    log = bed.record_wire_trace()

    echo_server(bed, "dest", "app1")
    worker = bed.module("worker", "app1")
    client = bed.module("client", "app2")
    bed.settle()
    answers = []
    for i in range(3):
        uadd = client.ali.locate("dest")
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        answers.append((uadd.value, reply.values["n"], reply.values["text"]))
    try:
        client.ali.locate("ghost")
    except NoSuchName:
        answers.append("no-such-name")
    batch = client.nsp.resolve_batch(["dest", "worker", "no.such"])
    answers.append(tuple(sorted(
        (name, record.uadd.value if record else None)
        for name, record in batch.items())))
    worker.ali.deregister()
    bed.settle()
    return answers, _naming_frames(log), bed.now


def test_single_shard_ablation_matches_replicated_service():
    """PROTOCOL.md §14 ablation: with one shard, the sharded deployment
    IS the replicated naming service — same application answers, same
    naming wire traffic message for message and byte for byte, same
    virtual end time.  Ownership checks, the ring, and the anti-entropy
    log cost nothing on the wire until a second shard exists."""
    replicated = _naming_service_run("replicated")
    sharded = _naming_service_run("sharded")
    assert sharded[0] == replicated[0]          # answers
    assert len(replicated[1]) > 0               # the trace saw naming
    assert sharded[1] == replicated[1]          # frames, byte-identical
    assert sharded[2] == replicated[2]          # virtual timeline


# ---------------------------------------------------------------------------
# Work per operation, pinned: the simulated substrate's hot path may get
# cheaper, but it must do exactly the same work — same events, same
# frames, same bytes, same wire trace.
# ---------------------------------------------------------------------------

def _work(bed, log):
    """Scheduler events, (frames, bytes) per network, and the SHA-256
    of the whole wire trace."""
    digest = hashlib.sha256()
    for event in log.events:
        digest.update(json.dumps(event, sort_keys=True).encode() + b"\n")
    return (bed.scheduler.events_processed,
            {name: (net.frames_sent, net.bytes_sent)
             for name, net in bed.networks.items()},
            digest.hexdigest())


def test_work_pinned_echo_over_three_gateways():
    bed = chain_nets(3)
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("dest")
    for i in range(20):
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        assert reply.values["text"] == f"M{i}"
    bed.settle()
    assert _work(bed, log) == (
        867,
        {"net0": (222, 25204), "net1": (186, 20820),
         "net2": (150, 16316), "net3": (118, 12422)},
        "6aae9d1cb70a978040cb19ad7d5083b2f397f1bbe7ae2f3c9c670121ab9837ad")


def test_work_pinned_burst_through_the_mbx_ring():
    bed = two_nets()
    log = bed.record_wire_trace()
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["a"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    for i in range(200):
        src.ali.send(uadd, "numbers", {"a": i, "b": -i, "big": i << 40})
    bed.settle()
    assert received == list(range(200))
    assert _work(bed, log) == (
        135,
        {"ether0": (470, 47944), "ring0": (438, 43637)},
        "9bf9548fd0ea4eb240329a7bcb48a6bcefff30c5e80d5ce74ca229faa92d83ff")
