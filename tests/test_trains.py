"""Frame trains (PROTOCOL.md §13): batched delivery and vectorized
dispatch change how many scheduler events the data plane pays, and
nothing else.

Three layers of evidence:

* exact-pin ablation — ``train_max=1`` (every frame a train of one)
  reproduces the pre-train per-frame event schedule event-for-event,
  and longer trains keep every wire frame count and application
  answer while strictly shrinking the event count;
* a property — delivered message sequences are identical with
  ``train_max=1`` and a random coalescing window ``train_max=k``
  under random *deterministic* chaos schedules (gateway
  crash/restart, drop_next),
  and flow-control stalls.  Probabilistic drops are deliberately
  excluded: ``FaultPlan.should_drop`` draws its seeded RNG per
  transmit, so any schedule that consumes randomness in event order
  is not comparable across modes — everything else must be;
* unit coverage for the vectorized codecs the train path rides on
  (``shift_*_u32s_many``, ``header_views``, ``decode_frames``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deployments import echo_server, single_net, two_nets
from repro.conversion.shiftmode import (
    shift_decode_u32s_many,
    shift_encode_u32s,
    shift_encode_u32s_many,
)
from repro.errors import ConversionError, ProtocolError, SendWouldBlock
from repro.netsim import ChaosSchedule
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.nucleus import NucleusConfig

# The per-frame event schedule pinned before trains existed: total
# scheduler events and per-network wire frames for the 20-call echo
# workloads below.  ``train_max=1`` must reproduce these exactly;
# longer trains must keep the frames and shrink the events.
SINGLE_NET_OFF_EVENTS = 168
SINGLE_NET_FRAMES = 114
TWO_NETS_OFF_EVENTS = 338
TWO_NETS_ETHER_FRAMES = 150
TWO_NETS_RING_FRAMES = 118


def _echo_workload(make_bed, server_machine, train_max=64):
    bed = make_bed(config=NucleusConfig(train_max=train_max))
    echo_server(bed, "dest", server_machine)
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    answers = []
    for i in range(20):
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        answers.append((reply.values["n"], reply.values["text"]))
    bed.settle()
    return bed, answers


def _wire(bed):
    return {name: net.frames_sent for name, net in bed.networks.items()}


def _coalesced(bed):
    return sum(net.trains_coalesced for net in bed.networks.values())


def _counter_total(bed, name):
    """``name`` summed over every nucleus of the deployment."""
    nuclei = [commod.nucleus for commod in bed.modules.values()]
    for gateway in bed.gateways.values():
        nuclei.extend(gateway.stacks.values())
    if bed.name_server_instance is not None:
        nuclei.append(bed.name_server_instance.nucleus)
    return sum(n.counters.snapshot().get(name, 0) for n in nuclei)


# ---------------------------------------------------------------------------
# Exact-pin ablation: trains of one == the pre-train schedule
# ---------------------------------------------------------------------------

def test_ablation_single_net_reproduces_per_frame_schedule():
    bed, answers = _echo_workload(single_net, "sun1", train_max=1)
    assert bed.scheduler.events_processed == SINGLE_NET_OFF_EVENTS
    assert _wire(bed) == {"ether0": SINGLE_NET_FRAMES}
    assert _coalesced(bed) == 0
    assert answers == [(i, f"M{i}") for i in range(20)]


def test_ablation_two_nets_reproduces_per_frame_schedule():
    bed, answers = _echo_workload(two_nets, "apollo1", train_max=1)
    assert bed.scheduler.events_processed == TWO_NETS_OFF_EVENTS
    assert _wire(bed) == {"ether0": TWO_NETS_ETHER_FRAMES,
                          "ring0": TWO_NETS_RING_FRAMES}
    assert _coalesced(bed) == 0
    assert answers == [(i, f"M{i}") for i in range(20)]


def test_trains_on_same_wire_same_answers_fewer_events():
    """The §13 contract in one assertion set: identical wire frames,
    identical application answers, strictly fewer scheduler events,
    and at least one multi-frame delivery actually coalesced."""
    for make_bed, server, frames, off_events in (
            (single_net, "sun1", {"ether0": SINGLE_NET_FRAMES},
             SINGLE_NET_OFF_EVENTS),
            (two_nets, "apollo1", {"ether0": TWO_NETS_ETHER_FRAMES,
                                   "ring0": TWO_NETS_RING_FRAMES},
             TWO_NETS_OFF_EVENTS)):
        bed, answers = _echo_workload(make_bed, server)
        assert _wire(bed) == frames
        assert answers == [(i, f"M{i}") for i in range(20)]
        assert bed.scheduler.events_processed < off_events
        assert _coalesced(bed) > 0


def test_trains_of_one_open_no_train_scope():
    """On the echo workloads no delivery carries more than one NTCS
    frame to an LVC, so every frame is a train of one: no ND train
    walk, no LCM train drain.  A collapse that wrapped single frames
    in ``train_begin``/``train_end`` would count drains here."""
    for make_bed, server in ((single_net, "sun1"), (two_nets, "apollo1")):
        bed, _ = _echo_workload(make_bed, server)
        assert _coalesced(bed) > 0
        assert _counter_total(bed, "nd_train_frames") == 0
        assert _counter_total(bed, "lcm_train_drains") == 0


def test_train_counters_account_the_batches():
    """A burst across the gateway drives every §13 counter: ND train
    frames at the receiving stack, gateway train splices, and one LCM
    drain per train walk — while messages arrive complete and in
    order."""
    bed = two_nets(config=NucleusConfig())
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["a"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    for i in range(60):
        src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    assert received == list(range(60))
    snap = sink.nucleus.counters.snapshot()
    assert snap.get("nd_train_frames", 0) > 0
    assert snap.get("lcm_train_drains", 0) >= 1
    gateway = bed.gateways["gw1"]
    assert sum(stack.counters["gw_train_splices"]
               for stack in gateway.stacks.values()) >= 1
    assert _coalesced(bed) > 0


def test_train_of_one_keeps_arrival_order_behind_a_blocked_walk():
    """A handler blocks on the first message of a three-frame train,
    and while it is blocked a fourth message reaches the same LVC,
    re-entrantly, as a train of one.  It must wait behind the two
    frames still pending from the walk, not overtake them."""
    bed = single_net(config=NucleusConfig())
    sink = bed.module("sink", "sun1")
    order = []

    def handle(msg):
        order.append(msg.values["a"])
        if msg.values["a"] == 0:
            bed.scheduler.wait(0.05)

    sink.ali.set_request_handler(handle)
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    for i in range(3):
        src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.scheduler.schedule(0.01, lambda: src.ali.send(
        uadd, "numbers", {"a": 3, "b": 0, "big": 0}))
    bed.settle()
    # The first three arrived as one train; the fourth alone.
    assert sink.nucleus.counters["nd_train_frames"] == 3
    assert order == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Property: delivery order does not depend on the train length, under
# coalescing windows, deterministic chaos, and flow-control stalls
# ---------------------------------------------------------------------------

def _burst_observables(train_max, flow_window, crash_at_ms,
                       down_ms, drop_count, messages=18):
    """Everything an application can observe from a flood across the
    gateway: the delivered values in delivery order, plus every send
    outcome.  The gateway is crashed and restarted on a fixed virtual
    schedule and ``drop_count`` frames are unconditionally dropped —
    both deterministic in event order, hence mode-comparable."""
    bed = two_nets(config=NucleusConfig(
        train_max=train_max, flow_control_enabled=True, flow_window=flow_window,
        repair_max_attempts=8))
    sink = bed.module("ring.sink", "apollo1")
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    if crash_at_ms is not None:
        bed.chaos(ChaosSchedule(seed=3)
                  .crash(bed.now + crash_at_ms / 1000.0, "gw1")
                  .restart(bed.now + (crash_at_ms + down_ms) / 1000.0, "gw1"))
    if drop_count:
        bed.networks["ether0"].faults.drop_next(drop_count)
    outcomes = []
    received = []

    def drain():
        while sink.ali.queued():
            received.append(sink.ali.receive(timeout=5.0).values["a"])

    for i in range(messages):
        for attempt in range(64):
            try:
                src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0},
                             block=False)
                outcomes.append(("sent", i))
                break
            except SendWouldBlock:
                outcomes.append(("blocked", i))
                bed.settle()
                drain()
        else:
            outcomes.append(("gave-up", i))
    bed.settle()
    drain()
    return received, outcomes


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    train_max=st.integers(min_value=2, max_value=8),
    flow_window=st.integers(min_value=4, max_value=12),
    crash_at_ms=st.one_of(st.none(), st.integers(min_value=5, max_value=40)),
    down_ms=st.integers(min_value=20, max_value=80),
    drop_count=st.integers(min_value=0, max_value=3),
)
def test_train_delivery_order_equals_per_frame_order(
        train_max, flow_window, crash_at_ms, down_ms, drop_count):
    on = _burst_observables(train_max, flow_window,
                            crash_at_ms, down_ms, drop_count)
    off = _burst_observables(1, flow_window,
                             crash_at_ms, down_ms, drop_count)
    assert on == off


# ---------------------------------------------------------------------------
# Vectorized codec units
# ---------------------------------------------------------------------------

def test_shift_encode_many_is_concatenation_of_singles():
    groups = [[1, 2, 3], [0xFFFFFFFF, 0, 7], [10, 20, 30]]
    blob = shift_encode_u32s_many(groups)
    assert blob == b"".join(shift_encode_u32s(g) for g in groups)
    assert shift_decode_u32s_many(blob, 3, 3) == groups


def test_shift_many_rejects_ragged_groups():
    with pytest.raises(ConversionError):
        shift_encode_u32s_many([[1, 2], [3]])


def test_header_views_match_per_frame_views():
    frames = [
        m.Msg(kind=m.DATA, src=Address(3), dst=Address(9),
              flags=m.FLAG_PACKED, type_id=100 + i, corr_id=i,
              body=bytes([i]) * i).encode()
        for i in range(1, 6)
    ]
    views = m.header_views(frames)
    for frame, view in zip(frames, views):
        single = m.HeaderView(frame)
        assert (view.kind, view.type_id, view.corr_id) == \
            (single.kind, single.type_id, single.corr_id)


def test_header_views_reject_bad_magic():
    good = m.Msg(kind=m.DATA, src=Address(1), dst=Address(2),
                 type_id=100, corr_id=1, body=b"").encode()
    bad = b"\x00" * len(good)
    with pytest.raises(ProtocolError):
        m.header_views([good, bad])


def test_decode_frames_matches_per_frame_decode():
    frames = [
        m.Msg(kind=m.DATA, src=Address(3), dst=Address(9),
              flags=m.FLAG_PACKED, type_id=100, corr_id=i,
              body=b"abc" * i).encode()
        for i in range(4)
    ]
    batch = m.decode_frames(frames)
    singles = [m.Msg.decode(f) for f in frames]
    for got, want in zip(batch, singles):
        assert (got.kind, got.flags, got.type_id, got.corr_id,
                got.src.value, got.dst.value, got.body) == \
            (want.kind, want.flags, want.type_id, want.corr_id,
             want.src.value, want.dst.value, want.body)
        assert got.checksum_ok()


def test_decode_frames_rejects_truncated_body():
    frame = bytearray(m.Msg(kind=m.DATA, src=Address(1), dst=Address(2),
                            type_id=100, corr_id=1, body=b"xyz").encode())
    with pytest.raises(ProtocolError):
        m.decode_frames([bytes(frame[:-1])])
