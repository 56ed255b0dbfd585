"""Exact work counts read from the program after a round.

Everything here is a count the program keeps anyway: each Nucleus's
:class:`~repro.util.counters.CounterSet`, the conversion registry's and
Name Server's counter sets, the gateways' attribute counters, the
networks' frame and byte totals, the IPCS segment counters and the
scheduler's event count.  Reading them costs nothing during the timed
loop; a round's counts are the difference of two snapshots.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro import Testbed
from repro.util.counters import LVC_RX_QUEUE_HIGH_WATER

# Counters that are high-water marks, not accumulators: the snapshot
# keeps the maximum over every Nucleus, and a delta keeps the later one.
HIGH_WATER = frozenset({LVC_RX_QUEUE_HIGH_WATER})

_GATEWAY_ATTRS = ("messages_forwarded", "frames_forwarded_zero_copy",
                  "circuits_established", "credit_overruns_dropped")


def _nuclei(bed: Testbed):
    for commod in bed.modules.values():
        yield commod.nucleus
    for gateway in bed.gateways.values():
        yield from gateway.stacks.values()
    if bed.name_server_instance is not None:
        yield bed.name_server_instance.nucleus


def snapshot(bed: Testbed) -> Dict[str, int]:
    """Every count of the deployment, flattened into one dict."""
    totals: Counter = Counter()
    high: Dict[str, int] = {}

    def add(counter_set) -> None:
        for name, value in counter_set:
            if name in HIGH_WATER:
                high[name] = max(high.get(name, 0), value)
            else:
                totals[name] += value

    for nucleus in _nuclei(bed):
        add(nucleus.counters)
    add(bed.registry.counters)
    if bed.name_server_instance is not None:
        add(bed.name_server_instance.counters)
    for gateway in bed.gateways.values():
        for attr in _GATEWAY_ATTRS:
            totals[f"gateway.{attr}"] += getattr(gateway, attr)
    for network in bed.networks.values():
        totals["net.frames_sent"] += network.frames_sent
        totals["net.frames_delivered"] += network.frames_delivered
        totals["net.bytes_sent"] += network.bytes_sent
    for machine in bed.machines.values():
        for ipcs in machine.ipcs_instances():
            totals["ipcs.segments"] += getattr(ipcs, "segments_sent", 0)
            totals["ipcs.segments"] += getattr(ipcs, "records_sent", 0)
            totals["ipcs.retransmits"] += getattr(
                ipcs, "segments_retransmitted", 0)
    totals["sched.events"] = bed.scheduler.events_processed
    totals.update(high)
    return dict(totals)


def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """The counts one round added (high-water marks: the later value)."""
    return {name: value if name in HIGH_WATER else value - before.get(name, 0)
            for name, value in after.items()}
