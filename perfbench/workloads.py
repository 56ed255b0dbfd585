"""The three benchmark workloads, built only from the public ``repro`` API.

Every workload is a closed loop driven from one process and one thread:
the next operation starts only after the previous one returned.  A
discrete-event simulation has no wall-clock arrival process, so an open
loop in wall time would measure nothing real.

A workload is used in *rounds*.  :meth:`setup` builds a fresh topology
and warms it up (circuits open, caches filled); :meth:`inputs` makes one
round's operations from a seeded RNG; :meth:`run` executes them and
checks every reply or delivery.  The program under test only ever sees
the generated inputs, never the seed.

Why each workload exists, and which layers it stresses or bypasses, is
written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import random
import string
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import APOLLO, Field, StructDef, SUN3, Testbed, VAX

# Application message types.  Type ids sit in the application range,
# clear of every id the NTCS, naming and DRTS protocols reserve.
ECHO = StructDef("echo", 100, [Field("n", "u32"), Field("text", "char[32]")])
BULK = StructDef("bulk", 102, [Field("seq", "u32"), Field("data", "bytes")])

clock_ns = time.perf_counter_ns


def _register_types(bed: Testbed) -> None:
    for sdef in (ECHO, BULK):
        bed.registry.register(sdef)


def chain3() -> Testbed:
    """Four TCP ethernets in a line joined by three gateways; the Name
    Server and the client machine ``m0`` sit on ``net0``, the server
    machine ``mEnd`` on ``net3``.  Both end machines are VAXes."""
    bed = Testbed()
    for i in range(4):
        bed.network(f"net{i}", protocol="tcp")
    bed.machine("m0", VAX, networks=["net0"])
    bed.name_server("m0")
    for i in range(3):
        bed.machine(f"gwm{i}", SUN3, networks=[f"net{i}", f"net{i + 1}"])
        bed.gateway(f"gwm{i}", prime_for=[f"net{i + 1}"])
    bed.machine("mEnd", VAX, networks=["net3"])
    _register_types(bed)
    return bed


def two_nets() -> Testbed:
    """A TCP ethernet (``vax1``, ``sun1``, Name Server on ``vax1``) and
    an Apollo MBX ring (``apollo1``, ``apollo2``) joined by one gateway
    on ``gw1`` — the paper's Fig. 2-2 shape."""
    bed = Testbed()
    bed.network("ether0", protocol="tcp")
    bed.network("ring0", protocol="mbx", latency=0.0005)
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.machine("gw1", APOLLO, networks=["ether0", "ring0"])
    bed.machine("apollo1", APOLLO, networks=["ring0"])
    bed.machine("apollo2", APOLLO, networks=["ring0"])
    bed.name_server("vax1")
    bed.gateway("gw1", prime_for=["ring0"])
    _register_types(bed)
    return bed


def echo_server(bed: Testbed, name: str, machine: str):
    """A module answering ``echo`` requests with the text upper-cased."""
    commod = bed.module(name, machine)

    def handle(request):
        commod.ali.reply(request, "echo", {
            "n": request.values["n"],
            "text": request.values["text"].upper(),
        })

    commod.ali.set_request_handler(handle)
    return commod


def random_text(rng: random.Random) -> str:
    """Lower-case text that fits the ``char[32]`` echo field."""
    return "".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 32)))


@dataclass
class Session:
    """One built and warmed-up topology plus what the ops need."""

    bed: Testbed
    parts: Dict[str, object] = field(default_factory=dict)


@dataclass
class RoundResult:
    """What one round measured and checked.

    ``latency_ns`` and ``virtual_s`` hold one sample per operation (as
    arrays, so a long run's samples stay small next to the program's own
    memory); ``wall_ns`` covers the whole round, including any final
    drain."""

    attempted: int
    latency_ns: array
    virtual_s: array
    wall_ns: int
    payload_bytes: int
    errors: List[str]


class Roots:
    """Brackets each operation of a round.  The plain form does nothing;
    the traced run substitutes one that opens a root span per op."""

    def begin(self, op: int) -> None:
        """An operation starts."""

    def end(self) -> None:
        """The current operation ended."""


NO_ROOTS = Roots()


class Workload:
    """Base class: a named, seeded, self-checking closed loop."""

    name = ""
    ops_per_round = 0

    def setup(self) -> Session:
        """Build the topology and warm it up."""
        raise NotImplementedError

    def inputs(self, rng: random.Random) -> list:
        """One round's operations."""
        raise NotImplementedError

    def run(self, session: Session, inputs: list,
            roots: Roots = NO_ROOTS) -> RoundResult:
        """Execute one round of ``inputs`` and check every outcome."""
        raise NotImplementedError


class EchoChain3(Workload):
    """Synchronous ``echo`` round trips across three gateways."""

    name = "echo_chain3"
    ops_per_round = 1000
    WARMUP = 32

    def setup(self) -> Session:
        bed = chain3()
        echo_server(bed, "echo.server", "mEnd")
        client = bed.module("echo.client", "m0")
        uadd = client.ali.locate("echo.server")
        for n in range(self.WARMUP):
            client.ali.call(uadd, "echo", {"n": n, "text": "warm"})
        bed.settle()
        return Session(bed, {"client": client, "uadd": uadd})

    def inputs(self, rng: random.Random) -> list:
        return [random_text(rng) for _ in range(self.ops_per_round)]

    def run(self, session, inputs, roots=NO_ROOTS):
        call = session.parts["client"].ali.call
        uadd = session.parts["uadd"]
        scheduler = session.bed.scheduler
        latency, virtual, errors = array("q"), array("d"), []
        payload = 0
        start = clock_ns()
        for n, text in enumerate(inputs):
            roots.begin(n)
            v0 = scheduler.now
            t0 = clock_ns()
            try:
                reply = call(uadd, "echo", {"n": n, "text": text})
            except Exception as exc:  # counted and reported, never fatal
                errors.append(f"call {n}: {type(exc).__name__}: {exc}")
                roots.end()
                continue
            t1 = clock_ns()
            roots.end()
            latency.append(t1 - t0)
            virtual.append(scheduler.now - v0)
            values = reply.values
            if values["n"] != n or values["text"] != text.upper():
                errors.append(f"call {n}: wrong reply {values!r}")
            else:
                payload += 2 * ECHO.fixed_size
        roots.begin(len(inputs))
        session.bed.settle()
        roots.end()
        wall = clock_ns() - start
        return RoundResult(len(inputs), latency, virtual, wall, payload,
                           errors)


class Stream2Net(Workload):
    """One-way ``bulk`` messages from a VAX to an Apollo via a gateway."""

    name = "stream_2net"
    ops_per_round = 4000
    WARMUP = 64
    MIN_BYTES, MAX_BYTES = 16, 2048

    def setup(self) -> Session:
        bed = two_nets()
        sink = bed.module("bulk.sink", "apollo1")
        producer = bed.module("bulk.producer", "vax1")
        state = {"arrivals": []}

        def consume(request):
            state["arrivals"].append(
                (clock_ns(), bed.scheduler.now, request.src,
                 request.values["seq"], request.values["data"]))

        sink.ali.set_request_handler(consume)
        uadd = producer.ali.locate("bulk.sink")
        for seq in range(self.WARMUP):
            producer.ali.send(uadd, "bulk", {"seq": seq, "data": b"w" * 64})
        bed.settle()
        state["arrivals"].clear()
        return Session(bed, {"producer": producer, "uadd": uadd,
                             "state": state})

    def inputs(self, rng: random.Random) -> list:
        return [rng.randbytes(rng.randint(self.MIN_BYTES, self.MAX_BYTES))
                for _ in range(self.ops_per_round)]

    def run(self, session, inputs, roots=NO_ROOTS):
        send = session.parts["producer"].ali.send
        uadd = session.parts["uadd"]
        arrivals = session.parts["state"]["arrivals"]
        arrivals.clear()
        scheduler = session.bed.scheduler
        sent_at: List[Tuple[int, float]] = []
        errors = []
        start = clock_ns()
        for seq, data in enumerate(inputs):
            roots.begin(seq)
            sent_at.append((clock_ns(), scheduler.now))
            try:
                send(uadd, "bulk", {"seq": seq, "data": data})
            except Exception as exc:  # counted and reported, never fatal
                errors.append(f"send {seq}: {type(exc).__name__}: {exc}")
            roots.end()
        roots.begin(len(inputs))
        session.bed.settle()
        roots.end()
        wall = clock_ns() - start
        latency, virtual, payload = array("q"), array("d"), 0
        for t, v, _src, seq, data in arrivals:
            if 0 <= seq < len(sent_at):
                latency.append(t - sent_at[seq][0])
                virtual.append(v - sent_at[seq][1])
                payload += len(data)
        errors.extend(check_stream(inputs, arrivals))
        return RoundResult(len(inputs), latency, virtual, wall, payload,
                           errors)


def _digest(items) -> str:
    h = hashlib.sha256()
    for seq, data in items:
        h.update(seq.to_bytes(4, "big"))
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return h.hexdigest()


def check_stream(sent: List[bytes], arrivals: list) -> List[str]:
    """Every circuit's delivered ``seq`` run is complete and in order,
    and the delivered payloads digest to the sent ones."""
    errors = []
    by_circuit: Dict[object, List[int]] = {}
    for _t, _v, src, seq, _data in arrivals:
        by_circuit.setdefault(src, []).append(seq)
    for src, seqs in by_circuit.items():
        if seqs != list(range(len(sent))):
            missing = len(set(range(len(sent))) - set(seqs))
            errors.append(
                f"circuit {src}: {len(seqs)} delivered, {missing} missing "
                f"or out of order")
    if not by_circuit and sent:
        errors.append("no message delivered")
    delivered = _digest((seq, data) for _t, _v, _s, seq, data in arrivals)
    if delivered != _digest(enumerate(sent)):
        errors.append("delivered payload digest differs from the sent one")
    return errors


class Churn2Net(Workload):
    """Module lifecycles: online, register, locate, call, die."""

    name = "churn_2net"
    ops_per_round = 200
    WARMUP = 4

    def setup(self) -> Session:
        bed = two_nets()
        echo_server(bed, "churn.server", "sun1")
        session = Session(bed, {"serial": 0})
        warm = self.inputs(random.Random(0))[:self.WARMUP]
        result = self.run(session, warm)
        if result.errors:
            raise RuntimeError(f"churn warm-up failed: {result.errors[0]}")
        return session

    def inputs(self, rng: random.Random) -> list:
        return [(rng.choice(("apollo1", "apollo2")), random_text(rng))
                for _ in range(self.ops_per_round)]

    def run(self, session, inputs, roots=NO_ROOTS):
        bed = session.bed
        scheduler = bed.scheduler
        latency, virtual, errors = array("q"), array("d"), []
        born: List[Tuple[str, object]] = []
        payload = 0
        start = clock_ns()
        for n, (machine, text) in enumerate(inputs):
            session.parts["serial"] += 1
            name = f"churn.{session.parts['serial']}"
            roots.begin(n)
            v0 = scheduler.now
            t0 = clock_ns()
            try:
                module = bed.module(name, machine)
                born.append((name, module.ali.uadd))
                server = module.ali.locate("churn.server")
                reply = module.ali.call(server, "echo", {"n": n, "text": text})
                module.process.kill()
            except Exception as exc:  # counted and reported, never fatal
                errors.append(f"op {n}: {type(exc).__name__}: {exc}")
                roots.end()
                continue
            t1 = clock_ns()
            roots.end()
            latency.append(t1 - t0)
            virtual.append(scheduler.now - v0)
            values = reply.values
            if values["n"] != n or values["text"] != text.upper():
                errors.append(f"op {n}: wrong reply {values!r}")
            else:
                payload += 2 * ECHO.fixed_size
        roots.begin(len(inputs))
        bed.settle()
        roots.end()
        wall = clock_ns() - start
        errors.extend(check_lifecycles(bed, born))
        return RoundResult(len(inputs), latency, virtual, wall, payload,
                           errors)


def check_lifecycles(bed: Testbed,
                     born: List[Tuple[str, object]]) -> List[str]:
    """Each module was registered under its name and is now tombstoned."""
    db = bed.name_server_instance.db
    errors = []
    for name, uadd in born:
        record = db.get(uadd) if uadd is not None else None
        if record is None or record.name != name:
            errors.append(f"{name}: never registered")
        elif record.alive:
            errors.append(f"{name}: still registered after its process died")
    return errors


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (EchoChain3, Stream2Net, Churn2Net)
}


def make(name: str) -> Optional[Workload]:
    """The workload called ``name``, or None."""
    cls = WORKLOADS.get(name)
    return cls() if cls else None
