"""Deployment builder: whole NTCS testbeds in a few lines.

The paper's URSA testbed mixed machines, networks, gateways, a Name
Server and application modules.  :class:`Testbed` assembles exactly
that on the simulation substrate — used by the examples, integration
tests and every benchmark.

Typical use::

    bed = Testbed()
    ether = bed.network("ether0", protocol="tcp")
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.name_server("vax1")
    server = bed.module("index.server", "sun1")
    client = bed.module("host.1", "vax1")
    uadd = client.ali.locate("index.server")
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.commod import ComMod
from repro.conversion import ConversionRegistry
from repro.errors import SimulationError
from repro.ipcs import SimMbxIpcs, SimTcpIpcs
from repro.machine import Machine, MachineType, SimProcess
from repro.naming import NameServer, NspLayer, register_naming_types
from repro.netsim import (
    ChaosEngine,
    ChaosSchedule,
    NetTraceLog,
    Network,
    Scheduler,
)
from repro.ntcs.address import blob_network
from repro.ntcs.gateway import Gateway
from repro.ntcs.nucleus import NucleusConfig
from repro.ntcs.protocol import register_nucleus_types
from repro.ntcs.wellknown import WellKnownTable
from repro.drts.protocol import register_drts_types

_IPCS_KINDS = {"tcp": SimTcpIpcs, "mbx": SimMbxIpcs}

# Well-known bindings for the Name Server's listening resource.
_NS_BINDINGS = {"tcp": "411", "mbx": "/mbx/name.server"}


def make_registry() -> ConversionRegistry:
    """A registry with every internal NTCS/naming/DRTS type installed."""
    registry = ConversionRegistry()
    register_nucleus_types(registry)
    register_naming_types(registry)
    register_drts_types(registry)
    return registry


class Testbed:
    """One deployment: scheduler, networks, machines, Name Server,
    gateways and modules, sharing a registry and well-known table."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, config: Optional[NucleusConfig] = None):
        self.scheduler = Scheduler()
        self.registry = make_registry()
        self.wellknown = WellKnownTable()
        self.config = config or NucleusConfig()
        self.networks: Dict[str, Network] = {}
        self.machines: Dict[str, Machine] = {}
        self.gateways: Dict[str, Gateway] = {}
        self.modules: Dict[str, ComMod] = {}
        self.name_server_instance: Optional[NameServer] = None
        # Swappable naming-service client (set by e.g. the replicated
        # deployment helper); None means the single-server NspLayer.
        self.nsp_factory = None
        # Sharded naming bookkeeping (PROTOCOL.md §14), filled by
        # repro.naming.shards.deploy_sharded_naming: machine → shard
        # server (for chaos restarts), shard id → replica group, and
        # the shard → [(uadd, blob, mtype)] directory.
        self.name_shard_servers: Dict[str, NameServer] = {}
        self.shard_groups: Dict[int, List[NameServer]] = {}
        self.shard_directory: Dict[int, list] = {}

    # -- topology -----------------------------------------------------------

    def network(self, name: str, protocol: str = "tcp",
                latency: float = 0.001,
                bandwidth: Optional[float] = None) -> Network:
        """Create a network.  ``protocol`` fixes which native IPCS runs
        on it ("tcp" for ethernets, "mbx" for the Apollo ring);
        ``bandwidth`` (bytes/virtual-second) enables the serialization-
        delay model."""
        if protocol not in _IPCS_KINDS:
            raise SimulationError(f"unknown IPCS protocol {protocol!r}")
        if name in self.networks:
            raise SimulationError(f"network {name!r} already exists")
        net = Network(self.scheduler, name, latency=latency,
                      bandwidth=bandwidth)
        net.protocol = protocol
        # Frame trains (PROTOCOL.md §13) are a delivery-path construct
        # of the substrate, configured deployment-wide.
        net.train_max = self.config.train_max
        self.networks[name] = net
        return net

    def machine(
        self,
        name: str,
        mtype: MachineType,
        networks: List[str],
        clock_offset: float = 0.0,
        clock_drift: float = 0.0,
    ) -> Machine:
        """Create a machine attached to the named networks, with the
        matching native IPCS instantiated per network."""
        if name in self.machines:
            raise SimulationError(f"machine {name!r} already exists")
        machine = Machine(self.scheduler, name, mtype,
                          clock_offset=clock_offset, clock_drift=clock_drift)
        for net_name in networks:
            net = self.networks[net_name]
            machine.attach_network(net)
            _IPCS_KINDS[net.protocol](machine, net)
        self.machines[name] = machine
        return machine

    # -- system modules -----------------------------------------------------

    def name_server(self, machine_name: str,
                    network: Optional[str] = None,
                    db=None) -> NameServer:
        """Start the Name Server on a machine and publish its
        well-known address to every (current and future) module.
        Pass ``db`` to swap the database implementation (e.g. an
        :class:`~repro.naming.attributes.AttributeNameDatabase`)."""
        if self.name_server_instance is not None:
            raise SimulationError("this testbed already has a Name Server")
        machine = self.machines[machine_name]
        network = network or machine.networks[0]
        protocol = self.networks[network].protocol
        process = SimProcess(machine, "name.server")
        server = NameServer(
            process, self.registry, self.wellknown,
            network=network, binding=_NS_BINDINGS[protocol],
            config=replace(self.config), db=db,
        )
        self.wellknown.add_name_server_blob(server.listen_blob)
        self.name_server_instance = server
        return server

    def gateway(self, machine_name: str,
                prime_for: Optional[List[str]] = None) -> Gateway:
        """Start a gateway spanning all of a machine's networks,
        register it with the naming service, and optionally make it the
        *prime* gateway (the well-known route toward the Name Server)
        for some of those networks."""
        machine = self.machines[machine_name]
        process = SimProcess(machine, f"gw.{machine_name}")
        gateway = Gateway(process, self.registry, self.wellknown,
                          config=replace(self.config))
        # Prime status must exist before registration: the gateway's
        # own registration may need to route toward the Name Server.
        for network in (prime_for or []):
            blob = gateway.stacks[network].nd.listen_blob
            self.wellknown.add_prime_gateway(network, blob)
        gateway.attach_nsp(self._gateway_nsp_factory())
        gateway.register()
        self.gateways[machine_name] = gateway
        return gateway

    def _gateway_nsp_factory(self):
        """Gateways talk to whatever naming service the deployment
        runs: the swapped-in factory (replicated / sharded) when one is
        installed, the single-server NspLayer otherwise."""
        return self.nsp_factory or (lambda nucleus: NspLayer(nucleus))

    def module(
        self,
        name: str,
        machine_name: str,
        network: Optional[str] = None,
        register: bool = True,
        attrs: Optional[Dict[str, str]] = None,
        config: Optional[NucleusConfig] = None,
    ) -> ComMod:
        """Create an application module: process + ComMod, registered
        with the naming service by default."""
        machine = self.machines[machine_name]
        process = SimProcess(machine, name)
        commod = ComMod(
            process, self.registry, self.wellknown,
            network=network, config=config or replace(self.config),
            nsp_factory=self.nsp_factory,
        )
        if register:
            commod.ali.register(name, attrs=attrs)
        self.modules[name] = commod
        return commod

    # -- crash recovery (PROTOCOL.md §10) ------------------------------------

    @staticmethod
    def _binding_from_blob(blob: str) -> str:
        """Recover the listening binding (TCP port / MBX pathname) from
        a previously published address blob."""
        if blob.startswith("tcp:"):
            return str(SimTcpIpcs.parse_blob(blob)[2])
        if blob.startswith("mbx:"):
            return SimMbxIpcs.parse_blob(blob)[2]
        raise SimulationError(f"cannot recover a binding from blob {blob!r}")

    def revive_machine(self, name: str) -> Machine:
        """Bring a crashed machine's interfaces back up.  Its old
        processes stay dead — restart components explicitly, or let
        :meth:`chaos` do it."""
        machine = self.machines[name]
        machine.revive()
        return machine

    def restart_gateway(self, machine_name: str) -> Gateway:
        """Restart a crashed gateway on the same machine with the *same*
        listening bindings — well-known prime blobs and peers' cached
        routes stay valid — and re-register it under the same name, so
        the fresh record supersedes the dead one in route planning."""
        old = self.gateways[machine_name]
        machine = self.revive_machine(machine_name)
        bindings = {
            network: self._binding_from_blob(nucleus.nd.listen_blob)
            for network, nucleus in old.stacks.items()
            if nucleus.nd.listen_blob
        }
        process = SimProcess(machine, f"gw.{machine_name}")
        gateway = Gateway(process, self.registry, self.wellknown,
                          config=replace(self.config), bindings=bindings)
        gateway.attach_nsp(self._gateway_nsp_factory())
        gateway.register()
        self.gateways[machine_name] = gateway
        return gateway

    def restart_name_server(self) -> NameServer:
        """Restart the Name Server on its machine with the surviving
        database and the same well-known binding.  The restart guard in
        :class:`~repro.naming.server.NameServer` reuses the original
        UAdd, so every module's well-known table stays valid."""
        old = self.name_server_instance
        if old is None:
            raise SimulationError("this testbed has no Name Server to restart")
        machine = old.process.machine
        machine.revive()
        network = blob_network(old.listen_blob)
        protocol = self.networks[network].protocol
        process = SimProcess(machine, old.process.name)
        server = type(old)(
            process, self.registry, self.wellknown,
            network=network, binding=_NS_BINDINGS[protocol],
            config=replace(self.config), db=old.db, name=old.name,
        )
        if hasattr(old, "peer_uadds") and hasattr(server, "set_peers"):
            server.set_peers(list(old.peer_uadds))
        self.name_server_instance = server
        return server

    def restart_name_shard(self, machine_name: str) -> NameServer:
        """Restart a crashed shard server (PROTOCOL.md §14) on its
        machine with the surviving database, the same well-known
        binding, and its original UAdd, shard map and replica peers —
        then pull the writes it missed from its peers through one
        anti-entropy round."""
        old = self.name_shard_servers.get(machine_name)
        if old is None:
            raise SimulationError(
                f"machine {machine_name!r} hosts no naming shard server")
        machine = self.revive_machine(machine_name)
        network = blob_network(old.listen_blob)
        process = SimProcess(machine, old.process.name)
        server = type(old)(
            process, self.registry, self.wellknown,
            network=network,
            binding=self._binding_from_blob(old.listen_blob),
            config=replace(self.config), db=old.db, name=old.name,
            shard_id=old.shard_id,
        )
        server.set_shard_map(old.shard_directory)
        server.set_peers(list(old.peer_uadds))
        for entries in old.shard_directory.values():
            for uadd, blob, mtype_name in entries:
                server.nucleus.ns_addresses.add(uadd)
                if uadd != server.uadd and blob:
                    server.nucleus.addr_cache.store(uadd, blob, mtype_name)
        self.name_shard_servers[machine_name] = server
        group = self.shard_groups[old.shard_id]
        group[group.index(old)] = server
        if self.name_server_instance is old:
            self.name_server_instance = server
        server.run_antientropy()
        return server

    def record_wire_trace(self) -> NetTraceLog:
        """Tap every network of this deployment with one
        :class:`~repro.netsim.tracelog.NetTraceLog`.  The returned log
        accumulates every transmitted frame (dropped ones included);
        dump it with :meth:`NetTraceLog.dump_jsonl` and replay it with
        ``python -m repro.analysis verify --trace``."""
        log = NetTraceLog()
        for network in self.networks.values():
            log.attach(network)
        return log

    def chaos(self, schedule: ChaosSchedule) -> ChaosEngine:
        """Install a :class:`~repro.netsim.chaos.ChaosSchedule` onto
        this deployment: every machine becomes a crash/restart target
        (restart revives the machine and restarts whatever gateway or
        Name Server it hosted) and every network accepts link ops."""
        engine = ChaosEngine(self.scheduler, schedule)
        for name, network in self.networks.items():
            engine.register_network(name, network)
        for name, machine in self.machines.items():
            engine.register_target(
                name, crash=machine.crash, restart=self._restarter(name))
        engine.install()
        return engine

    def _restarter(self, machine_name: str):
        """A restart callable for :meth:`chaos`: revive the machine and
        relaunch the system components it hosted.  Restarting a machine
        that is already up is a no-op, so overlapping crash/restart
        windows in a random schedule cannot double-bind listen ports."""
        def restart() -> None:
            if self.machines[machine_name].alive:
                return
            self.revive_machine(machine_name)
            if machine_name in self.gateways:
                self.restart_gateway(machine_name)
            if machine_name in self.name_shard_servers:
                self.restart_name_shard(machine_name)
                return
            ns = self.name_server_instance
            if ns is not None and ns.process.machine.name == machine_name:
                self.restart_name_server()
        return restart

    # -- running -------------------------------------------------------------

    def settle(self) -> int:
        """Drain outstanding events (e.g. after asynchronous sends)."""
        return self.scheduler.run_until_idle()

    def run_for(self, duration: float) -> int:
        """Run events inside a virtual-time window; returns how many ran."""
        return self.scheduler.run_for(duration)

    @property
    def now(self) -> float:
        return self.scheduler.now
