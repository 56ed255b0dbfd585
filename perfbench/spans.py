"""Span tracing installed from outside the program.

The traced run wraps the calls that cross each Fig. 2-1 layer boundary
(:data:`ENTRY_POINTS`) and the upcall callables each layer installs on
the one below (:data:`REGISTRARS`).  A wrapper records one span: its
name, start, end, parent span and the operation it ran under.  Spans
stay in memory (:class:`SpanLog`) until the run ends.

A span's layer is the :mod:`repro.analysis.layermap` layer of the
module that defines the wrapped callable, so a bound method, closure or
lambda handed down as an upcall is charged to the layer that wrote it.
Callables from outside ``repro`` — the benchmark's own handlers — are
charged to ``app``.

:func:`install` returns an :class:`Installation` whose
:meth:`~Installation.restore` puts back every attribute it replaced, in
reverse order, so the untraced run executes unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.layermap import layer_name

#: The layer of a root span: time inside an operation but inside no
#: layer span is the trace's unattributed time.
ROOT_LAYER = "op"
APP = "app"

# (module, class, methods) whose calls are spans.  Methods named here
# are looked up through the class at call time, so patching the class
# attribute reaches every caller.
ENTRY_POINTS: Tuple[Tuple[str, str, Sequence[str]], ...] = (
    ("repro.commod.ali", "AliLayer", ("*",)),
    ("repro.naming.nsp", "NspLayer", ("*",)),
    ("repro.ntcs.lcm", "LcmLayer", ("send", "call", "call_async", "reply",
                                    "receive", "datagram")),
    ("repro.ntcs.iplayer", "IpLayer", ("open_ivc", "send_values",
                                       "send_raw")),
    ("repro.ntcs.ndlayer", "NdLayer", ("open_lvc", "send", "send_frame",
                                       "send_frames")),
    # handle() is the IP-Layer's hook; the two fast-forward methods are
    # the frame taps the gateway installs on spliced LVCs (called
    # through lambdas that look the method up on the instance).
    ("repro.ntcs.gateway", "Gateway", ("handle", "on_fault", "_fast_forward",
                                       "_fast_forward_train")),
    ("repro.ntcs.nucleus", "Nucleus", ("pack_internal", "unpack_internal",
                                       "train_begin", "train_end",
                                       "train_flush", "set_identity")),
    ("repro.ipcs.base", "Channel", ("send",)),
    ("repro.ipcs.tcp", "SimTcpIpcs", ("connect",)),
    ("repro.ipcs.mbx", "SimMbxIpcs", ("connect",)),
    ("repro.netsim.network", "Network", ("transmit",)),
    ("repro.netsim.network", "Interface", ("deliver", "deliver_train")),
    ("repro.netsim.scheduler", "Scheduler", ("pump_until", "run_until_idle",
                                             "run_for")),
    ("repro.ntcs.message", "Msg", ("encode", "decode")),
    ("repro.ntcs.message", "HeaderView", ("__init__", "from_words")),
    ("repro.util.counters", "CounterSet", ("incr", "record_max")),
    ("repro.util.idgen", "SequenceGenerator", ("next",)),
    ("repro.util.trace", "NullTracer", ("record",)),
)

# (module, functions): module-level functions.  ``from … import``
# copies the binding, so each is patched wherever a ``repro`` module
# holds it, not only where it is defined.
FUNCTIONS: Tuple[Tuple[str, Sequence[str]], ...] = (
    ("repro.ntcs.message", ("decode_frames", "header_views",
                            "patch_frame_aux")),
    ("repro.conversion.modes", ("encode_body", "encode_values",
                                "decode_body")),
    ("repro.conversion.shiftmode", ("shift_encode_u32s", "shift_decode_u32s",
                                    "shift_encode_u32s_many",
                                    "shift_decode_u32s_many")),
)

# (module, class, methods) that install a callable on a lower layer
# (or on the scheduler): every callable argument is replaced by a span
# wrapper charged to the layer that defined it.
REGISTRARS: Tuple[Tuple[str, str, Sequence[str]], ...] = (
    ("repro.netsim.network", "Interface", ("bind_protocol",
                                           "bind_protocol_batch")),
    ("repro.ipcs.base", "Channel", ("set_receive_handler",
                                    "set_batch_receive_handler",
                                    "set_close_handler")),
    ("repro.ntcs.stdif", "MessageChannel", ("set_message_handler",
                                            "set_train_handler",
                                            "set_close_handler")),
    ("repro.ntcs.ndlayer", "NdLayer", ("set_upcalls",)),
    ("repro.ntcs.iplayer", "IpLayer", ("set_upcalls",)),
    ("repro.ntcs.lcm", "LcmLayer", ("set_handler",)),
    ("repro.netsim.scheduler", "Scheduler", ("schedule", "post",
                                             "defer_flush")),
    ("repro.netsim.timerwheel", "RunQueue", ("post",)),
)

_MARK = "_perfbench_span"


@functools.lru_cache(maxsize=None)
def module_layer(module: str) -> str:
    """The layermap layer of a module, or :data:`APP` outside ``repro``."""
    return layer_name(module) or APP


def callable_layer(fn) -> str:
    """The layer that wrote ``fn``."""
    target = getattr(fn, "func", fn)          # functools.partial
    target = getattr(target, "__func__", target)  # bound method
    return module_layer(getattr(target, "__module__", None) or "")


def callable_name(fn) -> str:
    target = getattr(fn, "func", fn)
    target = getattr(target, "__func__", target)
    return getattr(target, "__qualname__", type(target).__name__)


class SpanLog:
    """Spans held in memory as parallel arrays.

    Span ``i`` has name and layer ``kinds[kind[i]]``, times ``start[i]``
    and ``stop[i]`` (seconds), parent index ``parent[i]`` (-1 for a
    root) and operation id ``op[i]``.  Only spans opened while a root
    is open are recorded.  :meth:`begin` and :meth:`end` bracket the
    roots, so a log serves as a workload's ``roots`` hook."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.kinds: List[Tuple[str, str]] = []
        self._kind_ids: Dict[Tuple[str, str], int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.stop = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = -1
        self.recording = False
        self._root_kind = self.kind_id("op", ROOT_LAYER)

    def __len__(self) -> int:
        return len(self.kind)

    def kind_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        kid = self._kind_ids.get(key)
        if kid is None:
            kid = self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
        return kid

    def _open(self, kid: int) -> int:
        idx = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.stop.append(0.0)
        self.start.append(self.clock())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stop[idx] = self.clock()
        self._stack.pop()

    def begin(self, op: int) -> None:
        """Open the root span of operation ``op`` and start recording."""
        self._op = op
        self.recording = True
        self._open(self._root_kind)

    def end(self) -> None:
        """Close the open root span and stop recording."""
        self._close(self._stack[-1])
        self.recording = False
        self._op = -1

    def wrap(self, fn, name: str, layer: str):
        """A span-recording stand-in for ``fn``."""
        kid = self.kind_id(name, layer)
        log = self

        def span(*args, **kwargs):
            if not log.recording:
                return fn(*args, **kwargs)
            idx = log._open(kid)
            try:
                return fn(*args, **kwargs)
            finally:
                log._close(idx)

        span.__wrapped__ = fn
        setattr(span, _MARK, True)
        return span

    def wrap_upcall(self, fn):
        """Wrap a callable handed to a registrar, charged to its writer."""
        if fn is None or not callable(fn) or getattr(fn, _MARK, False):
            return fn
        layer = callable_layer(fn)
        return self.wrap(fn, f"{layer}:{callable_name(fn)}", layer)

    def write_tsv(self, path) -> None:
        """Dump every span, one per line: op, parent, layer, name,
        start, end (seconds)."""
        with open(path, "w") as handle:
            handle.write("index\top\tparent\tlayer\tname\tstart\tend\n")
            for i in range(len(self.kind)):
                name, layer = self.kinds[self.kind[i]]
                handle.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t{layer}\t"
                             f"{name}\t{self.start[i]!r}\t{self.stop[i]!r}\n")


def self_times(start: Sequence[float], stop: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest (a child lies inside its parent), so the children's
    cover is the sum of their durations."""
    own = [e - s for s, e in zip(start, stop)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= stop[i] - start[i]
    return own


def layer_totals(log: SpanLog) -> Dict[str, Tuple[float, int]]:
    """Per layer: (self seconds, spans).  :data:`ROOT_LAYER` holds the
    unattributed time and the number of root spans."""
    own = self_times(log.start, log.stop, log.parent)
    totals: Dict[str, List[float]] = {}
    for i, kid in enumerate(log.kind):
        layer = log.kinds[kid][1]
        acc = totals.setdefault(layer, [0.0, 0])
        acc[0] += own[i]
        acc[1] += 1
    return {layer: (acc[0], int(acc[1])) for layer, acc in totals.items()}


def name_counts(log: SpanLog) -> Dict[str, int]:
    """Spans per span name."""
    counts: Dict[str, int] = {}
    for kid in log.kind:
        name = log.kinds[kid][0]
        counts[name] = counts.get(name, 0) + 1
    return counts


def root_time(log: SpanLog) -> float:
    """Total duration of all root spans (the traced operations)."""
    return sum(log.stop[i] - log.start[i]
               for i in range(len(log.kind)) if log.parent[i] < 0)


class Installation:
    """Every attribute replaced by :func:`install`, for undoing."""

    _ABSENT = object()

    def __init__(self):
        self.replaced: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        original = vars(owner).get(attr, self._ABSENT)
        self.replaced.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            if original is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _public_methods(cls) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value)]


def _wrap_method(log: SpanLog, cls, attr: str, layer: str):
    raw = vars(cls)[attr]
    name = f"{layer}:{cls.__name__}.{attr}"
    if isinstance(raw, classmethod):
        return classmethod(log.wrap(raw.__func__, name, layer))
    if isinstance(raw, staticmethod):
        return staticmethod(log.wrap(raw.__func__, name, layer))
    return log.wrap(raw, name, layer)


def _registrar(log: SpanLog, fn):
    def register(*args, **kwargs):
        args = [log.wrap_upcall(a) for a in args]
        kwargs = {k: log.wrap_upcall(v) for k, v in kwargs.items()}
        return fn(*args, **kwargs)

    register.__wrapped__ = fn
    setattr(register, _MARK, True)
    return register


def install(log: SpanLog) -> Installation:
    """Wrap every entry point, function and registrar into ``log``."""
    done = Installation()
    for module, cls_name, methods in REGISTRARS:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in methods:
            done.patch(cls, attr, _registrar(log, vars(cls)[attr]))
    for module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        layer = layer_name(module)
        names = _public_methods(cls) if methods == ("*",) else methods
        for attr in names:
            done.patch(cls, attr, _wrap_method(log, cls, attr, layer))
    for module, functions in FUNCTIONS:
        home = importlib.import_module(module)
        layer = layer_name(module)
        for attr in functions:
            original = getattr(home, attr)
            wrapper = log.wrap(original, f"{layer}:{attr}", layer)
            for holder in _holders(original):
                done.patch(holder, attr, wrapper)
    return done


def _repro_modules() -> List[object]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _holders(fn) -> List[object]:
    """Every loaded ``repro`` module binding ``fn`` under its own name."""
    return [module for module in _repro_modules()
            if vars(module).get(fn.__name__) is fn]


def is_wrapped(value) -> bool:
    """True for any wrapper this module makes."""
    return getattr(getattr(value, "__func__", value), _MARK, False)


def unwrapped_everywhere() -> Optional[str]:
    """None when no entry point, function or registrar is wrapped, else
    the first wrapped attribute found."""
    for module, cls_name, methods in REGISTRARS + ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        names = _public_methods(cls) if methods == ("*",) else methods
        for attr in names:
            if is_wrapped(vars(cls).get(attr)):
                return f"{module}.{cls_name}.{attr}"
    for _, functions in FUNCTIONS:
        for attr in functions:
            for module in _repro_modules():
                if is_wrapped(vars(module).get(attr)):
                    return f"{module.__name__}.{attr}"
    return None
