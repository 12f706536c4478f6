"""Spans recorded from outside the program, for the traced pass.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
public methods and functions of the layers (``NeighborList.build``,
``InteractionCache.prepare``, ``SolverPool.evaluate``, ...) by wrappers
that stamp a span around the call; the child process does this before
it builds anything and never undoes it, because it exits afterwards.

A span is ``[name, start, end, parent, op, tag]``.  ``op`` is the step
or request it belongs to; ``parent`` is the enclosing span of the same
thread, or, for work a request causes on a server thread, the client's
root span of that request.  Spans stay in memory; the child summarizes
them after its timed section.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time

NAME, START, END, PARENT, OP, TAG = range(6)

#: Which module each span's self time is charged to.
LAYER = {
    "md.step": "md.simulation",
    "simulation.compute_forces": "md.simulation",
    "simulation.first_force": "md.simulation",
    "neighbor.ensure": "md.neighbor",
    "neighbor.build": "md.neighbor",
    "potential.compute": "core.pipeline",
    "pipeline.prepare": "core.pipeline",
    "kernel.evaluate": "kernel",
    "backends.cext_load": "backends",
    "integrate.initial": "md.integrate",
    "integrate.final": "md.integrate",
    "parallel.engine_start": "parallel",
    "parallel.engine_close": "parallel",
    "parallel.compute": "parallel",
    "parallel.decompose": "parallel",
    "parallel.reduce": "parallel",
    "runtime.build_simulation": "runtime",
    "runtime.build_potential": "runtime",
    "runtime.session": "runtime",
    "runtime.pool_evaluate": "runtime",
    "protocol.encode_req": "serve.protocol",
    "protocol.decode_req": "serve.protocol",
    "protocol.encode_resp": "serve.protocol",
    "protocol.decode_resp": "serve.protocol",
    "validate": "serve.validate",
    # what is left of a request once every span below it is taken out:
    # HTTP, socket, thread hand-off and the wait for the dispatcher
    "client.evaluate": "serve.server",
    "server.start": "serve.server",
    "server.close": "serve.server",
    "state.checkpoint_write": "state",
    "state.restore": "state",
}


class _ThreadState:
    __slots__ = ("stack", "op", "root")

    def __init__(self):
        self.stack = []
        self.op = None
        self.root = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._tls = threading.local()
        # hand-offs between threads of the serve path: request body ->
        # (op, root) for the handler thread, validated system -> (op,
        # root) for the dispatcher thread
        self.by_body: dict[int, tuple] = {}
        self.by_system: dict[int, tuple] = {}

    def state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
        return st

    def set_op(self, op) -> None:
        st = self.state()
        st.op = op
        st.root = None

    def begin(self, name: str, op=None) -> list:
        st = self.state()
        if op is not None:
            st.op = op
        rec = [name, time.perf_counter(), 0.0, st.stack[-1] if st.stack else st.root, st.op, None]
        self.spans.append(rec)
        st.stack.append(rec)
        return rec

    def end(self) -> None:
        rec = self.state().stack.pop()
        rec[END] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end()

    def wrap(self, name: str, fn, *, before=None, after=None):
        """``fn`` with a span around it.  ``before(state, args)`` runs
        ahead of the start stamp (it may adopt another thread's op);
        ``after(rec, args, result)`` runs past the end stamp."""
        spans, state, clock = self.spans, self.state, time.perf_counter

        def traced(*args, **kwargs):
            st = state()
            if before is not None:
                before(st, args)
            rec = [name, clock(), 0.0, st.stack[-1] if st.stack else st.root, st.op, None]
            spans.append(rec)
            st.stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                st.stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        return traced


class NoTrace:
    """The untraced pass: same child code, nothing recorded."""

    spans: list = []

    def set_op(self, op) -> None:
        pass

    def begin(self, name, op=None) -> None:
        pass

    def end(self) -> None:
        pass

    def span(self, name):
        return contextlib.nullcontext()


# ---- installation ------------------------------------------------------------


def _kernel_classes(base) -> list:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "evaluate" in cls.__dict__:
            out.append(cls)
    return out


def install(tr: Tracer, kind: str) -> None:
    """Wrap the public entry points of every layer a ``kind`` child runs."""
    import repro.backends.compiled  # noqa: F401 - registers CompiledTersoffKernel
    import repro.core.sw  # noqa: F401 - registers SWKernel
    import repro.runtime.session as session
    from repro.backends import cext
    from repro.core.pipeline import InteractionCache, MultiBodyKernel, PipelinePotential
    from repro.md.neighbor import NeighborList

    def built(rec, args, result):
        rec[TAG] = args[0].n_pairs

    def prepared(rec, args, st):
        tri = st.tri.n_triplets if st.tri is not None else 0
        rec[TAG] = (args[0].stats.last_event, st.pairs.n_pairs, st.pairs.n_list_entries, tri)

    def evaluated(rec, args, result):
        rec[TAG] = args[1].pairs.n_pairs

    NeighborList.build = tr.wrap("neighbor.build", NeighborList.build, after=built)
    NeighborList.ensure = tr.wrap("neighbor.ensure", NeighborList.ensure)
    InteractionCache.prepare = tr.wrap("pipeline.prepare", InteractionCache.prepare, after=prepared)
    PipelinePotential.compute = tr.wrap("potential.compute", PipelinePotential.compute)
    for cls in _kernel_classes(MultiBodyKernel):
        cls.evaluate = tr.wrap("kernel.evaluate", cls.evaluate, after=evaluated)
    session.build_potential = tr.wrap("runtime.build_potential", session.build_potential)

    # every compiled evaluate calls cext.load(); only the call that
    # really loads the library is a span
    load, load_traced = cext.load, tr.wrap("backends.cext_load", cext.load)
    cext.load = lambda: load() if cext.loaded() else load_traced()

    if kind == "md":
        _install_md(tr)
    else:
        _install_serve(tr)


def _install_md(tr: Tracer) -> None:
    from repro.md.integrate import VelocityVerlet
    from repro.md.simulation import Simulation
    from repro.parallel.decomposition import DomainDecomposition
    from repro.parallel.engine import ParallelEngine

    def stepped(rec, args, step):
        rank_s = [r["total_s"] for r in step.per_rank]
        rec[TAG] = (step.bytes_forward, step.bytes_reverse, rank_s, dict(step.timers))

    VelocityVerlet.initial_integrate = tr.wrap("integrate.initial", VelocityVerlet.initial_integrate)
    VelocityVerlet.final_integrate = tr.wrap("integrate.final", VelocityVerlet.final_integrate)
    Simulation.compute_forces = tr.wrap("simulation.compute_forces", Simulation.compute_forces)
    ParallelEngine.__init__ = tr.wrap("parallel.engine_start", ParallelEngine.__init__)
    ParallelEngine.compute = tr.wrap("parallel.compute", ParallelEngine.compute, after=stepped)
    ParallelEngine.close = tr.wrap("parallel.engine_close", ParallelEngine.close)
    DomainDecomposition.__init__ = tr.wrap("parallel.decompose", DomainDecomposition.__init__)
    DomainDecomposition.reduce_forces = tr.wrap("parallel.reduce", DomainDecomposition.reduce_forces)


def _install_serve(tr: Tracer) -> None:
    import repro.serve.client as client
    import repro.serve.server as server
    from repro.runtime.pool import SolverPool

    def adopt(st, key_map, key):
        link = key_map.pop(key, None)
        st.op, st.root = link if link is not None else (None, None)

    def sent(rec, args, body):
        rec[TAG] = len(body)
        st = tr.state()
        tr.by_body[hash(body)] = (st.op, st.stack[0] if st.stack else None)

    def received(st, args):
        adopt(st, tr.by_body, hash(args[0]))

    def sized(rec, args, result):
        rec[TAG] = len(args[0])

    def validated(rec, args, result):
        st = tr.state()
        tr.by_system[id(result[1])] = (st.op, st.root)

    def dispatched(st, args):
        adopt(st, tr.by_system, id(args[2]))

    def answering(st, args):
        # a handler thread outlives its request (keep-alive): answers to
        # /healthz and /v1/stats belong to no request
        if st.root is not None and st.root[END] != 0.0:
            st.op = st.root = None

    def encoded(rec, args, body):
        rec[TAG] = len(body)

    def looked_up(rec, args, result):
        rec[TAG] = result.requests == 0  # a session that has served nothing was just built

    client.encode_payload = tr.wrap("protocol.encode_req", client.encode_payload, after=sent)
    client.decode_payload = tr.wrap("protocol.decode_resp", client.decode_payload, after=sized)
    server.decode_payload = tr.wrap(
        "protocol.decode_req", server.decode_payload, before=received, after=sized)
    server.validate_request = tr.wrap("validate", server.validate_request, after=validated)
    server.encode_payload = tr.wrap(
        "protocol.encode_resp", server.encode_payload, before=answering, after=encoded)
    client.ServeClient.evaluate = tr.wrap("client.evaluate", client.ServeClient.evaluate)
    SolverPool.session = tr.wrap("runtime.session", SolverPool.session, after=looked_up)
    SolverPool.evaluate = tr.wrap("runtime.pool_evaluate", SolverPool.evaluate, before=dispatched)


# ---- analysis ----------------------------------------------------------------


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that do not lie inside their parent, or never ended."""
    errors = []
    for rec in spans:
        if rec[END] == 0.0:
            errors.append(f"{rec[NAME]} (op {rec[OP]}) never ended")
        parent = rec[PARENT]
        if parent is not None and not (parent[START] <= rec[START] and rec[END] <= parent[END]):
            errors.append(f"{rec[NAME]} (op {rec[OP]}) leaves its parent {parent[NAME]}")
    return errors


def self_times(spans: list[list]) -> dict[int, float]:
    """Duration of each span minus what its direct children cover."""
    out = {id(rec): rec[END] - rec[START] for rec in spans}
    for rec in spans:
        if rec[PARENT] is not None:
            out[id(rec[PARENT])] -= rec[END] - rec[START]
    return out


def layer_shares(spans: list[list], own: dict[int, float], root_name: str,
                 ops: set) -> tuple[dict[str, float], float]:
    """Self time (``own``, from :func:`self_times`) per layer over the
    trees of the given ops' roots, as a share of the summed root
    durations; also that sum in seconds."""
    chosen = [rec for rec in spans if rec[OP] in ops]
    wall = sum(rec[END] - rec[START] for rec in chosen if rec[NAME] == root_name)
    layers: dict[str, float] = {}
    for rec in chosen:
        layer = LAYER[rec[NAME]]
        layers[layer] = layers.get(layer, 0.0) + own[id(rec)]
    return {k: v / wall for k, v in layers.items()}, wall


def pick(spans: list[list], name: str, keep=None) -> list[list]:
    return [rec for rec in spans if rec[NAME] == name and (keep is None or keep(rec))]


def seconds(recs) -> list[float]:
    return [rec[END] - rec[START] for rec in recs]


def median(values, scale: float = 1.0) -> float:
    """Median times ``scale``; 0 for a layer that did no work."""
    values = list(values)
    return statistics.median(values) * scale if values else 0.0
