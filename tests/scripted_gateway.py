"""One gateway with scripted arrivals, service times and Fair Share
thinning uniforms, for exact schedule tests of the packet kernel's
service rules on its Python loops (``engine="fast"``) and on the loop
``engine="auto"`` picks (its C loop whenever the C tier has built)."""

import numpy as np

from repro.backends import compiled
from repro.core.topology import single_gateway
from repro.simulation.network_sim import NetworkSimulation
from repro.simulation.rng import RandomStreams

#: The engine "auto" picks: the C loop whenever the C tier has built.
C_ENGINE = "compiled" if compiled.packet_lib() is not None else "fast"
#: The kernel's loops, as a scripted test asks for them.
ENGINES = ("fast", "auto")


class Script:
    """A generator whose standard exponentials and uniforms are
    ``values``, then ``fill`` forever."""

    def __init__(self, values, fill=1e9):
        self.values = list(values)
        self.fill = fill

    def standard_exponential(self, size=None, out=None):
        n = size if out is None else out.shape[0]
        block = [self.values.pop(0) if self.values else self.fill
                 for _ in range(n)]
        if out is None:
            return np.array(block)
        out[:] = block
        return out

    random = standard_exponential


def scripted_sim(monkeypatch, engine, disc, times, services=(),
                 thinning=None, rates=None, **options):
    """One gateway where connection i's packets arrive at the scripted
    ``times[i]`` and the gateway's services take ``services`` in turn,
    then 1e9.  Connection i sends at ``rates[i]`` (default 1; only Fair
    Share classes read it, and a power of two keeps the scripted gaps
    exact); ``thinning`` scripts the Fair Share uniforms, then 0.5."""
    rates = [1.0] * len(times) if rates is None else list(rates)
    gaps = {f"arrival:c{i}": np.diff([0.0, *t]) * r
            for i, (t, r) in enumerate(zip(times, rates))}
    original = RandomStreams.stream

    def stream(self, name):
        if name in gaps:
            return Script(gaps[name])
        if name.startswith("service:"):
            return Script(services)
        if thinning is not None and name.startswith("thinning:"):
            return Script(thinning, fill=0.5)
        return original(self, name)

    monkeypatch.setattr(RandomStreams, "stream", stream)
    sim = NetworkSimulation(single_gateway(len(times), mu=1.0), disc,
                            initial_rates=rates, engine=engine, **options)
    assert sim.engine == (C_ENGINE if engine == "auto" else engine)
    return sim


def scripted_run(monkeypatch, engine, disc, times, services=(),
                 **options):
    """:func:`scripted_sim`, run for ten units."""
    sim = scripted_sim(monkeypatch, engine, disc, times, services,
                       **options)
    sim.run_for(10.0)
    return sim
