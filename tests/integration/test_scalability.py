"""The paper's headline property: client-side performance is independent
of the number of clients, because the protocols never contact the server."""

import pytest

from repro.core import InvalidationOnly, SerializationGraphTesting
from repro.core.base import ReadContext
from repro.runtime import Simulation


def test_no_code_path_from_scheme_to_server(small_params):
    """Scalability by construction: the context handed to schemes exposes
    listen-only surfaces -- no server, engine, or database handle."""
    sim = Simulation(small_params, scheme_factory=lambda: InvalidationOnly())
    ctx = sim.schemes[0].ctx
    assert isinstance(ctx, ReadContext)
    exposed = {name for name in dir(ctx) if not name.startswith("_")}
    assert exposed <= {"env", "channel", "cache", "metrics", "current_cycle"}


def test_abort_rate_flat_in_client_count(small_params):
    """Doubling the audience must not change what any client experiences."""
    rates = []
    for clients in (1, 4, 16):
        params = small_params.with_sim(
            num_clients=clients, num_cycles=60, warmup_cycles=4
        )
        result = Simulation(
            params, scheme_factory=lambda: InvalidationOnly(use_cache=True)
        ).run()
        rates.append(result.abort_rate)
    # 1-client rates are noisy; compare the well-sampled points and bound
    # the single-client deviation loosely.
    assert rates[1] == pytest.approx(rates[2], abs=0.15)
    assert rates[0] == pytest.approx(rates[2], abs=0.35)


def test_broadcast_length_independent_of_clients(small_params):
    slots = []
    for clients in (1, 8):
        params = small_params.with_sim(num_clients=clients)
        result = Simulation(
            params, scheme_factory=lambda: SerializationGraphTesting()
        ).run()
        slots.append(result.mean_cycle_slots)
    assert slots[0] == slots[1]


def test_server_work_independent_of_clients(small_params):
    """The server commits the same transactions no matter the audience."""
    outcomes = []
    for clients in (1, 8):
        params = small_params.with_sim(num_clients=clients)
        sim = Simulation(
            params,
            scheme_factory=lambda: InvalidationOnly(),
            keep_history=True,
        )
        sim.run()
        outcomes.append(
            [sorted(o.updated_items) for o in sim.engine.outcomes]
        )
    assert len(outcomes[0]) == params.sim.num_cycles
    assert outcomes[0] == outcomes[1]


def test_per_client_throughput_constant(small_params):
    """Total committed queries grow linearly with the client count."""
    committed = {}
    for clients in (2, 8):
        params = small_params.with_sim(
            num_clients=clients, num_cycles=60, warmup_cycles=4
        )
        result = Simulation(
            params, scheme_factory=lambda: InvalidationOnly(use_cache=True)
        ).run()
        committed[clients] = result.committed_attempts / clients
    assert committed[8] == pytest.approx(committed[2], rel=0.4)
