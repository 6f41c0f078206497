"""Discrete runs pinned to a recorded commit: the exact net under the kernel.

Each cell runs one scheme through :class:`~repro.runtime.Simulation` at
the cohort oracle's configuration and pins two things recorded at commit
8910f6b: how many events the kernel dispatched, and a SHA-1 over the
whole metrics registry (counters as integers, ratios as ``(hits,
total)``, samplers as ``(count, exact_sum)``).  A kernel change that
shifts the ``(time, priority, eid)`` dispatch order by one event moves
the count or the digest in some cell.
"""

import hashlib

import pytest

from repro.cohort.oracle import oracle_params
from repro.experiments.schemes import scheme_factory
from repro.runtime import Simulation

#: ``(scheme, faults, seed) -> (events_processed, registry SHA-1)`` for
#: the oracle's five schemes x faults off/on x seeds {7, 11}, recorded by
#: running :func:`run_cell` at commit 8910f6b.
GOLDEN = {
    ("inval", False, 7): (1778, "f11be6e91e8ce3b66d899496405554763c08c674"),
    ("inval", False, 11): (1816, "1fe443a011d7e8a085463c8e2285762b41049037"),
    ("inval", True, 7): (1977, "456ef251da29d1832e7e805f44f211ff07fd640e"),
    ("inval", True, 11): (2036, "c162da791061f21a05f78875d874a4621c69b277"),
    ("inval+cache", False, 7): (3280, "7596976ae9606855e3e251352ea1e0c918c7de6c"),
    ("inval+cache", False, 11): (3249, "31775c6e076d5259be586a9f574e6a9da332a5ce"),
    ("inval+cache", True, 7): (3141, "bedc2e2bc4acb192edfedca2237769caeae39379"),
    ("inval+cache", True, 11): (3160, "04839b3a8370fbdbe8e0bf2bdc98abfdd8222a14"),
    ("versioned-cache", False, 7): (3303, "46448ec6cafc9801b580ca48f30535ab3a16113c"),
    ("versioned-cache", False, 11): (3208, "e9b88cb47004fbc0688457a9c1bc51a04d55bdd4"),
    ("versioned-cache", True, 7): (3141, "729ac3c1d370ea01f836078a29d6e8ba9383e802"),
    ("versioned-cache", True, 11): (3096, "7a1d3939d1a99f61a8efcf3a0abed7846f09d329"),
    ("sgt+cache", False, 7): (3232, "5d8d39251fbf2fd0db932d53aca65f603a65b68d"),
    ("sgt+cache", False, 11): (3224, "386a7f506274d3e2c28e48d1529e41267343c9b1"),
    ("sgt+cache", True, 7): (3131, "9a415382e06a6726f31e77f0ec84886b7905ae9b"),
    ("sgt+cache", True, 11): (3118, "a3228bac5781a14cef976fb1fd7adec2047b5e0f"),
    ("multiversion+cache", False, 7): (2922, "2598ec30fa1606195572a1b451742b0dddefdf39"),
    ("multiversion+cache", False, 11): (2921, "cd1dd71eb8635a63d2bd6a2e9aac55f1d905749c"),
    ("multiversion+cache", True, 7): (2845, "336ae1f825e2dd0a7b58d1933bac145652c6fca2"),
    ("multiversion+cache", True, 11): (2709, "e73fceef50f1b8573799b3b2f9b346b76f17f082"),
}


def registry_digest(registry):
    """SHA-1 over every metric, exact values only, in name order."""
    rows = (
        sorted((name, c.value) for name, c in registry.counters()),
        sorted((name, r.hits, r.total) for name, r in registry.ratios()),
        sorted((name, s.count, s.exact_sum) for name, s in registry.samplers()),
    )
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def run_cell(scheme, faults, seed):
    params = oracle_params(10, seed, faults, num_cycles=60)
    sim = Simulation(params, scheme_factory=scheme_factory(scheme))
    result = sim.run()
    return sim.env.events_processed, registry_digest(result.metrics)


@pytest.mark.parametrize("scheme, faults, seed", sorted(GOLDEN))
def test_kernel_golden(scheme, faults, seed):
    assert run_cell(scheme, faults, seed) == GOLDEN[scheme, faults, seed]
