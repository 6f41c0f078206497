"""Discrete runs pinned to a recorded commit: the exact net under the kernel.

Each cell runs one scheme through :class:`~repro.runtime.Simulation` at
the cohort oracle's configuration and pins two things recorded at commit
8910f6b: how many events the kernel dispatched, and a SHA-1 over the
whole metrics registry (counters as integers, ratios as ``(hits,
total)``, samplers as ``(count, exact_sum)``).  A kernel change that
shifts the ``(time, priority, eid)`` dispatch order by one event moves
the count or the digest in some cell.

:data:`SCHEME_GOLDEN` pins the same two numbers for the schemes and
report schedules :data:`GOLDEN` leaves out, recorded at commit e7ec8ad:
the rest of the registered line-up, bucket-granularity invalidation,
and three reports per cycle, which drive ``on_interim_report`` and mark
queries while they wait on the channel.  A scheme-layer change that
moves one decision moves a digest there.

Every one-report cell of either table is replayed once more without a
kernel, through :class:`~repro.cohort.engine.CohortSimulation` in one
chunk and in four fanned-out chunks, and must reproduce the recorded
registry digest: the net under the kernel holds for the kernel-less
path too.  Event counts stay a kernel-only check, and the cells with
three reports per cycle stay kernel-only, because a cohort refuses
sub-cycle reports.
"""

import hashlib

import pytest

from repro.cohort.engine import CohortSimulation
from repro.cohort.oracle import oracle_params
from repro.core.control import ReportSchedule
from repro.core.invalidation import Granularity, InvalidationOnly
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

#: ``(scheme, faults, seed, reports per cycle) -> (events_processed,
#: registry SHA-1)``, recorded by running :func:`run_cell` at commit
#: e7ec8ad.
SCHEME_GOLDEN = {
    ("inval", False, 7, 3): (1895, "2c09730473d0bd592f50f25f2f38745a6017af3a"),
    ("inval", False, 11, 3): (1936, "6a960c59bff3e29aae894b55eab513d82c1d026c"),
    ("inval", True, 7, 3): (2097, "888c209b5b700b94f50ba68a37cf63a1f0b85581"),
    ("inval", True, 11, 3): (2156, "cd9e5a345fd546cacef7cafbb640e9dbac1e3757"),
    ("inval/bucket+cache", False, 7, 1): (3524, "7bd3e8a5949fc3d1f6c8c928cb05d669ff7b50b8"),
    ("inval/bucket+cache", False, 11, 1): (3368, "314f93b7510a51c6e3d7efabf4f211088bcb9131"),
    ("inval/bucket+cache", True, 7, 1): (3087, "5fe2937240b083b3c45cbcbdce656a94b4f65e74"),
    ("inval/bucket+cache", True, 11, 1): (3183, "1337153730679cf9eebc2b47de1ddf005cdb9afb"),
    ("multiversion", False, 7, 1): (1782, "567fdf3467642a1488aa86f1e691a826764c8c24"),
    ("multiversion", False, 11, 1): (1802, "d03c8342a11644354437d811e9a4a2921c22655b"),
    ("multiversion", True, 7, 1): (2060, "d23ae8e7812c3d559ae084ac8ccb225068545b4c"),
    ("multiversion", True, 11, 1): (2028, "b312bd15d7211719a0a74bcbaaa01ddf97e99bb3"),
    ("multiversion/clustered", False, 7, 1): (1786, "31f7b0c47e5888de572ed577840eec8caf29f02f"),
    ("multiversion/clustered", False, 11, 1): (1804, "6bb827abeb2022fbd59700b6c9895bf05c94bfba"),
    ("multiversion/clustered", True, 7, 1): (2058, "7eedeaa012e7b78978d00f2970d75f20a16abace"),
    ("multiversion/clustered", True, 11, 1): (2025, "f03c7036d3f4a6bb435cdae62c8972d8ee6934d6"),
    ("mv-caching", False, 7, 1): (2905, "475fbb1e6d612631ad08fbc7867c7d5dece45332"),
    ("mv-caching", False, 7, 3): (3025, "5faadd3fd675bbcc2d43cb7d3f68b87bec88e2ec"),
    ("mv-caching", False, 11, 1): (2885, "9457e59a09b119e3f6fead399e5a93ac3cb4adec"),
    ("mv-caching", False, 11, 3): (3005, "c3c52c78070278614f89ed20d4ae3675a2a5ae5b"),
    ("mv-caching", True, 7, 1): (2926, "f39c6e954e8b263b9389ac9498087d8f01fbcfd8"),
    ("mv-caching", True, 7, 3): (3046, "9a7759d412107ccf000996a6941c207f19cad22b"),
    ("mv-caching", True, 11, 1): (2943, "bd522ce407e47158d4776e9a42a39518965b9031"),
    ("mv-caching", True, 11, 3): (3063, "f1f69811e624e3c31c60b139c90fe95e466eb89e"),
    ("sgt", False, 7, 1): (1782, "dcbe0393cbc7a80e4de4601e12aff3c28f11e577"),
    ("sgt", False, 11, 1): (1798, "7542dd1ed47d41588415b178a77d78f64494deb5"),
    ("sgt", True, 7, 1): (1965, "30b4352df2727a257c770931a9975c43eb54a2ff"),
    ("sgt", True, 11, 1): (2017, "139749655822fb93e19f22453665e98184e92e50"),
    ("sgt+cache", False, 7, 3): (3352, "a59ef27fc09216886ce0160f0b379ad9102629be"),
    ("sgt+cache", False, 11, 3): (3344, "1079e6e9ced911fe461cf72b63e103be0144329f"),
    ("sgt+cache", True, 7, 3): (3251, "028e5cb45801022cc37efb5ed0831224e6f74eea"),
    ("sgt+cache", True, 11, 3): (3238, "1569091d8309eca113f3c80e9f0fc5c86ab179d5"),
    ("versioned-cache", False, 7, 3): (3423, "02322d131766237596896d3657af78f74f20a0fc"),
    ("versioned-cache", False, 11, 3): (3342, "fdef698314b64ac16b67a1993137dd0ef7be3908"),
    ("versioned-cache", True, 7, 3): (3265, "4ea86b08091ce6b9d32252965fd9a778ec0467fe"),
    ("versioned-cache", True, 11, 3): (3224, "c0b114c84763b8746d7ef36d58e4f5a802a23d52"),
}


def registry_digest(registry):
    """SHA-1 over every metric, exact values only, in name order."""
    rows = (
        sorted((name, c.value) for name, c in registry.counters()),
        sorted((name, r.hits, r.total) for name, r in registry.ratios()),
        sorted((name, s.count, s.exact_sum) for name, s in registry.samplers()),
    )
    return hashlib.sha1(repr(rows).encode()).hexdigest()


#: Schemes the golden cells run that the registry does not name.
UNREGISTERED = {
    "inval/bucket+cache": lambda: InvalidationOnly(True, Granularity.BUCKET),
}


def run_cell(scheme, faults, seed, reports=1):
    params = oracle_params(10, seed, faults, num_cycles=60)
    factory = UNREGISTERED.get(scheme) or scheme_factory(scheme)
    schedule = ReportSchedule(per_cycle=reports) if reports != 1 else None
    sim = Simulation(params, scheme_factory=factory, report_schedule=schedule)
    result = sim.run()
    return sim.env.events_processed, registry_digest(result.metrics)


@pytest.mark.parametrize("scheme, faults, seed", sorted(GOLDEN))
def test_kernel_golden(scheme, faults, seed):
    assert run_cell(scheme, faults, seed) == GOLDEN[scheme, faults, seed]


@pytest.mark.parametrize("scheme, faults, seed, reports", sorted(SCHEME_GOLDEN))
def test_scheme_golden(scheme, faults, seed, reports):
    cell = (scheme, faults, seed, reports)
    assert run_cell(*cell) == SCHEME_GOLDEN[cell]


#: ``(scheme, faults, seed) -> registry SHA-1`` of every cell with one
#: report per cycle, from both tables.
ONE_REPORT = {
    **{cell: digest for cell, (_, digest) in GOLDEN.items()},
    **{
        (scheme, faults, seed): digest
        for (scheme, faults, seed, reports), (_, digest) in SCHEME_GOLDEN.items()
        if reports == 1
    },
}


@pytest.mark.parametrize("cohort_size", [10, 3])
@pytest.mark.parametrize("scheme, faults, seed", sorted(ONE_REPORT))
def test_cohort_replays_golden_registry(scheme, faults, seed, cohort_size):
    params = oracle_params(10, seed, faults, num_cycles=60)
    factory = UNREGISTERED.get(scheme) or scheme_factory(scheme)
    result = CohortSimulation(params, factory, cohort_size=cohort_size).run()
    assert registry_digest(result.metrics) == ONE_REPORT[scheme, faults, seed]
