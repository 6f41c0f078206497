"""One recorded ``on_cycle_start`` per heard client-cycle.

The benchmark's tracer counts ``scheme.cycle_start_calls`` by wrapping
``on_cycle_start`` on every ``repro.core`` class that defines it in its
own ``vars``.  Schemes now inherit their cycle-start handling from shared
bases, so the count stays honest only while no ``on_cycle_start`` calls
another through ``super()``: a chained call would be recorded twice for
one heard cycle.  This test applies the tracer's rule with a counting
wrapper and checks every registered scheme against what its client
actually heard.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

import repro.core
from repro.cohort.oracle import oracle_params
from repro.core.base import Scheme
from repro.experiments.schemes import SCHEME_FACTORIES
from repro.runtime import Simulation


def defining_classes():
    """Every class under ``repro.core`` that defines ``on_cycle_start``
    itself: the classes the tracer wraps."""
    for module in pkgutil.iter_modules(repro.core.__path__):
        importlib.import_module(f"repro.core.{module.name}")
    found, queue = set(), [Scheme]
    while queue:
        cls = queue.pop()
        queue.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.core.") and (
            "on_cycle_start" in vars(cls)
        ):
            found.add(cls)
    return found


@pytest.fixture
def recorded(monkeypatch):
    """``(scheme id, cycle)`` per call the tracer's rule would record."""
    calls = []
    for cls in defining_classes():
        original = vars(cls)["on_cycle_start"]

        def counted(self, program, _original=original):
            calls.append((id(self), program.cycle))
            return _original(self, program)

        monkeypatch.setattr(cls, "on_cycle_start", counted)
    return calls


def hearing(name, heard):
    """A factory for scheme ``name`` whose instances log each cycle start
    their client hands them, before any class-level wrapper runs."""

    def make():
        scheme = SCHEME_FACTORIES[name]()
        handle = scheme.on_cycle_start

        def hear(program):
            heard.append((id(scheme), program.cycle))
            handle(program)

        scheme.on_cycle_start = hear
        return scheme

    return make


@pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
def test_one_recorded_call_per_heard_client_cycle(name, recorded):
    heard = []
    params = oracle_params(4, 11, True, num_cycles=25)
    Simulation(params, scheme_factory=hearing(name, heard)).run()
    assert heard, "no client heard a cycle start"
    assert Counter(recorded) == Counter(heard)
