"""The sharding trade-off: channel parallelism vs. cross-shard reads.

Partitioning the broadcast over K channels (:mod:`repro.shard`) shrinks
each shard's cycle -- a client waiting on one shard's control
information sees a shorter period -- but a query whose readset spans
shards must compose per-shard guarantees, and the ``epoch`` consistency
mode pays for global snapshots with extra aborts.  This experiment
sweeps K and the steered cross-shard fraction and reports both sides of
the trade: per-client abort rate and latency against the superframe
length and the epoch-abort overhead.

``python -m repro experiments sharding`` writes the sweep to
``results/BENCH_shard.json`` (the committed artifact) in addition to the
rendered table.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentProfile, FULL_PROFILE
from repro.experiments.schemes import scheme_factory
from repro.shard.oracle import contract_params
from repro.shard.runtime import ShardedSimulation
from repro.stats import names as metric_names

SHARD_SWEEP: Sequence[int] = (1, 2, 4)
FRACTION_SWEEP: Sequence[float] = (0.0, 0.5)
SHARD_SCHEMES: Sequence[str] = (
    "inval+cache",
    "sgt+cache",
    "multiversion+cache",
)

#: Cycle budget decoupled from the discrete figure profiles: the axis
#: here is the shard topology, not statistical depth, and the full grid
#: is schemes x K x mode x fraction x seeds cells.
NUM_CYCLES = {"full": 40, "quick": 20}


def _counter(result, name: str) -> int:
    counter = result.metrics.get_counter(name)
    return counter.value if counter else 0


def run(
    profile: ExperimentProfile = FULL_PROFILE,
    schemes: Sequence[str] = SHARD_SCHEMES,
    shard_sweep: Sequence[int] = SHARD_SWEEP,
    fraction_sweep: Sequence[float] = FRACTION_SWEEP,
    partitioner: str = "hash",
    num_cycles: Optional[int] = None,
    verbose: bool = False,
) -> List[Dict]:
    """One row per (scheme, K, mode, fraction, seed) cell.

    K=1 runs once per (scheme, seed) -- there is no cross-shard traffic
    and no mode distinction -- and anchors the sweep at the
    single-channel behaviour (bit-identical by the shard oracle).
    """
    if num_cycles is None:
        quick = profile.num_cycles <= 50
        num_cycles = NUM_CYCLES["quick" if quick else "full"]
    rows: List[Dict] = []
    for scheme in schemes:
        for seed in profile.seeds:
            params = contract_params(
                clients=profile.num_clients,
                seed=seed,
                faults=False,
                num_cycles=num_cycles,
            )
            cells = [(1, "local", None)]
            for shards in shard_sweep:
                if shards == 1:
                    continue
                for mode in ("local", "epoch"):
                    for fraction in fraction_sweep:
                        cells.append((shards, mode, fraction))
            for shards, mode, fraction in cells:
                started = time.perf_counter()
                sim = ShardedSimulation(
                    params,
                    scheme_factory(scheme),
                    num_shards=shards,
                    partitioner=partitioner,
                    consistency=mode,
                    cross_shard_fraction=fraction,
                )
                result = sim.run()
                elapsed = time.perf_counter() - started
                rows.append(
                    {
                        "scheme": scheme,
                        "shards": shards,
                        "mode": mode,
                        "fraction": fraction,
                        "partitioner": partitioner,
                        "seed": seed,
                        "num_cycles": num_cycles,
                        "abort_rate": result.abort_rate,
                        "latency_cycles": result.mean_latency_cycles,
                        "committed": result.committed_attempts,
                        "attempts": result.total_attempts,
                        "superframe_slots": result.mean_cycle_slots,
                        "cross_commits": _counter(
                            result, metric_names.SHARD_CROSS_COMMITS
                        ),
                        "epoch_aborts": _counter(
                            result, metric_names.SHARD_EPOCH_ABORTS
                        ),
                        "seconds": elapsed,
                    }
                )
                if verbose:
                    frac = "nat" if fraction is None else f"{fraction:.2f}"
                    print(
                        f"  {scheme:<20} K={shards} {mode:<5} f={frac} "
                        f"seed={seed} {elapsed:5.1f}s"
                    )
    return rows


def render_rows(rows: Sequence[Dict]) -> str:
    lines = [
        "Sharding: abort rate / latency vs. shard count and cross traffic",
        f"{'scheme':<22}{'K':>3}{'mode':>7}{'frac':>6}{'seed':>6}"
        f"{'abort':>8}{'latency':>9}{'slots':>8}{'cross':>7}{'epoch':>7}",
    ]
    for row in rows:
        frac = "nat" if row["fraction"] is None else f"{row['fraction']:.2f}"
        lines.append(
            f"{row['scheme']:<22}{row['shards']:>3}{row['mode']:>7}"
            f"{frac:>6}{row['seed']:>6}{row['abort_rate']:>8.3f}"
            f"{row['latency_cycles']:>9.3f}{row['superframe_slots']:>8.1f}"
            f"{row['cross_commits']:>7}{row['epoch_aborts']:>7}"
        )
    return "\n".join(lines)


def bench_payload(rows: Sequence[Dict]) -> Dict:
    """The committed ``results/BENCH_shard.json`` shape."""
    return {
        "bench": "shard-sweep",
        "max_shards": max((row["shards"] for row in rows), default=0),
        "rows": list(rows),
    }


def main(
    profile: ExperimentProfile = FULL_PROFILE,
    jobs: int = 1,
    verbose: bool = False,
    shard_out: Optional[str] = "results/BENCH_shard.json",
) -> None:
    rows = run(profile, verbose=verbose)
    print(render_rows(rows))
    if shard_out:
        path = Path(shard_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(bench_payload(rows), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {shard_out}")


if __name__ == "__main__":
    main()
