"""Seeded inputs: Miranda-shaped profiles, the archive layout, TAU files.

Every input the program sees is generated here from the run's seed, so
the same seed gives the same archives and the same import sequence on
every commit.  The arrays are also what :mod:`oracle` computes expected
answers from, without asking the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: A Miranda run (paper section 5.3): 101 events, one wall-clock metric.
METRIC = "TIME"


def _catalogue() -> tuple[list[str], list[str], np.ndarray]:
    names, groups, cost = ["main"], ["TAU_DEFAULT"], [2.0e4]
    for i in range(30):
        names.append(f"fft_kernel_{i:02d}")
        groups.append("COMPUTATION")
        cost.append(3.0e5 / 1.3 ** (i % 7))
    for i in range(20):
        names.append(f"physics_update_{i:02d}")
        groups.append("COMPUTATION")
        cost.append(1.5e5 / 1.2 ** (i % 5))
    mpi = ["MPI_Alltoall()", "MPI_Isend()", "MPI_Irecv()", "MPI_Wait()", "MPI_Allreduce()"]
    for i in range(25):
        names.append(f"{mpi[i % 5]} [call {i:02d}]")
        groups.append("MPI")
        cost.append(8.0e4)
    for i in range(15):
        names.append(f"io_checkpoint_{i:02d}")
        groups.append("IO")
        cost.append(2.0e4)
    for i in range(10):
        names.append(f"infra_{i:02d}")
        groups.append("TAU_DEFAULT")
        cost.append(5.0e3)
    return names, groups, np.asarray(cost)


EVENT_NAMES, EVENT_GROUPS, _BASE_COST = _catalogue()
NUM_EVENTS = len(EVENT_NAMES)
assert NUM_EVENTS == 101


@dataclass
class Profile:
    """One trial's data: arrays indexed ``[rank, event]``."""

    exclusive: np.ndarray
    inclusive: np.ndarray
    calls: np.ndarray
    subroutines: np.ndarray

    @property
    def ranks(self) -> int:
        return self.exclusive.shape[0]

    @property
    def rows(self) -> int:
        return self.exclusive.size


def profile(seed: int, stream: int, index: int, ranks: int) -> Profile:
    """The profile of trial ``index`` in input ``stream`` for ``seed``."""
    rng = np.random.default_rng([seed, stream, index, ranks])
    jitter = rng.lognormal(0.0, 0.15, size=(ranks, NUM_EVENTS))
    exclusive = _BASE_COST[None, :] * jitter
    # Per-event imbalance: a few ranks run each event slower, by an
    # event-specific factor, so the imbalance ranking is seed-dependent.
    slow = rng.random((ranks, NUM_EVENTS)) < 0.1
    exclusive *= 1.0 + slow * rng.uniform(0.1, 1.5, size=NUM_EVENTS)[None, :]
    inclusive = exclusive.copy()
    inclusive[:, 0] = exclusive.sum(axis=1)
    calls = np.rint(rng.uniform(1.0, 200.0, size=(ranks, NUM_EVENTS)))
    calls[:, 0] = 1.0
    subroutines = np.zeros((ranks, NUM_EVENTS))
    subroutines[:, 0] = NUM_EVENTS - 1
    return Profile(exclusive, inclusive, calls, subroutines)


def to_columnar(p: Profile):
    """The program's columnar trial holding ``p`` (for ``save_trial``)."""
    from repro.core.model import ColumnarTrial

    trial = ColumnarTrial.allocate(
        event_names=EVENT_NAMES,
        metric_names=[METRIC],
        thread_triples=ColumnarTrial.flat_topology(p.ranks),
        event_groups=EVENT_GROUPS,
    )
    trial.exclusive[0][:, :] = p.exclusive
    trial.inclusive[0][:, :] = p.inclusive
    trial.calls[:, :] = p.calls
    trial.subroutines[:, :] = p.subroutines
    return trial


def write_tau(p: Profile, directory: Path) -> None:
    """Write ``p`` as a TAU profile directory: one ``profile.N.0.0`` file
    per rank, values at 17 significant digits (exact round trip)."""
    directory.mkdir(parents=True, exist_ok=True)
    for rank in range(p.ranks):
        lines = [
            f"{NUM_EVENTS} templated_functions_MULTI_{METRIC}",
            "# Name Calls Subrs Excl Incl ProfileCalls #",
        ]
        for e in range(NUM_EVENTS):
            lines.append(
                f'"{EVENT_NAMES[e]}" {p.calls[rank, e]:.17g} '
                f"{p.subroutines[rank, e]:.17g} {p.exclusive[rank, e]:.17g} "
                f'{p.inclusive[rank, e]:.17g} 0 GROUP="{EVENT_GROUPS[e]}"'
            )
        lines += ["0 aggregates", "0 userevents", ""]
        (directory / f"profile.{rank}.0.0").write_text("\n".join(lines), encoding="utf-8")


# -- the served archive (analyze, browse) ------------------------------------

@dataclass(frozen=True)
class TrialSpec:
    application: str
    experiment: str
    name: str
    index: int
    ranks: int


def catalog(ranks: int, big_ranks: int) -> list[TrialSpec]:
    """The served archive: two applications x two experiments, one
    ``ranks``-rank run in each, and one ``big_ranks``-rank run of the
    first experiment saved last (it makes the archive large at the cost
    of one index rebuild, and is never drilled into)."""
    specs = [
        TrialSpec(f"miranda-{a}", f"bgl-{a}-{e}", f"run-{2 * a + e:02d}", 2 * a + e, ranks)
        for a in range(2) for e in range(2)
    ]
    specs.append(TrialSpec("miranda-0", "bgl-0-0", "run-big", len(specs), big_ranks))
    return specs


#: Input streams, so no two workloads share a generated profile.
SERVED, IMPORTS, BASE, REOPEN = range(4)


def save_profiles(session, items) -> tuple[dict[str, int], float]:
    """Store ``(application, experiment, trial, Profile)`` items through
    the program's ``save_trial``; returns trial ids by name and the
    seconds its end-of-load index rebuilds took."""
    apps: dict = {}
    exps: dict = {}
    ids: dict[str, int] = {}
    rebuild = 0.0
    for app, exp, name, p in items:
        if app not in apps:
            apps[app] = session.create_application(app)
        if (app, exp) not in exps:
            exps[(app, exp)] = session.create_experiment(apps[app], exp)
        trial = session.save_trial(to_columnar(p), exps[(app, exp)], name)
        rebuild += session.connection.ingest_stats.get("ingest_index_seconds", 0.0)
        ids[name] = trial.id
    return ids, rebuild
