"""Seeded workload generators.

Each workload is a fixed list of study slots.  A slot names one CLI study
(subcommand, space kind, degree, boundary, preset, correction) and a
nominal dimension; the seed jitters every dimension inside a narrow
window around its nominal value.  The study order is fixed, so the
allocator sees the same sequence of array sizes on every seed.  The
nominal dimensions spread over each workload's size range, so the list as
a whole covers that range, while the total work of a pass changes by
about one percent from seed to seed: wide per-study draws would make the
seed, not the program, dominate the run-to-run spread of ``wall_s`` and
``peak_rss_mb``.

``small-sweep`` instead visits every legal (kind, bc, p) combination
twice, at antithetic dimensions lo + u*(hi - lo) and hi - u*(hi - lo).
Each combination draws u from its own stratum of [0, 1], the strata
assigned by a seeded permutation, so every seed uses the whole range
while the sums of n, n^2 and n^3 over the list stay within 0.3%.

The program receives only the argv lists built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.01          # relative half-width of a slot's dimension window
SWEEP_DEGREES = range(2, 9)
SWEEP_MAX_DIM = 96


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple


def _slot(cmd, space, degree, dim, bc="dirichlet", preset=None,
          correct=None):
    return {"cmd": cmd, "space": space, "degree": degree, "dim": dim,
            "bc": bc, "preset": preset, "correct": correct}


# The tiny study that ends set-up: it loads every module and the
# lazily imported scipy parts a spectrum study needs.
WARMUP = _slot("spectrum", "optimal", 3, 20)


def _poisson_slots():
    configs = [("ex73", "on", "optimal", 3), ("ex73", "on", "optimal", 4),
               ("ex73", "on", "optimal", 5), ("ex73", "on", "reduced", 4),
               ("ex73", "off", "optimal", 3), ("ex73", "off", "full", 3),
               ("sin2pi", "off", "full", 5), ("sin2pi", "off", "optimal", 5)]
    # One 150-wide stratum of [800, 2000] per configuration.
    return tuple(_slot("poisson1d", space, p, 875 + 150 * k, preset=preset,
                       correct=corr)
                 for k, (preset, corr, space, p) in enumerate(configs))


def sweep_combos():
    """Every legal (kind, bc, p) of the sweep, in a fixed order."""
    combos = []
    for kind in ("full", "optimal", "reduced"):
        for bc in ("dirichlet", "neumann", "mixed"):
            for p in SWEEP_DEGREES:
                if kind == "reduced" and (bc != "dirichlet" or p % 2):
                    continue
                combos.append((kind, bc, p))
    return combos


WORKLOADS = {w.name: w for w in (
    Workload(
        name="spectrum1d-large",
        why="3 spectra at n 1100-1300 incl. Neumann null space: the dense "
            "eigensolve with vectors and eigenfunction-error pass, expected "
            "the largest share; sets peak memory",
        slots=(_slot("spectrum", "full", 5, 1112),
               _slot("spectrum", "optimal", 5, 1287),
               _slot("spectrum", "optimal", 4, 1200, bc="neumann"))),
    Workload(
        name="poisson1d-large",
        why="8 1D Poisson solves at n 800-2000, corrected or not: no "
            "eigensolve, so eigensolver changes are bypassed; assembly plus "
            "splines expected the majority, banded solve <1%",
        slots=_poisson_slots()),
    Workload(
        name="small-sweep",
        why="92 small spectra over every kind x bc x p<=8: fixed per-call "
            "cost, so set-up or per-call cost shows; splines expected "
            "largest, then eigensolve and file output",
        slots=tuple(_slot("spectrum", kind, p, None, bc=bc)
                    for kind, bc, p in sweep_combos() for _ in range(2))),
    Workload(
        name="tensor2d",
        why="2D spectrum writing a ~40k-row CSV plus 2D Poisson with and "
            "without correction: the only double-digit CSV share and the "
            "only fast-diagonalization load",
        slots=(_slot("spectrum2d", "optimal", 3, 200),
               _slot("poisson2d", "optimal", 4, 255, preset="ex75",
                     correct="on"),
               _slot("poisson2d", "full", 3, 255, preset="ex75",
                     correct="off"))),
)}


def dim_window(nominal):
    """Inclusive range of dimensions a seed may draw for a slot."""
    half = max(1, round(JITTER * nominal))
    return nominal - half, nominal + half


def sweep_dim_range(p):
    return max(2 * p + 2, 24), SWEEP_MAX_DIM


def studies(name, seed):
    """The workload's study list for ``seed``: a list of study dicts."""
    work = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    out = []
    if name == "small-sweep":
        slots = work.slots
        pairs = len(slots) // 2
        strata = list(range(pairs))
        rng.shuffle(strata)
        for k, stratum in enumerate(strata):
            lo, hi = sweep_dim_range(slots[2 * k]["degree"])
            off = round((stratum + rng.random()) / pairs * (hi - lo))
            out.append(dict(slots[2 * k], dim=lo + off))
            out.append(dict(slots[2 * k + 1], dim=hi - off))
    else:
        for slot in work.slots:
            out.append(dict(slot, dim=rng.randint(*dim_window(slot["dim"]))))
    return out


def argv(study, out=None):
    """CLI argv of a study; ``out`` is its CSV path."""
    args = [study["cmd"], "--space", study["space"],
            "--degree", str(study["degree"]), "--dim", str(study["dim"])]
    if study["preset"] is None:
        args += ["--bc", study["bc"]]
    else:
        args += ["--preset", study["preset"], "--correct", study["correct"]]
    if out is not None:
        args += ["--out", out]
    return args
