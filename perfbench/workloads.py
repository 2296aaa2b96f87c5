"""The three workloads: each op is one fixed sequence of calls into majmeter.

Every op of a workload does the same work. The only input that changes from
op to op is the seed handed to `sample`, drawn from the run's --seed, so op
times vary with the host and not with the input mix. Shapes are built here
by `checks.family_rows`, not by the program.

A run is made of whole rounds. A round is one op, followed, where a workload
has one, by one side op: a second fixed sequence that is checked and counted
like any op but kept out of the time metrics, so that its time shows only as
loop time in ops_per_s and in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from checks import family_rows

SEED_SLOT = "{seed}"
BOCHNER_OMEGA = '{"alpha":[],"beta":[]}'  # criterion 01: all mass at 0


@dataclass(frozen=True)
class Call:
    """One call into majmeter: a CLI argv, or `maj_polynomial_float` on the
    given rows (the only route past the exact cap that the CLI cannot reach)."""

    argv: tuple[str, ...] = ()
    float_rows: tuple[int, ...] = ()

    @property
    def seeded(self) -> bool:
        return SEED_SLOT in self.argv

    def argv_for(self, seed: int) -> list[str]:
        return [str(seed) if a == SEED_SLOT else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Call
    op: tuple[Call, ...]
    smoke_op: tuple[Call, ...]
    side_op: tuple[Call, ...] = ()
    smoke_side_op: tuple[Call, ...] = ()


def _rows(family: str, n: int) -> str:
    return ",".join(map(str, family_rows(family, n)))


def _dist(family: str, n: int) -> Call:
    return Call(("dist", "--format", "json", "-p", _rows(family, n)))


def _bkol(family: str, n: int) -> Call:
    return Call(("bkol", "--family", family, "--n", str(n)))


def _float(family: str, n: int) -> Call:
    return Call(float_rows=family_rows(family, n))


def _sample(rows: str, trials: int) -> Call:
    return Call(("sample", "-p", rows, "--trials", str(trials), "--seed", SEED_SLOT))


def _ld(family: str, y: str, n: int) -> Call:
    return Call(("ld", "--family", family, "--y", y, "--n", str(n)))


BOCHNER = Call(("bochner", "--omega", BOCHNER_OMEGA, "--xis", "0,3,6"))

WORKLOADS = {
    w.name: w
    for w in (
        # validate at max-n 8 spends most of its time in the moment-route
        # cumulants; the sampler runs many short hook walks
        Workload(
            "small-shapes",
            warmup=Call(("validate", "--max-n", "3")),
            op=(Call(("validate", "--max-n", "8")), _sample("4,2,2,1", 20000)),
            smoke_op=(Call(("validate", "--max-n", "4")), _sample("4,2,2,1", 500)),
        ),
        # big-integer and 80-bit q-ratio products, d_Kol and MB-sized output
        # up to the exact cap of 300; the sampler runs few long hook walks
        Workload(
            "large-shapes",
            warmup=Call(("dist", "--format", "json", "-p", "4,2,2,1")),
            op=(
                _dist("two-row", 240), _dist("three-row", 180), _dist("staircase", 153),
                _bkol("two-row", 300), _bkol("three-row", 120), _bkol("staircase", 105),
                _sample(_rows("staircase", 200), 100),
            ),
            smoke_op=(
                _dist("two-row", 12), _dist("three-row", 12), _dist("staircase", 10),
                _bkol("two-row", 16), _bkol("three-row", 12), _bkol("staircase", 10),
                _sample(_rows("staircase", 10), 50),
            ),
            # the 80-bit route past the cap; its output fails its check on
            # every run today (FOUND in CHANGES.md), so this side op counts
            # in `failed` rather than making the run incorrect
            side_op=(_float("two-row", 400), _float("staircase", 400)),
            smoke_side_op=(_float("two-row", 20), _float("staircase", 21)),
        ),
        # Lambda/Psi quadrature and Legendre bisection: limit measures with
        # few atoms beside the 11-atom finite-n staircase(60) measure; the
        # smallest y comes first and n is small, so exact tails stay cheap
        Workload(
            "ld-sweep",
            warmup=BOCHNER,
            op=(
                _ld("two-row", "0.02", 60), _ld("three-row", "0.03", 30),
                _ld("staircase", "0.04", 60), BOCHNER,
            ),
            smoke_op=(
                _ld("two-row", "0.02", 40), _ld("three-row", "0.03", 24),
                _ld("staircase", "0.04", 28), BOCHNER,
            ),
        ),
    )
}
