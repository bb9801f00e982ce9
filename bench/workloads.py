"""The benchmark's workloads: fixed lists of `cspherelab` command lines.

Every op is one fresh `cspherelab` process, which is what a user pays for
one command. A workload seed chooses the order of the op units and the
`--seed` value of every randomised op; the program only ever sees the
generated command lines.

Why these workloads:

* ``exact-basis``: exact Fraction Gram-Schmidt (`monomial_inner`,
  `MonomialPoly.inner`) and big-Fraction JSON take nearly all the time.
  No sampling, no matmul. Exact Gram/LDL^T work should move it; window
  evaluation and run-length spectra should not.
* ``levy-mc``: point sampling, monomial evaluation (`eval_matrix`), the
  dense matmul, the |.|^p reductions and the disk/Gegenbauer recurrences
  take the time; basis construction is a few percent. A faster window
  evaluator should move it; exact Gram work should not.
* ``spectrum-io``: dense CSV writing and parsing, run-length encoding,
  spectrum enumeration and level scans take the time; neither `basis` nor
  `sphere` is touched. The CSV write and its read share the workload, so
  speeding one at the other's cost shows.

Op lists are sized so that one pass takes about 10 s on a 2-CPU machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One command line and how its output is checked.

    name: unique key, also the key of the op's golden record.
    argv: the `cspherelab` arguments, without `--seed`.
    check: the checker in `checks.py` that judges the output.
    seeded: the op is randomised and gets a `--seed` from the workload seed.
    exit_code: the expected exit code.
    output: file the op writes through `--out`; it is checked instead of stdout.
    """

    name: str
    argv: tuple
    check: str
    seeded: bool = False
    exit_code: int = 0
    output: str | None = None


def _op(name, line, check, **kw):
    return Op(name=name, argv=tuple(line.split()), check=check, **kw)


FS3 = "fs:gamma=3,xi=0"

# Each inner tuple is a unit whose ops must run in order (a spectrum CSV is
# written before it is fitted); the workload seed shuffles the units.
WORKLOADS = {
    "exact-basis": (
        (_op("basis-d2-8-8", "basis --d 2 --m 8 --n 8", "exact"),),
        (_op("basis-d2-6-5", "basis --d 2 --m 6 --n 5", "exact"),),
        (_op("basis-d3-4-4", "basis --d 3 --m 4 --n 4", "exact"),),
        (_op("basis-d3-5-5", "basis --d 3 --m 5 --n 5", "exact"),),
        (_op("basis-d3-6-3", "basis --d 3 --m 6 --n 3", "exact"),),
        (_op("basis-d4-3-3", "basis --d 4 --m 3 --n 3", "exact"),),
        (_op("basis-d4-4-2", "basis --d 4 --m 4 --n 2", "exact"),),
    ),
    "levy-mc": (
        (_op("levy-d2-p4", f"levy --d 2 --N 0 --lmax 3 --family {FS3} --p 4 --omega-samples 50000",
             "levy", seeded=True),),
        (_op("levy-d2-pinf", f"levy --d 2 --N 0 --lmax 3 --family {FS3} --p inf --omega-samples 50000",
             "levy", seeded=True),),
        (_op("levy-d3-p3", f"levy --d 3 --N 0 --lmax 2 --family {FS3} --p 3 --omega-samples 25000",
             "levy", seeded=True),),
        (_op("levy-d2-sobolev-p1",
             "levy --d 2 --N 1 --lmax 4 --family sobolev:gamma=2 --p 1 --omega-samples 25000",
             "levy", seeded=True),),
        (_op("levy-d2-p2-exact",
             f"levy --d 2 --N 0 --lmax 3 --family {FS3} --p 2 --omega-samples 0 --sphere-samples 100000",
             "parseval", seeded=True),),
        # p = 4 violates the interpolated sup-norm inequality by design (exit 1).
        (_op("nikolskii-d2-p4", "check nikolskii --d 2 --N 0 --lmax 2 --p 4 --samples 500",
             "nikolskii", seeded=True, exit_code=1),),
        (_op("nikolskii-d2-pinf", "check nikolskii --d 2 --N 0 --lmax 2 --p inf --samples 500",
             "nikolskii", seeded=True),),
        (_op("gegenbauer-d3", "check gegenbauer --d 3 --lmax 12 --samples 50000", "pass", seeded=True),),
        (_op("addition-d3-3-2", "check addition --d 3 --m 3 --n 2", "pass", seeded=True),),
        (_op("project-d2-3-3", "project --d 2 --m 3 --n 3 --samples 200000", "project", seeded=True),),
    ),
    "spectrum-io": (
        (_op("spectrum-fs3-d2", f"widths spectrum --family {FS3} --d 2 --grading max --nmax 500000"
             " --out spectrum-fs3-d2.csv", "exact", output="spectrum-fs3-d2.csv"),
         _op("fit-fs3-d2", "widths fit spectrum-fs3-d2.csv --nmax 500000", "close")),
        (_op("spectrum-sobolev-d3", "widths spectrum --family sobolev:gamma=2 --d 3 --grading star"
             " --nmax 500000 --out spectrum-sobolev-d3.csv", "exact", output="spectrum-sobolev-d3.csv"),
         _op("fit-sobolev-d3", "widths fit spectrum-sobolev-d3.csv --nmax 500000 --model power-log",
             "close")),
        (_op("spectrum-fs3-d2-json", f"widths spectrum --family {FS3} --d 2 --nmax 1000000 --format json",
             "exact"),),
        (_op("compare-fs3-d2", f"widths compare-gradings --family {FS3} --d 2 --nmax 1000000", "close"),),
        (_op("seq-fs3-d2", f"seq --family {FS3} --d 2 --N 3 --eps 0.5", "seq"),),
        (_op("seq-exp-d3", "seq --family exp:gamma=1,r=1 --d 3 --N 1 --eps 0.5", "seq"),),
        # A long linear level scan: levels grow by a factor e per step.
        (_op("seq-fs1-d2", "seq --family fs:gamma=1,xi=0 --d 2 --N 3 --eps 0.5", "seq"),),
        (_op("dims-d3", "dims --d 3 --lmax 200", "exact"),),
        (_op("dim-bounds-d4", "check dim-bounds --d 4 --lmax 200", "exact"),),
        (_op("bounds-t62", "widths bounds --theorem T6.2-upper --d 2 --gamma 3 --nmax 1000", "exact"),),
    ),
}


def all_ops(workload):
    """The workload's ops in their listed order."""
    return [op for unit in WORKLOADS[workload] for op in unit]


def schedule(workload, seed):
    """(op, argv) pairs in the order the seed chooses, `--seed` filled in."""
    rng = random.Random(f"{workload}/{seed}")
    units = list(WORKLOADS[workload])
    rng.shuffle(units)
    out = []
    for unit in units:
        for op in unit:
            argv = list(op.argv)
            if op.seeded:
                argv += ["--seed", str(rng.randrange(2**31))]
            out.append((op, argv))
    return out
