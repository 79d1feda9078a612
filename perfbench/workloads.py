"""The benchmark's workloads: fixed lists of real ``filtra`` CLI commands.

Each workload stresses a different set of layers, so that an optimisation of
one layer shows on one workload and shows no change on another:

- ``congruence-sampling`` is dominated by generic 2x2 ``IntMat`` products,
  inverses and ``level_of`` (the stability suite and the matrix holomorph
  backend);
- ``quotient-tower`` is dominated by ``kernel_enumerate`` and the subgroup
  closures over flat 2x2 tuples, with ``graded`` on ``ModMat`` 2x2;
- ``words-and-rep`` runs the same ``exactmat`` and ``holomorph`` layers on
  other shapes (n x n matrices, free-group words) and is the only workload
  that exercises ``freegroup`` and ``linrep``.

Every flag passed here is one the CLI acts on, ``rep --n`` matches the size
of gamma, and gamma and y have determinant one, so the list stays valid when
the CLI starts rejecting ignored flags and non-SL inputs.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

#: The workload seed when ``--seed`` is not given, and the self-check's seed.
DEFAULT_SEED = 1

#: Flags whose value scales the sampled work; the self-check caps them.
COUNT_FLAGS = ("--count", "--samples")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome it must produce."""

    template: str
    expect_code: int = 0
    # The report must carry stable_condition2 failures that replay.
    replay: bool = False

    def argv(self, seed: int, count_cap: int | None = None) -> list:
        args = shlex.split(self.template.format(seed=seed))
        if count_cap is not None:
            for i, arg in enumerate(args[:-1]):
                if arg in COUNT_FLAGS:
                    args[i + 1] = str(min(int(args[i + 1]), count_cap))
        return args

    @property
    def expect_ok(self) -> bool:
        return self.expect_code == 0


WORKLOADS = {
    "congruence-sampling": (
        Command("stability --example congruence -p 3 --r0 1 --s0 1 --rmax 3 --smax 3"
                " --count 500 --seed {seed}"),
        Command("holomorph-identities --backend congruence -p 3 --count 1000 --seed {seed}"),
    ),
    "quotient-tower": (
        Command("pcongruence --family pgamma -p 3 --r0 1 --jmax 3 -e 3 --seed {seed}"),
        Command("pcongruence --family gamma -p 3 --r0 1 --jmax 3 -e 3 --seed {seed}"),
        Command("pcongruence --family gamma -p 5 --r0 1 --jmax 2 -e 3 --seed {seed}"),
        Command("pcongruence --family gamma -p 2 --r0 1 --jmax 4 -e 3 --seed {seed}"),
        Command("quotient --family pgamma -p 3 -i 1 -j 4"),
        Command("graded verify -p 2 --qmax 5"),
        Command("graded verify -p 3 --qmax 5"),
        Command("graded verify -p 5 --qmax 5"),
    ),
    "words-and-rep": (
        Command("holomorph-identities --backend free --count 1000 --seed {seed}"),
        Command("stability --example poison --count 200 --seed {seed}", expect_code=1, replay=True),
        Command("rep --n 2 --mod 9 --gamma '1,3;0,1' --y '1,0;3,1' --samples 500 --seed {seed}"),
        Command("rep --n 2 --mod 27 --gamma '1,3;0,1' --y '1,0;3,1' --samples 500 --seed {seed}"),
        Command("rep --n 3 --mod 4 --gamma '1,1,0;0,1,0;0,0,1' --y '1,0,0;1,1,0;0,0,1'"
                " --samples 500 --seed {seed}"),
        Command("rep-ball -p 3 --base 1 --target 3 --radius 3 --seed {seed}"),
        Command("freegroup-fixtures --nmax 4"),
    ),
}
