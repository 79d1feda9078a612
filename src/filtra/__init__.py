"""filtra: exact arithmetic for congruence towers and split extensions.

Everything in this package computes with exact integers; there is no
floating point anywhere in the arithmetic.  The submodules are

- ``exactmat``   one n x n matrix type over Z or Z/p^r, stored flat and
  row-major, whose 2x2 arithmetic is the flat 2x2 kernel
- ``freegroup``  reduced words, endomorphisms, basis-conjugating fixtures
- ``holomorph``  semidirect-product element arithmetic over a classified action
- ``filtration`` congruence filtrations of (P)SL(2, Z) and their finite quotients
- ``stability``  empirical stability / Lie-like checks for split extensions
- ``graded``     the graded restricted Lie algebra of the congruence tower
- ``linrep``     the conjugation extension of SL(n, A) and its n^2-dimensional
  faithful representation
- ``split``      one sampled run split over the CPUs the process may use
- ``cli``        the ``filtra`` command line front end
"""

__version__ = "0.1.0"

from .exactmat import Mat, Modulus  # noqa: F401
