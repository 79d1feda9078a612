"""Command line front end: JSON verification reports for every suite.

Each handler checks its flags, runs its suite and returns ``(results, ok)``
or ``(results, ok, stats)``; ``main`` alone builds the report around them.
The report's ``config`` is the parsed flags other than ``--out``, with the
values a handler fills in because the parser cannot know them: the
``--example`` entry's defaults, the seed 0 that ``rep`` and ``graded verify``
report without ``--seed``, and the prime 3 that ``holomorph-identities``
reports without ``-p``.  Exit codes: 0 all checks passed, 1 at least one
check failed (the JSON report carries the counterexamples), 2 usage error;
``main`` maps ``ok`` to 0 or 1.  Every finite quotient a command reports
comes from the tower certificate, so no command builds an enumeration
table or reaches its guard.  Every sampling command requires ``--seed``
except ``rep --samples N``, whose seed defaults to 0 (and is reported so).
Re-running with an identical config, seed included, reproduces the same
report except for the wall-clock timings.  An ``--out`` path that cannot be
written is a usage error, refused before the command runs.

Imports follow the paper's split.  The congruence tower (``exactmat``,
``graded``, ``filtration``) is imported at the top of this module, and
``main`` adds the named command's subparser alone, so the tower commands
(``quotient``, ``pcongruence``, ``graded``) import nothing more.  Each
other command imports the split-extension modules it runs (``stability``,
``holomorph``, ``freegroup``, ``linrep``, and with them ``split``, which
runs the sampled ones on every CPU) when it runs; ``stability`` and
``holomorph-identities`` import ``stability`` while their subparser is
built, to read their choices and fixture flags from ``stability.EXAMPLES``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .exactmat import _PRIME_BOUND, Mat, MatrixError, Modulus, parse_matrix
from .filtration import (
    MAX_JMAX, MAX_MODULUS_BITS, FiltrationSpec, check_p_congruence, check_tower_depth, tower_invariants,
)
from .graded import GradedClass, bracket, verify_relation_table

SCHEMA_VERSION = 1

#: The largest ``freegroup-fixtures --nmax``.  The fixtures grow about as
#: nmax^4: nmax = 16 takes about 0.3 s and writes a 145 kB report, 32 took
#: 5.6 s.
MAX_NMAX = 16

class CliUsageError(Exception):
    pass


def _check_out(path):
    """Refuse an ``--out`` path that cannot be written, before the command runs."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
            path if os.path.exists(path) else folder, os.W_OK):
        raise CliUsageError("cannot write --out %s" % path)


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _cmd_quotient(args):
    check_tower_depth(args.p, args.j)
    result = tower_invariants(args.p, args.i, args.j, args.family)
    del result["p_group"]
    return result, True


def _check_size(flag, value, most):
    if value < 1:
        raise CliUsageError("%s must be at least 1" % flag)
    if value > most:
        raise CliUsageError("%s must be at most %d" % (flag, most))


def _cmd_pcongruence(args):
    _check_size("--jmax", args.jmax, MAX_JMAX)
    check_tower_depth(args.p, args.r0 + args.jmax)
    spec = FiltrationSpec(args.family, args.p, args.r0, args.jmax)
    result = check_p_congruence(spec, args.jmax, args.e, seed=args.seed)
    return result, result["ok"], {"pairs_certified": len(result["pairs"])}


def _fixture_flags(examples):
    """The flags of the ``stability.EXAMPLES`` entries by name, with their
    spellings: ``-p`` for a one-letter name, ``--name`` otherwise."""
    return {key: ("-" if len(key) == 1 else "--") + key for example in examples.values() for key in example.flags}


def _cmd_stability(args):
    from .stability import EXAMPLES, MAX_SAMPLE_COUNT, run_suite

    _check_size("--count", args.count, MAX_SAMPLE_COUNT)
    flags = EXAMPLES[args.example].flags
    spelled = _fixture_flags(EXAMPLES)
    stray = sorted(vars(args).keys() & spelled.keys() - flags.keys())
    if stray:
        raise CliUsageError("--example %s takes no %s" % (args.example, ", ".join(spelled[k] for k in stray)))
    for key, value in flags.items():
        vars(args).setdefault(key, value)
    reports, ok, stats = run_suite(args.example, args.count, args.seed, **{key: vars(args)[key] for key in flags})
    return [rep.to_dict() for rep in reports], ok, stats


def _cmd_graded_bracket(args):
    # the bracket lifts both classes mod p^(q+s+1); GradedClass refuses q or s below 1
    check_tower_depth(args.p, args.q + args.s + 1)
    coords1 = tuple(int(t) for t in args.c1.split(","))
    coords2 = tuple(int(t) for t in args.c2.split(","))
    out = bracket(GradedClass(args.p, args.q, coords1), GradedClass(args.p, args.s, coords2))
    return {"bracket": str(out), "level": args.q + args.s}, True


def _cmd_graded_verify(args):
    if not 2 <= args.qmax <= MAX_JMAX:
        raise CliUsageError("--qmax must be between 2 and %d" % MAX_JMAX)
    stats = {}
    result = verify_relation_table(args.p, args.qmax, stats=stats)
    # the table is exhaustive and takes no seed; "seed": 0 keeps the payload
    args.seed = 0
    return result, result["ok"], stats


def _cmd_rep(args):
    from .linrep import MAX_FAITHFUL_SAMPLES, MAX_REP_N, pair, rho, verify_faithful

    if not 0 <= args.samples <= MAX_FAITHFUL_SAMPLES:
        raise CliUsageError("--samples must be between 0 and %d" % MAX_FAITHFUL_SAMPLES)
    if args.n > MAX_REP_N:
        raise CliUsageError("--n must be at most %d" % MAX_REP_N)
    if args.seed is not None and not args.samples:
        raise CliUsageError("--seed seeds the faithfulness suite and needs --samples")
    if args.seed is None:
        args.seed = 0
    if args.mod is not None and args.mod.bit_length() > MAX_MODULUS_BITS:
        raise CliUsageError("--mod has more than %d bits" % MAX_MODULUS_BITS)
    modulus = None if args.mod is None else Modulus(*_factor_prime_power(args.mod))
    gamma = parse_matrix(args.gamma, modulus)
    y = parse_matrix(args.y, modulus)
    if gamma.n != args.n:
        raise CliUsageError("--n %d does not match the %dx%d gamma" % (args.n, gamma.n, gamma.n))
    mat = rho(pair(gamma, y))
    results = {"rho": str(mat), "n_squared": mat.n}
    if not args.samples:
        return results, True
    stats = {}
    results["faithfulness"] = suite = verify_faithful(gamma.n, modulus, args.samples, args.seed, stats=stats)
    return results, suite["ok"], stats


def _factor_prime_power(m):
    """(p, r) with m = p^r.  The search stops at the bound ``Modulus`` puts
    on p, so a modulus with no prime factor below it is refused at once."""
    for p in range(2, min(m + 1, _PRIME_BOUND)):
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                raise CliUsageError("--mod must be a prime power")
            return p, r
    raise CliUsageError("--mod must be a prime power p^r with 2 <= p < 2^20")


def _cmd_holomorph(args):
    from .holomorph import MAX_IDENTITY_COUNT, verify_holomorph_identities
    from .stability import EXAMPLES

    _check_size("--count", args.count, MAX_IDENTITY_COUNT)
    [example] = [entry for entry in EXAMPLES.values() if entry.backend == args.backend]
    if args.p is None:
        args.p = 3   # reported by the free backend too, which takes no prime; the digests keep it
    elif "p" not in example.flags:
        raise CliUsageError("--backend %s takes no -p" % args.backend)
    ext, _, _ = example.build(**{key: args.p if key == "p" else value for key, value in example.flags.items()})
    stats = {}
    result = verify_holomorph_identities(ext.act, ext.gamma.gens(0), ext.pi.gens(0), args.count, args.seed,
                                         radius=example.radius, stats=stats)
    return result, result["ok"], stats


def _cmd_freegroup(args):
    from .freegroup import (
        example_shift_action, example_shift_inverses, mccool_generator, mccool_inverse, poison_action,
        verify_automorphism,
    )

    if not 2 <= args.nmax <= MAX_NMAX:
        raise CliUsageError("--nmax must be between 2 and %d" % MAX_NMAX)
    checks = []
    for idx, (endo, inv) in enumerate(poison_action(), start=1):
        abel = endo.abelianize()
        checks.append({
            "id": "fp_generator_%d" % idx,
            "automorphism": verify_automorphism(endo, inv),
            "nontrivial_on_homology": abel != Mat.identity(3),
            "abelianization": str(abel),
        })
    for n in range(2, args.nmax + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                gen = mccool_generator(n, i, j)
                checks.append({
                    "id": "mccool_%d_%d_%d" % (n, i, j),
                    "automorphism": verify_automorphism(gen, mccool_inverse(n, i, j)),
                    "trivial_on_homology": gen.abelianize() == Mat.identity(n),
                })
    for n in range(2, args.nmax + 1):
        x, y = example_shift_action(n)
        x_inv, y_inv = example_shift_inverses(n)
        checks.append({
            "id": "shift_action_n%d" % n,
            "x_automorphism": verify_automorphism(x, x_inv),
            "y_automorphism": verify_automorphism(y, y_inv),
            "y_trivial_on_homology": y.abelianize() == Mat.identity(n + 1),
        })
    return checks, all(all(v for k, v in c.items() if isinstance(v, bool)) for c in checks)


def _cmd_ball(args):
    from .linrep import MAX_BALL_RADIUS, ball_injectivity

    if not 1 <= args.radius <= MAX_BALL_RADIUS or args.base < 1 or args.target <= args.base:
        raise CliUsageError("rep-ball needs 1 <= --radius <= %d and 1 <= --base < --target" % MAX_BALL_RADIUS)
    check_tower_depth(args.p, args.target)
    result = ball_injectivity(args.p, args.base, args.target, radius=args.radius, seed=args.seed)
    return result, result["ok"]


def _add_quotient(sub, common):
    q = sub.add_parser("quotient", parents=[common], help="certify the invariants of a finite congruence quotient")
    q.add_argument("--family", choices=["pgamma", "gamma"], required=True)
    q.add_argument("-p", type=int, required=True)
    q.add_argument("-i", type=int, required=True)
    q.add_argument("-j", type=int, required=True)
    q.set_defaults(func=_cmd_quotient)


def _add_pcongruence(sub, common):
    pc = sub.add_parser("pcongruence", parents=[common], help="finite p-group and bounded-generation checks")
    pc.add_argument("--family", choices=["pgamma", "gamma"], required=True)
    pc.add_argument("-p", type=int, required=True)
    pc.add_argument("--r0", type=int, default=1)
    pc.add_argument("--jmax", type=int, required=True)
    pc.add_argument("-e", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    pc.set_defaults(func=_cmd_pcongruence)


def _add_stability(sub, common):
    from .stability import EXAMPLES

    st = sub.add_parser("stability", parents=[common], help="stability / Lie-like sampling suites")
    st.add_argument("--example", choices=list(EXAMPLES), required=True)
    # absent when not given: the example's entry holds their defaults
    for flag in _fixture_flags(EXAMPLES).values():
        st.add_argument(flag, type=int, default=argparse.SUPPRESS)
    st.add_argument("--count", type=int, default=500)
    st.add_argument("--seed", type=int, required=True)
    st.set_defaults(func=_cmd_stability)


def _add_graded(sub, common):
    gr = sub.add_parser("graded", help="graded layer bracket and relation table")
    gr_sub = gr.add_subparsers(dest="graded_command", required=True)
    grb = gr_sub.add_parser("bracket", parents=[common])
    grb.add_argument("-p", type=int, required=True)
    grb.add_argument("-q", type=int, required=True)
    grb.add_argument("-s", type=int, required=True)
    grb.add_argument("--c1", required=True)
    grb.add_argument("--c2", required=True)
    grb.set_defaults(func=_cmd_graded_bracket)
    grv = gr_sub.add_parser("verify", parents=[common])
    grv.add_argument("-p", type=int, required=True)
    grv.add_argument("--qmax", type=int, required=True)
    grv.set_defaults(func=_cmd_graded_verify)


def _add_rep(sub, common):
    rp = sub.add_parser("rep", parents=[common], help="the n^2-dimensional conjugation representation")
    rp.add_argument("--n", type=int, default=2)
    rp.add_argument("--mod", type=int, help="prime-power modulus; omit for Z")
    rp.add_argument("--gamma", required=True)
    rp.add_argument("--y", required=True)
    rp.add_argument("--samples", type=int, default=0, help="also run the faithfulness suite on this many seeded pairs")
    rp.add_argument("--seed", type=int, help="seed of the faithfulness suite (default 0); needs --samples")
    rp.set_defaults(func=_cmd_rep)


def _add_ball(sub, common):
    rb = sub.add_parser("rep-ball", parents=[common], help="injectivity of rho on a congruence generator ball")
    rb.add_argument("-p", type=int, required=True)
    rb.add_argument("--base", type=int, required=True)
    rb.add_argument("--target", type=int, required=True)
    rb.add_argument("--radius", type=int, default=3)
    rb.add_argument("--seed", type=int, required=True)
    rb.set_defaults(func=_cmd_ball)


def _add_holomorph(sub, common):
    from .stability import EXAMPLES

    ho = sub.add_parser("holomorph-identities", parents=[common], help="closed forms vs first-principles products")
    ho.add_argument("--backend", choices=[entry.backend for entry in EXAMPLES.values() if entry.backend], required=True)
    ho.add_argument("-p", type=int, help="prime of a backend that takes one (default 3)")
    ho.add_argument("--count", type=int, default=1000)
    ho.add_argument("--seed", type=int, required=True)
    ho.set_defaults(func=_cmd_holomorph)


def _add_freegroup(sub, common):
    fg = sub.add_parser("freegroup-fixtures", parents=[common], help="automorphism witnesses and homology actions")
    fg.add_argument("--nmax", type=int, default=4)
    fg.set_defaults(func=_cmd_freegroup)


#: Each command and the function adding its subparser, in the order of ``filtra -h``.
_SUBPARSERS = {"quotient": _add_quotient, "pcongruence": _add_pcongruence, "stability": _add_stability,
               "graded": _add_graded, "rep": _add_rep, "rep-ball": _add_ball,
               "holomorph-identities": _add_holomorph, "freegroup-fixtures": _add_freegroup}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every command's subparser, or only that of ``command`` if it names one."""
    parser = argparse.ArgumentParser(
        prog="filtra", description="Exact verification suites for congruence filtrations and split extensions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON report to this path")
    one = command in _SUBPARSERS
    # a lone subparser keeps the usage line, which lists every command
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{%s}" % ",".join(_SUBPARSERS) if one else None)
    for add in [_SUBPARSERS[command]] if one else _SUBPARSERS.values():
        add(sub, common)
    return parser


#: Namespace entries that are not the command's flags, or (``--out``) do not
#: change its results; the rest of the namespace is the report's config.
_NOT_CONFIG = ("func", "out", "command", "graded_command")


def main(argv=None) -> int:
    """Run one command and print its report: the handler's results and
    ``ok`` inside the envelope built here, with the parsed flags as config.
    Returns 0 when ``ok``, 1 when not, and 2 on a usage error, which prints
    no report."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        started = time.monotonic()
        results, ok, *stats = args.func(args)
    except (CliUsageError, MatrixError, ValueError) as exc:
        # bad literals, coordinates out of shape, invalid moduli, ...
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    timings = {"wall_s": round(time.monotonic() - started, 6)}
    if stats:
        timings["stats"] = stats[0]
    _emit({
        "schema_version": SCHEMA_VERSION,
        "tool": "filtra",
        "version": __version__,
        "command": "-".join(filter(None, (args.command, getattr(args, "graded_command", None)))),
        "config": {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG},
        "results": results,
        "ok": ok,
        "timings": timings,
    }, args.out)
    return 0 if ok else 1


def console():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console()
