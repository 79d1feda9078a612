"""Command line front end: JSON verification reports for every suite.

Exit codes: 0 all checks passed, 1 at least one check failed (the JSON
report carries the counterexamples), 2 usage error, 3 desk-scale guard
violation.  Re-running with an identical config (including the seed, which
is mandatory for every sampling command) reproduces the same report except
for the wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .exactmat import IntMat, MatrixError, Modulus, parse_matrix
from .filtration import FiltrationSpec, GuardError, check_p_congruence, kernel_enumerate
from .freegroup import (
    Word,
    example_shift_action,
    example_shift_inverses,
    poison_action,
    mccool_generator,
    mccool_inverse,
    verify_automorphism,
)
from .graded import GradedClass, bracket, verify_relation_table
from .holomorph import FreeGroupAction, MatrixConjugation, verify_holomorph_identities
from .linrep import DeltaElem, ball_injectivity, rho, verify_faithful
from .stability import run_congruence_suite, run_poison_suite

SCHEMA_VERSION = 1


class CliUsageError(Exception):
    pass


def _report(command, config, results, ok, started):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "filtra",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "ok": ok,
        "timings": {"wall_s": round(time.monotonic() - started, 6)},
    }


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _cmd_quotient(args, started):
    table = kernel_enumerate(args.p, args.i, args.j, args.family)
    result = table.to_dict()
    config = {"family": args.family, "p": args.p, "i": args.i, "j": args.j}
    return 0, _report("quotient", config, result, True, started)


def _cmd_pcongruence(args, started):
    spec = FiltrationSpec(args.family, args.p, args.r0, args.jmax)
    result = check_p_congruence(spec, args.jmax, args.e, seed=args.seed)
    config = {"family": args.family, "p": args.p, "r0": args.r0,
              "jmax": args.jmax, "e": args.e, "seed": args.seed}
    return (0 if result["ok"] else 1), _report("pcongruence", config, result, result["ok"], started)


def _cmd_stability(args, started):
    config = {"example": args.example, "seed": args.seed, "count": args.count}
    if args.example == "congruence":
        config.update({"p": args.p, "r0": args.r0, "s0": args.s0,
                       "rmax": args.rmax, "smax": args.smax})
        reports, ok = run_congruence_suite(args.p, args.r0, args.s0, args.rmax, args.smax,
                                           count=args.count, seed=args.seed)
    else:
        reports, ok = run_poison_suite(count=args.count, seed=args.seed)
    results = [rep.to_dict() for rep in reports]
    return (0 if ok else 1), _report("stability", config, results, ok, started)


def _cmd_graded_bracket(args, started):
    coords1 = tuple(int(t) for t in args.c1.split(","))
    coords2 = tuple(int(t) for t in args.c2.split(","))
    out = bracket(GradedClass(args.p, args.q, coords1), GradedClass(args.p, args.s, coords2))
    print(str(out))
    config = {"p": args.p, "q": args.q, "s": args.s, "c1": args.c1, "c2": args.c2}
    return 0, _report("graded-bracket", config, {"bracket": str(out), "level": args.q + args.s},
                      True, started)


def _cmd_graded_verify(args, started):
    result = verify_relation_table(args.p, args.qmax)
    config = {"p": args.p, "qmax": args.qmax, "seed": args.seed}
    return (0 if result["ok"] else 1), _report("graded-verify", config, result, result["ok"], started)


def _cmd_rep(args, started):
    modulus = Modulus(*_factor_prime_power(args.mod)) if args.mod else None
    gamma = parse_matrix(args.gamma, modulus)
    y = parse_matrix(args.y, modulus)
    mat = rho(DeltaElem(gamma, y))
    print(str(mat))
    results = {"rho": str(mat), "n_squared": mat.n}
    ok = True
    if args.samples:
        suite = verify_faithful(gamma.n, modulus, args.samples, args.seed)
        results["faithfulness"] = suite
        ok = suite["ok"]
    config = {"n": gamma.n, "mod": args.mod, "gamma": args.gamma, "y": args.y,
              "samples": args.samples, "seed": args.seed}
    return (0 if ok else 1), _report("rep", config, results, ok, started)


def _factor_prime_power(m):
    for p in range(2, m + 1):
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                raise CliUsageError("--mod must be a prime power")
            return p, r
    raise CliUsageError("--mod must be a prime power >= 2")


def _cmd_holomorph(args, started):
    if args.backend == "congruence":
        from .filtration import congruence_basis

        act = MatrixConjugation(IntMat.identity(2), IntMat.identity(2), psl_pi=True)
        gens = list(congruence_basis(args.p, 1).values())
        result = verify_holomorph_identities(act, gens, gens, args.count, args.seed)
    else:
        act = FreeGroupAction(2, 3, poison_action())
        gamma_gens = [Word.generator(2, 1), Word.generator(2, 2)]
        pi_gens = [Word.generator(3, i) for i in (1, 2, 3)]
        result = verify_holomorph_identities(act, gamma_gens, pi_gens, args.count, args.seed,
                                             radius=5)
    config = {"backend": args.backend, "p": args.p, "count": args.count, "seed": args.seed}
    return (0 if result["ok"] else 1), _report("holomorph-identities", config, result,
                                               result["ok"], started)


def _cmd_freegroup(args, started):
    checks = []
    phi_pairs = poison_action()
    for idx, (endo, inv) in enumerate(phi_pairs, start=1):
        abel = endo.abelianize()
        checks.append({
            "id": "fp_generator_%d" % idx,
            "automorphism": verify_automorphism(endo, inv),
            "nontrivial_on_homology": abel != IntMat.identity(3),
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
                    "trivial_on_homology": gen.abelianize() == IntMat.identity(n),
                })
    for n in range(2, args.nmax + 1):
        x, y = example_shift_action(n)
        x_inv, y_inv = example_shift_inverses(n)
        checks.append({
            "id": "shift_action_n%d" % n,
            "x_automorphism": verify_automorphism(x, x_inv),
            "y_automorphism": verify_automorphism(y, y_inv),
            "y_trivial_on_homology": y.abelianize() == IntMat.identity(n + 1),
        })
    ok = all(all(v for k, v in c.items() if isinstance(v, bool)) for c in checks)
    config = {"nmax": args.nmax}
    return (0 if ok else 1), _report("freegroup-fixtures", config, checks, ok, started)


def _cmd_ball(args, started):
    result = ball_injectivity(args.p, args.base, args.target, radius=args.radius, seed=args.seed)
    config = {"p": args.p, "base": args.base, "target": args.target,
              "radius": args.radius, "seed": args.seed}
    return (0 if result["ok"] else 1), _report("rep-ball", config, result, result["ok"], started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtra",
        description="Exact verification suites for congruence filtrations and split extensions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quotient", parents=[common], help="enumerate a finite congruence quotient")
    q.add_argument("--family", choices=["pgamma", "gamma"], required=True)
    q.add_argument("-p", type=int, required=True)
    q.add_argument("-i", type=int, required=True)
    q.add_argument("-j", type=int, required=True)
    q.set_defaults(func=_cmd_quotient)

    pc = sub.add_parser("pcongruence", parents=[common], help="finite p-group and bounded-generation checks")
    pc.add_argument("--family", choices=["pgamma", "gamma"], required=True)
    pc.add_argument("-p", type=int, required=True)
    pc.add_argument("--r0", type=int, default=1)
    pc.add_argument("--jmax", type=int, required=True)
    pc.add_argument("-e", type=int, required=True)
    pc.add_argument("--seed", type=int, required=True)
    pc.set_defaults(func=_cmd_pcongruence)

    st = sub.add_parser("stability", parents=[common], help="stability / Lie-like sampling suites")
    st.add_argument("--example", choices=["congruence", "poison"], required=True)
    st.add_argument("-p", type=int, default=3)
    st.add_argument("--r0", type=int, default=1)
    st.add_argument("--s0", type=int, default=1)
    st.add_argument("--rmax", type=int, default=3)
    st.add_argument("--smax", type=int, default=3)
    st.add_argument("--count", type=int, default=500)
    st.add_argument("--seed", type=int, required=True)
    st.set_defaults(func=_cmd_stability)

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
    grv.add_argument("--seed", type=int, default=0,
                     help="accepted for config uniformity; the table is exhaustive")
    grv.set_defaults(func=_cmd_graded_verify)

    rp = sub.add_parser("rep", parents=[common], help="the n^2-dimensional conjugation representation")
    rp.add_argument("--n", type=int, default=2)
    rp.add_argument("--mod", type=int, help="prime-power modulus; omit for Z")
    rp.add_argument("--gamma", required=True)
    rp.add_argument("--y", required=True)
    rp.add_argument("--samples", type=int, default=0,
                    help="also run the faithfulness suite on this many seeded pairs")
    rp.add_argument("--seed", type=int, default=0)
    rp.set_defaults(func=_cmd_rep)

    rb = sub.add_parser("rep-ball", parents=[common], help="injectivity of rho on a congruence generator ball")
    rb.add_argument("-p", type=int, required=True)
    rb.add_argument("--base", type=int, required=True)
    rb.add_argument("--target", type=int, required=True)
    rb.add_argument("--radius", type=int, default=3)
    rb.add_argument("--seed", type=int, required=True)
    rb.set_defaults(func=_cmd_ball)

    ho = sub.add_parser("holomorph-identities", parents=[common], help="closed forms vs first-principles products")
    ho.add_argument("--backend", choices=["congruence", "free"], required=True)
    ho.add_argument("-p", type=int, default=3)
    ho.add_argument("--count", type=int, default=1000)
    ho.add_argument("--seed", type=int, required=True)
    ho.set_defaults(func=_cmd_holomorph)

    fg = sub.add_parser("freegroup-fixtures", parents=[common], help="automorphism witnesses and homology actions")
    fg.add_argument("--nmax", type=int, default=4)
    fg.set_defaults(func=_cmd_freegroup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, report = args.func(args, started)
    except GuardError as exc:
        print("guard violation: %s" % exc, file=sys.stderr)
        return 3
    except (CliUsageError, MatrixError, ValueError) as exc:
        # bad literals, coordinates out of shape, invalid moduli, ...
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    _emit(report, args.out)
    return code


def console():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console()
