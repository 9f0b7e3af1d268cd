"""Command-line front end.

Subcommands: ``analyze`` (classification + spectral report), ``approx``
(martingale diagnostics table), ``simulate`` (fixed-start Monte Carlo CLT),
``group`` (build an abelian group walk as a chain document), ``torus``
(rotation-walk series report) and ``verify`` (identity/inequality suite).

Reports are structured text with stable key order; numeric fields carry 12
significant digits.  Every run echoes its resolved configuration, seed
included.  Exit codes: 0 success, 2 invalid input or a failed write, 3 suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import sys

import numpy as np

# Each command imports the modules it runs inside its own function, so a
# process pays only for what its command uses.
from . import kernels
from .chain import (
    center_observable,
    dump_document,
    guarded_writes,
    load_document,
    open_output,
    read_json_source,
)
from .errors import DivergentIntegral, QcltError


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "none"
    return format(float(x), ".12g")


def _emit(section: str, pairs) -> None:
    print(f"[{section}]")
    for key, value in pairs:
        print(f"{key} = {_fmt(value) if not isinstance(value, str) else value}")


def _pick_observable(observables: dict, name: str | None):
    if name is None:
        if len(observables) == 1:
            return next(iter(observables.items()))
        raise QcltError(
            f"--observable required; document defines {sorted(observables)}"
        )
    if name not in observables:
        raise QcltError(f"observable {name!r} not in document ({sorted(observables)})")
    return name, observables[name]


def _load_observable(args):
    """``(chain, name, f)``: the document's chain and its chosen, centered observable."""
    chain, observables = load_document(args.chain, tol=args.tol)
    name, raw = _pick_observable(observables, args.observable)
    return chain, name, center_observable(chain, raw)


def _emit_report(first_pair, report) -> None:
    """The ``[report]`` section of a fixed-start simulation."""
    rows = [first_pair, ("n", report.n), ("num_paths", report.num_paths),
            ("seed", report.seed), ("sample_mean", report.sample_mean),
            ("sample_var", report.sample_var), ("ks_distance", report.ks_distance)]
    if report.residual_max is not None:
        rows.append(("residual_max", report.residual_max))
    rows.append(("sigma_sq_used", report.sigma_sq_used))
    _emit("report", rows)


def _cmd_analyze(args) -> int:
    from .spectral import spectral_integral, spectral_measure

    chain, name, f = _load_observable(args)
    # the measure and its sums reject bad input before any output is printed
    measure = spectral_measure(chain, f)
    sums = []
    for weight in ("SR", "SR2", "sigma_sq"):
        try:
            sums.append((weight, spectral_integral(measure, weight)))
        except DivergentIntegral:
            sums.append((weight, "divergent"))
    _emit("config", [("command", "analyze"), ("chain", args.chain),
                     ("observable", name), ("tol", args.tol)])
    flags = chain.flags
    _emit("classification", [("reversible", flags.reversible), ("normal", flags.normal),
                             ("irreducible", flags.irreducible),
                             ("aperiodic", flags.aperiodic), ("tol", flags.tol)])
    rows = [("atom_count", len(measure.masses))]
    for i, (loc, mass) in enumerate(zip(measure.locations, measure.masses)):
        rows.append((f"atom_{i}", f"{_fmt(loc)} {_fmt(mass)}"))
    rows.append(("total_mass", measure.total))
    _emit("spectral", rows + sums)
    return 0


def _parse_int_list(text: str, option: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise QcltError(f"{option} needs comma-separated integers, got {text!r}") from None


def _cmd_approx(args) -> int:
    from .martingale import poisson_solve, quenched_diagnostics

    chain, name, f = _load_observable(args)
    # the whole table is computed, and every horizon and start checked, before any output
    starts = [args.start] if args.start is not None else range(chain.n_states)
    rows = quenched_diagnostics(chain, poisson_solve(chain, f), starts,
                                _parse_int_list(args.n, "--n"))
    _emit("config", [("command", "approx"), ("chain", args.chain),
                     ("observable", name), ("n", args.n),
                     ("start", "all" if args.start is None else str(args.start)),
                     ("tol", args.tol)])
    print("[diagnostics]")
    print("n,x,cond_mean,residual_msq,residual_over_n,asdl_sup")
    for d in rows:
        print(",".join([str(d.n), chain.state_labels[d.start_state], _fmt(d.cond_mean),
                        _fmt(d.residual_msq), _fmt(d.residual_over_n), _fmt(d.asdl_sup)]))
    return 0


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise QcltError(f"--threads needs a count >= 1, got {threads}")


def _cmd_simulate(args) -> int:
    from .martingale import poisson_solve
    from .simulate import simulate_quenched

    _check_threads(args.threads)
    chain, name, f = _load_observable(args)
    scheme = poisson_solve(chain, f)
    # every input, the dump path included, is validated before anything prints
    report = simulate_quenched(chain, scheme, args.start, args.n, args.paths,
                               seed=args.seed, workers=args.threads,
                               dump_path=args.dump)
    _emit("config", [("command", "simulate"), ("chain", args.chain),
                     ("observable", name), ("start", str(args.start)),
                     ("n", args.n), ("paths", args.paths), ("seed", args.seed),
                     ("threads", args.threads), ("tol", args.tol),
                     ("backend", kernels.BACKEND)])
    _emit_report(("start_state", report.start_state), report)
    return 0


def _parse_step(text: str):
    atoms = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        elem_text, _, prob_text = part.partition(":")
        try:
            comps = tuple(int(c) for c in elem_text.split("."))
            prob = float(prob_text)
        except ValueError:
            raise QcltError(f"--step atom {part!r} is not element:probability") from None
        atoms[comps] = atoms.get(comps, 0.0) + prob
    return atoms


def _harmonic_vector(moduli, freqs):
    coords = np.indices(moduli).reshape(len(moduli), -1)
    ang = np.zeros(coords.shape[1])
    for d, m in enumerate(moduli):
        ang += (2.0 * math.pi * freqs[d] / m) * coords[d]
    return math.sqrt(2.0) * np.cos(ang)


def _cmd_group(args) -> int:
    from .group_walk import build_group_walk, condition_sums

    moduli = _parse_int_list(args.moduli, "--moduli")
    walk = build_group_walk(moduli, _parse_step(args.step))
    observables = {}
    f = None
    if args.harmonic is not None:
        freqs = _parse_int_list(args.harmonic, "--harmonic")
        if len(freqs) != len(moduli):
            raise QcltError(f"--harmonic needs {len(moduli)} components")
        raw = _harmonic_vector(walk.moduli, freqs)
        name = "harmonic" + "_".join(str(k) for k in freqs)
        observables[name] = raw
        f = center_observable(walk.chain, raw)
    document = dump_document(walk.chain, observables)
    if args.output is None:
        print(document)
        return 0
    with open_output(args.output) as fh:
        fh.write(document + "\n")
    _emit("config", [("command", "group"), ("moduli", args.moduli),
                     ("step", args.step),
                     ("harmonic", args.harmonic or "none"),
                     ("output", args.output)])
    _emit("walk", [("order", walk.chain.n_states), ("symmetric", walk.symmetric),
                   ("ergodic", walk.ergodic),
                   ("reversible", walk.chain.flags.reversible)])
    if f is not None and walk.ergodic:
        rep = condition_sums(walk, f)
        _emit("conditions", [("SR_sum", rep.sr_sum), ("G1_sum", rep.g1_sum),
                             ("SN1_sum", rep.sn1_sum),
                             ("SR_spectral", rep.sr_spectral)])
    elif f is not None:
        _emit("conditions", [("skipped", "walk is not ergodic")])
    return 0


# a frequency given as an object key must spell a JSON integer
_JSON_INT = re.compile(r"-?(0|[1-9][0-9]*)")


def _load_coeffs(source):
    if source is None:
        return {1: 0.5}  # f(x) = cos(2 pi x)
    data = read_json_source(source)

    def malformed():
        return QcltError(f"--coeffs {source!r} needs {{n: value}} or [[n, re, im], ...] "
                         "with integer frequencies n and each value a number, [re] "
                         "or [re, im]")

    if isinstance(data, dict):
        items = [(int(k) if _JSON_INT.fullmatch(k) else None, v) for k, v in data.items()]
    elif isinstance(data, list) and all(isinstance(row, list) and row for row in data):
        items = [(row[0], row[1:]) for row in data]
    else:
        raise malformed()
    out = {}
    for n, value in items:
        # json gives a number as an int or a float, and true/false as a bool
        parts = value if isinstance(value, list) else [value]
        if not (type(n) is int and 1 <= len(parts) <= 2
                and all(type(x) in (int, float) for x in parts)):
            raise malformed()
        try:
            out[n] = complex(*parts)
        except OverflowError:       # an integer too large for a float
            raise malformed() from None
    return out


def _cmd_torus(args) -> int:
    from .group_walk import GOLDEN_ALPHA, make_torus_walk, simulate_torus, torus_condition

    _check_threads(args.threads)
    try:
        alpha = (GOLDEN_ALPHA if args.alpha.strip().lower() == "golden"
                 else float(args.alpha))
    except ValueError:
        raise QcltError(f"--alpha needs 'golden' or a decimal, got {args.alpha!r}") from None
    walk = make_torus_walk(alpha, lazy=args.lazy, fhat=_load_coeffs(args.coeffs))
    report = torus_condition(walk, args.cutoff)
    # simulate before the first section prints, so a bad start exits cleanly
    sim = (simulate_torus(walk, args.start, args.n, args.paths, seed=args.seed,
                          workers=args.threads) if args.paths else None)
    _emit("config", [("command", "torus"), ("alpha", walk.alpha),
                     ("lazy", walk.lazy), ("cutoff", args.cutoff),
                     ("coeffs", args.coeffs or "default cos(2 pi x)"),
                     ("seed", args.seed)])
    print("[convergents]")
    print(" ".join(f"{p}/{q}" for p, q in report.convergents))
    print("[series]")
    print("n,dist,one_minus_nuhat,ratio,partial_sum")
    for row in report.rows:
        print(",".join([str(row.n), _fmt(row.dist), _fmt(row.one_minus_nuhat),
                        _fmt(row.ratio), _fmt(row.partial_sum)]))
    if sim is not None:
        _emit_report(("start", args.start), sim)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(quick=args.quick)
    print("[verify]")
    passed = 0
    for res in results:
        passed += res.ok
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name} -- {res.detail}")
    print(f"result = {passed}/{len(results)} passed")
    return 0 if passed == len(results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclt",
        description="Fixed-start CLT diagnostics for finite Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("chain", help="chain document (JSON)")
        p.add_argument("--observable", help="observable name from the document")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="classification tolerance (default 1e-10)")

    p = sub.add_parser("analyze", help="classification and spectral report")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("approx", help="martingale approximation diagnostics")
    common(p)
    p.add_argument("--n", default="1,2,4,8,16,32,64,128,256,512,1024",
                   help="comma-separated horizons")
    p.add_argument("--start", help="restrict to one start state")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("simulate", help="fixed-start Monte Carlo CLT test")
    common(p)
    p.add_argument("--start", required=True, help="start state")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--dump", help="write per-path scaled sums to this CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("group", help="build an abelian group walk document")
    p.add_argument("--moduli", required=True, help="e.g. 5 or 2,3")
    p.add_argument("--step", required=True,
                   help="element:prob list, e.g. 1:0.5,4:0.5 (use a.b for products)")
    p.add_argument("--harmonic", help="character frequencies, e.g. 1 or 1,0")
    p.add_argument("--output", help="write the document here and print a report")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("torus", help="rotation-walk series report")
    p.add_argument("--alpha", default="golden", help="step: 'golden' or a decimal")
    p.add_argument("--lazy", type=float, default=0.0, help="holding probability")
    p.add_argument("--coeffs",
                   help="Fourier coefficients of the observable: a JSON file or JSON text")
    p.add_argument("--cutoff", type=int, default=10_000,
                   help="cap for convergent denominators")
    p.add_argument("--paths", type=int, default=0,
                   help="if positive, also run the path simulation")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("verify", help="run the identity/inequality suite")
    p.add_argument("--quick", action="store_true", help="smaller sizes, same checks")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with guarded_writes("<stdout>"):    # a full device or a closed pipe
            code = args.func(args)
            sys.stdout.flush()
        return code
    except QcltError as exc:
        with contextlib.suppress(OSError):    # stderr on the same closed pipe
            print(f"error: {exc}", file=sys.stderr)
        return 2


def entry(argv=None) -> int:
    """Console entry point: :func:`main`, then freeze the garbage collector.

    Objects frozen by :func:`gc.freeze` are skipped by the interpreter's
    final collection, so the process exits without walking the objects
    that imports and the command made.  Output that stdout or stderr
    refused goes to the null device, so the interpreter's last flush cannot
    fail again and turn the exit code into 120.  ``main`` itself changes no
    process-wide state, so it stays safe to call in process.
    """
    try:
        return main(argv)
    finally:    # argparse's exit too: its usage line may also be left in stderr's buffer
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
