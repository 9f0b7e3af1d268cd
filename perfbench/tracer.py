"""Traced in-process run of a workload's CLI commands.

Run as a child of ``run.py --trace 1``:

    python3 perfbench/tracer.py SPEC.json OUT.json

``SPEC.json`` names the commands (argv lists for ``qclt.cli.main``), the
kernel shapes to probe and where to write the spans.  The child runs the
commands once untraced and once traced, then probes the chain kernel on
every importable backend and worker count, and writes a summary to
``OUT.json``.

Spans are recorded from outside the library: every public function of
each ``qclt`` module, each ``cli`` command function and each backend's
``chain_paths``/``torus_paths`` chunk function is replaced, in every
``qclt`` namespace that binds it, by a wrapper that records
``(name, start, end, parent, thread)``.  A span opened on a worker thread
with nothing open on that thread takes the innermost open span of the main
thread as its parent, so kernel chunks are children of their
``run_*_paths`` call.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import io
import json
import math
import statistics
import sys
import threading
import time

import checks

MODULES = ("chain", "spectral", "martingale", "simulate", "group_walk",
           "inequalities", "verify", "cli", "kernels", "rng")
# entry points, not layers: time spent in them outside the command span is
# what no span covers
UNTRACED = {"cli.main", "cli.build_parser"}
# private helpers traced for a count: the Jacobi solver checks convergence
# once per sweep plus once on exit, which gives solver iterations
COUNTED = {"spectral": ["_off_diag_norm"]}
# positional arguments that give the work of a kernel call: (n_steps, paths)
KERNEL_WORK = {
    "kernels.run_chain_paths": lambda a: a[4] * a[5],
    "kernels.run_torus_paths": lambda a: a[6] * a[7],
    "chain_paths": lambda a: a[4] * len(a[5]),
    "torus_paths": lambda a: a[6] * len(a[7]),
}
PERCENTILE_MIN_CALLS = 1000


class Tracer:
    """In-memory span recorder; spans are lists
    ``[name, start, end, parent, thread, failed, work]``."""

    def __init__(self):
        self.spans: list = []
        self._stacks: dict = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def _open(self, name: str, work: int) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, tid, 0, work])
        stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = int(failed)
        self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name, 0)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, failed)

    def wrap(self, name: str, fn):
        work_of = KERNEL_WORK.get(name) or KERNEL_WORK.get(name.rsplit(".", 1)[-1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, work_of(args) if work_of else 0)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(idx, failed)
        return wrapper


def install(tracer: Tracer) -> int:
    """Wrap every target in every ``qclt`` namespace; returns the binding count."""
    from qclt import kernels

    targets = {}
    for short in MODULES:
        mod = importlib.import_module(f"qclt.{short}")
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if short == "cli" and attr.startswith("_cmd_"):
                targets[id(obj)] = (obj, f"cli.{attr[5:]}")
            elif (not attr.startswith("_") and f"{short}.{attr}" not in UNTRACED
                  or attr in COUNTED.get(short, ())):
                targets[id(obj)] = (obj, f"{short}.{attr}")
    for backend, mod in kernels.available_backends().items():
        for attr in ("chain_paths", "torus_paths"):
            obj = getattr(mod, attr)
            targets[id(obj)] = (obj, f"kernels.{backend}.{attr}")
    wrappers = {key: tracer.wrap(name, obj) for key, (obj, name) in targets.items()}
    bound = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qclt" or modname.startswith("qclt.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and targets[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)])
                bound += 1
    return bound


def run_commands(commands) -> list:
    """Run ``qclt.cli.main`` in-process on each ``(label, argv)``."""
    from qclt import cli

    out = []
    for label, argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback is exit 1 on the real CLI
                print(repr(exc), file=sys.stderr)
                code = 1
        out.append({"label": label, "exit": code, "wall_s": time.perf_counter() - t0,
                    "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()[-2000:]})
    return out


# -- kernel probe ------------------------------------------------------------

def _median_time(fn, reps):
    times, result = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def probe_chain(tracer: Tracer, spec: dict) -> dict:
    """Chain kernel at the workload's shape on every backend and worker count.

    Outputs must be bit-identical to the default backend at one worker.
    """
    import numpy as np
    from qclt import kernels
    from qclt.chain import center_observable, load_document
    from qclt.martingale import poisson_solve
    from qclt.simulate import cumulative_rows

    chain, observables = load_document(spec["doc"])
    f = center_observable(chain, observables[spec["observable"]])
    scheme = poisson_solve(chain, f)
    steps = spec["n"] * spec["paths"]
    reps = max(1, math.ceil(4e6 / steps))
    args = (cumulative_rows(chain), np.ascontiguousarray(scheme.g - scheme.qg),
            np.ascontiguousarray(scheme.diff_kernel), chain.index_of(spec["start"]),
            spec["n"], spec["paths"], spec["seed"])
    result = {"reps": reps, "steps": steps, "ns_per_step": {}, "mismatches": []}
    reference = None
    backends = [kernels.BACKEND] + [b for b in kernels.available_backends()
                                    if b != kernels.BACKEND]
    for backend in backends:
        for workers in (1, 2):
            first = len(tracer.spans)
            elapsed, out = _median_time(
                lambda: kernels.run_chain_paths(*args, workers=workers, backend=backend),
                reps)
            result["ns_per_step"][f"{backend}/{workers}"] = elapsed / steps * 1e9
            if reference is None:
                reference = out
            elif not all(np.array_equal(a, b) for a, b in zip(reference, out)):
                result["mismatches"].append(f"chain kernel on {backend} with {workers} "
                                            f"workers differs from {kernels.BACKEND}/1")
            if backend == kernels.BACKEND and workers == 2:
                chunks = [s[2] - s[1] for s in tracer.spans[first:]
                          if s[0].endswith(".chain_paths")]
                result["chunk_imbalance"] = max(chunks) / statistics.mean(chunks)
    own = result["ns_per_step"]
    result["thread_efficiency"] = (own[f"{kernels.BACKEND}/1"]
                                   / (2.0 * own[f"{kernels.BACKEND}/2"]))
    return result


def probe_torus(spec: dict) -> dict:
    """Torus kernel at the workload's shape on every backend; the sample
    statistics are returned for the statistical check in the parent."""
    import numpy as np
    from qclt import kernels
    from qclt.group_walk import GOLDEN_ALPHA, make_torus_walk, torus_sigma_sq

    walk = make_torus_walk(GOLDEN_ALPHA, lazy=spec["lazy"],
                           fhat={nu: complex(re, im) for nu, re, im in spec["coeffs"]})
    freqs = np.array([nu for nu, _ in walk.fhat], dtype=float)
    coeffs = np.array([c for _, c in walk.fhat], dtype=complex)
    args = (walk.alpha, walk.lazy, 2.0 * np.pi * freqs, 2.0 * coeffs.real,
            -2.0 * coeffs.imag, spec["x0"], spec["n"], spec["paths"], spec["seed"])
    sigma = math.sqrt(torus_sigma_sq(walk))
    out = {}
    for backend in kernels.available_backends():
        elapsed, (sums, _) = _median_time(
            lambda: kernels.run_torus_paths(*args, backend=backend), 1)
        scaled = sums / math.sqrt(spec["n"])
        out[backend] = {"ns_per_step": elapsed / (spec["n"] * spec["paths"]) * 1e9,
                        "sample_mean": float(np.mean(scaled)),
                        "sample_var": float(np.var(scaled, ddof=1)),
                        "ks_distance": checks.ks_statistic(scaled, sigma)}
    return out


# -- span analysis -------------------------------------------------------------

def _covered(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_stats(spans, roots) -> dict:
    """Per-name ``calls``, ``total_s``, ``self_s``, ``errors`` (and per-call
    ``p50_s``/``p99_s`` from 1000 calls on) over the trees under ``roots``."""
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    keep = []
    todo = list(roots)
    while todo:
        i = todo.pop()
        keep.append(i)
        todo.extend(children.get(i, ()))
    stats: dict = {}
    for i in keep:
        name, start, end, _, _, failed, work = spans[i]
        kids = [(spans[k][1], spans[k][2]) for k in children.get(i, ())]
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "errors": 0, "work": 0, "durations": []})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - _covered(kids)
        st["errors"] += failed
        st["work"] += work
        st["durations"].append(end - start)
    for st in stats.values():
        durations = sorted(st.pop("durations"))
        if len(durations) >= PERCENTILE_MIN_CALLS:
            st["p50_s"] = durations[len(durations) // 2]
            st["p99_s"] = durations[min(len(durations) - 1, int(0.99 * len(durations)))]
    return stats


def main(argv) -> int:
    with open(argv[0]) as fh:
        spec = json.load(fh)
    commands = [(c["label"], c["argv"]) for c in spec["commands"]]
    from qclt import kernels

    untraced = run_commands(commands)
    tracer = Tracer()
    bound = install(tracer)
    first = len(tracer.spans)
    traced = run_commands(commands)
    roots = [i for i, s in enumerate(tracer.spans) if i >= first and s[3] == -1]
    stats = layer_stats(tracer.spans, roots)
    in_process = sum(r["wall_s"] for r in traced)
    covered = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    with tracer.span("probe"):
        probe = {"chain": probe_chain(tracer, spec["probe"]["chain"])}
        if "torus" in spec["probe"]:
            probe["torus"] = probe_torus(spec["probe"]["torus"])
    with gzip.open(spec["spans_path"], "wt") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "thread", "failed",
                              "work"], "spans": tracer.spans}, fh)
    summary = {
        "backend": kernels.BACKEND,
        "backends": list(kernels.available_backends()),
        "bindings_wrapped": bound,
        "untraced": untraced,
        "traced": traced,
        "stats": stats,
        "uncovered_share": (in_process - covered) / in_process,
        "overhead_ratio": in_process / sum(r["wall_s"] for r in untraced),
        "probe": probe,
        "span_count": len(tracer.spans),
    }
    with open(argv[1], "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
