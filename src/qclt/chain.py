"""Finite-state Markov chains and their stationary L2 geometry.

A chain is stored as a row-stochastic kernel ``Q`` together with its
stationary law ``pi`` and classification flags.  All values are immutable
after construction, so chains and observables can be shared freely between
threads.

The chain document format accepted by :func:`load_document` is JSON::

    {"states": ["a", "b"],
     "Q": [[0.75, 0.25], [0.25, 0.75]],
     "pi": [0.5, 0.5],                  # optional; validated, not recomputed
     "observables": {"f": [1.0, -1.0]}} # optional raw (uncentered) vectors
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadFile,
    BadTolerance,
    DimensionMismatch,
    DuplicateLabel,
    NegativeEntry,
    NonFiniteValue,
    NonStochasticRow,
    NotMeanZero,
    QcltError,
    SingularStationary,
)

ROW_SUM_LOAD_TOL = 1e-9      # reject rows whose sum deviates more than this
STATIONARY_TOL = 1e-12
DEFAULT_CLASSIFY_TOL = 1e-10
MEAN_ZERO_TOL = 1e-12
# A quantity that is 0 in exact arithmetic prints as 0 (a report) or "<1e-13"
# (verify) below this floor: its digits there are roundoff, which moves with
# the BLAS kernels and the vectorised trig a machine picks.  Every tolerance
# on such a quantity (1e-12 or 1e-9) is above the floor.
ROUNDOFF_FLOOR = 1e-13


@dataclass(frozen=True)
class ChainFlags:
    """Classification flags, together with the tolerance used to set them."""

    reversible: bool
    normal: bool
    irreducible: bool
    aperiodic: bool
    tol: float


@dataclass(frozen=True)
class FiniteChain:
    """A validated finite-state Markov chain.

    Attributes
    ----------
    state_labels : tuple of str
        Identifiers for the states, in kernel order.
    kernel : ndarray, shape (n, n)
        Row-stochastic transition matrix; ``kernel[x, y]`` is the probability
        of moving from state ``x`` to state ``y``.
    stationary : ndarray, shape (n,)
        Strictly positive probability vector with ``pi @ kernel == pi``.
    flags : ChainFlags
        Reversibility / normality / irreducibility / aperiodicity.
    """

    state_labels: tuple
    kernel: np.ndarray
    stationary: np.ndarray
    flags: ChainFlags

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    def index_of(self, label) -> int:
        """Map a state label (or an in-range integer index) to its index."""
        if isinstance(label, (int, np.integer)) and 0 <= int(label) < self.n_states:
            return int(label)
        try:
            return self.state_labels.index(str(label))
        except ValueError:
            raise DimensionMismatch(
                f"unknown state {label!r}; labels are {list(self.state_labels)}"
            ) from None


@dataclass(frozen=True)
class Observable:
    """A mean-zero function on the state space with its L2(pi) data.

    ``norm_sq`` is ``sum_x pi(x) f(x)^2`` and ``mean`` is ``sum_x pi(x) f(x)``
    (at most 1e-12 in magnitude by construction).
    """

    values: np.ndarray
    norm_sq: float
    mean: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# lists nested deeper than this are no field's array; the bound keeps the
# check's recursion far below Python's limit
MAX_NESTING = 32


def _real_entries(value, depth: int = 0) -> bool:
    # whether an array or nested lists hold real numbers only: numpy alone
    # would read the strings and booleans of a document as numbers
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if not isinstance(value, (list, tuple)):
        return False
    if value and isinstance(value[0], (list, tuple, np.ndarray)):
        return depth < MAX_NESTING and all(_real_entries(v, depth + 1) for v in value)
    return all(t is not bool and issubclass(t, (int, float, np.integer, np.floating))
               for t in set(map(type, value)))


def _float_array(value, what: str) -> np.ndarray:
    if _real_entries(value):
        try:
            return np.array(value, dtype=np.float64)
        except ValueError:            # ragged rows
            pass
        except OverflowError:         # an integer beyond the float range
            raise NonFiniteValue(f"{what} holds a number too large for a float") from None
    raise DimensionMismatch(f"{what} is not a numeric array")


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue(f"{what} contains NaN or infinite entries")


def _bfs_levels(adj: np.ndarray) -> np.ndarray:
    # breadth-first distance from state 0 along the boolean adjacency, one
    # whole frontier per step; -1 marks states that cannot be reached
    dist = np.full(adj.shape[0], -1, dtype=np.int64)
    dist[0] = 0
    frontier = dist == 0
    level = 0
    while frontier.any():
        level += 1
        frontier = adj[frontier].any(axis=0) & (dist < 0)
        dist[frontier] = level
    return dist


def classify_chain(kernel: np.ndarray, stationary: np.ndarray,
                   tol: float = DEFAULT_CLASSIFY_TOL) -> ChainFlags:
    """Classify a kernel as reversible / normal / irreducible / aperiodic.

    Reversibility is detailed balance ``pi(x)Q(x,y) = pi(y)Q(y,x)`` up to
    ``tol``; normality is ``Q Q* = Q* Q`` up to ``tol`` in the max norm,
    where ``Q*`` is the stationary adjoint.  Irreducibility is two-sided
    reachability on the support graph, and aperiodicity is a unit gcd of
    cycle lengths through state 0.  A NaN, infinite or negative ``tol``
    raises :class:`BadTolerance`.
    """
    if not 0.0 <= tol < np.inf:
        raise BadTolerance(f"classification tolerance must be finite and >= 0, got {tol!r}")
    q = np.asarray(kernel, dtype=np.float64)
    pi = np.asarray(stationary, dtype=np.float64)
    flux = pi[:, None] * q
    reversible = bool(np.max(np.abs(flux - flux.T)) <= tol)
    normal = reversible    # a reversible kernel is self-adjoint in L2(pi)
    if not reversible:
        qstar = _adjoint(q, pi)
        normal = bool(np.max(np.abs(q @ qstar - qstar @ q)) <= tol)
    adj = q > 0.0
    dist = _bfs_levels(adj)
    irreducible = bool(np.all(dist >= 0) and np.all(_bfs_levels(adj.T) >= 0))
    # the period is the gcd of dist[x] + 1 - dist[y] over support edges
    # leaving states reachable from 0 (their heads are reachable too)
    x, y = np.nonzero(adj)
    keep = dist[x] >= 0
    aperiodic = int(np.gcd.reduce(dist[x[keep]] + 1 - dist[y[keep]])) == 1
    return ChainFlags(reversible=reversible, normal=normal,
                      irreducible=irreducible, aperiodic=aperiodic, tol=tol)


def _solve_stationary(kernel: np.ndarray) -> np.ndarray:
    # Direct solve of pi (Q - I) = 0 with sum(pi) = 1: replace the last
    # balance equation by the normalisation row.
    n = kernel.shape[0]
    m = kernel.T - np.eye(n)
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularStationary(
            "stationary solve failed (reducible chain with non-unique pi?); "
            "supply 'pi' explicitly in the document"
        ) from exc
    if np.min(pi) <= 0.0:
        raise SingularStationary(
            "computed stationary law has non-positive entries; the chain is "
            "reducible or numerically degenerate"
        )
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ kernel - pi)) > STATIONARY_TOL:
        raise SingularStationary("stationary residual exceeds 1e-12 after solve")
    return pi


def make_chain(state_labels, kernel, stationary=None,
               tol: float = DEFAULT_CLASSIFY_TOL) -> FiniteChain:
    """Validate raw arrays and build a :class:`FiniteChain`.

    Rows whose sums deviate from 1 by more than 1e-9 are rejected; smaller
    deviations are renormalised away so the stored kernel meets the 1e-12
    row-sum invariant.  If ``stationary`` is given it is validated, not
    recomputed (this supports reducible fixtures such as the identity
    kernel); otherwise it is obtained by a direct linear solve.
    """
    q = _float_array(kernel, "kernel")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got shape {q.shape}")
    n = q.shape[0]
    labels = tuple(str(s) for s in state_labels)
    if len(labels) != n:
        raise DimensionMismatch(f"{len(labels)} labels for {n} states")
    if len(set(labels)) != n:
        dup = next(s for i, s in enumerate(labels) if s in labels[:i])
        raise DuplicateLabel(f"state label {dup!r} is used more than once")
    _require_finite(q, "kernel")
    if np.min(q) < 0.0:
        x, y = np.unravel_index(np.argmin(q), q.shape)
        raise NegativeEntry(f"kernel[{x}][{y}] = {q[x, y]} is negative")
    with np.errstate(over="ignore"):    # a sum past the float range is a bad row too
        row_sums = q.sum(axis=1)
    bad = np.abs(row_sums - 1.0) > ROW_SUM_LOAD_TOL
    if np.any(bad):
        x = int(np.nonzero(bad)[0][0])
        raise NonStochasticRow(f"row {x} sums to {row_sums[x]!r}")
    q = q / row_sums[:, None]

    if stationary is not None:
        pi = _float_array(stationary, "supplied pi")
        if pi.shape != (n,):
            raise DimensionMismatch(f"pi has shape {pi.shape}, expected ({n},)")
        _require_finite(pi, "supplied pi")
        if np.min(pi) <= 0.0:
            raise SingularStationary("supplied pi must have strictly positive entries")
        if abs(pi.sum() - 1.0) > STATIONARY_TOL:
            raise SingularStationary(f"supplied pi sums to {pi.sum()!r}")
        if np.max(np.abs(pi @ q - pi)) > STATIONARY_TOL:
            raise SingularStationary("supplied pi is not stationary for Q (residual > 1e-12)")
    else:
        pi = _solve_stationary(q)

    flags = classify_chain(q, pi, tol=tol)
    return FiniteChain(state_labels=labels, kernel=_freeze(q),
                       stationary=_freeze(pi), flags=flags)


def load_document(source, tol: float = DEFAULT_CLASSIFY_TOL):
    """Parse a chain document and return ``(chain, observables)``.

    ``source`` may be a mapping, a JSON string, or a path to a JSON file.
    Observables are returned as raw (uncentered) vectors keyed by name.
    """
    if isinstance(source, (str, Path)):
        doc = read_json_source(source)
    else:
        doc = dict(source)
    if not isinstance(doc, dict):
        raise DimensionMismatch("a chain document is a JSON object")
    if "Q" not in doc:
        raise DimensionMismatch("document is missing the kernel field 'Q'")
    if not isinstance(doc["Q"], list):
        raise DimensionMismatch("the kernel field 'Q' must be a list of rows")
    states = doc.get("states", [str(i) for i in range(len(doc["Q"]))])
    if not (isinstance(states, list) and all(isinstance(s, str) for s in states)):
        raise DimensionMismatch("the field 'states' must be a list of string labels")
    chain = make_chain(states, doc["Q"], stationary=doc.get("pi"), tol=tol)
    named = doc.get("observables", {})
    if not isinstance(named, dict):
        raise DimensionMismatch("the field 'observables' must map names to vectors")
    observables = {}
    for name, vec in named.items():
        arr = _float_array(vec, f"observable {name!r}")
        if arr.shape != (chain.n_states,):
            raise DimensionMismatch(
                f"observable {name!r} has shape {arr.shape}, "
                f"expected ({chain.n_states},)"
            )
        observables[name] = arr
    return chain, observables


def read_json(path):
    """Parse the JSON file at ``path``, raising :class:`BadFile` if it cannot
    be read or does not parse."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadFile(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadFile(f"{str(path)!r} is not valid JSON: {exc}") from None
    except RecursionError:      # the decoder recurses once per nesting level
        raise BadFile(f"{str(path)!r} nests its JSON too deeply to parse") from None


def read_json_source(source):
    """Parse the JSON file at the path ``source`` or, where no such file
    exists, ``source`` itself as JSON text; :class:`BadFile` if neither."""
    try:
        is_file = Path(str(source)).exists()
    except (OSError, ValueError):  # e.g. JSON text too long for a path
        is_file = False
    if is_file:
        return read_json(source)
    try:
        return json.loads(str(source))
    except json.JSONDecodeError:
        raise BadFile(f"{str(source)[:80]!r} is neither an existing file "
                      "nor JSON text") from None
    except RecursionError:
        raise BadFile(f"{str(source)[:80]!r} nests its JSON too deeply to parse") from None


@contextlib.contextmanager
def guarded_writes(name):
    """Raise :class:`BadFile` for an :class:`OSError` in the ``with`` block,
    which writes to, flushes or closes the output called ``name``."""
    try:
        yield
    except OSError as exc:
        raise BadFile(f"cannot write {str(name)!r}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def open_output(path):
    """``path`` open for writing text in the ``with`` block, under :func:`guarded_writes`."""
    with guarded_writes(path), open(path, "w") as fh:
        yield fh


def dump_document(chain: FiniteChain, observables=None) -> str:
    """Serialize a chain (and optional raw observables) back to JSON text.

    Each kernel row and each observable is one line, encoded by
    :func:`json.dumps` without indentation, which keeps its C encoder.
    """
    enc = json.dumps
    rows = ",\n    ".join(enc(row) for row in chain.kernel.tolist())
    fields = [f'"states": {enc(list(chain.state_labels))}',
              f'"Q": [\n    {rows}\n  ]',
              f'"pi": {enc(chain.stationary.tolist())}']
    if observables:
        named = ",\n    ".join(f"{enc(k)}: {enc(np.asarray(v).tolist())}"
                                for k, v in observables.items())
        fields.append(f'"observables": {{\n    {named}\n  }}')
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def adjoint_kernel(chain: FiniteChain) -> np.ndarray:
    """Stationary adjoint ``Q*(x, y) = pi(y) Q(y, x) / pi(x)``.

    ``Q*`` is row stochastic for the same ``pi``; for reversible chains it
    equals the kernel itself.
    """
    return _adjoint(chain.kernel, chain.stationary)


def _adjoint(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return (pi[None, :] * q.T) / pi[:, None]


def pair_law(chain: FiniteChain) -> np.ndarray:
    """Law ``pi(x) Q(x, y)`` of the stationary pair ``(xi_0, xi_1)``, shape
    ``(S, S)``; every pair-space moment is a sum weighted by it."""
    return chain.stationary[:, None] * chain.kernel


def pair_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a(y) - b(x)`` at pair-space index ``[..., x, y]``: the difference
    kernel of the vectors in the last axes of ``a`` and ``b``, one ``(S, S)``
    kernel per leading index."""
    return a[..., None, :] - b[..., :, None]


def _power_rows(chain: FiniteChain, v: np.ndarray, n: int) -> np.ndarray:
    # an (n + 1, S) table with row 0 set to v, or QcltError where none fits
    try:
        rows = np.empty((n + 1, chain.n_states))
    except (MemoryError, ValueError):     # ValueError: more items than numpy can index
        raise QcltError(f"horizon {n}: no room for {n + 1} x {chain.n_states} values") from None
    rows[0] = v
    return rows


def kernel_powers(chain: FiniteChain, v: np.ndarray, n: int) -> np.ndarray:
    """Rows ``Q^k v`` for ``k = 0..n``, stacked into shape ``(n + 1, S)``;
    row ``k`` is ``chain.kernel @ row[k - 1]``, written in place."""
    q = chain.kernel
    rows = _power_rows(chain, v, n)
    for k in range(1, n + 1):
        np.dot(q, rows[k - 1], out=rows[k])
    return rows


def partial_sums(chain: FiniteChain, v: np.ndarray, n: int):
    """Partial Poisson sums ``(V, QV)`` of shape ``(n, S)``: row ``k - 1``
    holds ``V_k v = v + ... + Q^{k-1} v`` and ``Q V_k v = Qv + ... + Q^k v``,
    prefix sums of the powers ``Q^k v``, ``k = 0..n``, added in sequence.

    Where ``S ceil(log2(n + 1)) <= n`` the powers come by binary powering,
    ``Q^{m+j} v = Q^m Q^j v``: rows ``m .. 2m - 1`` are rows ``0 .. m - 1``
    times ``(Q^m)^T`` and ``Q^{2m} = (Q^m)^2``, about ``log2 n`` matrix
    products in place of ``n`` matrix-vector ones, at the last bits'
    expense.  Elsewhere, a wide chain at a short horizon, the ``S^3`` cost
    of the squarings is not won back, and the powers are those of
    :func:`kernel_powers` bit for bit.
    """
    if chain.n_states * n.bit_length() > n:       # bit_length is ceil(log2(n + 1))
        powers = kernel_powers(chain, v, n)
    else:
        powers = _power_rows(chain, v, n)
        qm, m = chain.kernel, 1                   # rows 0 .. m - 1 are done
        while m <= n:
            count = min(m, n + 1 - m)
            np.matmul(powers[:count], qm.T, out=powers[m:m + count])
            m *= 2
            if m <= n:
                qm = qm @ qm
    return np.cumsum(powers[:-1], axis=0), np.cumsum(powers[1:], axis=0)


def inner_product(chain: FiniteChain, u: Observable, v: Observable) -> float:
    """Stationary inner product ``sum_x pi(x) u(x) v(x)``."""
    uv, vv = np.asarray(u.values), np.asarray(v.values)
    if uv.shape != (chain.n_states,) or vv.shape != (chain.n_states,):
        raise DimensionMismatch("observable length does not match the chain")
    return float(np.sum(chain.stationary * uv * vv))


def center_observable(chain: FiniteChain, raw) -> Observable:
    """Project a raw vector onto mean-zero functions by subtracting its
    stationary mean.  Idempotent."""
    raw = _state_vector(chain, raw)
    pi = chain.stationary
    with np.errstate(over="ignore"):    # the moment below then overflows too
        vals = raw - float(pi @ raw)
    return Observable(values=_freeze(vals), norm_sq=_second_moment(pi, vals),
                      mean=float(pi @ vals))


def as_observable(chain: FiniteChain, values) -> Observable:
    """Wrap an already mean-zero vector, validating membership in L2_0(pi)."""
    vals = _state_vector(chain, values)
    mean = float(chain.stationary @ vals)
    if abs(mean) > MEAN_ZERO_TOL:
        raise NotMeanZero(f"stationary mean {mean!r} exceeds 1e-12; center first")
    return Observable(values=_freeze(vals), norm_sq=_second_moment(chain.stationary, vals),
                      mean=mean)


def _state_vector(chain: FiniteChain, values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (chain.n_states,):
        raise DimensionMismatch(f"vector has shape {vals.shape}, expected ({chain.n_states},)")
    _require_finite(vals, "observable")
    return vals


def _second_moment(pi: np.ndarray, vals: np.ndarray) -> float:
    # sum_x pi(x) f(x)^2; overflowed, it would pass on as a zero or infinite mass
    with np.errstate(over="ignore"):
        norm_sq = float(pi @ (vals * vals))
    if not np.isfinite(norm_sq):
        raise NonFiniteValue("the observable's second moment sum_x pi(x) f(x)^2 overflows")
    return norm_sq
