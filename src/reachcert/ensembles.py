"""Ensemble simulation: hitting statistics, divergence detection, and the
occupancy-decay exponent estimate for critical systems.

Every trajectory owns an independent RNG stream derived from
(base_seed, trajectory_index) by `systems.trajectory_rngs`, the one
derivation: Philox keyed by ``SeedSequence(base_seed)`` at counter block
i.  A batch builds all of its streams in one call, which derives the key
once, and `simulate` builds its one stream by the same call.  So results
are reproducible and independent of batching and of the workers (up to
the last bit where a batch steps a single row through an A that is not
the identity: numpy sends a one-row product to gemv).
Batches share no state, so `_map_batches` runs them on REACHCERT_THREADS
workers, at most one per CPU that the process may use: processes forked
for the call on Linux, each with its own noise buffer (a 3-D decay fit's
worker peaks near 81 MB), and threads where fork is unavailable or
unsafe.  On Linux a long hitting call that fits in one batch is cut into
one batch per worker, so that it too runs on every worker.
`simulate`, `hitting_stats`, `ensemble_states` and `decay_exponent`
observe one block kernel, `_run`: noise is drawn a chunk of steps at a
time for the live trajectories only, into a contiguous block at the
front of one buffer per batch, and stepped in sub-blocks of about
SUBBLOCK_BYTES of state, after each of which the observer finds first
hits (`systems.contains`) and overflows with array operations.  Snapshot
ensembles and `simulate` draw NOISE_CHUNK steps per chunk; a hitting
batch starts with one sub-block of steps and doubles each chunk up to
NOISE_CHUNK, since most of its trajectories stop early and a stopped
trajectory's noise is waste.  A batch is sized by its noise buffer,
NOISE_BYTES whatever the noise dimension, of which a hitting batch
touches only what its live trajectories use, and a decay fit keeps only
each batch's ball counts at the grid steps, so an ensemble's memory
depends on neither its trajectory count nor its grid.  No chunk or
sub-block length changes any trajectory: a chunked ensemble replays
exactly the stream of a single-trajectory simulation.  Every sub-block
is one ``system.advance`` call, the stepping engine of `systems`, which
multiplies by C-contiguous copies of A' and B' built with the system, so
the random walk x + Bw pays for its additions only.  A hitting call that
`_escape_witness` proves can never hit, diverge or overflow (an
uncontrollable mode on or outside the unit circle keeps every state away
from the target) is not stepped at all.
"""

from __future__ import annotations

import contextlib
import operator
import os
import pickle
import signal
import sys
from dataclasses import dataclass

import numpy as np

from .systems import LinearSystem, TargetBall, contains, trajectory_rngs

__all__ = [
    "Trajectory",
    "EnsembleStats",
    "DecayFit",
    "simulate",
    "hitting_stats",
    "decay_exponent",
    "ensemble_states",
    "OVERFLOW_GUARD",
    "WorkerDied",
]

OVERFLOW_GUARD = 1e300
NOISE_CHUNK = 1024
# State bytes stepped between two observer passes: small enough to stay in
# cache and off the peak RSS, large enough that the per-pass array calls
# are paid once per ~65 steps of a 1000-trajectory, 2D ensemble.
SUBBLOCK_BYTES = 1 << 20
# Bytes of a batch's noise buffer, one per worker: a default batch
# is NOISE_BYTES // (NOISE_CHUNK * m * 8) trajectories, 2048 at m = 3.
NOISE_BYTES = 48 << 20


# Fork is the one start method that hands a worker the batch closure without
# pickling it; where it is unavailable or unsafe (Windows, macOS), batches
# run on threads.
_FORK = sys.platform.startswith("linux")
# Nominal trajectory-steps (n_traj * horizon) from which a one-batch hitting
# call is cut into one batch per worker.  On a 2-vCPU VM a call whose rows
# never stop broke even on two workers at 2-3e6 steps; rows that hit early
# do less work than their nominal steps, so the constant is twice that (a
# 1000 x 2000 walk from 5 to the unit ball took 18 ms inline, 22 ms split).
SPLIT_STEPS = 5_000_000


class WorkerDied(RuntimeError):
    """A forked ensemble worker ended without sending its batches' results."""


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a forked worker, chained as the
    cause of the error that the parent raises again."""


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks (macOS, Windows)
        return os.cpu_count() or 1


def _max_workers() -> int:
    """Workers that REACHCERT_THREADS asks for (default 1)."""
    value = os.environ.get("REACHCERT_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"REACHCERT_THREADS must be a positive integer, got {value!r}")
    return workers


def _batch_rows(m: int) -> int:
    """Default trajectories per batch for noise of dimension m: a noise
    buffer of NOISE_BYTES."""
    return max(1, NOISE_BYTES // (NOISE_CHUNK * m * 8))


def _map_batches(run, system, n_traj: int, horizon: int = 0) -> list:
    """``run`` on consecutive trajectory-index ranges of
    ``_batch_rows(m)`` trajectories each, results in order.

    REACHCERT_THREADS counts the workers; more than one, and more than one
    batch, run the batches on min(workers, batches, CPUs this process may
    use) of them.  On Linux they are processes forked for the call
    (`_fork_map`); elsewhere they are threads, which pass the GIL between
    a batch's short numpy calls.  On Linux a hitting call (one that passes
    its ``horizon``) that fits in one batch but has at least SPLIT_STEPS
    nominal trajectory-steps is cut into one range of
    ceil(n_traj / workers) trajectories per worker; finer cuts only queue
    their tails behind one another.  Streams are keyed by trajectory
    index, so no cut moves a stream.  Each worker holds its own
    NOISE_BYTES noise buffer (a 3-D decay fit's worker process peaks near
    81 MB).
    """
    batch_size = _batch_rows(system.noise.dimension)
    workers = min(_max_workers(), _cpus())
    if _FORK and workers > 1 and n_traj <= batch_size and n_traj * horizon >= SPLIT_STEPS:
        batch_size = -(-n_traj // workers)
    batches = [range(s, min(s + batch_size, n_traj)) for s in range(0, n_traj, batch_size)]
    workers = min(workers, len(batches))
    if workers < 2:
        return [run(b) for b in batches]
    if _FORK:
        return _fork_map(run, batches, workers)
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, batches))


def _fork_map(run, batches, workers: int) -> list:
    """``[run(b) for b in batches]`` on ``workers`` children forked for the call.

    Child j inherits ``run`` and runs ``batches[j::workers]``, then pickles
    their results, or the exception that stopped it, to its own pipe, and
    ends with ``os._exit`` whatever happens.  The parent reads the pipes in
    order and reaps every child on every path: after the first failure,
    and on KeyboardInterrupt, it kills the children it has not reaped.  A
    worker's exception is raised again here, with the worker's traceback as
    its cause; one that does not survive pickling becomes a WorkerDied, and
    so does a child that ends without a result (killed by a signal, say).
    Python >= 3.12 warns with a DeprecationWarning when it forks while BLAS
    threads are alive.
    """
    pipes, pids = [], []  # pids: the children not yet reaped, in order
    results = [None] * len(batches)
    try:
        for j in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    pipes[-1].close()
                    _child(run, batches[j::workers], out)
                pids.append(pid)
        for j, pipe in enumerate(pipes):
            data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            pid = pids.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerDied(f"ensemble worker {pid} ended without a result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                exc, text = value
                raise exc from _WorkerTraceback(text)
            results[j::workers] = value
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with contextlib.suppress(ChildProcessError):  # reaped just before an interrupt
                os.waitpid(pid, 0)


def _child(run, batches, out):
    """Body of a `_fork_map` child, which writes to the pipe ``out``; never
    returns."""
    code = 1
    try:
        try:
            result = (True, [run(b) for b in batches])
        except BaseException as exc:  # sent to the parent, which raises it
            import traceback

            text = "".join(traceback.format_exception(exc))
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:  # its type or arguments do not survive pickling
                exc = WorkerDied("ensemble worker raised an error that does not pickle; see its traceback")
            result = (False, (exc, text))
        out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        out.close()
        code = 0
    finally:
        os._exit(code)


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (k+1, n); shorter than horizon+1 if overflowed
    overflowed: bool


@dataclass(frozen=True)
class EnsembleStats:
    trajectories: int
    horizon: int
    base_seed: int
    hit_fraction: float
    hitting_time_quantiles: dict
    divergence_fraction: float
    divergence_threshold: float
    overflow_fraction: float
    witness: dict | None = None  # set when `_escape_witness` decided the call unstepped

    def to_dict(self) -> dict:
        d = {
            "trajectories": self.trajectories,
            "horizon": self.horizon,
            "base_seed": self.base_seed,
            "hit_fraction": self.hit_fraction,
            "hitting_time_quantiles": dict(self.hitting_time_quantiles),
            "divergence_fraction": self.divergence_fraction,
            "divergence_threshold": self.divergence_threshold,
            "overflow_fraction": self.overflow_fraction,
        }
        if self.witness is not None:
            d["witness"] = dict(self.witness)
        return d


@dataclass(frozen=True)
class DecayFit:
    ks: tuple
    p_hat: tuple
    slope: float
    stderr: float
    dropped: int
    trajectories: int

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "p_hat": list(self.p_hat),
            "slope": self.slope,
            "stderr": self.stderr,
            "dropped": self.dropped,
            "trajectories": self.trajectories,
        }


def _run(system, X, rngs, horizon, observe, grow=False):
    """The stepping kernel behind simulate, hitting_stats and ensemble_states.

    Row i of X is a trajectory driven by the stream ``rngs[i]``.  Noise is
    drawn a chunk of steps at a time for the live trajectories only, into
    a contiguous (length, live, m) block at the front of one reused flat
    buffer, and each chunk is stepped in sub-blocks of about
    SUBBLOCK_BYTES of state.  A chunk is NOISE_CHUNK steps, except in a
    run that ``grow``s (a hitting batch, whose trajectories stop): its
    first chunk is one sub-block, and each later one doubles, up to
    NOISE_CHUNK.  A chunk is then never longer than the steps before it
    plus one sub-block, so a trajectory that stops after T steps has been
    drawn for at most 2T steps and one sub-block.  No schedule changes a
    trajectory, whose stream is drawn in order.
    After each sub-block, ``observe(k, live, S)`` sees the (s, len(live), n)
    states of the trajectories ``live`` (row positions in X) at steps
    k+1 .. k+s.  It returns a bool mask over ``live`` of the trajectories
    that stop there, or None; a stopped trajectory is neither stepped nor
    drawn for again.  Returns the positions of the trajectories that never
    stopped and their states at ``horizon``.
    """
    live = np.arange(X.shape[0])
    m = system.noise.dimension
    k = 0
    # One noise buffer for every chunk, so no chunk pays for a fresh
    # allocation and its page faults; a chunk's noise lives until the next
    # chunk overwrites it, and pages that no chunk reaches are never touched.
    buf = np.empty(min(NOISE_CHUNK, horizon) * X.shape[0] * m)
    chunk = NOISE_CHUNK
    if grow:  # one sub-block; X has no rows when every trajectory starts in the target
        chunk = min(NOISE_CHUNK, max(1, SUBBLOCK_BYTES // max(1, X.nbytes)))
    # Overflow is a per-trajectory event that observers detect; stepping
    # on past it within a sub-block is harmless.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < horizon and live.size:
            length = min(chunk, horizon - k)
            W = buf[: length * live.size * m].reshape(length, live.size, m)
            system.noise.draw([rngs[i] for i in live], length, out=W)
            steps = max(1, SUBBLOCK_BYTES // X.nbytes)
            cols = np.arange(live.size)  # columns of W still stepping
            t = 0
            while t < length and live.size:
                s = min(steps, length - t)
                S = system.advance(X, W[t : t + s] if cols.size == W.shape[1] else W[t : t + s, cols])
                X = S[-1]
                stop = observe(k + t, live, S)
                if stop is not None and stop.any():
                    keep = ~stop
                    live, cols, X = live[keep], cols[keep], X[keep]
                t += s
            k += length
            chunk = min(2 * chunk, NOISE_CHUNK)
    return live, X


def _first(mask):
    """Per column of an (s, rows) bool mask: the row of its first True, else s."""
    first = np.full(mask.shape[1], mask.shape[0])
    cols = np.flatnonzero(mask.any(axis=0))  # argmax down columns is slow; do few
    first[cols] = mask[:, cols].argmax(axis=0)
    return first


def _first_overflow(S):
    """Per trajectory in the (s, rows, n) block S: the first step whose state
    is non-finite or beyond OVERFLOW_GUARD, else s."""
    # NaN fails both comparisons, so only a block with an overflow pays
    # for the row-wise check.
    if S.min() >= -OVERFLOW_GUARD and S.max() <= OVERFLOW_GUARD:
        return np.full(S.shape[1], S.shape[0])
    return _first(~(np.abs(S) <= OVERFLOW_GUARD).all(axis=2))


def _start(system, x0) -> np.ndarray:
    """x0 as a float vector, or a ValueError naming x0 when its length is
    not the system's dimension (checked before any worker starts)."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.dimension:
        raise ValueError(f"x0 has {x0.size} coordinates, but the system has dimension {system.dimension}")
    return x0


def simulate(system, x0, horizon: int, base_seed: int, index: int = 0) -> Trajectory:
    """Single trajectory of length horizon+1 from x0, or shorter on overflow.

    It draws from trajectory ``index`` of ``base_seed``, the stream of row
    ``index`` of an ensemble; both are integers of any type that
    ``operator.index`` takes.
    """
    horizon, base_seed = operator.index(horizon), operator.index(base_seed)
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    x0 = _start(system, x0)
    states = np.empty((horizon + 1, x0.size))
    states[0] = x0
    end = horizon + 1  # length of the path before its first overflow

    def record(k, live, S):
        nonlocal end
        states[k + 1 : k + 1 + len(S)] = S[:, 0]
        t = _first_overflow(S)
        if t[0] < len(S):
            end = k + 1 + int(t[0])
        return t < len(S)

    _run(system, x0.reshape(1, -1), trajectory_rngs(base_seed, [index]), horizon, record)
    if end <= horizon:
        return Trajectory(states=states[:end].copy(), overflowed=True)
    return Trajectory(states=states, overflowed=False)


def _hitting_batch(system, target, x0, indices, horizon, base_seed, threshold):
    nb = len(indices)
    X0 = np.tile(np.asarray(x0, dtype=float), (nb, 1))
    hit_time = np.full(nb, -1, dtype=np.int64)
    overflowed = np.zeros(nb, dtype=bool)
    initial = contains(target, X0)
    hit_time[initial] = 0
    start = np.flatnonzero(~initial)

    def record(k, live, S):
        s, r, n = S.shape
        rows = start[live]
        t_over = _first_overflow(S)
        t_hit = _first(contains(target, S.reshape(-1, n)).reshape(s, r))
        # A row's first event decides; an overflow wins a tie with a hit.
        hits = t_hit < t_over
        hit_time[rows[hits]] = k + 1 + t_hit[hits]
        overflowed[rows[(t_over < s) & ~hits]] = True
        return np.minimum(t_over, t_hit) < s

    rngs = trajectory_rngs(base_seed, np.asarray(indices)[start])
    live, X = _run(system, X0[start], rngs, horizon, record, grow=True)

    hit = hit_time >= 0
    # Only trajectories that ran the whole horizon can diverge by norm.
    final_norm = np.zeros(nb)
    final_norm[start[live]] = np.linalg.norm(X, axis=1)
    divergent = overflowed | (~hit & (final_norm > threshold))
    return hit_time, divergent, overflowed


def _escape_witness(system, target, x0, horizon, threshold):
    """A proof that no trajectory of a hitting call hits ``target``,
    diverges or overflows within ``horizon`` steps, as a JSON-ready dict,
    or None.

    It applies to a LinearSystem with uniform-box noise of half-widths h
    and a TargetBall {||x - c||_W < R}.  Take an eigenvalue lam of A with
    |lam| >= 1 - UNIT_TOL, and l the conjugated left singular vector of
    M = [A - lam I, B] for its smallest singular value sigma: then
    l x' = lam l x + (l M)(x, w) with ||l M|| = sigma.  With beta = ||h||
    >= ||w||, s = max(1, ||A||_2) and X = s^H ||x0|| + ||B||_2 beta
    sum_{j<H} s^j, every exact state up to step H has ||x_k|| <= X, so
    |l x_k| >= min(1, |lam|)^H |l x0| - H delta with
    delta = sigma (X + beta).  A state in the ball has
    |l x| < |l c| + R sqrt(l^H W^-1 l) (Cauchy-Schwarz in the ball's
    norm).  If the lower bound clears that band and X is at most the
    divergence threshold and OVERFLOW_GUARD, no trajectory can hit,
    diverge or overflow, whatever its noise.  The first eigenvalue whose
    bound clears gives the witness.

    Rounding margin: mu = (n + m + 2)^2 eps bounds, with room to spare,
    the relative error of one computed step x A' + w B' (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3) and of
    each computed norm and product below.  s and ||B||_2 are raised by
    mu, so X bounds the computed states too, and the computed states
    stray from the exact ones by at most E = mu (s X + ||B|| beta)
    sum_{j<H} s^j.  The lower bound loses E and the rounding of l x0,
    sigma gains mu ||M||_F, the band the rounding of l c and the relative
    error mu cond(W) of the computed membership test, and X + E must
    clear the limits.  So the simulation would report what the witness
    does: no hit, no divergence, no overflow.
    """
    if not (
        isinstance(system, LinearSystem)
        and system.noise.kind == "uniform-box"
        and isinstance(target, TargetBall)
        and target.dimension == system.dimension
    ):
        return None
    from .linalg import UNIT_TOL

    A, B, H = system.A, system.B, horizon
    n, m = B.shape
    mu = (n + m + 2) ** 2 * np.finfo(float).eps
    beta = np.linalg.norm(system.noise.half_widths)
    s = np.float64(max(1.0, np.linalg.norm(A, 2))) * (1 + mu)
    b = np.linalg.norm(B, 2) * (1 + mu)
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.expm1(H * np.log1p(s - 1)) / (s - 1)  # sum_{j<H} s^j, as s > 1
        X = (s**H * np.linalg.norm(x0) + b * beta * S) * (1 + mu)
        E = mu * (s * X + b * beta) * S
    if not X + E <= min(threshold, OVERFLOW_GUARD):
        return None
    W = np.eye(n) if target.weight is None else 0.5 * (target.weight + target.weight.T)
    grow = 1 + mu * np.linalg.cond(W)
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1 - UNIT_TOL:
            continue
        lam = lam if lam.imag else lam.real
        M = np.hstack([A - lam * np.eye(n), B])
        l = np.linalg.svd(M)[0][:, -1].conj()
        delta = (np.linalg.norm(l @ M) + mu * np.linalg.norm(M)) * (X + beta)
        start = abs(l @ x0) - mu * np.linalg.norm(x0)
        low = (min(1.0, abs(lam)) * (1 - mu)) ** H * start - H * delta - E * (1 + mu)
        width = np.sqrt((l.conj() @ np.linalg.solve(W, l)).real)
        band = (abs(l @ target.center) + mu * np.linalg.norm(target.center) + target.radius * width) * grow
        if low >= band:
            return {
                "eigenvalue": [float(lam.real), float(lam.imag)],
                "direction": [[float(z.real), float(z.imag)] for z in l],
                "lower_bound": float(low),
                "band": float(band),
                "state_bound": float(X),
            }
    return None


def hitting_stats(
    system,
    target,
    x0,
    n_traj: int,
    horizon: int,
    base_seed: int,
    divergence_threshold: float | None = None,
) -> EnsembleStats:
    """First-hit and divergence statistics over a seeded ensemble.

    ``target`` is a TargetBall or, for a non-ball region, a callable
    mapping an (N, n) state array to a row mask (`systems.contains`).
    Trajectories freeze at their first target hit; a trajectory is
    divergent if it overflowed or its final state norm exceeds the
    threshold (default 1e6 * (1 + ||x0||), else a non-negative number)
    without hitting.

    A linear system with uniform-box noise and a TargetBall is first
    tried on `_escape_witness`, which bounds the exact process from x0:
    when a mode of A on or outside the unit circle that the noise
    (nearly) cannot move keeps every state out of the target, and the
    states stay below the threshold, the call draws and steps nothing.
    It returns what simulation would give (no hit, no divergence, no
    overflow) with the bound as its ``witness``.
    """
    n_traj, horizon, base_seed = map(operator.index, (n_traj, horizon, base_seed))
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    x0 = _start(system, x0)
    if divergence_threshold is None:
        divergence_threshold = 1e6 * (1.0 + float(np.linalg.norm(x0)))
    divergence_threshold = float(divergence_threshold)
    if not divergence_threshold >= 0.0:
        raise ValueError(f"divergence_threshold must be a non-negative number, got {divergence_threshold!r}")
    witness = _escape_witness(system, target, x0, horizon, divergence_threshold)
    if witness is not None:
        return EnsembleStats(
            trajectories=n_traj,
            horizon=horizon,
            base_seed=base_seed,
            hit_fraction=0.0,
            hitting_time_quantiles={},
            divergence_fraction=0.0,
            divergence_threshold=divergence_threshold,
            overflow_fraction=0.0,
            witness=witness,
        )

    def run(indices):
        return _hitting_batch(system, target, x0, indices, horizon, base_seed, divergence_threshold)

    results = _map_batches(run, system, n_traj, horizon)
    hit_times = np.concatenate([r[0] for r in results])
    divergent = np.concatenate([r[1] for r in results])
    overflowed = np.concatenate([r[2] for r in results])

    hit = hit_times >= 0
    hit_fraction = float(hit.mean())
    quantiles = {}
    if hit.any():
        sorted_times = np.sort(hit_times[hit])
        for q in (0.5, 0.9, 0.99):
            if hit_fraction >= q:
                idx = min(int(np.ceil(q * n_traj)) - 1, sorted_times.size - 1)
                quantiles[str(q)] = int(sorted_times[max(idx, 0)])
    return EnsembleStats(
        trajectories=n_traj,
        horizon=horizon,
        base_seed=base_seed,
        hit_fraction=hit_fraction,
        hitting_time_quantiles=quantiles,
        divergence_fraction=float(divergent.mean()),
        divergence_threshold=divergence_threshold,
        overflow_fraction=float(overflowed.mean()),
    )


def _snapshot_batch(system, x0, indices, ks, base_seed, reduce):
    """{k: reduce(states at step k)} of the given trajectories for each k
    in ks (sorted); ``reduce`` sees an (rows, n) view that is overwritten
    later, and returns what the caller keeps of it."""
    X0 = np.tile(np.asarray(x0, dtype=float), (len(indices), 1))
    out = {0: reduce(X0)} if ks and ks[0] == 0 else {}

    def record(k, live, S):
        for kk in ks:
            if k < kk <= k + len(S):
                out[kk] = reduce(S[kk - k - 1])

    _run(system, X0, trajectory_rngs(base_seed, indices), max(ks, default=0), record)
    return out


def ensemble_states(system, x0, ks, n_traj: int, base_seed: int):
    """Snapshot ensemble states at the requested steps: {k: (n_traj, n) array}."""
    n_traj, base_seed = operator.index(n_traj), operator.index(base_seed)
    ks = sorted(set(map(operator.index, ks)))
    if any(k < 0 for k in ks):
        raise ValueError("snapshot steps must be non-negative")
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")
    x0 = _start(system, x0)

    def run(indices):
        return _snapshot_batch(system, x0, indices, ks, base_seed, np.copy)

    results = _map_batches(run, system, n_traj)
    return {k: np.concatenate([r[k] for r in results], axis=0) for k in ks}


def decay_exponent(
    system,
    ball,
    k_grid=None,
    n_traj: int = 100_000,
    base_seed: int = 0,
    x0=None,
) -> DecayFit:
    """Log-log slope of the ball-occupancy probability P(x_k in ball) vs k.

    ``ball`` is a TargetBall or a callable row mask, as in `hitting_stats`.
    Starts at the origin by default.  Grid points with zero occupancy are
    dropped; at least 4 usable points are required for the fit.  Only ball
    counts are kept, so memory does not grow with n_traj or the grid.
    """
    n_traj, base_seed = operator.index(n_traj), operator.index(base_seed)
    x0 = _start(system, np.zeros(system.dimension) if x0 is None else x0)
    if k_grid is None:
        k_grid = [2**j for j in range(4, 15)]
    ks = sorted(set(map(operator.index, k_grid)))
    if any(k < 1 for k in ks):
        raise ValueError("k_grid entries must be >= 1")
    if n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, got {n_traj}")

    def count(X):
        return int(np.count_nonzero(contains(ball, X)))

    def run(indices):
        return _snapshot_batch(system, x0, indices, ks, base_seed, count)

    # Each batch keeps one ball count per grid step.  The summed count is
    # exact, and one correctly rounded division by n_traj gives the bits of
    # the mean of the whole ensemble's membership mask.
    counts = _map_batches(run, system, n_traj)
    p_hat = np.array([sum(c[k] for c in counts) / n_traj for k in ks])

    usable = p_hat > 0.0
    dropped = int(np.sum(~usable))
    if usable.sum() < 4:
        raise ValueError(
            f"insufficient data: only {int(usable.sum())} nonzero occupancy points "
            f"(need 4) with {n_traj} trajectories"
        )
    logs_k = np.log(np.asarray(ks, dtype=float)[usable])
    logs_p = np.log(p_hat[usable])
    coeffs, cov = np.polyfit(logs_k, logs_p, 1, cov=True)
    return DecayFit(
        ks=tuple(ks),
        p_hat=tuple(float(p) for p in p_hat),
        slope=float(coeffs[0]),
        stderr=float(np.sqrt(cov[0, 0])),
        dropped=dropped,
        trajectories=n_traj,
    )
