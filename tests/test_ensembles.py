import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import ball_mask, explicit_step, reference_noise_draw, reference_rng, rotation_matrix
from reachcert import ensembles
from reachcert import (
    LinearSystem,
    NoiseModel,
    TargetBall,
    decay_exponent,
    ensemble_states,
    hitting_stats,
    simulate,
    synthesize_logarithmic,
)
from reachcert.counterexamples import example1_system
from reachcert.ensembles import NOISE_CHUNK, OVERFLOW_GUARD, _batch_rows, _hitting_batch
from reachcert.systems import contains, sample_noise, step_batch


# The executors that run multi-batch ensembles: forked processes where
# fork is safe, else threads.
EXECUTORS = ("process", "thread") if sys.platform.startswith("linux") else ("thread",)


def _use_executor(monkeypatch, executor):
    """Run multi-batch calls on forked processes or on the thread fallback,
    on two workers whatever the host's CPU count."""
    monkeypatch.setattr(ensembles, "_FORK", executor == "process")
    monkeypatch.setattr(ensembles, "_cpus", lambda: 2)


def _record_forks(monkeypatch):
    """The pids of the children that os.fork starts from now on in this process."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _use_batches(monkeypatch, rows):
    """Run every ensemble from now on in batches of ``rows`` trajectories."""
    monkeypatch.setattr(ensembles, "_batch_rows", lambda m: rows)


def _reference_hitting_batch(system, target, x0, indices, horizon, base_seed, threshold):
    """The per-step hitting loop the block kernel replaced, kept as its oracle.

    Every step it advances the live rows, drops the overflowed ones, and
    then records the first hits among the rest.  Its streams come from
    numpy's jumped Philox (reference_rng), not from the batch derivation.
    """
    rngs = {i: reference_rng(base_seed, i) for i in indices}
    nb = len(indices)
    X = np.tile(np.asarray(x0, dtype=float), (nb, 1))
    hit_time = np.full(nb, -1, dtype=np.int64)
    overflowed = np.zeros(nb, dtype=bool)
    alive = np.ones(nb, dtype=bool)
    initial = contains(target, X)
    hit_time[initial] = 0
    alive[initial] = False
    k = 0
    while k < horizon and alive.any():
        length = min(NOISE_CHUNK, horizon - k)
        rows = np.flatnonzero(alive)
        W = np.stack([reference_noise_draw(system.noise, rngs[indices[r]], length) for r in rows])
        Xa = X[rows]
        live = np.ones(len(rows), dtype=bool)
        for t in range(length):
            cur = np.flatnonzero(live)
            if cur.size == 0:
                break
            Xa[cur] = explicit_step(system, Xa[cur], W[cur, t])
            bad = ~np.all(np.isfinite(Xa[cur]), axis=1) | (
                np.max(np.abs(Xa[cur]), axis=1) > OVERFLOW_GUARD
            )
            if bad.any():
                overflowed[rows[cur[bad]]] = True
                live[cur[bad]] = False
                cur = cur[~bad]
            if cur.size:
                hits = contains(target, Xa[cur])
                if hits.any():
                    hit_time[rows[cur[hits]]] = k + t + 1
                    live[cur[hits]] = False
        X[rows] = Xa
        alive[rows] = live & ~overflowed[rows] & (hit_time[rows] < 0)
        k += length
    hit = hit_time >= 0
    final_norm = np.linalg.norm(np.where(overflowed[:, None], 0.0, X), axis=1)
    divergent = overflowed | (~hit & (final_norm > threshold))
    return hit_time, divergent, overflowed


def _unit_box(X):
    return np.all((X > 0.0) & (X < 1.0), axis=1)


WALK = LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
ORACLE_CASES = {
    # name: (system, target, x0, trajectories, horizon, divergence threshold)
    "walk-1d": (WALK, TargetBall(center=[0.0], radius=2.0), [10.0], 200, 3 * NOISE_CHUNK + 17, 1e6),
    "gaussian-rotation": (
        LinearSystem(
            A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=NoiseModel.gaussian([[1.0, 0.3], [0.3, 0.5]])
        ),
        TargetBall(center=[0.0, 0.0], radius=3.0),
        [4.0, 4.0],
        200,
        2 * NOISE_CHUNK + 5,
        1e6,
    ),
    # 2^k * 3 passes OVERFLOW_GUARD near k = 995, inside the first chunk.
    "overflow-mid-chunk": (
        LinearSystem(A=[[2.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0])),
        TargetBall(center=[0.0], radius=1.0),
        [3.0],
        100,
        2000,
        1e6,
    ),
    "example1-unit-box": (example1_system(), _unit_box, [2.0**5, 2.0**5], 200, 1500, 1e6),
    "start-in-target": (WALK, TargetBall(center=[0.0], radius=2.0), [0.5], 50, 100, 1e6),
    "shear-norm-divergence": (
        LinearSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0])),
        TargetBall(center=[0.0, 0.0], radius=1.0),
        [10.0, 10.0],
        100,
        200,
        500.0,
    ),
    # Criterion 9's A = I with B = (1, 1)': x2 - x1 = 0.5 forever, so the
    # walk along that line enters the ball near x1 = -0.25, or never.
    "degenerate-b-walk": (
        LinearSystem(A=np.eye(2), B=[[1.0], [1.0]], noise=NoiseModel.uniform([1.0])),
        TargetBall(center=[0.0, 0.0], radius=1.0),
        [5.0, 5.5],
        200,
        NOISE_CHUNK + 300,
        1e6,
    ),
}


# Cases in which, with the short chunks of
# test_growing_chunks_match_per_step_reference, rows hit on both sides of
# a chunk boundary.
BOUNDARY_HIT_CASES = ("degenerate-b-walk", "gaussian-rotation", "walk-1d")


def _recorded_draws(monkeypatch):
    """The (streams, length) of every NoiseModel.draw call from now on, in
    order, recorded by wrapping the method."""
    draws = []
    draw = NoiseModel.draw

    def recording(self, rngs, length, out=None):
        draws.append((len(rngs), length))
        return draw(self, rngs, length, out)

    monkeypatch.setattr(NoiseModel, "draw", recording)
    return draws


class TestSimulate:
    def test_reproducible(self, random_walk):
        a = simulate(random_walk, [0.0], 500, 1, 0)
        b = simulate(random_walk, [0.0], 500, 1, 0)
        assert np.array_equal(a.states, b.states)

    def test_chunking_matches_single_stream(self, random_walk):
        # A horizon crossing the chunk boundary must replay exactly the
        # same noise stream as drawing it in one shot.
        horizon = NOISE_CHUNK + 100
        traj = simulate(random_walk, [0.0], horizon, 3, 7)
        W = sample_noise(random_walk.noise, 3, 7, horizon)
        x = np.zeros((1, 1))
        manual = [0.0]
        for k in range(horizon):
            x = step_batch(random_walk, x, W[k].reshape(1, -1))
            manual.append(x[0, 0])
        assert np.array_equal(traj.states[:, 0], np.array(manual))

    def test_equals_ensemble_row(self):
        # simulate steps its trajectory as a one-row batch.  W B' is one
        # product over each sub-block's steps, so the noise term gets the
        # bits of the ensemble's many-row product, not those of a one-row
        # product (gemv); with A = I nothing else is multiplied.
        system = LinearSystem(
            A=np.eye(3), B=[[1.0, 0.5], [-0.3, 2.0], [0.7, -1.1]], noise=NoiseModel.uniform([1.0, 0.5])
        )
        x0 = [0.5, -1.0, 2.0]
        ks = [1, 37, NOISE_CHUNK, NOISE_CHUNK + 100]
        states = ensemble_states(system, x0, ks, 40, base_seed=12)
        for i in range(40):
            traj = simulate(system, x0, max(ks), 12, i)
            for k in ks:
                assert np.array_equal(traj.states[k], states[k][i]), (i, k)

    def test_integer_seeds_of_any_type(self, random_walk):
        # Seeds, indices and horizons of any integer type draw the same
        # trajectory, by default trajectory 0.
        want = simulate(random_walk, [0.0], 200, 3, 0).states
        for seed in (3, np.int64(3), np.uint8(3)):
            assert np.array_equal(simulate(random_walk, [0.0], 200, seed).states, want)
            assert np.array_equal(simulate(random_walk, [0.0], np.int32(200), seed, np.uint16(0)).states, want)
        with pytest.raises(TypeError):
            simulate(random_walk, [0.0], 200, 3.0)
        with pytest.raises(TypeError):
            simulate(random_walk, [0.0], 200.0, 3)

    def test_overflow_truncates(self):
        system = LinearSystem(A=[[10.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        traj = simulate(system, [1.0], 1000, 0)
        assert traj.overflowed
        assert len(traj.states) < 1001


IDENTITY_3D = LinearSystem(A=np.eye(3), B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
INVARIANCE_SYSTEMS = {
    "identity-3d-uniform": (IDENTITY_3D, [0.0, 0.0, 0.0]),
    "rotation-gaussian": (
        LinearSystem(
            A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=NoiseModel.gaussian([[1.0, 0.3], [0.3, 0.5]])
        ),
        [1.0, -2.0],
    ),
}


class TestHittingStats:
    def test_initial_state_in_target(self, random_walk, unit_ball_1d):
        stats = hitting_stats(random_walk, unit_ball_1d, [0.0], 50, 10, base_seed=0)
        assert stats.hit_fraction == 1.0
        assert stats.hitting_time_quantiles["0.5"] == 0

    def test_reproducible(self, random_walk, unit_ball_1d):
        a = hitting_stats(random_walk, unit_ball_1d, [5.0], 200, 2000, base_seed=11)
        b = hitting_stats(random_walk, unit_ball_1d, [5.0], 200, 2000, base_seed=11)
        assert a.to_dict() == b.to_dict()

    def test_batch_size_invariant(self, random_walk, unit_ball_1d, monkeypatch):
        _use_batches(monkeypatch, 7)
        a = hitting_stats(random_walk, unit_ball_1d, [5.0], 300, 1500, base_seed=2)
        _use_batches(monkeypatch, 300)
        b = hitting_stats(random_walk, unit_ball_1d, [5.0], 300, 1500, base_seed=2)
        assert a.to_dict() == b.to_dict()

    def test_threads_invariant(self, random_walk, unit_ball_1d, monkeypatch):
        _use_batches(monkeypatch, 50)
        base = hitting_stats(random_walk, unit_ball_1d, [5.0], 300, 1500, base_seed=2)
        monkeypatch.setenv("REACHCERT_THREADS", "4")
        for executor in EXECUTORS:
            _use_executor(monkeypatch, executor)
            threaded = hitting_stats(random_walk, unit_ball_1d, [5.0], 300, 1500, base_seed=2)
            assert base.to_dict() == threaded.to_dict(), executor

    def test_numpy_integer_arguments_give_a_json_report(self, random_walk, unit_ball_1d):
        # The report holds Python ints whatever integer types it was given.
        want = hitting_stats(random_walk, unit_ball_1d, [5.0], 50, 300, base_seed=4).to_dict()
        got = hitting_stats(random_walk, unit_ball_1d, [5.0], np.int64(50), np.int32(300), base_seed=np.int64(4))
        assert json.loads(json.dumps(got.to_dict())) == want
        with pytest.raises(TypeError):
            hitting_stats(random_walk, unit_ball_1d, [5.0], 50.0, 300, base_seed=4)

    def test_numpy_float_threshold_gives_a_json_report(self, random_walk, unit_ball_1d):
        args = (random_walk, unit_ball_1d, [5.0], 50, 300)
        want = hitting_stats(*args, base_seed=4, divergence_threshold=100.0)
        got = hitting_stats(*args, base_seed=4, divergence_threshold=np.float32(100))
        assert json.loads(json.dumps(got.to_dict())) == want.to_dict()
        assert type(got.divergence_threshold) is float

    def test_rejects_negative_horizon(self, random_walk, unit_ball_1d):
        with pytest.raises(ValueError, match="horizon"):
            hitting_stats(random_walk, unit_ball_1d, [5.0], 3, -3, base_seed=0)

    def test_unstable_divergence(self, unit_ball_1d):
        system = LinearSystem(A=[[2.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        stats = hitting_stats(system, unit_ball_1d, [10.0], 200, 1000, base_seed=4)
        assert stats.divergence_fraction >= 0.95
        assert stats.overflow_fraction >= 0.95

    def test_random_walk_recurrent(self, random_walk):
        stats = hitting_stats(
            random_walk, TargetBall(center=[0.0], radius=2.0), [10.0], 200, 50_000, base_seed=7
        )
        assert stats.hit_fraction >= 0.9


class TestBlockKernel:
    @pytest.mark.parametrize("subblock_bytes", [ensembles.SUBBLOCK_BYTES, 4096])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_per_step_reference(self, case, subblock_bytes, monkeypatch):
        monkeypatch.setattr(ensembles, "SUBBLOCK_BYTES", subblock_bytes)
        system, target, x0, n_traj, horizon, threshold = ORACLE_CASES[case]
        indices = list(range(3, 3 + n_traj))
        got = _hitting_batch(system, target, x0, indices, horizon, 17, threshold)
        want = _reference_hitting_batch(system, target, x0, indices, horizon, 17, threshold)
        for name, g, w in zip(("hit_time", "divergent", "overflowed"), got, want):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_growing_chunks_match_per_step_reference(self, case, monkeypatch):
        # A hitting batch's first chunk is one sub-block, here a step or a
        # few, and each later one doubles up to NOISE_CHUNK = 64, so every
        # case crosses many chunk boundaries while its rows stop.
        monkeypatch.setattr(ensembles, "NOISE_CHUNK", 64)
        monkeypatch.setattr(ensembles, "SUBBLOCK_BYTES", 4096)
        draws = _recorded_draws(monkeypatch)
        system, target, x0, n_traj, horizon, threshold = ORACLE_CASES[case]
        indices = list(range(3, 3 + n_traj))
        got = _hitting_batch(system, target, x0, indices, horizon, 17, threshold)
        want = _reference_hitting_batch(system, target, x0, indices, horizon, 17, threshold)
        for name, g, w in zip(("hit_time", "divergent", "overflowed"), got, want):
            assert np.array_equal(g, w), name
        if case in BOUNDARY_HIT_CASES:
            # Some row stops on the last step of a chunk, and some on the
            # first step of the next.
            ends = np.cumsum([length for _, length in draws])
            assert np.isin(ends, got[0]).any() and np.isin(ends + 1, got[0]).any()

    def test_rows_that_stop_early_are_drawn_for_little_past_their_stop(self, monkeypatch):
        # Every walk starts on the sphere of the target ball, and half of
        # them hit at step 1.  A row is drawn for its first chunk (one
        # sub-block), and then for chunks no longer than the steps it ran
        # before each, so for at most 2 T + one sub-block values if it ran
        # T steps; a whole first chunk would be n_traj * NOISE_CHUNK values.
        draws = _recorded_draws(monkeypatch)
        n_traj = 1000
        hit_time, _, _ = _hitting_batch(
            WALK, TargetBall(center=[0.0], radius=2.0), [2.0], range(n_traj), NOISE_CHUNK, 5, 1e6
        )
        first = ensembles.SUBBLOCK_BYTES // (8 * n_traj)
        assert draws[0] == (n_traj, first)
        steps = int(np.where(hit_time >= 0, hit_time, NOISE_CHUNK).sum())
        values = sum(rows * length for rows, length in draws)
        assert values <= 2 * steps + n_traj * first
        assert values < n_traj * NOISE_CHUNK / 5

    def test_oracle_cases_cover_every_outcome(self):
        # Guards the case list: each event the kernel must get right occurs.
        outcome = {
            case: _reference_hitting_batch(system, target, x0, list(range(n)), horizon, 17, thr)
            for case, (system, target, x0, n, horizon, thr) in ORACLE_CASES.items()
        }
        hit_time, _, overflowed = outcome["overflow-mid-chunk"]
        assert overflowed.all() and hit_time.max() < 0
        assert np.all(outcome["start-in-target"][0] == 0)
        assert np.any(outcome["walk-1d"][0] > 2 * NOISE_CHUNK)
        assert outcome["shear-norm-divergence"][1].any()
        assert (outcome["example1-unit-box"][0] > 0).all()
        walk_hits = outcome["degenerate-b-walk"][0]
        assert (walk_hits > 0).any() and (walk_hits < 0).any()


def _is_identity(M):
    return np.array_equal(M, np.eye(M.shape[0]))


SNAPSHOT_CASES = {
    # name: (system, x0); every combination of (A is I, B is I) occurs.
    "identity-3d": (IDENTITY_3D, [-0.0, 0.0, 2.5]),
    "degenerate-b-walk": (ORACLE_CASES["degenerate-b-walk"][0], [0.0, 10.0]),
    "rotation-gaussian": (INVARIANCE_SYSTEMS["rotation-gaussian"][0], [-0.0, 3.0]),
    "mixing-2x1": (
        LinearSystem(A=[[0.9, 0.2], [-0.3, 0.8]], B=[[1.0], [0.5]], noise=NoiseModel.uniform([1.0])),
        [1.0, -2.0],
    ),
    # Near the identity, these must keep their products; the second is
    # within np.allclose's default tolerance of I.
    "near-identity": (
        LinearSystem(A=[[1.0, 2.0**-20], [0.0, 1.0]], B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0])),
        [1.0, 1.0],
    ),
    "near-identity-diagonal": (
        LinearSystem(A=[[1.0 + 2.0**-20, 0.0], [0.0, 1.0]], B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0])),
        [1.0, 1.0],
    ),
}


def _replay_snapshots(system, x0, ks, n_traj, base_seed):
    """The snapshots of a per-step replay (explicit_step) of every
    trajectory's stream (reference_rng), drawn by reference_noise_draw: the
    oracle of the block kernel."""
    horizon = max(ks)
    W = np.stack(
        [reference_noise_draw(system.noise, reference_rng(base_seed, i), horizon) for i in range(n_traj)],
        axis=1,
    )
    X = np.tile(np.asarray(x0, dtype=float), (n_traj, 1))
    out = {0: X}
    for k in range(1, horizon + 1):
        X = out[k] = explicit_step(system, X, W[k - 1])
    return {k: out[k] for k in ks}


class TestEnsembleStates:
    def test_snapshot_cases_cover_every_identity_factor(self):
        kinds = {(_is_identity(s.A), _is_identity(s.B)) for s, _ in SNAPSHOT_CASES.values()}
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
    def test_matches_step_batch_replay(self, case, monkeypatch):
        # Short chunks and sub-blocks put the ks on both sides of each
        # boundary in a few steps.
        monkeypatch.setattr(ensembles, "NOISE_CHUNK", 64)
        monkeypatch.setattr(ensembles, "SUBBLOCK_BYTES", 4096)
        system, x0 = SNAPSHOT_CASES[case]
        ks = [0, 1, 2, 63, 64, 65, 128, 129, 300]
        got = ensemble_states(system, x0, ks, 40, base_seed=8)
        want = _replay_snapshots(system, x0, ks, 40, base_seed=8)
        for k in ks:
            assert np.array_equal(got[k], want[k]), k

    def test_snapshot_consistency(self, random_walk, monkeypatch):
        # Snapshot at step k equals the simulated trajectory state at k,
        # across chunk and sub-block boundaries.
        ks = [10, 100, NOISE_CHUNK, NOISE_CHUNK + 1, 2 * NOISE_CHUNK + 3]
        for subblock_bytes in (ensembles.SUBBLOCK_BYTES, 4096):
            monkeypatch.setattr(ensembles, "SUBBLOCK_BYTES", subblock_bytes)
            states = ensemble_states(random_walk, [0.0], ks, 300, base_seed=9)
            for tid in (0, 1, 150, 299):
                traj = simulate(random_walk, [0.0], max(ks), 9, tid)
                for k in ks:
                    assert states[k][tid, 0] == traj.states[k, 0]

    @pytest.mark.parametrize("case", sorted(INVARIANCE_SYSTEMS))
    def test_batch_and_thread_invariant(self, case, monkeypatch):
        system, x0 = INVARIANCE_SYSTEMS[case]
        # Short chunks keep the test quick and still reuse the noise buffer
        # across chunk boundaries, the last chunk a partial one; the budget
        # shrinks with them, so the default batch keeps its size.
        monkeypatch.setattr(ensembles, "NOISE_BYTES", ensembles.NOISE_BYTES * 128 // NOISE_CHUNK)
        monkeypatch.setattr(ensembles, "NOISE_CHUNK", 128)
        # The default batch + 3 (2051 = 293 * 7 at m = 3, 3075 = 439 * 7 + 2
        # at m = 2): no setting leaves a batch of one row, which numpy steps
        # by gemv and may round differently.
        default = _batch_rows(system.noise.dimension)
        assert default == _batch_rows(1) // system.noise.dimension
        n_traj = default + 3
        ks = [0, 1, 37, 300]
        want = None
        for threads, executor in [("1", None)] + [("2", e) for e in EXECUTORS]:
            monkeypatch.setenv("REACHCERT_THREADS", threads)
            if executor:
                _use_executor(monkeypatch, executor)
            for rows in (7, default, 20_000):
                _use_batches(monkeypatch, rows)
                got = ensemble_states(system, x0, ks, n_traj, base_seed=21)
                if want is None:
                    want = got
                for k in ks:
                    assert np.array_equal(got[k], want[k]), (threads, executor, rows, k)

    def test_noise_memory_is_bounded_by_the_batch(self, monkeypatch):
        # A default batch draws its noise into one (NOISE_CHUNK, batch, m)
        # buffer of NOISE_BYTES, so the peak stays near that budget whatever
        # n_traj and the noise dimension are.
        monkeypatch.setenv("REACHCERT_THREADS", "1")
        for m in (1, 3, 8):
            system = LinearSystem(A=np.eye(m), B=np.eye(m), noise=NoiseModel.uniform([1.0] * m))
            tracemalloc.start()
            try:
                ensemble_states(system, np.zeros(m), [NOISE_CHUNK], 2 * _batch_rows(m) + 2, base_seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * ensembles.NOISE_BYTES, m

    def test_rejects_no_trajectories(self, random_walk):
        with pytest.raises(ValueError, match="n_traj"):
            ensemble_states(random_walk, [0.0], [1], 0, base_seed=0)

    def test_step_zero(self, random_walk):
        states = ensemble_states(random_walk, [3.0], [0], 4, base_seed=0)
        assert np.all(states[0] == 3.0)

    def test_rejects_steps_that_are_not_integers(self, random_walk):
        with pytest.raises(TypeError):
            ensemble_states(random_walk, [0.0], [2.5], 10, base_seed=0)
        got = ensemble_states(random_walk, [0.0], np.array([1, 3]), 10, base_seed=0)
        want = ensemble_states(random_walk, [0.0], [1, 3], 10, base_seed=0)
        assert sorted(got) == [1, 3] and all(type(k) is int for k in got)
        assert all(np.array_equal(got[k], want[k]) for k in want)


class TestDecayExponent:
    def test_1d_random_walk_slope(self, random_walk, unit_ball_1d):
        # Occupancy of a fixed ball decays like k^{-1/2} in one dimension.
        fit = decay_exponent(
            random_walk,
            unit_ball_1d,
            k_grid=[2**j for j in range(4, 11)],
            n_traj=20_000,
            base_seed=13,
        )
        assert fit.slope == pytest.approx(-0.5, abs=0.15)

    def test_numpy_integer_arguments_give_a_json_report(self, random_walk, unit_ball_1d):
        ks = [4, 8, 16, 32]
        want = decay_exponent(random_walk, unit_ball_1d, k_grid=ks, n_traj=2000, base_seed=6).to_dict()
        got = decay_exponent(
            random_walk, unit_ball_1d, k_grid=np.array(ks), n_traj=np.int64(2000), base_seed=np.uint8(6)
        )
        assert json.loads(json.dumps(got.to_dict())) == want
        states = ensemble_states(random_walk, [0.0], [3], np.int64(20), base_seed=np.int64(6))
        assert np.array_equal(states[3], ensemble_states(random_walk, [0.0], [3], 20, base_seed=6)[3])

    def test_rejects_grid_steps_that_are_not_integers(self, random_walk, unit_ball_1d):
        with pytest.raises(TypeError):
            decay_exponent(random_walk, unit_ball_1d, k_grid=[4.9, 8.5, 16.2, 32.7], n_traj=100)

    def test_insufficient_data(self, unit_ball_1d):
        system = LinearSystem(A=[[2.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        # Unstable from afar: the ball is never occupied.
        with pytest.raises(ValueError):
            decay_exponent(
                system,
                unit_ball_1d,
                k_grid=[16, 32, 64, 128],
                n_traj=200,
                base_seed=0,
                x0=[50.0],
            )

    def test_rejects_no_trajectories(self, random_walk, unit_ball_1d):
        with pytest.raises(ValueError, match="n_traj"):
            decay_exponent(random_walk, unit_ball_1d, k_grid=[16, 32, 64, 128], n_traj=0)


def _reference_occupancy(system, ball, ks, n_traj, base_seed, x0):
    """p_hat and slope as decay_exponent computed them from the snapshots
    of the whole ensemble: its oracle."""
    states = ensemble_states(system, x0, ks, n_traj, base_seed)
    p_hat = np.array([float(contains(ball, states[k]).mean()) for k in ks])
    usable = p_hat > 0.0
    slope = np.polyfit(np.log(np.asarray(ks, dtype=float)[usable]), np.log(p_hat[usable]), 1)[0]
    return p_hat, float(slope)


DECAY_CASES = {
    # name: (system, ball, x0)
    "identity-3d": (IDENTITY_3D, TargetBall(center=[0.0, 0.0, 0.0], radius=3.0), [0.0, 0.0, 0.0]),
    "walk-1d": (WALK, TargetBall(center=[0.0], radius=1.0), [0.0]),
    "rotation-offset-weighted": (
        INVARIANCE_SYSTEMS["rotation-gaussian"][0],
        TargetBall(center=[0.5, -0.3], radius=3.0, weight=[[2.0, 0.3], [0.3, 1.0]]),
        [1.0, -2.0],
    ),
}


class TestDecayCounts:
    """decay_exponent counts ball members per batch instead of keeping
    snapshots; the counts must give the bits of the snapshot formula."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(DECAY_CASES))
    def test_matches_snapshot_formula(self, case, threads, monkeypatch):
        system, ball, x0 = DECAY_CASES[case]
        ks = [3, 8, 16, 17, 40, 64]
        # 600 rows leave no batch of one row, which gemv may round differently.
        want_p, want_slope = _reference_occupancy(system, ball, ks, 600, 5, x0)
        # Chunks of 16 steps and batches of 37 // m rows: many of both.
        monkeypatch.setattr(ensembles, "NOISE_CHUNK", 16)
        monkeypatch.setattr(ensembles, "NOISE_BYTES", 37 * 16 * 8)
        monkeypatch.setenv("REACHCERT_THREADS", threads)
        assert 600 // _batch_rows(system.noise.dimension) >= 16
        for executor in EXECUTORS if threads != "1" else (None,):
            if executor:
                _use_executor(monkeypatch, executor)
            fit = decay_exponent(system, ball, k_grid=ks, n_traj=600, base_seed=5, x0=x0)
            assert fit.p_hat == tuple(want_p) and fit.dropped == 0, executor
            assert fit.slope == want_slope, executor

    def test_memory_does_not_grow_with_trajectories(self, monkeypatch):
        monkeypatch.setenv("REACHCERT_THREADS", "1")
        ball = TargetBall(center=[0.0, 0.0, 0.0], radius=3.0)
        n_traj = 2 * _batch_rows(3)
        peaks = []
        for scale in (1, 4):
            tracemalloc.start()
            try:
                decay_exponent(IDENTITY_3D, ball, k_grid=[8, 16, 32, 64], n_traj=scale * n_traj, base_seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks


class TestWorkers:
    """_map_batches: the worker count, its cap, and errors inside workers."""

    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
    def test_rejects_a_worker_count_that_is_not_a_positive_integer(self, value, random_walk, monkeypatch):
        monkeypatch.setenv("REACHCERT_THREADS", value)
        with pytest.raises(ValueError, match="REACHCERT_THREADS"):
            ensemble_states(random_walk, [0.0], [1], 10, base_seed=0)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_workers_are_capped_by_batches_and_cpus(self, executor, random_walk, monkeypatch):
        # Forked workers are counted as they start; the thread pool class is
        # replaced by one that records its size.
        sizes = []
        forks = _record_forks(monkeypatch)

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(ensembles, "_FORK", executor == "process")
        monkeypatch.setattr(ensembles, "_cpus", lambda: 4)
        monkeypatch.setenv("REACHCERT_THREADS", "1000")
        _use_batches(monkeypatch, 30)
        want = ensemble_states(random_walk, [0.0], [5], 30, base_seed=1)
        for rows in (10, 3):
            _use_batches(monkeypatch, rows)
            started = len(forks)
            got = ensemble_states(random_walk, [0.0], [5], 30, base_seed=1)
            assert np.array_equal(got[5], want[5])
            if executor == "process":
                sizes.append(len(forks) - started)
        assert sizes == [3, 4]
        _assert_no_children()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
    def test_a_process_pinned_to_one_cpu_forks_nothing(self):
        # A fresh interpreter pins itself to one CPU and asks for two
        # workers; a call that would otherwise split runs inline.
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from reachcert import LinearSystem, NoiseModel, TargetBall, ensembles, hitting_stats\n"
            "ensembles.SPLIT_STEPS = 1\n"
            "forks = []\n"
            "os.fork = lambda: forks.append(1)\n"
            "walk = LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))\n"
            "hitting_stats(walk, TargetBall(center=[0.0], radius=1.0), [5.0], 301, 1000, base_seed=3)\n"
            "assert ensembles._cpus() == 1 and forks == [], forks\n"
        )
        src = os.path.dirname(os.path.dirname(ensembles.__file__))
        env = dict(os.environ, PYTHONPATH=src, REACHCERT_THREADS="2")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_worker_error_reaches_the_caller(self, executor, random_walk, unit_ball_1d, monkeypatch):
        def broken(X):
            raise ValueError("target mask is broken")

        monkeypatch.setenv("REACHCERT_THREADS", "2")
        _use_executor(monkeypatch, executor)
        _use_batches(monkeypatch, 10)
        hitting_stats(random_walk, unit_ball_1d, [5.0], 40, 100, base_seed=3)
        _assert_no_children()
        with pytest.raises(ValueError, match="target mask is broken"):
            hitting_stats(random_walk, broken, [5.0], 40, 100, base_seed=3)
        _assert_no_children()


def _hitting_long_case(name):
    """(system, target, x0, horizon) of the hitting-long benchmark call
    ``name``, on a horizon short enough for a test."""
    origin_ball = TargetBall(center=[0.0, 0.0], radius=1.0)
    if name == "degenerate-b":  # x2 - x1 = 10 forever: no row ever hits
        return ORACLE_CASES["degenerate-b-walk"][0], origin_ball, [0.0, 10.0], 2000
    if name == "walk-1d":
        return WALK, TargetBall(center=[0.0], radius=2.0), [10.0], 3000
    rotation = LinearSystem(A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0]))
    radius = synthesize_logarithmic(rotation, origin_ball, seed=1).compact_radius
    x0 = [1.25 * radius / np.sqrt(2.0)] * 2
    if name == "rotation-gaussian":
        rotation = ORACLE_CASES["gaussian-rotation"][0]
    return rotation, TargetBall(center=[0.0, 0.0], radius=radius), x0, 3000


class TestSplitHitting:
    """A hitting call that fits in one batch but has SPLIT_STEPS nominal
    trajectory-steps or more runs as one batch per worker, on forked
    workers only.  SPLIT_STEPS is lowered so that each test stays quick."""

    N_TRAJ = 301  # cut into 151 + 150 rows: no batch of one row

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("case", ["degenerate-b", "rotation-log-target", "walk-1d", "rotation-gaussian"])
    def test_split_call_equals_the_one_batch_call(self, case, executor, monkeypatch):
        system, target, x0, horizon = _hitting_long_case(case)
        monkeypatch.setenv("REACHCERT_THREADS", "1")
        want = hitting_stats(system, target, x0, self.N_TRAJ, horizon, base_seed=12).to_dict()
        assert (want["hit_fraction"] == 0.0) == (case == "degenerate-b")
        monkeypatch.setenv("REACHCERT_THREADS", "2")
        _use_executor(monkeypatch, executor)
        monkeypatch.setattr(ensembles, "SPLIT_STEPS", self.N_TRAJ * horizon)
        forks = _record_forks(monkeypatch)
        assert hitting_stats(system, target, x0, self.N_TRAJ, horizon, base_seed=12).to_dict() == want
        assert len(forks) == (2 if executor == "process" else 0)
        _assert_no_children()

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("cpus, split_steps", [(2, 301 * 1000 + 1), (1, 1)], ids=["below-constant", "one-cpu"])
    def test_starts_no_worker_below_the_constant_or_on_one_cpu(self, cpus, split_steps, executor, monkeypatch):
        class NoPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                raise AssertionError("a thread pool started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        monkeypatch.setenv("REACHCERT_THREADS", "2")
        monkeypatch.setattr(ensembles, "_FORK", executor == "process")
        monkeypatch.setattr(ensembles, "_cpus", lambda: cpus)
        monkeypatch.setattr(ensembles, "SPLIT_STEPS", split_steps)
        forks = _record_forks(monkeypatch)
        hitting_stats(WALK, TargetBall(center=[0.0], radius=1.0), [5.0], self.N_TRAJ, 1000, base_seed=3)
        assert forks == []
        _assert_no_children()

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "error",
        [ValueError("target mask is broken"), KeyboardInterrupt("interrupted in a worker")],
        ids=["ValueError", "KeyboardInterrupt"],
    )
    def test_target_error_reaches_the_caller(self, error, executor, monkeypatch):
        def broken(X):
            raise error

        monkeypatch.setenv("REACHCERT_THREADS", "2")
        _use_executor(monkeypatch, executor)
        monkeypatch.setattr(ensembles, "SPLIT_STEPS", 1)
        forks = _record_forks(monkeypatch)
        with pytest.raises(type(error), match=str(error)) as raised:
            hitting_stats(WALK, broken, [5.0], 40, 100, base_seed=3)
        assert len(forks) == (2 if executor == "process" else 0)
        if executor == "process":  # the worker's traceback comes along as the cause
            assert "in broken" in str(raised.value.__cause__)
        _assert_no_children()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_target_error_that_does_not_pickle_reaches_the_caller(self, executor, monkeypatch):
        class Unpicklable(ValueError):  # a local class: pickle cannot find it by name
            pass

        def broken(X):
            raise Unpicklable("a local error")

        monkeypatch.setenv("REACHCERT_THREADS", "2")
        _use_executor(monkeypatch, executor)
        monkeypatch.setattr(ensembles, "SPLIT_STEPS", 1)
        # A forked worker sends its traceback in its place.
        expected = ensembles.WorkerDied if executor == "process" else Unpicklable
        with pytest.raises(expected) as raised:
            hitting_stats(WALK, broken, [5.0], 40, 100, base_seed=3)
        if executor == "process":
            assert "Unpicklable: a local error" in str(raised.value.__cause__)
        _assert_no_children()

    @pytest.mark.skipif("process" not in EXECUTORS, reason="workers are threads, not forked, off Linux")
    @pytest.mark.parametrize(
        "end, status",
        [(lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"), (lambda: os._exit(3), "exit status 3")],
        ids=["signal", "exit"],
    )
    def test_a_worker_that_ends_without_a_result_raises(self, end, status, monkeypatch):
        parent = os.getpid()

        def ends_in_worker(X):
            if os.getpid() != parent:
                end()
            return np.zeros(len(X), dtype=bool)

        monkeypatch.setenv("REACHCERT_THREADS", "2")
        _use_executor(monkeypatch, "process")
        monkeypatch.setattr(ensembles, "SPLIT_STEPS", 1)
        with pytest.raises(ensembles.WorkerDied, match=status):
            hitting_stats(WALK, ends_in_worker, [5.0], 40, 100, base_seed=3)
        _assert_no_children()


class TestCallableTarget:
    """A callable row mask equal to a ball stands for the ball exactly."""

    BALLS = {
        "walk-1d": (WALK, TargetBall(center=[0.0], radius=2.0), [6.0]),
        "rotation-offset-weighted": (
            INVARIANCE_SYSTEMS["rotation-gaussian"][0],
            TargetBall(center=[0.5, -0.3], radius=3.0, weight=[[2.0, 0.3], [0.3, 1.0]]),
            [6.0, -4.0],
        ),
    }

    @pytest.mark.parametrize("case", sorted(BALLS))
    def test_hitting_stats(self, case):
        system, ball, x0 = self.BALLS[case]
        want = hitting_stats(system, ball, x0, 300, 2000, base_seed=4).to_dict()
        assert 0.0 < want["hit_fraction"] < 1.0
        assert hitting_stats(system, ball_mask(ball), x0, 300, 2000, base_seed=4).to_dict() == want

    @pytest.mark.parametrize("case", sorted(BALLS))
    def test_decay_exponent(self, case):
        system, ball, _ = self.BALLS[case]
        ks = [4, 8, 16, 32, 64]
        want = decay_exponent(system, ball, k_grid=ks, n_traj=500, base_seed=4).to_dict()
        assert decay_exponent(system, ball_mask(ball), k_grid=ks, n_traj=500, base_seed=4).to_dict() == want
