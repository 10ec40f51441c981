import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachcert
from conftest import explicit_step, reference_noise_draw, reference_rng
from reachcert import systems
from reachcert.counterexamples import example1_system
from reachcert.ensembles import ensemble_states
from reachcert.systems import (
    LinearSystem,
    NoiseModel,
    PolynomialSystem,
    TargetBall,
    contains,
    load_system,
    sample_noise,
    step_batch,
    system_to_dict,
    tagged_rng,
    trajectory_rngs,
)
from reachcert.verify import CUBATURE_ORDERS


class TestNoiseModel:
    def test_uniform_covariance_diagonal(self):
        noise = NoiseModel.uniform([1.0, 2.0])
        # Var of U[-h, h] is h^2 / 3.
        assert np.allclose(noise.covariance, np.diag([1.0 / 3.0, 4.0 / 3.0]))

    def test_gaussian_covariance_passthrough(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        noise = NoiseModel.gaussian(cov)
        assert np.allclose(noise.covariance, cov)

    def test_bit_identical_reproduction(self):
        noise = NoiseModel.uniform([1.0, 1.0])
        a = sample_noise(noise, 42, 3, 1000)
        b = sample_noise(noise, 42, 3, 1000)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_streams(self):
        noise = NoiseModel.uniform([1.0])
        a = sample_noise(noise, 42, 0, 100)
        b = sample_noise(noise, 42, 1, 100)
        assert not np.array_equal(a, b)

    def test_empirical_mean_near_zero(self):
        noise = NoiseModel.uniform([1.0, 1.0])
        draws = sample_noise(noise, 7, 0, 1_000_000)
        sigma = 1.0 / np.sqrt(3.0)
        bound = 5.0 * sigma / np.sqrt(1_000_000)
        assert np.all(np.abs(draws.mean(axis=0)) < bound)

    def test_serialization_round_trip(self):
        for noise in (NoiseModel.uniform([0.5, 2.0]), NoiseModel.gaussian(np.eye(2))):
            again = NoiseModel.from_dict(noise.to_dict())
            assert np.allclose(again.covariance, noise.covariance)
            assert again.kind == noise.kind


LAWS = {
    "uniform-1": NoiseModel.uniform([0.7]),
    "uniform-2": NoiseModel.uniform([1.0, 2.5]),
    "uniform-3": NoiseModel.uniform([0.3, 1.0, 4.0]),
    "gaussian-1": NoiseModel.gaussian([[2.0]]),
    "gaussian-2": NoiseModel.gaussian([[1.0, 0.3], [0.3, 0.5]]),
    "gaussian-3": NoiseModel.gaussian([[2.0, 0.4, -0.2], [0.4, 1.0, 0.1], [-0.2, 0.1, 0.5]]),
}


@pytest.mark.parametrize("law", LAWS)
class TestNoiseStreams:
    @pytest.mark.parametrize("count", [1, 2, 1024 + 17])
    def test_single_stream_matches_law(self, law, count):
        noise = LAWS[law]
        want = reference_noise_draw(noise, trajectory_rngs(5, [2])[0], count)
        block = noise.draw(trajectory_rngs(5, [2]), count)
        assert block.shape == (count, 1, noise.dimension)
        assert np.array_equal(block[:, 0], want)
        assert np.array_equal(sample_noise(noise, 5, 2, count), want)

    def test_block_rows_are_the_streams_drawn_alone(self, law):
        noise = LAWS[law]
        count = 1024 + 17
        indices = [0, 1, 2, 7, 40]
        block = noise.draw(trajectory_rngs(11, indices), count)
        assert block.shape == (count, len(indices), noise.dimension)
        for j, rng in enumerate(trajectory_rngs(11, indices)):
            assert np.array_equal(block[:, j], reference_noise_draw(noise, rng, count))

    def test_shared_generator_continues_where_the_law_leaves_it(self, law):
        # verify_variant draws its points and its noise from one generator.
        noise = LAWS[law]
        a, b = trajectory_rngs(3, [0, 0])
        assert np.array_equal(noise.draw([a], 17)[:, 0], reference_noise_draw(noise, b, 17))
        assert np.array_equal(a.standard_normal(4), b.standard_normal(4))

    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_gauss_rule_is_the_tensor_rule(self, law, order):
        noise = LAWS[law]
        m = noise.dimension
        if noise.kind == "gaussian":
            x, w = np.polynomial.hermite_e.hermegauss(order)
        else:
            x, w = np.polynomial.legendre.leggauss(order)
        w = w / w.sum()
        grid = np.array(list(itertools.product(x, repeat=m)))
        want_weights = np.array([np.prod(c) for c in itertools.product(w, repeat=m)])
        if noise.kind == "gaussian":
            want_nodes = grid @ np.linalg.cholesky(noise.cov).T
        else:
            want_nodes = grid * noise.half_widths
        nodes, weights = noise.gauss_rule(order)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)
        if order >= 2:  # exact for the first two moments
            assert np.allclose(weights @ nodes, 0.0, atol=1e-12)
            assert np.allclose(nodes.T @ (weights[:, None] * nodes), noise.covariance)


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cached_gauss_rule_is_a_fresh_rule(kind, m):
    """gauss_rule maps a unit rule cached per (family, order, m): every order
    of CUBATURE_ORDERS gives the bits of a rule built afresh, and writing to
    what one call returns cannot change a later call."""
    if kind == "uniform":
        noise, family = NoiseModel.uniform([0.7, 1.3, 2.0][:m]), "legendre"
    else:
        C = np.random.default_rng(m).standard_normal((m, m))
        noise, family = NoiseModel.gaussian(C @ C.T + m * np.eye(m)), "hermite"
    for order in sorted({o for pair in CUBATURE_ORDERS.values() for o in pair}):
        fresh_nodes, fresh_weights = systems._unit_gauss_rule.__wrapped__(family, order, m)
        if kind == "uniform":
            fresh_nodes = fresh_nodes * noise.half_widths
        else:
            fresh_nodes = fresh_nodes @ np.linalg.cholesky(noise.cov).T
        nodes, weights = noise.gauss_rule(order)
        assert nodes.tobytes() == fresh_nodes.tobytes()
        assert weights.tobytes() == fresh_weights.tobytes()
        nodes[:] = 0.0
        with pytest.raises(ValueError):
            weights[:] = 0.0
        again_nodes, again_weights = noise.gauss_rule(order)
        assert again_nodes.tobytes() == fresh_nodes.tobytes()
        assert again_weights.tobytes() == fresh_weights.tobytes()


@pytest.mark.parametrize("law", LAWS)
class TestStagedDraw:
    """`draw` fills a row-major stage of STAGE_BYTES, one stream per row, and
    copies it into the time-major block; no stage edge may show in the bits."""

    @staticmethod
    def _check(noise, base, indices, length, out=None):
        block = noise.draw(trajectory_rngs(base, indices), length, out=out)
        assert block.shape == (length, len(indices), noise.dimension)
        for j, rng in enumerate(trajectory_rngs(base, indices)):
            assert np.array_equal(block[:, j], reference_noise_draw(noise, rng, length))
        return block

    def test_row_counts_around_one_stage(self, law):
        noise = LAWS[law]
        length = 1024
        rows = systems.STAGE_BYTES // (length * noise.dimension * 8)
        for count in (1, rows - 1, rows, rows + 1):
            self._check(noise, 8, range(count), length)

    @pytest.mark.parametrize("stage_rows", [1, 7])
    def test_many_stage_boundaries(self, law, stage_rows, monkeypatch):
        noise = LAWS[law]
        length = 3
        monkeypatch.setattr(systems, "STAGE_BYTES", stage_rows * length * noise.dimension * 8)
        self._check(noise, 9, range(1041), length)

    def test_strided_out_gets_the_bits_of_a_fresh_block(self, law):
        noise = LAWS[law]
        length, count = 1024 + 17, 45
        fresh = noise.draw(trajectory_rngs(10, range(count)), length)
        buf = np.full((length + 5, count + 9, noise.dimension), np.nan)
        view = buf[:length, :count]
        assert self._check(noise, 10, range(count), length, out=view) is view
        assert np.array_equal(view, fresh)
        # Nothing outside the view is written.
        assert np.isnan(buf[length:]).all() and np.isnan(buf[:, count:]).all()

    def test_strided_last_axis_gets_the_bits_of_a_fresh_block(self, law):
        # Vectors that are not contiguous in out cannot move as whole items.
        noise = LAWS[law]
        length, count = 1024 + 17, 45
        buf = np.full((length, count, 2 * noise.dimension), np.nan)
        view = buf[..., ::2]
        assert self._check(noise, 10, range(count), length, out=view) is view
        assert np.isnan(buf[..., 1::2]).all()

    @pytest.mark.parametrize("split", [(1, 4), (1, 1, 3), (2, 1, 2)])
    def test_streams_join_across_calls(self, law, split):
        # A hitting batch draws its streams in growing chunks, the first of
        # which may be one step.  One step of many streams is still one
        # many-row product, not a one-row product (gemv) per stream, so the
        # pieces join into the bits of one draw.
        noise = LAWS[law]
        rngs = trajectory_rngs(14, range(40))
        block = np.concatenate([noise.draw(rngs, length) for length in split])
        for j, rng in enumerate(trajectory_rngs(14, range(40))):
            assert np.array_equal(block[:, j], reference_noise_draw(noise, rng, sum(split)))

    @pytest.mark.parametrize("length", [0, 1, 1041, 200_000])
    def test_lone_stream_into_contiguous_and_strided_out(self, law, length):
        # 200,000 steps is longer than one stage at every m.
        noise = LAWS[law]
        fresh = self._check(noise, 12, [3], length)
        buf = np.full((length, 3, noise.dimension), np.nan)
        self._check(noise, 12, [3], length, out=buf[:, 1:2])
        assert np.array_equal(buf[:, 1], fresh[:, 0])
        assert np.isnan(buf[:, [0, 2]]).all()

    @pytest.mark.parametrize("stage_rows", [2, 3])
    @pytest.mark.parametrize("length", [2, 3, 4, 5, 7, 10])
    def test_lone_stream_in_stage_pieces(self, law, stage_rows, length, monkeypatch):
        # Stages of two or three steps end in pieces of one to three steps; a
        # Gaussian piece of one step would be multiplied by gemv.  One stream
        # and three, each of which fills the stage alone, a piece at a time.
        noise = LAWS[law]
        monkeypatch.setattr(systems, "STAGE_BYTES", stage_rows * noise.dimension * 8)
        for streams in (1, 3):
            self._check(noise, 13, range(length, length + streams), length)


def test_lone_stream_needs_no_second_block():
    """A lone stream longer than the stage is drawn a piece of steps at a
    time: the draw's peak is out plus stage-sized buffers, not a second
    full-length block."""
    count = 2_000_000
    for noise in (NoiseModel.uniform([1.0, 2.0]), NoiseModel.gaussian([[1.0, 0.3], [0.3, 0.5]])):
        tracemalloc.start()
        try:
            out = sample_noise(noise, 4, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (count, 2)
        assert peak < out.nbytes + 4 * systems.STAGE_BYTES, noise.kind


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_seeded_streams_are_pinned():
    """The bits of the seeded streams, recorded when trajectory streams
    became Philox counter blocks of one key per base seed.  Only exact or
    IEEE-deterministic arithmetic (no BLAS rounding) goes into them, so
    they hold on every machine; a change here is a change of every seeded
    output and must be deliberate."""
    noise = NoiseModel.uniform([0.7, 2.5, 4.0])
    block = noise.draw(trajectory_rngs(11, range(50)), 1041)
    assert _sha256(block) == "4348bed79a89baa02cbdd55156c6eedccb099b64b848bce4346f9d93c0fba3b6"
    walk = LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
    states = ensemble_states(walk, [0.0], [0, 1, 1023, 1024, 1025, 2500], 600, base_seed=5)
    snapshots = np.concatenate([states[k] for k in sorted(states)])
    assert _sha256(snapshots) == "216e6cb70cf0082582858c7bf9b815a3fc857cb2227009ea110cd6407426f693"
    # Criterion 5's 3D identity, checked when recorded against steps that
    # multiply by A = B = I.
    identity = LinearSystem(A=np.eye(3), B=np.eye(3), noise=NoiseModel.uniform([1.0] * 3))
    states = ensemble_states(identity, [0.0, 0.0, 0.0], [0, 1, 1023, 1024, 1025, 1500], 300, base_seed=5)
    snapshots = np.concatenate([states[k] for k in sorted(states)])
    assert _sha256(snapshots) == "add3ea4b6e2ddffa9d3f1d672e7c9b7c50cb6ec704200b3d6ba8d1e2cf499c93"


def _same_state(a, b):
    """Equal bit generator states: nested dicts of ints, names and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_numpys_streams(base, indices):
    got = trajectory_rngs(base, indices)
    assert len(got) == len(indices)
    for i, rng in zip(indices, got):
        want = reference_rng(base, i)
        assert _same_state(rng.bit_generator.state, want.bit_generator.state), (base, i)
        assert np.array_equal(rng.random(7), want.random(7))
        assert np.array_equal(rng.standard_normal(5), want.standard_normal(5))


class TestTrajectoryRngs:
    """`trajectory_rngs` keys and places each stream's Philox itself;
    numpy's ``Philox(SeedSequence(base)).jumped(i)`` is the reference,
    state for state and draw for draw."""

    @pytest.mark.parametrize("base", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 5, 2**200 + 1])
    def test_streams_are_numpys(self, base):
        # The first blocks, a block past 32 bits and the last one; bases of
        # one to seven 32-bit words.
        _assert_numpys_streams(base, [0, 1, 2**32, 2**64 - 1])

    def test_empty_index_list(self):
        assert trajectory_rngs(3, []) == []
        assert trajectory_rngs(3, np.arange(0)) == []

    def test_numpy_integers(self):
        _assert_numpys_streams(np.uint64(2**64 - 1), np.array([0, 1, 2**32, 2**64 - 1], dtype=np.uint64))
        _assert_numpys_streams(np.int64(5), np.arange(3, 9, dtype=np.int32))
        _assert_numpys_streams(7, [np.int64(2**33), np.uint32(2**32 - 1), np.int8(1)])

    @pytest.mark.parametrize("indices", [[-1], np.array([4, -2]), [2**64], [0, 2**70]])
    def test_indices_outside_64_bits_rejected(self, indices):
        with pytest.raises(ValueError, match="indices"):
            trajectory_rngs(1, indices)

    def test_non_integer_index_rejected(self):
        with pytest.raises(TypeError):
            trajectory_rngs(1, [1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**260),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6),
    )
    def test_random_bases_and_index_sets(self, base, indices):
        _assert_numpys_streams(base, indices)


# The tags of verify_drift, verify_variant, the log-drift scan, the delta
# estimate and Example 1's scan.
SAMPLING_TAGS = [0xD21F7, 0x7A21, 0x10C5, 0xDE17A, 0xE1]


@pytest.mark.parametrize("tag", SAMPLING_TAGS, ids=hex)
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_tagged_rng_is_the_spawned_default_rng(seed, tag):
    want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))
    got = tagged_rng(seed, tag)
    assert _same_state(got.bit_generator.state, want.bit_generator.state)
    assert np.array_equal(got.standard_normal(9), want.standard_normal(9))


class _FixedUniforms:
    """A stream whose raw uniforms are the given doubles, repeated."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, out):
        out[...] = np.resize(self.values, out.shape)


DBL_MAX = np.finfo(float).max
# Half-widths that are not powers of two, subnormal, and up to DBL_MAX / 2,
# the largest for which 2h is finite.
UNIFORM_MAP_WIDTHS = {
    "odd": [0.3, 1.7, 3.1e5, 0.7],
    "subnormal": [5e-324, 1e-310, 2.2e-308, 3e-320],
    "huge": [DBL_MAX / 2, 1e300, 8.9e307, 0.1],
}


@pytest.mark.parametrize("widths", UNIFORM_MAP_WIDTHS.values(), ids=list(UNIFORM_MAP_WIDTHS))
class TestUniformMap:
    """`draw` maps raw uniforms as (u - 0.5) * 2h in two passes, which must
    give the bits of numpy's uniform(-1, 1) * h."""

    def test_draws_are_numpys_uniform_times_h(self, widths):
        length, m = 3000, len(widths)
        got = NoiseModel.uniform(widths).draw([reference_rng(21, 4)], length)[:, 0]
        want = reference_rng(21, 4).uniform(-1.0, 1.0, (length, m)) * np.asarray(widths)
        assert got.tobytes() == want.tobytes()

    def test_edge_uniforms(self, widths):
        # numpy's uniform(-1, 1) of the raw double u is -1 + 2u.
        ulp = 2.0**-53
        u = np.array([0.0, ulp, 0.25, 0.5 - ulp, 0.5, 0.5 + ulp, 0.75, 1.0 - ulp])
        length = len(u) * len(widths)
        got = NoiseModel.uniform(widths).draw([_FixedUniforms(u)], length)[:, 0]
        raw = np.resize(u, (length, len(widths)))
        assert got.tobytes() == ((-1.0 + 2.0 * raw) * np.asarray(widths)).tobytes()


@pytest.mark.parametrize("h", [np.nextafter(DBL_MAX / 2, np.inf), DBL_MAX, np.inf, np.nan, 0.0, -1.0])
def test_half_widths_beyond_the_uniform_map_rejected(h):
    """2h must be finite for the two-pass map, so half-widths above
    DBL_MAX / 2 are refused along with non-positive and non-finite ones."""
    with pytest.raises(ValueError, match="half_widths"):
        NoiseModel.uniform([1.0, h])
    with pytest.raises(ValueError, match="half_widths"):
        NoiseModel.from_dict({"kind": "uniform-box", "half_widths": [h]})


def test_sympy_is_never_imported():
    """Polynomial transitions compile from their own syntax trees, so sympy
    stays out of the process, also after building and stepping Example 1."""
    src = os.path.dirname(os.path.dirname(reachcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, numpy as np, reachcert, reachcert.cli\n"
        "assert 'importlib.metadata' not in sys.modules, 'importlib.metadata imported with reachcert.cli'\n"
        "from reachcert.counterexamples import example1_system\n"
        "s = example1_system()\n"
        "from reachcert.systems import step_batch\n"
        "assert step_batch(s, [[2.0, 1.0]], [[0.0]]).tolist() == [[2.0, 0.5]]\n"
        "assert s.advance(np.ones((5, 2)), np.zeros((3, 5, 1))).shape == (3, 5, 2)\n"
        "assert 'sympy' not in sys.modules, 'sympy imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_worker_pools_are_imported_only_when_used():
    """Ensembles import multiprocessing and concurrent.futures inside the
    call that starts a pool, so loading the CLI imports neither."""
    src = os.path.dirname(os.path.dirname(reachcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, reachcert, reachcert.cli\n"
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_run_with_scipy_blocked(tmp_path):
    """reachcert needs numpy alone: with scipy made unimportable, certify
    and verify of a quadratic, a logarithmic and a composite certificate
    and every repro case reach a verdict (exit 0 or 1), and no scipy
    module is loaded."""
    src = os.path.dirname(os.path.dirname(reachcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, os, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from reachcert.cli import run\n"
        "from reachcert.counterexamples import REPRO_CASES\n"
        "out = sys.argv[1]\n"
        "c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)\n"
        "systems = {\n"
        "    'quadratic': [[0.5, 0.1], [0.0, 0.3]],\n"
        "    'logarithmic': [[1.0]],\n"
        "    'composite': [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.5]],\n"
        "}\n"
        "for kind, A in systems.items():\n"
        "    n = len(A)\n"
        "    path = os.path.join(out, kind + '.json')\n"
        "    noise = {'kind': 'uniform-box', 'half_widths': [1.0] * n}\n"
        "    target = {'center': [0.0] * n, 'radius': 2.0 if n == 1 else 1.0}\n"
        "    with open(path, 'w') as f:\n"
        "        json.dump({'A': A, 'B': np.eye(n).tolist(), 'noise': noise, 'target': target}, f)\n"
        "    d = os.path.join(out, kind)\n"
        "    code = run(['certify', '--system', path, '--samples', '2000', '--out', d])\n"
        "    assert code in (0, 1), (kind, code)\n"
        "    cert = os.path.join(d, 'certificate.json')\n"
        "    assert json.load(open(cert))['kind'] == kind, kind\n"
        "    code = run(['verify', '--system', path, '--certificate', cert, '--samples', '2000', '--out', d])\n"
        "    assert code in (0, 1), (kind, code)\n"
        "for case in REPRO_CASES:\n"
        "    code = run(['repro', case, '--samples', '2000', '--out', out])\n"
        "    assert code in (0, 1), (case, code)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m] is not None)\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


class TestStep:
    def test_linear_step(self, random_walk):
        (x,) = step_batch(random_walk, [[3.0]], [[0.25]])
        assert x[0] == pytest.approx(3.25)

    def test_polynomial_step_example(self):
        system = PolynomialSystem(
            transition_exprs=("0.5*x1*(1 + x2 + w1)", "0.5*x2"),
            noise=NoiseModel.uniform([1.0]),
        )
        (x,) = step_batch(system, [[2.0, 2.0]], [[0.0]])
        assert np.allclose(x, [3.0, 1.0])

    def test_step_batch_matches_step(self, stable_2d):
        # Each row against one step A x + B w of its own.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 2))
        W = rng.standard_normal((50, 2))
        batch = step_batch(stable_2d, X, W)
        rows = np.array([stable_2d.A @ x + stable_2d.B @ w for x, w in zip(X, W)])
        assert np.allclose(batch, rows)

    def test_polynomial_batch_matches_step(self):
        # Each row against the transition evaluated at that point alone.
        system = PolynomialSystem(
            transition_exprs=("0.5*x1*(1 + x2 + w1)", "0.5*x2"),
            noise=NoiseModel.uniform([1.0]),
        )
        rng = np.random.default_rng(1)
        X = rng.uniform(0.0, 4.0, size=(30, 2))
        W = rng.uniform(-1.0, 1.0, size=(30, 1))
        batch = step_batch(system, X, W)
        rows = np.array([[0.5 * x[0] * (1 + x[1] + w[0]), 0.5 * x[1]] for x, w in zip(X, W)])
        assert np.allclose(batch, rows)
        # One row at a time, as example1_simulate_log2 steps, keeps the bits.
        one_by_one = [step_batch(system, X[i : i + 1], W[i : i + 1]) for i in range(30)]
        assert np.array_equal(np.concatenate(one_by_one), batch)

    def test_overflow_returned_as_is(self):
        # Overflow is a per-trajectory policy of the ensembles, not an error.
        system = LinearSystem(A=[[1e200]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))
        with np.errstate(over="ignore"):
            (x,) = step_batch(system, [[1e200]], [[0.0]])
        assert np.isinf(x[0])

    @pytest.mark.parametrize("identity", ["A", "B", "both"])
    @pytest.mark.parametrize("rows", [1, 40])
    def test_identity_factors_keep_the_full_products(self, identity, rows):
        # Skipping X I' and W I' gives the bits of X A' + W B' on finite inputs.
        rng = np.random.default_rng(rows)
        n = 3
        A = np.eye(n) if identity in ("A", "both") else rng.standard_normal((n, n))
        B = np.eye(n) if identity in ("B", "both") else rng.standard_normal((n, 2))
        system = LinearSystem(A=A, B=B, noise=NoiseModel.uniform([1.0] * B.shape[1]))
        assert [f is None for f in system.factors] == [identity in ("A", "both"), identity in ("B", "both")]
        X = rng.standard_normal((rows, n))
        W = rng.standard_normal((rows, B.shape[1]))
        assert step_batch(system, X, W).tobytes() == (X @ A.T + W @ B.T).tobytes()

    def test_dimension_mismatch(self, random_walk):
        with pytest.raises(ValueError):
            step_batch(random_walk, [[1.0, 2.0]], [[0.0]])

    def test_rejects_unequal_row_counts(self, random_walk):
        with pytest.raises(ValueError, match="do not fit"):
            step_batch(random_walk, [[1.0], [2.0]], [[0.0], [0.5], [1.0]])
        with pytest.raises(ValueError, match="do not fit"):
            step_batch(random_walk, [[1.0]], [[0.0], [0.5]])

    def test_polynomial_rejects_wrong_noise_width(self):
        system = PolynomialSystem(transition_exprs=("x1 + w1",), noise=NoiseModel.uniform([1.0]))
        with pytest.raises(ValueError, match="noise dimension 1"):
            step_batch(system, [[1.0]], [[0.0, 0.5]])


class TestAdvance:
    """``advance`` is the one stepping engine: it must give the bits of the
    transition written out step by step."""

    @pytest.mark.parametrize("steps", [1, 2, 65])
    @pytest.mark.parametrize("n", [2, 3, 20])
    @pytest.mark.parametrize("identity", ["neither", "A", "B", "both"])
    def test_linear_matches_explicit_steps(self, identity, n, steps):
        rng = np.random.default_rng(n * 100 + steps)
        A = np.eye(n) if identity in ("A", "both") else 0.9 * rng.standard_normal((n, n)) / np.sqrt(n)
        B = np.eye(n) if identity in ("B", "both") else rng.standard_normal((n, 2))
        system = LinearSystem(A=A, B=B, noise=NoiseModel.uniform([1.0] * B.shape[1]))
        assert [f is None for f in system.factors] == [identity in ("A", "both"), identity in ("B", "both")]
        X = rng.standard_normal((40, n))
        W = rng.standard_normal((steps, 40, B.shape[1]))
        want = [X]
        for w in W:
            want.append(want[-1] @ A.T + w @ B.T)
        assert system.advance(X, W).tobytes() == np.stack(want[1:]).tobytes()

    def test_one_row_matches_explicit_steps(self, rotation_system):
        # One row goes to gemv on both sides.
        rng = np.random.default_rng(5)
        X, W = rng.standard_normal((1, 2)), rng.standard_normal((30, 1, 2))
        want = [X]
        for w in W:
            want.append(explicit_step(rotation_system, want[-1], w))
        assert rotation_system.advance(X, W).tobytes() == np.stack(want[1:]).tobytes()

    def test_polynomial_matches_rows(self):
        # Each row against the transition evaluated at that point alone; the
        # constant coordinate fills its column.
        system = PolynomialSystem(
            transition_exprs=("0.5*x1*(1 + x2 + w1)", "0.5*x2", "2"), noise=NoiseModel.uniform([1.0])
        )
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 4.0, size=(7, 3))
        W = rng.uniform(-1.0, 1.0, size=(5, 7, 1))
        got = system.advance(X, W)
        assert got.shape == (5, 7, 3)
        for i in range(7):
            x = X[i]
            for t in range(5):
                x = np.array([0.5 * x[0] * (1 + x[1] + W[t, i, 0]), 0.5 * x[1], 2.0])
                assert np.allclose(got[t, i], x, rtol=1e-14, atol=0.0)
                # Each row alone keeps the bits of the block.
                (alone,) = step_batch(system, got[t - 1, i : i + 1] if t else X[i : i + 1], W[t, i : i + 1])
                assert alone.tobytes() == got[t, i].tobytes()


def _assert_mask(target, X, expected):
    """contains on all rows of X at once, and on each row alone."""
    X = np.asarray(X, dtype=float)
    assert contains(target, X).tolist() == expected
    assert [bool(contains(target, x[None])[0]) for x in X] == expected


class TestTargetBall:
    # Every ball below has its sphere at exactly representable points, so a
    # row on the sphere has q == R^2 exactly and must be outside.
    def test_strict_openness(self, unit_ball_1d):
        _assert_mask(unit_ball_1d, [[0.999]], [True])
        _assert_mask(unit_ball_1d, [[1.0]], [False])
        _assert_mask(
            unit_ball_1d, [[-1.0], [-0.999], [0.0], [0.999], [1.0], [1.5]], [False, True, True, True, False, False]
        )
        # Off-centre: (4, 2) - (1, -2) = (3, 4) lies on the sphere of radius 5.
        ball = TargetBall(center=[1.0, -2.0], radius=5.0)
        _assert_mask(ball, [[4.0, 2.0]], [False])
        _assert_mask(
            ball,
            [[4.0, 2.0], [4.0, 1.99], [-2.0, -6.0], [1.0, -2.0], [1.0, 3.0], [6.0, -2.0]],
            [False, True, False, True, False, False],
        )

    def test_weighted_norm_membership(self):
        ball = TargetBall(center=[0.0, 0.0], radius=1.0, weight=np.diag([4.0, 1.0]))
        _assert_mask(ball, [[0.9, 0.0]], [False])  # weighted norm 1.8
        _assert_mask(ball, [[0.4, 0.0]], [True])
        # (0.5, 0) and (0, 1) lie on the weighted sphere.
        _assert_mask(
            ball,
            [[0.5, 0.0], [0.0, 1.0], [0.0, -1.0], [0.4, 0.0], [0.0, 0.999], [0.9, 0.0]],
            [False, False, False, True, True, False],
        )
        # Off-centre and weighted: (1.5, -1) - (1, -1) = (0.5, 0) on the sphere.
        shifted = TargetBall(center=[1.0, -1.0], radius=1.0, weight=np.diag([4.0, 1.0]))
        _assert_mask(
            shifted, [[1.5, -1.0], [1.25, -1.0], [1.0, 0.0], [1.0, -0.5]], [False, True, False, True]
        )

    def test_contains_origin(self):
        assert contains(TargetBall(center=[0.5], radius=1.0), np.zeros((1, 1)))[0]
        assert not contains(TargetBall(center=[2.0], radius=1.0), np.zeros((1, 1)))[0]
        assert not contains(TargetBall(center=[1.0], radius=1.0), np.zeros((1, 1)))[0]

    def test_callable_target_is_its_own_mask(self):
        X = np.array([[0.5, 0.5], [1.5, 0.5]])
        assert contains(lambda X: np.all((X > 0.0) & (X < 1.0), axis=1), X).tolist() == [True, False]

    def test_dimension_mismatch(self, unit_ball_1d):
        with pytest.raises(ValueError, match="coordinates"):
            contains(unit_ball_1d, np.zeros((3, 2)))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            TargetBall(center=[0.0], radius=-1.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            TargetBall(center=[0.0], radius=radius)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_center_rejected(self, value):
        with pytest.raises(ValueError, match="center must be finite"):
            TargetBall(center=[0.0, value], radius=1.0)

    def test_serialization_round_trip(self):
        ball = TargetBall(center=[1.0, 2.0], radius=0.5, weight=np.diag([2.0, 3.0]))
        again = TargetBall.from_dict(ball.to_dict())
        assert np.allclose(again.center, ball.center)
        assert again.radius == ball.radius
        assert np.allclose(again.weight, ball.weight)


class TestSystemFiles:
    def test_linear_round_trip(self, tmp_path, stable_2d):
        target = TargetBall(center=[0.0, 0.0], radius=1.0)
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system_to_dict(stable_2d, target)))
        system, loaded_target = load_system(path)
        assert isinstance(system, LinearSystem)
        assert np.allclose(system.A, stable_2d.A)
        assert loaded_target.radius == 1.0

    def test_polynomial_round_trip(self, tmp_path):
        system = PolynomialSystem(
            transition_exprs=("0.5*x1*(1 + x2 + w1)", "0.5*x2"),
            noise=NoiseModel.uniform([1.0]),
        )
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(system_to_dict(system)))
        loaded, target = load_system(path)
        assert isinstance(loaded, PolynomialSystem)
        assert target is None
        (x,) = step_batch(loaded, [[2.0, 2.0]], [[0.0]])
        assert np.allclose(x, [3.0, 1.0])

    def test_caret_power_accepted(self):
        system = PolynomialSystem(
            transition_exprs=("x1^2 + w1", "x2"), noise=NoiseModel.uniform([1.0])
        )
        (x,) = step_batch(system, [[3.0, 1.0]], [[0.5]])
        assert x[0] == pytest.approx(9.5)

    def test_unary_signs_and_float_constants_accepted(self):
        # Example 1's map and caret powers are covered above.
        system = PolynomialSystem(("-x1 + +2.5e-1*w1", "x2**0"), NoiseModel.uniform([1.0]))
        (x,) = step_batch(system, [[2.0, 3.0]], [[4.0]])
        assert x.tolist() == [-1.0, 1.0]

    def test_transition_is_evaluated_as_written(self):
        """Each coordinate is the numpy arithmetic of its string in the
        written order, bit for bit; a constant coordinate fills its column."""
        rng = np.random.default_rng(22)
        X, W = rng.uniform(-3.0, 3.0, (2000, 2)), rng.uniform(-1.0, 1.0, (2000, 1))
        (x1, x2), (w1,) = X.T, W.T
        cases = [
            (example1_system().transition_exprs, [0.5 * x1 * (1 + x2 + w1), 0.5 * x2]),
            (("-x1*x2 + -w1", "x2^3 - 0.25*x1"), [-x1 * x2 + -w1, x2**3 - 0.25 * x1]),
            (("3", "x1**2*(x2 - 1)**5"), [np.full(len(X), 3.0), x1**2 * (x2 - 1) ** 5]),
        ]
        for exprs, columns in cases:
            system = PolynomialSystem(exprs, NoiseModel.uniform([1.0]))
            assert step_batch(system, X, W).tobytes() == np.column_stack(columns).tobytes()
        # A reordered sum rounds differently, so the comparison can tell the orders apart.
        assert (0.5 * x1 * (w1 + x2 + 1)).tobytes() != (0.5 * x1 * (1 + x2 + w1)).tobytes()

    @pytest.mark.parametrize(
        "expr",
        ["x1**65", "x1 + 9**99999999*w1", "9" * 400 + "*x1", "1e999*x1", "1e200**2*x1", "1e300*1e10 - x1", "(2**60)**20 - x1", "((9**64)**64)**64*x1"],
    )
    def test_transition_beyond_the_doubles_rejected(self, expr):
        """Powers above MAX_POWER and variable-free parts beyond the doubles
        are refused when the system is built, not hit on every step."""
        with pytest.raises(ValueError, match="transition .*(of powers at most 64|beyond the doubles)"):
            PolynomialSystem((expr, "x2"), NoiseModel.uniform([1.0]))

    @pytest.mark.parametrize(
        "expr",
        [
            "sin(x1)",
            "x1 + 0*__import__('os').getcwd()",
            "x1.conjugate()",
            "x3 + w1",
            "x1 + w2",
            "pi*x1",
            "x1**-1",
            "x1**0.5",
            "x1**x2",
            "x1 / 2",
            "x1 if w1 else 0",
            "[x1]",
            "'x1'",
            "x1 +",
        ],
    )
    def test_non_polynomial_transition_rejected(self, expr, monkeypatch):
        """Only constants, x1..xn, w1..wm, + - *, unary +- and ** to a
        non-negative int pass; the rest is refused before anything is
        compiled or evaluated."""

        def never(*args, **kwargs):
            raise AssertionError("compile or eval reached")

        # Module globals shadow the builtins that systems calls by name.
        monkeypatch.setattr(systems, "compile", never, raising=False)
        monkeypatch.setattr(systems, "eval", never, raising=False)
        with pytest.raises(ValueError, match="transition"):
            PolynomialSystem((expr, "x2"), NoiseModel.uniform([1.0]))

    def test_noise_kind_alias_removed(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseModel.from_dict({"kind": "uniform-interval-product", "half_widths": [1.0]})

    def test_unknown_noise_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[1.0]], "B": [[1.0]], "noise": {"kind": "cauchy"}}))
        with pytest.raises((ValueError, KeyError)):
            load_system(path)
