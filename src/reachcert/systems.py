"""System models: linear and polynomial stochastic dynamics, noise laws,
target balls, and seeded reproducible sampling.

The dynamics are ``x_{k+1} = f(x_k, w_k)`` with i.i.d. zero-mean noise
``w_k``.  The linear special case is ``f(x, w) = A x + B w``.  Each
system kind applies its transition in one method, ``advance(X, W)``,
which steps the (rows, n) states X through an (s, rows, m) noise block W;
`step_batch` is its one-step form and the ensembles step whole blocks.
A linear step skips a factor that is exactly the identity
(`LinearSystem.factors`).  States are the rows of an (N, n) array, both
for stepping and for `contains`, whose target is an open ball (Euclidean
or weighted by a PD matrix) or a callable row mask.  The noise law lives
in `NoiseModel`, which alone draws noise and builds its Gauss rules (from
unit rules built once); all noise sampling is driven by explicit
per-trajectory seeds so ensembles are reproducible regardless of
execution order.  Seeds become generators here only: trajectory i of
base seed b draws from Philox keyed by ``SeedSequence(b)`` at counter
block i, numpy's ``Philox(SeedSequence(b)).jumped(i)``, built by
`trajectory_rngs` (one key derivation per call), and every other seeded
sampler draws from `tagged_rng(seed, tag)`, its tag naming the call site.
"""

from __future__ import annotations

import ast
import functools
import json
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .linalg import is_symmetric_positive_definite, quadratic_form

__all__ = [
    "NoiseModel",
    "LinearSystem",
    "PolynomialSystem",
    "TargetBall",
    "trajectory_rngs",
    "tagged_rng",
    "sample_noise",
    "step_batch",
    "contains",
    "load_system",
    "system_to_dict",
]

# Bytes of the row-major stage that NoiseModel.draw fills one stream per
# row before copying it into the time-major block: small enough to stay in
# cache, large enough that each step's copy writes a run of many streams.
STAGE_BYTES = 1 << 20


def _number(d: dict, key: str, default: float | None = None) -> float:
    """``d[key]`` as a float, or ``default`` (when given) if the key is absent.

    A value that is no number, a JSON null among them, raises ValueError
    naming the field rather than float()'s TypeError.
    """
    value = d[key] if default is None or key in d else default
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _object(value, name: str) -> dict:
    """``value`` if it is a JSON object, else a ValueError naming ``name``
    rather than the AttributeError or TypeError of reading a field."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def _matrix(d: dict, key: str) -> np.ndarray:
    """``d[key]`` as a float array; a value that is no (nested) list of
    numbers raises ValueError naming the field rather than a TypeError."""
    try:
        return np.asarray(d[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be an array of numbers, got {d[key]!r}") from None


def _scale_uniform(u, h2):
    """Map raw doubles u in [0, 1) to uniform(-1, 1) * h in place, in two
    passes: (u - 0.5) * 2h.

    numpy's uniform(-1, 1) is -1 + 2u from the same double u, and for a
    double u in [0, 1) both u - 0.5 and 2u - 1 = 2(u - 0.5) are exact.  So
    is ``h2`` = 2h, as NoiseModel keeps every half-width at most
    DBL_MAX / 2.  Both forms therefore round the one real number
    2(u - 0.5)h once, and this is uniform(-1, 1) * h bit for bit.  ``h2``
    is 2h tiled along u's last axis, so each pass is one long loop.
    """
    u -= 0.5
    u *= h2


@functools.lru_cache(maxsize=64)
def _unit_gauss_rule(family: str, order: int, m: int):
    """Tensor rule of ``order`` per axis over m axes for the standard law of
    ``family`` ("hermite" or "legendre"), built once and kept read-only."""
    x, w = (np.polynomial.hermite_e.hermegauss if family == "hermite" else np.polynomial.legendre.leggauss)(order)
    w = w / w.sum()
    nodes = np.stack([g.reshape(-1) for g in np.meshgrid(*([x] * m), indexing="ij")], axis=1)
    weights = np.prod(np.meshgrid(*([w] * m), indexing="ij"), axis=0).reshape(-1)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean i.i.d. noise law.

    kind is "gaussian" (with covariance matrix ``cov``) or "uniform-box"
    (independent per-coordinate uniforms on ``[-h_i, h_i]`` given by
    ``half_widths``).  Both kinds are symmetric about the origin, have
    finite third absolute moments and full support near the origin.  The
    law is read only through `draw`, `gauss_rule` and the `covariance`
    moment.
    """

    kind: str
    cov: np.ndarray | None = None
    half_widths: np.ndarray | None = None
    _chol: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.cov is None:
                raise ValueError("gaussian noise requires a covariance matrix")
            cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
            if not is_symmetric_positive_definite(cov):
                raise ValueError("noise covariance must be symmetric positive definite")
            object.__setattr__(self, "cov", cov)
            object.__setattr__(self, "_chol", np.linalg.cholesky(cov))
            object.__setattr__(self, "half_widths", None)
        elif self.kind == "uniform-box":
            if self.half_widths is None:
                raise ValueError(f"{self.kind} noise requires half_widths")
            h = np.asarray(self.half_widths, dtype=float).reshape(-1)
            # 2h must be finite for the two-pass uniform map (_scale_uniform).
            if h.size == 0 or not np.all((h > 0) & (h <= np.finfo(float).max / 2)):
                raise ValueError("half_widths must be positive, finite and at most DBL_MAX / 2")
            object.__setattr__(self, "half_widths", h)
            object.__setattr__(self, "cov", None)
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        if self.kind == "gaussian":
            return self.cov.shape[0]
        return self.half_widths.size

    @property
    def covariance(self) -> np.ndarray:
        """Sigma_w of the law (derived for uniform noise)."""
        if self.kind == "gaussian":
            return self.cov
        return np.diag(self.half_widths**2 / 3.0)

    def draw(self, rngs, length: int, out=None) -> np.ndarray:
        """Time-major (length, len(rngs), m) block of i.i.d. noise vectors.

        ``out[:, j]`` is drawn from the stream ``rngs[j]`` alone, so a
        stream yields the same values whether drawn by itself or in a block.
        ``out``, if given, is filled and returned; it may be a strided view.

        Streams are drawn in groups through a row-major stage of about
        STAGE_BYTES, one stream per row, a piece of steps at a time: the
        whole stream when it fits, else pieces of the stage's length.  Each
        row is filled in one C call, the piece is mapped to the law (one
        Cholesky product, or the two in-place passes of `_scale_uniform`,
        whose inner loops are a row long, never m) and copied transposed
        into ``out``, a whole noise vector at a time, while it is still in
        cache.
        """
        m = self.dimension
        if out is None:
            out = np.empty((length, len(rngs), m))
        gaussian = self.kind == "gaussian"
        steps = min(length, max(2, STAGE_BYTES // (8 * m)))
        rows = max(1, STAGE_BYTES // (8 * m * max(1, steps)))
        # One spare step: a piece of two or more steps takes gemm like the
        # whole product and keeps its bits, but a lone last step would take
        # gemv, so it joins the piece before it.
        stage = np.empty(min(rows, len(rngs)) * (steps + 1) * m)
        if gaussian:
            z = np.empty_like(stage)
        else:
            tile = np.tile(2.0 * self.half_widths, steps + 1)
        # Vectors contiguous in ``out`` move as single m-double items, which
        # copies far faster than a loop of length m; at m = 1 the float copy
        # is faster.
        vector = np.dtype((np.void, 8 * m))
        whole_vectors = m > 1 and out.dtype == np.float64 and out.strides[-1] == 8
        for r0 in range(0, len(rngs), rows):
            group = rngs[r0 : r0 + rows]
            start = 0
            while start < length:
                end = length if start + steps + 1 >= length else start + steps
                shape = (len(group), end - start, m)
                block = stage[: len(group) * shape[1] * m].reshape(shape)
                if gaussian:
                    # One gemm over every vector of the piece, also when it
                    # is one step of many streams, so each stream gets the
                    # bits of rng.standard_normal(size=(length, m)) @ L.T
                    # however its steps are split between calls (only one
                    # step of a lone stream is a one-row product, by gemv).
                    normals = z[: block.size].reshape(shape)
                    for row, rng in zip(normals, group):
                        rng.standard_normal(out=row)
                    np.dot(normals.reshape(-1, m), self._chol.T, out=block.reshape(-1, m))
                else:
                    # The uniform fill is sequential, so the pieces join bit for bit.
                    for row, rng in zip(block, group):
                        rng.random(out=row)
                    _scale_uniform(block.reshape(len(group), -1), tile[: block[0].size])
                dst = out[start:end, r0 : r0 + len(group)]
                if whole_vectors:
                    dst.view(vector)[..., 0] = block.view(vector)[..., 0].T
                else:
                    dst[...] = block.transpose(1, 0, 2)
                start = end
        return out

    def gauss_rule(self, order: int):
        """Tensor Gauss rule for the law: (K, m) nodes and K weights summing to 1.

        Gauss-Legendre scaled by the half-widths for uniform noise;
        probabilists' Gauss-Hermite mapped through the Cholesky factor of
        the covariance for Gaussian noise.  Exact for polynomials of degree
        below 2 * order in each noise coordinate.  The nodes are a fresh
        array; the weights are the cached unit rule's, read-only.
        """
        gaussian = self.kind == "gaussian"
        nodes, weights = _unit_gauss_rule("hermite" if gaussian else "legendre", order, self.dimension)
        return (nodes @ self._chol.T if gaussian else nodes * self.half_widths), weights

    def to_dict(self) -> dict:
        if self.kind == "gaussian":
            return {"kind": "gaussian", "cov": self.cov.tolist()}
        return {"kind": self.kind, "half_widths": self.half_widths.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "NoiseModel":
        kind = _object(d, "noise").get("kind")
        if kind == "gaussian":
            return NoiseModel(kind="gaussian", cov=_matrix(d, "cov"))
        if kind == "uniform-box":
            return NoiseModel(kind=kind, half_widths=_matrix(d, "half_widths"))
        raise ValueError(f"unknown noise kind {kind!r}")

    @staticmethod
    def uniform(half_widths) -> "NoiseModel":
        return NoiseModel(kind="uniform-box", half_widths=np.atleast_1d(half_widths))

    @staticmethod
    def gaussian(cov) -> "NoiseModel":
        return NoiseModel(kind="gaussian", cov=np.atleast_2d(cov))


@dataclass(frozen=True)
class LinearSystem:
    """x_{k+1} = A x_k + B w_k with additive zero-mean noise; ``factors``
    is (A', B'), each None where that factor is exactly the identity."""

    A: np.ndarray
    B: np.ndarray
    noise: NoiseModel
    factors: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows but state dimension is {A.shape[0]}")
        if B.shape[1] != self.noise.dimension:
            raise ValueError(
                f"B has {B.shape[1]} columns but noise dimension is {self.noise.dimension}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("system matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "factors", tuple(None if np.array_equal(M, np.eye(len(M))) else M.T for M in (A, B)))

    @property
    def dimension(self) -> int:
        return self.A.shape[0]

    @property
    def noise_dimension(self) -> int:
        return self.B.shape[1]

    def advance(self, X, W) -> np.ndarray:
        """(s, rows, n) states after each step of the (s, rows, m) noise
        block W from the (rows, n) states X: x A' + w B' per step.

        W B' is one 2-D product over all s * rows noise vectors (W is
        copied only when it is not contiguous), so a row's noise term has
        the bits of a many-row product even when the block holds one row
        (s > 1): numpy multiplies a lone row by gemv, which rounds
        differently.  X A' is one ``np.dot`` per step, the BLAS call of
        ``matmul`` with less dispatch.  A factor that is exactly the
        identity is not multiplied: x*1 = x and x*0 = +-0, so finite states
        keep the bits of X A' + W B' up to the sign of a zero (an infinite
        coordinate would have made its row NaN)."""
        out = np.empty((W.shape[0],) + X.shape)
        AT, BT = self.factors
        if BT is None:
            WB = W
        else:
            WB = out
            np.dot(W.reshape(-1, W.shape[-1]), BT, out=out.reshape(-1, X.shape[1]))
        AX = None if AT is None else np.empty(X.shape)
        for t in range(W.shape[0]):
            if AT is not None:
                X = np.dot(X, AT, out=AX)
            X = np.add(WB[t], X, out=out[t])
        return out

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(), "noise": self.noise.to_dict()}


MAX_POWER = 64  # the largest exponent that a polynomial transition may raise to
_POLYNOMIAL_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Pow: operator.pow,
                   ast.UAdd: operator.pos, ast.USub: operator.neg}


def _compile_transition(exprs, m):
    """The step function ``f(x1, ..., xn, w1, ..., wm)`` of the n transition
    strings ``exprs`` (``^`` read as ``**``), each evaluated as written.
    Each must be a polynomial: constants, x1..xn, w1..wm, + - *, unary +-
    and ** to an int constant of at most MAX_POWER, whose variable-free
    parts (evaluated here as in every step) lie within the doubles, and
    whose syntax tree is shallow enough for Python to parse, walk and
    compile, or a ValueError names it.  Only checked trees compile; they
    run without builtins."""
    names = [f"x{i}" for i in range(1, len(exprs) + 1)] + [f"w{j}" for j in range(1, m + 1)]

    def value(node, text):
        """The value of ``node``'s subtree, or None if it holds a variable."""
        op = _POLYNOMIAL_OPS.get(type(getattr(node, "op", None)))
        # An int constant is never negative: -2 parses as a unary minus.
        int_exponent = isinstance(getattr(node, "right", None), ast.Constant) and type(node.right.value) is int
        if isinstance(node, ast.Name) and node.id in names:
            return None
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            args, op = [node.value], operator.pos
        elif op is None or (op is operator.pow and not (int_exponent and node.right.value <= MAX_POWER)):
            raise ValueError(f"transition {text!r} is not a polynomial in {', '.join(names)} of powers at most {MAX_POWER}")
        elif None in (args := [value(a, text) for a in ((node.operand,) if isinstance(node, ast.UnaryOp) else (node.left, node.right))]):
            return None
        if abs(result := op(*args)) > np.finfo(float).max:  # an int compares exactly
            raise OverflowError  # as a float power beyond the doubles does
        return result

    bodies = []
    for text in exprs:
        try:
            bodies.append(ast.parse(text.replace("^", "**"), mode="eval").body)
            value(bodies[-1], text)
        except SyntaxError:
            raise ValueError(f"transition {text!r} is not an expression") from None
        except OverflowError:
            raise ValueError(f"transition {text!r} has a constant beyond the doubles") from None
        except RecursionError:
            raise ValueError(f"transition {text!r} is nested too deeply") from None
    step = ast.parse(f"lambda {', '.join(names)}: ()", mode="eval")
    step.body.body.elts = bodies
    try:
        code = compile(step, "<transition>", "eval")
    except RecursionError:
        raise ValueError(f"transitions {list(exprs)!r} are nested too deeply") from None
    return eval(code, {"__builtins__": {}})


@dataclass(frozen=True)
class PolynomialSystem:
    """x_{k+1} given by per-coordinate polynomial maps over state and noise.

    ``transition_exprs`` are strings in variables x1..xn, w1..wm using
    +, -, *, ^ and parentheses (e.g. "0.5*x1*(1 + x2 + w1)").
    """

    transition_exprs: tuple
    noise: NoiseModel
    _transition: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        exprs = tuple(str(e) for e in self.transition_exprs)
        if not exprs:
            raise ValueError("transition must have at least one coordinate")
        object.__setattr__(self, "transition_exprs", exprs)
        object.__setattr__(self, "_transition", _compile_transition(exprs, self.noise.dimension))

    @property
    def dimension(self) -> int:
        return len(self.transition_exprs)

    @property
    def noise_dimension(self) -> int:
        return self.noise.dimension

    def advance(self, X, W) -> np.ndarray:
        """(s, rows, n) states after each step of the (s, rows, m) noise
        block W from the (rows, n) states X, one transition call per step;
        a constant coordinate fills its column."""
        out = np.empty((W.shape[0],) + X.shape)
        for t in range(W.shape[0]):
            for j, col in enumerate(self._transition(*X.T, *W[t].T)):
                out[t, :, j] = col
            X = out[t]
        return out

    def to_dict(self) -> dict:
        return {"transition": list(self.transition_exprs), "noise": self.noise.to_dict()}


@dataclass(frozen=True)
class TargetBall:
    """Open ball target set {x : ||x - center|| < radius}.

    The norm is Euclidean or weighted by a symmetric PD matrix.
    Membership uses strict inequality (open-set semantics).
    """

    center: np.ndarray
    radius: float
    weight: np.ndarray | None = None  # None means Euclidean

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1)
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"target radius must be positive and finite, got {self.radius!r}")
        if not np.all(np.isfinite(c)):
            raise ValueError("target center must be finite")
        object.__setattr__(self, "center", c)
        if self.weight is not None:
            W = np.atleast_2d(np.asarray(self.weight, dtype=float))
            if not is_symmetric_positive_definite(W):
                raise ValueError("target norm weight must be symmetric positive definite")
            if W.shape[0] != c.size:
                raise ValueError("target weight dimension mismatch")
            object.__setattr__(self, "weight", W)

    @property
    def dimension(self) -> int:
        return self.center.size

    def to_dict(self) -> dict:
        norm = "euclidean" if self.weight is None else {"weighted": self.weight.tolist()}
        return {"center": self.center.tolist(), "radius": self.radius, "norm": norm}

    @staticmethod
    def from_dict(d: dict) -> "TargetBall":
        norm = _object(d, "target").get("norm", "euclidean")
        weight = None
        if isinstance(norm, dict):
            weight = _matrix(norm, "weighted")
        elif norm != "euclidean":
            raise ValueError(f"unknown target norm {norm!r}")
        return TargetBall(
            center=_matrix(d, "center"),
            radius=_number(d, "radius"),
            weight=weight,
        )


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox a key derived beforehand (Philox
    asks it for two 64-bit words), so no SeedSequence is built per stream,
    nor one seeded from the OS as Philox(key=k) does."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def trajectory_rngs(base: int, indices) -> list:
    """The stream of trajectory i of base seed ``base`` for every i in
    ``indices`` (integers in [0, 2**64)): Philox with the key that
    ``SeedSequence(base)`` gives it, at 256-bit counter ``[0, 0, i, 0]``.

    That is numpy's ``Philox(SeedSequence(base)).jumped(i)``: one key per
    base seed and one block of 2**128 counters per trajectory, the
    key/counter split of Salmon et al. (SC'11).  The key is derived once
    and handed to every stream through `_PhiloxKey`.
    """
    try:
        idx = np.fromiter(map(operator.index, indices), dtype=np.uint64)
    except OverflowError:
        raise ValueError("trajectory indices must lie in [0, 2**64)") from None
    key = _PhiloxKey(np.random.SeedSequence(base).generate_state(2, np.uint64))
    counters = np.zeros((idx.size, 4), dtype=np.uint64)
    counters[:, 2] = idx
    return [np.random.Generator(np.random.Philox(key, counter=c)) for c in counters]


def tagged_rng(seed: int, tag: int) -> np.random.Generator:
    """The stream of one sampled computation, ``tag`` naming its call site:
    numpy's default generator on child ``tag`` of ``SeedSequence(seed)``,
    as ``SeedSequence.spawn`` numbers its children."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def sample_noise(noise: NoiseModel, base_seed: int, index: int, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. noise vectors from trajectory ``index`` of
    ``base_seed``; shape (count, m).

    Identical arguments reproduce bit-identical output.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return noise.draw(trajectory_rngs(base_seed, [index]), count)[:, 0]


def step_batch(system, X, W) -> np.ndarray:
    """One step of every row of X under the same row of W: the (N, n)
    successors, the one-step form of ``system.advance``.

    Non-finite outputs are returned as-is; callers doing long simulations
    mask them (overflow handling is a per-trajectory policy, not an
    exception).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if X.shape[1] != system.dimension or W.shape[1] != system.noise_dimension or len(X) != len(W):
        raise ValueError(
            f"states of shape {X.shape} and noise of shape {W.shape} do not fit a system "
            f"of dimension {system.dimension} and noise dimension {system.noise_dimension}"
        )
    return system.advance(X, W[None])[0]


def contains(target, X: np.ndarray) -> np.ndarray:
    """Row mask of the (N, n) states X in the target: target(X) for a
    callable, else q < R^2 with q the squared norm of x - center."""
    if callable(target):
        return np.asarray(target(X), dtype=bool)
    if X.shape[1] != target.dimension:
        raise ValueError(f"states have {X.shape[1]} coordinates, the target has {target.dimension}")
    # Subtracting a zero centre is exact, so skipping it changes no bit.
    D = X - target.center if target.center.any() else X
    if target.weight is None:
        sq = np.einsum("ij,ij->i", D, D)
    else:
        sq = quadratic_form(D, target.weight)
    return sq < target.radius**2


# ---------------------------------------------------------------------------
# System description files (JSON)
# ---------------------------------------------------------------------------

def system_to_dict(system, target: TargetBall | None = None) -> dict:
    d = system.to_dict()
    if target is not None:
        d["target"] = target.to_dict()
    return d


def _system_from_dict(d: dict):
    noise = NoiseModel.from_dict(d["noise"])
    if "transition" in d:
        if not isinstance(d["transition"], list):
            raise ValueError(f"transition must be a list of expressions, got {d['transition']!r}")
        return PolynomialSystem(transition_exprs=tuple(d["transition"]), noise=noise)
    if "A" not in d or "B" not in d:
        raise ValueError("system file needs either 'A'/'B' or 'transition'")
    return LinearSystem(A=_matrix(d, "A"), B=_matrix(d, "B"), noise=noise)


def load_system(path):
    """Load (system, target-or-None) from a JSON description file."""
    with open(path) as fh:
        d = _object(json.load(fh), "a system file")
    system = _system_from_dict(d)
    target = TargetBall.from_dict(d["target"]) if "target" in d else None
    return system, target

