"""Independent brute-force verification layer.

Everything in this module re-derives quantities from first principles --
explicit matrices, quadrature over the rotation group, Monte Carlo sampling
of measurement chains -- without going through the closed forms or the block
algebra it is meant to check.  Two oracle families with independent failure
modes: deterministic constructions (quadrature twirls, dense eigensolves)
and statistical simulation of the actual measurement protocol.

It also holds the dense route of the block algebra, which shares only the
block weights with production: every coupling comes from ``coupling_isometry``
and the averaged states of a block are explicit matrices.  Seed problems
given as dense sector costs become the solver's ``sdp.Bands`` through
``dense_seed_problem``, which checks them, and ``dense_seed_sectors`` expands
any problem back to dense costs for the cross-checks.

Basis conventions match the rest of the package: magnetic numbers ascend, so
the qubit basis is (down, up) and a spin coherent state along +z is the last
basis vector.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import blocks as blk
from . import machines, sdp
from .blocks import BlockLabel, BlockOperator, SpectrumParams
from .su2 import HalfInteger, _cg_doubled, check_count, multiplicity

MAX_FULL_QUBITS = 12  # dense full-product-space construction guard
# Largest twirl that finishes in well under a minute: its cost grows about 6x
# per qubit (0.5 / 2.8 / 17.6 s at k = 7 / 8 / 9 on one core), so k = 10 would
# take minutes and k = 12 hours.
MAX_TWIRL_QUBITS = 9
_TWIRL_BYTES = 1 << 22  # size of each stack of rotated operators a twirl holds at once
_GRID = (24, 24)  # (azimuthal, polar) nodes of the group averages built here

# Pauli matrices in the (down, up) basis
PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], complex),
}


@dataclass(frozen=True)
class RandomSource:
    """Pinned pseudo-random stream, numpy's PCG64: identical seed, identical results."""

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


@dataclass
class DenseOperator:
    """Explicit state with its tensor-factor layout: Hermitian with unit trace, within 1e-10."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.matrix.shape != (d, d):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match dims {self.dims}")
        tol = blk.HERMITICITY_TOL
        if np.abs(self.matrix - self.matrix.conj().T).max() > tol:
            raise blk.IntegrityError(f"dense operator is not Hermitian within {tol}")
        if abs(np.trace(self.matrix).real - 1.0) > 1e-10:
            raise blk.IntegrityError("state does not have unit trace")


# ---------------------------------------------------------------------------
# Sampling


def haar_qubit(rng: RandomSource) -> np.ndarray:
    """One uniformly random pure qubit state, as a Bloch unit vector."""
    return _haar_bloch(rng.generator(), 1)[0]


def _haar_bloch(gen: np.random.Generator, size: int) -> np.ndarray:
    v = gen.standard_normal((size, 3))
    x, y, z = v.T  # the Euclidean norm, summed in its order without its slow short-axis reduce
    return v / np.sqrt(x * x + y * y + z * z)[:, None]


def bloch_to_ket(s: np.ndarray) -> np.ndarray:
    """Pure state with Bloch vector s, in the (down, up) basis."""
    sx, sy, sz = np.moveaxis(np.atleast_2d(s), -1, 0)
    ct = np.sqrt(np.clip((1.0 + sz) / 2.0, 0.0, 1.0))  # cos(theta/2)
    st = np.sqrt(np.clip((1.0 - sz) / 2.0, 0.0, 1.0))
    phi = np.arctan2(sy, sx)
    ket = np.stack([st * np.exp(1j * phi), ct.astype(complex)], axis=-1)
    return ket[0] if np.ndim(s) == 1 else ket


def coherent_ket(k: int, qubit: np.ndarray) -> np.ndarray:
    """Amplitudes of (qubit state)^(x k) in the symmetric basis, m ascending."""
    down, up = qubit[..., 0], qubit[..., 1]
    u = np.arange(k + 1)
    w = np.sqrt([math.comb(k, int(i)) for i in u])
    return w * down[..., None] ** (k - u) * up[..., None] ** u


# ---------------------------------------------------------------------------
# Quadrature over rotations


@lru_cache(maxsize=None)
def _sphere_grid(n_azimuth: int, n_polar: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, weight) grid integrating the sphere exactly for low degree."""
    nodes, wts = np.polynomial.legendre.leggauss(n_polar)
    beta = np.arccos(nodes)
    alpha = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    A, B = np.meshgrid(alpha, beta, indexing="ij")
    W = np.tile(wts / (2.0 * n_azimuth), (n_azimuth, 1))
    return A.ravel(), B.ravel(), W.ravel()


def _su2_elements(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Spinor rotations Rz(alpha) Ry(beta), batched, in the (down, up) basis."""
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    ea = np.exp(0.5j * alpha)
    u = np.empty(alpha.shape + (2, 2), complex)
    # Ry(beta) maps up -> cos|up> + sin|down>; phases from Rz act per basis vector
    u[..., 0, 0] = ea * c
    u[..., 0, 1] = ea * s
    u[..., 1, 0] = -np.conj(ea) * s
    u[..., 1, 1] = np.conj(ea) * c
    return u


def twirl_product(k: int, single_qubit_diag: np.ndarray,
                  n_azimuth: int = _GRID[0], n_polar: int = _GRID[1]) -> np.ndarray:
    """Group average of U^(x k) D U^(x k)+ on the full 2^k space, D diagonal.

    Quadrature over (alpha, beta) only: a z-diagonal D makes the third Euler
    angle drop out.  Exact once the grid covers polynomial degree 2k.
    """
    if k > MAX_TWIRL_QUBITS:
        raise ValueError(f"refusing dense {2**k}-dimensional twirl (k={k}); "
                         f"the cap is k = {MAX_TWIRL_QUBITS}")
    alpha, beta, w = _sphere_grid(n_azimuth, n_polar)
    us = _su2_elements(alpha, beta)
    dim = 2 ** k
    out = np.zeros((dim, dim), complex)
    dvec = np.array([1.0])
    for _ in range(k):
        dvec = np.kron(dvec, single_qubit_diag)
    block = max(1, _TWIRL_BYTES // (16 * dim * dim))
    for lo in range(0, len(w), block):
        u = us[lo:lo + block]
        U = np.ones((len(u), 1, 1), complex)
        for _ in range(k):  # batched kron: U <- U (x) u at every grid point of the block
            U = U[:, :, None, :, None] * u[:, None, :, None, :]
            U = U.reshape(len(u), 2 * U.shape[1], -1)
        terms = (w[lo:lo + block, None, None] * (U * dvec)) @ U.conj().transpose(0, 2, 1)
        for term in terms:  # accumulate in grid order
            out += term
    return out


def _coherent_average(*ks: int) -> np.ndarray:
    """Average of [psi^(x k1)] (x) [psi^(x k2)] (x) ... over the sphere, on sym(k1) x sym(k2) ..."""
    alpha, beta, w = _sphere_grid(*_GRID)
    kets = _su2_elements(alpha, beta)[:, :, 1]  # rotated spin-up column
    joint = coherent_ket(ks[0], kets)
    for k in ks[1:]:
        joint = np.einsum("qi,qj->qij", joint, coherent_ket(k, kets)).reshape(len(w), -1)
    return np.einsum("q,qi,qj->ij", w, joint, joint.conj())


def build_average_states(nA: int, nC: int, r: float = 1.0) -> tuple[DenseOperator, DenseOperator]:
    """The two averaged hypothesis states, built by explicit group quadrature.

    Pure sources (r = 1) live on sym(nA) x qubit x sym(nC); mixed sources are
    built on the full qubit product space (layout A..A, B, C..C).  Only the
    definition of the averages is used: no block formulas, no coupling
    coefficients.
    """
    for count in (nA, nC):
        check_count(count, 0, "qubit counts must be non-negative")
    blk.check_purity(r)
    if r == 1.0:
        dims = (nA + 1, 2, nC + 1)  # the qubit B is one copy of psi
        return (DenseOperator(np.kron(_coherent_average(nA, 1), _coherent_average(nC)), dims),
                DenseOperator(np.kron(_coherent_average(nA), _coherent_average(1, nC)), dims))
    total = nA + 1 + nC  # one data qubit B
    if total > MAX_FULL_QUBITS:
        raise ValueError(f"mixed-state construction needs {2**total} dimensions; "
                         f"cap is 2^{MAX_FULL_QUBITS}")
    if max(nA, nC) + 1 > MAX_TWIRL_QUBITS:
        raise ValueError(f"mixed-state construction twirls {max(nA, nC) + 1} qubits; "
                         f"cap is {MAX_TWIRL_QUBITS}")
    pz = np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])
    TA1 = twirl_product(nA + 1, pz)
    TA0 = twirl_product(nA, pz) if nA else np.array([[1.0]], complex)
    TC1 = twirl_product(nC + 1, pz)
    TC0 = twirl_product(nC, pz) if nC else np.array([[1.0]], complex)
    dims = (2,) * total
    return DenseOperator(np.kron(TA1, TC0), dims), DenseOperator(np.kron(TA0, TC1), dims)


# ---------------------------------------------------------------------------
# Dense discrimination and conditioning


def helstrom(state0: DenseOperator | np.ndarray, state1: DenseOperator | np.ndarray) -> float:
    """Minimum discrimination error at equal priors, (1 - || s0 / 2 - s1 / 2 ||_1) / 2."""
    m0 = state0.matrix if isinstance(state0, DenseOperator) else state0
    m1 = state1.matrix if isinstance(state1, DenseOperator) else state1
    diff = 0.5 * m0 - 0.5 * m1
    diff = (diff + diff.conj().T) / 2.0
    return 0.5 * (1.0 - float(np.abs(np.linalg.eigvalsh(diff)).sum()))


def conditioned_training_operator(diff: np.ndarray, dims: tuple[int, ...],
                                  data_axis: int) -> np.ndarray:
    """<up| . |up> on the data qubit: the conditioned training-set operator."""
    k = len(dims)
    t = diff.reshape(dims + dims)
    t = np.moveaxis(t, (data_axis, k + data_axis), (0, 1))
    g = t[1, 1]  # up, up
    rest = int(np.prod(dims)) // dims[data_axis]
    return g.reshape(rest, rest)


def partial_transpose(matrix: np.ndarray, dims: tuple[int, ...], axis: int) -> np.ndarray:
    """Transpose one tensor factor of an operator."""
    k = len(dims)
    t = matrix.reshape(dims + dims)
    t = np.swapaxes(t, axis, k + axis)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def ppt_check(n: int, kernel_weight: float = 0.5) -> float:
    """Minimum eigenvalue of the data-side partial transpose of the optimal
    joint-measurement element, for n pure training qubits per side.

    The element projects onto the positive part of the state difference; its
    action on the kernel of the difference does not affect the error, and the
    canonical minimum-error measurement splits the kernel evenly between the
    two outcomes (``kernel_weight`` = 1/2).  Positivity under partial
    transposition holds for that canonical element; the bare positive-part
    projector (``kernel_weight`` = 0) is *not* positive under transposition,
    so the kernel completion is what carries the property.
    """
    check_count(n)
    s0, s1 = build_average_states(n, n, r=1.0)
    diff = (s0.matrix - s1.matrix)
    diff = (diff + diff.conj().T) / 2.0
    w, V = np.linalg.eigh(diff)
    pos = w > 1e-12
    ker = np.abs(w) <= 1e-12
    E0 = V[:, pos] @ V[:, pos].conj().T + kernel_weight * (V[:, ker] @ V[:, ker].conj().T)
    pt = partial_transpose(E0, s0.dims, axis=1)
    pt = (pt + pt.conj().T) / 2.0
    return float(np.linalg.eigvalsh(pt).min())


# ---------------------------------------------------------------------------
# Dense route of the block algebra: coupling isometries and averaged states


BASIS_ABC_PRODUCT = "abc-product"    # sector index = (2mA, 2mB, 2mC) tuples


@lru_cache(maxsize=None)
def coupling_isometry(tj1: int, tj2: int) -> np.ndarray:
    """Orthogonal map from the product basis of j1 x j2 to the coupled basis.

    Rows are coupled states ordered by (ascending j, ascending m); columns are
    product states ordered by (ascending m1, ascending m2).
    """
    d1, d2 = tj1 + 1, tj2 + 1
    V = np.zeros((d1 * d2, d1 * d2))
    row = 0
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm in range(-tj, tj + 1, 2):
            for i1, tm1 in enumerate(range(-tj1, tj1 + 1, 2)):
                tm2 = tm - tm1
                if abs(tm2) <= tj2:
                    i2 = (tm2 + tj2) // 2
                    V[row, i1 * d2 + i2] = _cg_doubled(tj1, tm1, tj2, tm2, tj, tm)
            row += 1
    V.flags.writeable = False
    return V


def coupled_dense(op: BlockOperator) -> np.ndarray:
    """A coupled-basis block operator as one matrix, rows as in ``coupling_isometry``.

    Row (j, m) follows the 2j' + 1 rows of every j' < j: it is j^2 - (jA - jC)^2 + j + m.
    """
    if op.basis != blk.BASIS_AC_COUPLED:
        raise ValueError(f"expected a coupled-basis operator, got basis {op.basis!r}")
    ta, tc = op.label.jA.twice_value, op.label.jC.twice_value
    out = np.zeros(((ta + 1) * (tc + 1),) * 2)
    for tm, mat in op.iter_sectors():
        rows = [(tj * tj - (ta - tc) ** 2) // 4 + (tj + tm) // 2 for tj in op.index[tm]]
        out[np.ix_(rows, rows)] = mat
    return out


@lru_cache(maxsize=None)
def sym_plus_projector(tj: int) -> np.ndarray:
    """Projector onto total momentum j + 1/2 inside spin-j x qubit (product basis)."""
    V = coupling_isometry(tj, 1)[-(tj + 2):]
    P = V.T @ V
    P.flags.writeable = False
    return P


def _sigma_pair_block(label: BlockLabel, params: SpectrumParams) -> tuple[np.ndarray, np.ndarray]:
    """Dense averaged states (sigma0, sigma1) of one block, on spin(jA) x qubit x spin(jC)."""
    ta, tc = label.jA.twice_value, label.jC.twice_value
    dA, dC = ta + 1, tc + 1
    (aA, _), (aC, _) = blk.side_fractions(ta, params.r), blk.side_fractions(tc, params.r)
    iA, iB, iC = np.eye(dA), np.eye(2), np.eye(dC)

    # sigma0: data qubit correlated with side A
    ab = aA * sym_plus_projector(ta) / (ta + 2) + (1.0 - aA) * np.kron(iA, iB) / (2 * dA)
    s0 = np.kron(ab, iC / dC)
    # sigma1: data qubit correlated with side C; qubit sits left of C in (B, C) order
    plus_bc = sym_plus_projector(tc).reshape(dC, 2, dC, 2).transpose(1, 0, 3, 2)
    plus_bc = plus_bc.reshape(2 * dC, 2 * dC)
    bc = aC * plus_bc / (tc + 2) + (1.0 - aC) * np.kron(iB, iC) / (2 * dC)
    s1 = np.kron(iA / dA, bc)
    return s0, s1


def product_sector_index(label: BlockLabel, tm: int) -> tuple[tuple[int, int, int], ...]:
    """(2mA, 2mB, 2mC) labels, in kron order, of one total-m sector of A x B x C."""
    ta, tc = label.jA.twice_value, label.jC.twice_value
    out = []
    for tma in range(-ta, ta + 1, 2):
        for tmb in (-1, 1):
            tmc = tm - tma - tmb
            if abs(tmc) <= tc:
                out.append((tma, tmb, tmc))
    return tuple(out)


def dense_to_sectors(mat: np.ndarray, label: BlockLabel) -> BlockOperator:
    """Chop a dense operator on spin(jA) x qubit x spin(jC) into total-m sectors."""
    ta, tc = label.jA.twice_value, label.jC.twice_value
    dA, dC = ta + 1, tc + 1
    if mat.shape != (dA * 2 * dC, dA * 2 * dC):
        raise ValueError(f"operator shape {mat.shape} does not match label {label}")

    def flat(lbl):
        tma, tmb, tmc = lbl
        return ((tma + ta) // 2 * 2 + (tmb + 1) // 2) * dC + (tmc + tc) // 2

    sectors, index = {}, {}
    for tm in range(-(ta + tc + 1), ta + tc + 2, 2):
        lbls = product_sector_index(label, tm)
        if not lbls:
            continue
        ix = np.array([flat(l) for l in lbls])
        sectors[tm] = mat[np.ix_(ix, ix)].copy()
        index[tm] = lbls
    return BlockOperator(label=label, basis=BASIS_ABC_PRODUCT, sectors=sectors, index=index)


def average_state_diff_mixed(label: BlockLabel, params: SpectrumParams) -> BlockOperator:
    """sigma0 - sigma1 of one block, per total-m sector in the product basis."""
    ta, tc = label.jA.twice_value, label.jC.twice_value
    if ta > params.n or tc > params.n or (params.n - ta) % 2 or (params.n - tc) % 2:
        raise ValueError(f"label {label} is not admissible for n={params.n}")
    s0, s1 = _sigma_pair_block(label, params)
    return dense_to_sectors(s0 - s1, label)


def average_state_diff_pure(n: int) -> BlockOperator:
    """sigma0 - sigma1 for n pure training qubits per side."""
    n = int(check_count(n, 1, "need at least one training qubit per side, got n={}"))
    label = BlockLabel(HalfInteger(n), HalfInteger(n))
    return average_state_diff_mixed(label, SpectrumParams(n=n, r=1.0))


# ---------------------------------------------------------------------------
# Dense seed problems: the solver's bands from explicit sector costs, and back


def dense_seed_problem(sectors: Sequence[tuple]) -> sdp.Bands:
    """The seed problem of dense sectors (xi, 2m, cost, weight, channels), as ``sdp.Bands``.

    Costs and weights must be finite, and each cost real, symmetric and
    tridiagonal over its distinct doubled channels 2j, whose targets 2j + 1
    must be positive; keys (xi, 2m) must be distinct.  Sectors keep their order; channels are sorted.
    """
    if not sectors:
        raise sdp.InfeasibleError("problem has no blocks")
    seen = set()
    for xi, tm, cost, weight, channels in sectors:
        key = (xi, tm)
        if key in seen:
            raise ValueError(f"duplicate block key {key}")
        seen.add(key)
        if cost.shape != (len(channels),) * 2:
            raise ValueError(f"block {key}: cost shape {cost.shape} != channels")
        if len(set(channels)) != len(channels):
            raise ValueError(f"block {key}: repeated channel")
        if not (np.isfinite(cost).all() and math.isfinite(weight)):
            raise ValueError(f"block {key}: cost or weight is not finite")
        if np.iscomplexobj(cost) and cost.imag.any():
            raise ValueError(f"block {key}: cost is not real")
        if np.abs(cost - cost.conj().T).max() > blk.HERMITICITY_TOL:
            raise ValueError(f"block {key}: cost is not Hermitian")
        i = np.arange(len(channels))
        if cost[np.abs(i[:, None] - i) > 1].any():
            raise ValueError(f"block {key}: cost is not tridiagonal")
        if min(channels) + 1 <= 0:
            raise sdp.InfeasibleError(f"non-positive constraint target for channel {min(channels)}")
    chan_list = sorted({(xi, tj) for xi, _, _, _, channels in sectors for tj in channels})
    chan_pos = {c: i for i, c in enumerate(chan_list)}
    D, count = max(len(channels) for *_, channels in sectors), len(sectors)
    diag, off = np.zeros((D, count)), np.zeros((D - 1, count))
    slot = np.full((D, count), len(chan_list))
    for k, (xi, _, cost, weight, channels) in enumerate(sectors):
        cost, lo = 2.0 * weight * np.real(cost), D - len(channels)
        diag[lo:, k], off[lo:, k] = np.diagonal(cost), np.diagonal(cost, 1)
        slot[lo:, k] = [chan_pos[xi, tj] for tj in channels]
    return sdp.Bands([(xi, tm) for xi, tm, *_ in sectors], chan_list, slot, diag, off)


def dense_seed_sectors(problem: sdp.Bands) -> list[tuple]:
    """(key, channels, 2 w C) of every sector of a problem, each cost a dense matrix."""
    dense, D = blk.tridiagonal(problem.diag, problem.off), len(problem.slot)
    return [(key, tjs, dense[k, D - len(tjs):, D - len(tjs):])
            for k, (key, tjs) in enumerate(problem.layout().items())]


# ---------------------------------------------------------------------------
# Schur reduction of the full product space (for mixed-state cross-checks)


@lru_cache(maxsize=None)
def schur_isometries(k: int) -> dict[int, list[np.ndarray]]:
    """Orthonormal bases of every angular momentum copy inside k qubits.

    Maps doubled momentum 2j to a list (one entry per coupling path) of
    (2^k, 2j+1) isometries with columns ordered by ascending m.  Built by
    coupling one qubit at a time through ``coupling_isometry``.
    """
    check_count(k, 1, "need at least one qubit")
    states = {(1, ()): np.eye(2)}  # doubled j, path -> (2^1, 2) columns m=-j..j
    for step in range(1, k):
        nxt: dict[tuple, np.ndarray] = {}
        for (tj, path), W in states.items():
            V = coupling_isometry(tj, 1)  # rows: tj for j - 1/2, then tj + 2 for j + 1/2
            for tj2, rows in ((tj + 1, V[tj:]), (tj - 1, V[:tj])):
                if tj2 >= 0:
                    nxt[(tj2, path + (tj2,))] = np.kron(W, np.eye(2)) @ rows.T
        states = nxt
    out: dict[int, list[np.ndarray]] = {}
    for (tj, path), W in sorted(states.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        out.setdefault(tj, []).append(W)
    for tj, paths in out.items():
        assert len(paths) == multiplicity(k, HalfInteger(tj))
    return out


# ---------------------------------------------------------------------------
# Learning-machine simulation

_CHUNK = 8_192  # trials whose per-candidate arithmetic is held in memory at once
_QUAD_TILE_BYTES = 1 << 18  # one complex (trials, grid points) array of the quadrature path


def _grid_pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First grid point whose cumulative probability reaches u, row by row; a
    draw above a cumsum that ends an ulp below 1 falls in the last point."""
    return np.minimum((cdf < u).sum(axis=1), cdf.shape[1] - 1)


def _outcome_density(poly: np.ndarray, rot0: Sequence[np.ndarray],
                     rot1: Sequence[np.ndarray]) -> np.ndarray:
    """|<seed| (u+ psi0)^(x n) (x) (u+ psi1)^(x n)>|^2 from the (down, up) parts of u+ psi.

    In the (mA, mC = -mA) sector the coherent amplitudes pair up into the
    polynomial sum_i poly[i] x^(n-i) y^i, with x = down0 up1, y = up0 down1 and
    poly[i] = w_pair[i] C(n, i).
    """
    x = rot0[0] * rot1[1]
    y = rot0[1] * rot1[0]
    ov, y_pow = np.full(x.shape, poly[0], complex), np.ones_like(y)
    for c in poly[1:]:
        y_pow *= y
        ov *= x
        ov += c * y_pow
    return ov.real ** 2 + ov.imag ** 2


@dataclass(frozen=True)
class SimulationResult:
    error_rate: float
    stderr: float


def _up_probability(row0: np.ndarray, row1: np.ndarray, kets: np.ndarray,
                    labels: np.ndarray) -> np.ndarray:
    """|<up| u+ |data>|^2 from the row <up| u+ = (row0, row1) of each trial, whose
    data ket is the hidden ket its label names among (down0, up0, down1, up1)."""
    data = np.where(labels[:, None], kets[:, 2:], kets[:, :2])
    amp = row0 * data[:, 0] + row1 * data[:, 1]
    return amp.real ** 2 + amp.imag ** 2


def simulate_lm(n: int, seed_vector: machines.SeedVector, rng: RandomSource,
                trials: int, discretization: str = "mc",
                pre_rotation: Optional[np.ndarray] = None,
                batch: int = 250_000) -> SimulationResult:
    """Empirical error rate of the two-stage machine over random state pairs.

    Each trial draws hidden states, samples the covariant training
    measurement -- exactly via rejection ("mc") or through a finite grid
    whose resolution of the identity is certified on the fly ("quadrature")
    -- then orients a Stern-Gerlach along the sampled direction and
    classifies.  ``pre_rotation``, a 2x2 unitary, applies a fixed rotation
    to both hidden states (covariance probe).

    Trials run ``batch`` >= 1 at a time.  A batch holds only what a trial
    keeps until its decision: its hidden kets, as (down0, up0, down1, up1),
    its label and the probability p_up of the "up" outcome, set once its
    rotation is chosen.  For "mc" it also holds one rejection round's draws.
    The draws are made a chunk of trials at a time, in the order one
    whole-batch draw would make them, and the rest lives for one chunk;
    the quadrature grid arithmetic runs in tiles of ``_QUAD_TILE_BYTES``.
    """
    if seed_vector.n != n:
        raise ValueError(f"seed is for n={seed_vector.n}, not {n}")
    if not machines.verify_seed(seed_vector):
        raise ValueError("seed fails the completeness condition")
    if discretization not in ("mc", "quadrature"):
        raise ValueError(f"unknown discretization {discretization!r}")
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(batch, numbers.Integral) or batch < 1:
        raise ValueError(f"batch must be an integer of at least one trial, got {batch!r}")
    if pre_rotation is not None:
        pre_rotation = np.asarray(pre_rotation)
        if pre_rotation.shape != (2, 2) or np.abs(
                pre_rotation @ pre_rotation.conj().T - np.eye(2)).max() > 1e-10:
            raise ValueError("pre_rotation must be a 2x2 unitary, U U+ = 1 within 1e-10")
    gen = rng.generator()
    coeffs = seed_vector.coefficients
    # seed overlap in the (mA, mC = -mA) product sector; coupled j runs 0..n
    w_pair = np.array([
        sum(float(coeffs[tj // 2]) * _cg_doubled(n, tma, n, -tma, tj, 0)
            for tj in range(0, 2 * n + 1, 2))
        for tma in range(-n, n + 1, 2)
    ])
    poly = w_pair * np.array([math.comb(n, i) for i in range(n + 1)])
    envelope = float((coeffs ** 2).sum())

    if discretization == "quadrature":
        alpha, beta, wq = _sphere_grid(2 * n + 3, n + 2)
        us_grid = _su2_elements(alpha, beta)
        # psi @ rot_down and psi @ rot_up hold the parts of u+ psi at every grid point
        rot_down, rot_up = us_grid.conj().transpose(2, 1, 0).copy()
        up_rows = us_grid[:, :, 1].conj()  # <up| u+ as a row vector

    errors = 0
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        chunks = [slice(lo, min(lo + _CHUNK, m)) for lo in range(0, m, _CHUNK)]
        kets = np.empty((m, 4), complex)  # down0, up0, down1, up1 of each trial
        for cols in (slice(0, 2), slice(2, 4)):
            for sl in chunks:
                k = bloch_to_ket(_haar_bloch(gen, sl.stop - sl.start))
                kets[sl, cols] = k if pre_rotation is None else k @ pre_rotation.T
        labels = np.empty(m, bool)  # True for label 1
        for sl in chunks:
            labels[sl] = gen.integers(0, 2, size=sl.stop - sl.start)
        p_up = np.empty(m)

        if discretization == "mc":
            todo = np.arange(m)
            while todo.size:
                q = gen.standard_normal((todo.size, 4))
                bound = gen.random(todo.size) * envelope
                acc = np.empty(todo.size, bool)
                for lo in range(0, todo.size, _CHUNK):
                    sl = slice(lo, lo + _CHUNK)
                    q[sl] /= np.sqrt(np.einsum("ij,ij->i", q[sl], q[sl]))[:, None]
                    # u = [[a, b], [-b*, a*]], so u+ psi = (a* down - b up, b* down + a up)
                    a = q[sl, 0] + 1j * q[sl, 1]
                    b = q[sl, 2] + 1j * q[sl, 3]
                    ac, bc = a.conj(), b.conj()
                    k = kets.take(todo[sl], axis=0)
                    d0, u0, d1, u1 = k.T
                    hit = acc[sl] = bound[sl] < _outcome_density(
                        poly, (ac * d0 - b * u0, bc * d0 + a * u0),
                        (ac * d1 - b * u1, bc * d1 + a * u1))
                    # <up| u+ = (b*, a) for each accepted rotation
                    won = todo[sl][hit]
                    p_up[won] = _up_probability(bc[hit], a[hit], k[hit], labels[won])
                todo = todo[~acc]
                del q, bound  # free this round's draws before the next round makes its own
        else:
            tile = max(1, _QUAD_TILE_BYTES // (16 * len(wq)))  # trials of one complex tile
            for sl in chunks:
                draws = gen.random((sl.stop - sl.start, 1))
                for lo in range(0, len(draws), tile):
                    at = slice(sl.start + lo, min(sl.start + lo + tile, sl.stop))
                    k = kets[at]
                    rot0, rot1 = ((kk @ rot_down, kk @ rot_up) for kk in (k[:, :2], k[:, 2:]))
                    p = wq * _outcome_density(poly, rot0, rot1)
                    psum = p.sum(axis=1)
                    # total outcome probability 1 certifies the discretized resolution
                    if np.abs(psum - 1.0).max() > 1e-8:
                        raise blk.IntegrityError(
                            "quadrature grid does not resolve the identity on the training pair")
                    p /= psum[:, None]
                    up = up_rows[_grid_pick(p.cumsum(axis=1), draws[lo:lo + tile])]
                    p_up[at] = _up_probability(up[:, 0], up[:, 1], k, labels[at])

        # an "up" outcome guesses label 0, so a trial errs where it equals its label
        errors += int(np.count_nonzero((gen.random(m) < p_up) == labels))
        done += m

    rate = errors / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-30) / trials)
    return SimulationResult(error_rate=rate, stderr=stderr)


# ---------------------------------------------------------------------------
# Estimate-and-discriminate evaluation


_ED_ROWS = 512  # outcomes of M whose separations from every outcome of M' are held at once
_ED_TILE_BYTES = 1 << 18  # separations filled in one pass, sized to stay in a core's L2 cache


@dataclass(frozen=True)
class EdResult:
    bias: float                 # the discrimination bias of the machine
    error_probability: float
    optimal_estimation: bool    # every element proportional to a coherent projector


def coherent_povm(n: int, directions: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Covariant-style elements c [psi_s^(x n)] for unit vectors s, stacked (K, n + 1, n + 1)."""
    directions = np.atleast_2d(np.asarray(directions, float))
    K = len(directions)
    if weights is None:
        weights = np.full(K, (n + 1) / K)
    elif np.shape(weights) != (K,):
        raise ValueError(f"need one weight per direction, got {np.shape(weights)} for {K}")
    amps = coherent_ket(n, bloch_to_ket(directions))
    return np.asarray(weights)[:, None, None] * (amps[:, :, None] * amps[:, None, :].conj())


def continuous_ed_povm(n: int, n_azimuth: int = 100, n_polar: int = 100) -> np.ndarray:
    """Quadrature stand-in for the continuous optimal-estimation measurement."""
    alpha, beta, w = _sphere_grid(n_azimuth, n_polar)
    s = np.stack([np.sin(beta) * np.cos(alpha), np.sin(beta) * np.sin(alpha),
                  np.cos(beta)], axis=1)
    return coherent_povm(n, s, weights=w * (n + 1))


def _conditioned_bloch(povm: Sequence[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, conditional data-qubit Bloch vectors) for one side."""
    d = n + 1
    P = sym_plus_projector(n).reshape(d, 2, d, 2)
    Ms = np.asarray(povm, complex)
    probs = np.einsum("kaa->k", Ms).real / d
    rhos = np.einsum("aibj,kba->kij", P, Ms) / (d + 1) / probs[:, None, None]
    sigma = np.stack([PAULI[a] for a in "xyz"])
    blochs = np.einsum("kij,xji->kx", rhos, sigma).real
    return probs, blochs


def ed_error_finite(povm_M: Sequence[np.ndarray], povm_Mprime: Sequence[np.ndarray],
                    n: int, completeness_tol: float = 1e-8) -> EdResult:
    """Error of an estimate-and-discriminate machine with the given POVMs.

    Both POVMs act on the n-qubit symmetric subspace of their training side,
    given as a list of elements or one (K, n + 1, n + 1) stack.  The data
    qubit conditioned on a pair of outcomes is discriminated optimally; the
    machine bias is the outcome-averaged Bloch separation.
    """
    if not (math.isfinite(completeness_tol) and completeness_tol >= 0):
        raise ValueError(f"completeness_tol must be finite and >= 0, got {completeness_tol}")
    d = n + 1
    stacks = []
    for name, povm in (("M", povm_M), ("M'", povm_Mprime)):
        Ms = np.asarray(povm, complex)
        if Ms.ndim != 3 or Ms.shape[1:] != (d, d):
            raise ValueError(f"{name}: elements must be {d} x {d}")
        residual = np.abs(Ms.sum(axis=0) - np.eye(d)).max()
        if residual > completeness_tol:
            raise ValueError(f"{name}: does not resolve the identity on the "
                             f"symmetric subspace (residual {residual:.2e})")
        stacks.append(Ms)
    (p0, r0), (p1, r1) = (_conditioned_bloch(Ms, n) for Ms in stacks)
    bias = 0.0
    sep = np.empty((min(len(p0), _ED_ROWS), len(p1)))
    tile = max(1, _ED_TILE_BYTES // (sep.itemsize * max(len(p1), 1)))  # rows of one tile
    dx = np.empty((tile, len(p1)))
    for lo in range(0, len(p0), _ED_ROWS):  # pairwise separations, a block of rows at a time
        r, block = r0[lo:lo + _ED_ROWS], sep[:len(p0) - lo]
        for i in range(0, len(block), tile):  # filled a tile of rows at a time
            rows, out = r[i:i + tile], block[i:i + tile]
            np.subtract.outer(rows[:, 0], r1[:, 0], out=out)
            out *= out
            for x in (1, 2):  # summed x, y, z in turn, as the Euclidean norm does
                d = np.subtract.outer(rows[:, x], r1[:, x], out=dx[:len(out)])
                d *= d
                out += d
            np.sqrt(out, out=out)
        bias += float(p0[lo:lo + _ED_ROWS] @ block @ p1)
    error = 0.5 * (1.0 - bias / 2.0)

    coherent = True
    for Ms in stacks:
        traces = np.einsum("kaa->k", Ms).real
        top = np.linalg.eigvalsh(Ms / traces[:, None, None])[:, -1]
        coherent &= not (top < 1.0 - 1e-8).any()
    return EdResult(bias=bias, error_probability=error, optimal_estimation=coherent)
