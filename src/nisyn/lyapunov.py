"""Lyapunov stability classification and quadratic storage certificates.

classify_stability() sorts a real matrix into Hurwitz / marginally stable /
unstable, deciding semisimplicity of imaginary-axis eigenvalues through the
numerical rank of A - lambda*I rather than a Jordan form.
lyapunov_certificate() then constructs P > 0 with A^T P + P A <= 0 from
numpy alone, through Newton's iteration for the matrix sign function and,
for a marginally stable A, the complex eigenvectors of its critical block,
and verifies it post hoc by direct multiplication.
sampled_positive_definite() checks f(0) = 0 and f > 0 on seeded uniform
points of a box, one random stream per coordinate, streamed in fixed-size
blocks by _uniform_chunks() so that no array of the sample count's size is
held.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Classification", "CriticalEigenvalue", "StabilityVerdict",
    "StabilityError", "ConditioningError", "CertificateError",
    "default_tolerance", "classify_stability", "lyapunov_certificate",
    "SamplingResult", "sampled_positive_definite",
]

# residual bound for A^T P + P A, relative to ||P||
_CERT_RESIDUAL_RTOL = 1e-8
_MAX_CONDITION = 1e10
# Newton steps after which the sign iteration counts as not converging
_SIGN_MAX_STEPS = 100


class StabilityError(Exception):
    pass


class ConditioningError(StabilityError):
    pass


class CertificateError(StabilityError):
    pass


class Classification(enum.Enum):
    HURWITZ = "Hurwitz"
    MARGINALLY_STABLE = "MarginallyStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class CriticalEigenvalue:
    """An eigenvalue on (or numerically on) the imaginary axis."""
    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int


@dataclass(frozen=True)
class StabilityVerdict:
    classification: Classification
    eigenvalues: tuple
    critical: tuple
    det_nonzero: bool
    tol: float

    @property
    def lyapunov_stable(self) -> bool:
        return self.classification is not Classification.UNSTABLE


def default_tolerance(a: np.ndarray) -> float:
    return 1e-9 * np.linalg.norm(a, "fro")


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def classify_stability(a, tol: Optional[float] = None) -> StabilityVerdict:
    """Classify the spectrum of ``a`` relative to the closed left half-plane.

    Real parts greater than ``tol`` mean unstable; all real parts below
    ``-tol`` mean Hurwitz; otherwise every near-axis eigenvalue must be
    semisimple for a marginally stable verdict.
    """
    a = _as_square(a)
    if tol is None:
        tol = default_tolerance(a)
    if tol <= 0 and np.any(a):
        raise ValueError("tol must be positive")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise StabilityError(f"eigenvalue solver failed: {err}") from err
    norm2 = np.linalg.norm(a, 2)
    det_nonzero = bool(np.all(np.abs(eigs) > tol))

    re = eigs.real
    critical_idx = np.where(np.abs(re) <= tol)[0]
    if np.any(re > tol):
        classification = Classification.UNSTABLE
        critical = _critical_multiplicities(a, eigs, critical_idx, tol, norm2)
    elif critical_idx.size == 0:
        classification = Classification.HURWITZ
        critical = ()
    else:
        critical = _critical_multiplicities(a, eigs, critical_idx, tol, norm2)
        # geometric >= algebraic guards against a numerically split cluster
        # of a repeated semisimple eigenvalue; defective blocks give geo < alg
        semisimple = all(c.geometric_multiplicity >= c.algebraic_multiplicity
                         for c in critical)
        classification = (Classification.MARGINALLY_STABLE if semisimple
                          else Classification.UNSTABLE)
    return StabilityVerdict(
        classification=classification,
        eigenvalues=tuple(complex(v) for v in eigs),
        critical=critical,
        det_nonzero=det_nonzero,
        tol=float(tol),
    )


def _critical_multiplicities(a, eigs, idx, tol, norm2):
    if idx.size == 0:
        return ()
    values = eigs[idx]
    # a defective 2x2 block splits its eigenvalue pair by ~sqrt(eps)*||A||,
    # possibly along the imaginary axis; the cluster radius must cover that
    radius = max(tol, 10 * np.sqrt(np.finfo(float).eps) * max(norm2, 1.0))
    order = np.argsort(values.imag, kind="stable")
    clusters = []
    for i in order:
        lam = values[i]
        if clusters and abs(lam - clusters[-1][-1]) <= radius:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    out = []
    n = a.shape[0]
    for cluster in clusters:
        mu = np.mean(cluster)
        spread = max(abs(lam - mu) for lam in cluster)
        # rank tolerance grows with the observed spread so that a split
        # repeated eigenvalue still counts its whole eigenspace
        rank_tol = max(tol * max(norm2, 1.0), 2.0 * spread)
        sigma = np.linalg.svd(a - mu * np.eye(n), compute_uv=False)
        rank = int(np.sum(sigma > rank_tol))
        out.append(CriticalEigenvalue(
            value=complex(mu),
            algebraic_multiplicity=len(cluster),
            geometric_multiplicity=n - rank,
        ))
    return tuple(out)


def lyapunov_certificate(a, verdict: StabilityVerdict) -> np.ndarray:
    """Construct symmetric P > 0 with A^T P + P A <= 0.

    Hurwitz: solve A^T P + P A = -I by Roberts' identity, sign([[A^T, I],
    [0, -A]]) = [[-I, 2P], [0, I]].  Marginally stable: the sign of A - cI,
    c halfway between the stable and the critical real parts, gives the
    projector onto the stable subspace; T holds a basis of that subspace
    and the complex eigenvectors of the critical block, lifted along it,
    and P = Re(T^-H diag(P_h, I) T^-1) with P_h the Roberts solve on the
    stable block.  For a repeated critical eigenvalue P depends on the
    eigenspace basis that eig returns.  The sign function is a Newton
    iteration (_sign) that raises ConditioningError if it has not converged
    in _SIGN_MAX_STEPS steps.  The result is always verified by direct
    multiplication.
    """
    a = _as_square(a)
    if verdict.classification is Classification.UNSTABLE:
        raise StabilityError("no Lyapunov certificate exists for an unstable matrix")
    if verdict.classification is Classification.HURWITZ:
        p = _lyapunov_solve(a)
    else:
        p = _marginal_certificate(a, verdict)
    _verify_certificate(a, p)
    return p


def _sign(z):
    """The matrix sign function of z, which has no imaginary-axis eigenvalue.

    Newton's iteration Z <- (cZ + (cZ)^-1)/2 converges quadratically to it;
    the determinant scaling c = |det Z|^(-1/n) cuts the steps spent far from
    convergence and is dropped once a step changes Z by under 1% (Higham,
    Functions of Matrices, ch. 5).  The iteration stops when a step changes
    Z by at most 10*n*eps*||Z||_1, or when an unscaled step changes it no
    less than the step before it: rounding, which grows with the departure
    of Z from normality, then bounds what a further step can gain.
    ConditioningError if neither happens within _SIGN_MAX_STEPS steps.
    """
    n = z.shape[0]
    tol = 10 * n * np.finfo(float).eps
    scaled, previous = True, np.inf
    for _ in range(_SIGN_MAX_STEPS):
        try:
            c = math.exp(-np.linalg.slogdet(z)[1] / n) if scaled else 1.0
            step = 0.5 * (c * z + np.linalg.inv(z) / c)
        except (OverflowError, np.linalg.LinAlgError) as err:
            raise ConditioningError(f"sign iteration failed: {err}") from None
        change = np.linalg.norm(step - z, 1)
        size = np.linalg.norm(step, 1)
        z = step
        if change <= tol * size or (not scaled and change >= previous):
            return z
        scaled, previous = change > 1e-2 * size, change
    raise ConditioningError(
        f"sign iteration did not converge in {_SIGN_MAX_STEPS} steps")


def _lyapunov_solve(a):
    """P with A^T P + P A = -I for a Hurwitz A: half the upper-right block
    of sign([[A^T, I], [0, -A]]) (Roberts' identity), symmetrized."""
    n = a.shape[0]
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n], h[:n, n:], h[n:, n:] = a.T, np.eye(n), -a
    p = 0.5 * _sign(h)[:n, n:]
    return 0.5 * (p + p.T)


def _marginal_certificate(a, verdict):
    """P = Re(X^H diag(P_h, I) X), X = T^-1, for a marginally stable A.
    The first columns of T are an orthonormal basis Q_s of the stable
    subspace, the others the complex eigenvectors of Q_c^T A Q_c, lifted
    from the orthonormal complement Q_c along the stable subspace.  In
    these coordinates A is diag(A_h, Lambda) with Lambda imaginary, so the
    critical block adds Re(Lambda + Lambda^H) = 0 to A^T P + P A.  P does
    not depend on the choice of Q_s and Q_c; for a repeated critical
    eigenvalue it depends on the eigenspace basis that eig returns."""
    n, tol = a.shape[0], verdict.tol
    re = np.array([lam.real for lam in verdict.eigenvalues])
    stable = re < -tol
    s = int(stable.sum())
    proj = np.zeros((n, n))  # the spectral projector onto the stable subspace
    if s:
        # sign(A - cI), c halfway between the stable and critical real parts
        c = 0.5 * (re[stable].max() + re[~stable].min())
        proj = 0.5 * (np.eye(n) - _sign(a - c * np.eye(n)))
    u = np.linalg.svd(proj)[0]
    q_s, q_c = u[:, :s], u[:, s:]
    lifted = q_c - proj @ q_c
    t_full = np.hstack([q_s, lifted @ np.linalg.eig(q_c.T @ a @ q_c)[1]])
    cond = np.linalg.cond(t_full)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ConditioningError(
            f"block-diagonalizing transform is ill-conditioned (cond={cond:.3e})")
    d = np.eye(n)
    if s:
        d[:s, :s] = _lyapunov_solve(q_s.T @ a @ q_s)
    x = np.linalg.solve(t_full, np.eye(n))
    p = (x.conj().T @ d @ x).real
    return 0.5 * (p + p.T)


def _verify_certificate(a, p):
    lam_min = np.linalg.eigvalsh(p).min()
    g = a.T @ p + p @ a
    lam_max = np.linalg.eigvalsh(0.5 * (g + g.T)).max()
    bound = _CERT_RESIDUAL_RTOL * np.linalg.norm(p, 2)
    if lam_min <= 0:
        raise CertificateError(f"certificate is not positive definite "
                               f"(min eigenvalue {lam_min:.3e})")
    if lam_max > bound:
        raise CertificateError(f"Lyapunov inequality residual {lam_max:.3e} "
                               f"exceeds bound {bound:.3e}")


# --- sampled positive definiteness ------------------------------------------

@dataclass(frozen=True)
class SamplingResult:
    """Outcome of a positive-definiteness sampling pass over a box.

    A pass certifies positivity on the sampled box only; it is not a proof.
    """
    passed: bool
    points_checked: int
    witness: Optional[tuple] = None
    witness_value: Optional[float] = None


# the most points that one block of _uniform_chunks holds, so the most that
# sampled_positive_definite passes f at once
_CHUNK = 16384


def _uniform_chunks(d: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """``samples`` uniform points in [0, 1)^d as (d, <= _CHUNK) blocks of
    coordinate rows: block k holds the points [k * _CHUNK, (k + 1) * _CHUNK).
    Joined, row j of the blocks is ``default_rng([seed, j]).random(samples)``,
    one independent stream per dimension, so the first d rows of a draw in
    more dimensions are this draw, bit for bit.

    The streams are seeded here, when the function is called, so a negative
    seed or sample count is a ValueError before any block is made; each
    block is filled when the iterator reaches it (see _blocks).
    """
    if samples < 0 or seed < 0:
        raise ValueError(f"samples and seed must be nonnegative, "
                         f"got {samples} and {seed}")
    return _blocks([np.random.default_rng([seed, j]) for j in range(d)], samples)


def _blocks(streams: list, samples: int) -> Iterator[np.ndarray]:
    """The blocks of _uniform_chunks.  Every full block is made in one
    buffer, which the next block overwrites; the last partial block gets
    its own, so each block is C-contiguous."""
    out = np.empty((len(streams), min(_CHUNK, samples)))
    for start in range(0, samples, _CHUNK):
        if samples - start < out.shape[1]:
            out = np.empty((len(streams), samples - start))
        for row, stream in zip(out, streams):
            stream.random(out=row)
        yield out


def sampled_positive_definite(f: Callable[[np.ndarray], np.ndarray],
                              box: Sequence[Sequence[float]],
                              samples: int,
                              seed: int) -> SamplingResult:
    """Check f(0) = 0 and f(x) > 0 on random samples of the box.

    The box must contain 0 strictly inside.  Besides ``samples`` uniform
    points from ``_uniform_chunks``, mapped onto the box as ``lo + u *
    (hi - lo)``, 2n axis points at distance 1e-6 from the origin are tested
    to catch functions that vanish along a coordinate direction.  ``f`` maps
    an (N, n) stack of points to N values.  It is called first on the
    origin and the axis points, then on each block of at most _CHUNK sampled
    points, and checking stops at the first point that fails; no array of
    the sample count's size is held.  Each stack is the transpose view of
    an (n, N) array, whose coordinate rows are each contiguous.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must be a sequence of (lo, hi) pairs")
    lo, hi = box[:, 0], box[:, 1]
    if not np.all((lo < 0) & (hi > 0)):
        raise ValueError("box must contain the origin strictly inside")
    n = box.shape[0]
    chunks = _uniform_chunks(n, int(samples), seed)

    points = np.zeros((n, 1 + 2 * n))
    points[:, 1:] = 1e-6 * np.hstack([np.eye(n), -np.eye(n)])
    values = _values(f, points)
    f0 = float(values[0])
    if not -1e-12 <= f0 <= 1e-12:
        return SamplingResult(False, 1, (0.0,) * n, f0)

    def blocks():
        yield points[:, 1:], values[1:]
        span, shift = (hi - lo)[:, None], lo[:, None]
        for drawn in chunks:
            drawn *= span
            drawn += shift
            yield drawn, _values(f, drawn)

    checked = 1
    for block, vals in blocks():
        nonzero = np.any(block, axis=0)  # false at the origin, already checked
        bad = np.flatnonzero(nonzero & ~(vals > 0.0))
        if bad.size:
            i = bad[0]
            return SamplingResult(False, checked + int(nonzero[:i + 1].sum()),
                                  tuple(float(v) for v in block[:, i]),
                                  float(vals[i]))
        checked += int(nonzero.sum())
    return SamplingResult(True, checked)


def _values(f, points: np.ndarray) -> np.ndarray:
    """f on the (n, N) coordinate rows ``points``, checked to give N values."""
    values = np.asarray(f(points.T), dtype=float)
    if values.shape != (points.shape[1],):
        raise ValueError(f"f gave shape {values.shape}, not one value per point")
    return values
