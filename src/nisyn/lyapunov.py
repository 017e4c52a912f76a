"""Lyapunov stability classification and quadratic storage certificates.

classify_stability() sorts a real matrix into Hurwitz / marginally stable /
unstable, deciding semisimplicity of imaginary-axis eigenvalues through the
numerical rank of A - lambda*I rather than a Jordan form.
lyapunov_certificate() then constructs P > 0 with A^T P + P A <= 0 from
numpy alone, through Newton's iteration for the matrix sign function, and
verifies it post hoc by direct multiplication.
sampled_positive_definite() checks f(0) = 0 and f > 0 on scrambled Halton
points of a box, streamed in fixed-size blocks by _halton_chunks(), a numpy
copy of scipy's sampler, so that no array of the sample count's size is held.
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
    projector onto the stable subspace; the critical subspace, lifted along
    it, is brought to skew-symmetric form, and P = T^-T diag(P_h, I) T^-1
    with P_h the Roberts solve on the stable block.  The sign function is
    a Newton iteration (_sign) that raises ConditioningError if it has not
    converged in _SIGN_MAX_STEPS steps.  The result is always verified by
    direct multiplication.
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
    """P = T^-T diag(P_h, I) T^-1 for a marginally stable A.  The first
    columns of T are an orthonormal basis Q_s of the stable subspace, the
    others a basis of the critical subspace in which A is skew-symmetric,
    lifted from the orthonormal complement Q_c along the stable subspace.
    P does not depend on the choice of Q_s and Q_c."""
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
    t_full = np.hstack([q_s, lifted @ _skew_basis(q_c.T @ a @ q_c, tol)])
    cond = np.linalg.cond(t_full)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ConditioningError(
            f"block-diagonalizing transform is ill-conditioned (cond={cond:.3e})")
    d = np.eye(n)
    if s:
        d[:s, :s] = _lyapunov_solve(q_s.T @ a @ q_s)
    x = np.linalg.solve(t_full, np.eye(n))
    p = x.T @ d @ x
    return 0.5 * (p + p.T)


def _skew_basis(t22, tol):
    """Real basis of the critical block in which it becomes skew-symmetric.

    Complex conjugate eigenvector pairs span invariant planes; a phase
    rotation orthogonalizes each pair for conditioning without disturbing
    the skew form of the restriction.
    """
    n2 = t22.shape[0]
    if n2 == 0:
        return np.zeros((0, 0))
    w, v = np.linalg.eig(t22)
    im_tol = max(tol, 100 * np.finfo(float).eps * max(np.linalg.norm(t22, 2), 1.0))
    used = np.zeros(n2, dtype=bool)
    cols = []
    for i in range(n2):
        if used[i]:
            continue
        lam = w[i]
        if abs(lam.imag) <= im_tol:
            used[i] = True
            vr = v[:, i].real
            nr = np.linalg.norm(vr)
            if nr == 0:
                raise ConditioningError("degenerate real eigenvector in critical block")
            cols.append(vr / nr)
        elif lam.imag > 0:
            used[i] = True
            partner = None
            best = np.inf
            for j in range(n2):
                if not used[j]:
                    d = abs(np.conj(lam) - w[j])
                    if d < best:
                        best, partner = d, j
            if partner is None:
                raise ConditioningError("could not pair complex eigenvalues")
            used[partner] = True
            vec = v[:, i]
            vr, vi = vec.real, vec.imag
            theta = 0.5 * np.arctan2(2 * (vr @ vi), (vi @ vi) - (vr @ vr))
            vec = np.exp(1j * theta) * vec
            vr, vi = vec.real, vec.imag
            scale = max(np.linalg.norm(vr), np.linalg.norm(vi))
            if scale == 0:
                raise ConditioningError("degenerate complex eigenvector in critical block")
            cols.append(vr / scale)
            cols.append(vi / scale)
    if len(cols) != n2:
        raise ConditioningError("critical block is not semisimple enough to pair")
    return np.column_stack(cols)


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


def _primes(count: int) -> list:
    """The first ``count`` primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


# the longest table of low-digit sums that _halton_chunks builds per dimension
_HALTON_TABLE = 4096
# the most points that one block of _halton_chunks holds, so the most that
# sampled_positive_definite passes f at once
_CHUNK = 16384


def _halton_chunks(d: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The first ``samples`` points of the Owen-scrambled Halton sequence in
    [0, 1)^d, as (d, <= _CHUNK) blocks of coordinate rows: block k holds the
    points [k * _CHUNK, (k + 1) * _CHUNK).  Joined and transposed, the
    blocks are bit for bit ``scipy.stats.qmc.Halton(d=d,
    seed=seed).random(samples)`` (the tests check this against scipy).

    Dimension i uses the i-th prime b as base.  One ``default_rng(seed)``
    shuffles, dimension after dimension, ``ceil(54 / log2 b) - 1`` copies of
    ``arange(b)``, one per digit position j; ``terms[j]`` is that
    permutation times b^-(j+1).  Point i is the sum over j of ``terms[j]``
    at digit j of i, added from the lowest digit up as scipy's loop adds
    it, and a position past every index's last digit adds ``terms[j][0]``.
    Since the dimensions draw from the generator in order, the first d rows
    of a draw in more dimensions are this draw, bit for bit.

    The scrambles are drawn here, when the function is called, so a
    negative seed or sample count is a ValueError before any block is made;
    each block is made when the iterator reaches it (see _fill).
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rng = np.random.default_rng(seed)
    dims = [_scramble(rng, base, samples) for base in _primes(d)]
    return _blocks(dims, samples)


def _scramble(rng, base: int, samples: int):
    """One dimension's scramble for ``samples`` points: the table of its
    low-digit sums, the (block length, value of each block) of each higher
    digit that varies among the points, in order, and the nonzero terms of
    the digits past every point's last one (adding a zero to the sum of
    nonnegative terms changes no bit)."""
    count = math.ceil(54 / math.log2(base)) - 1
    # rows shuffled in order, as scipy shuffles one copy per digit
    perms = rng.permuted(np.repeat(np.arange(base)[None], count, axis=0), axis=1)
    scales = [1.0 / base]
    for _ in range(count - 1):
        scales.append(scales[-1] / base)
    terms = perms * np.array(scales)[:, None]
    digits = 1
    while base ** digits < samples:
        digits += 1
    table = np.zeros(1)
    low = 0
    while low < digits and table.size * base <= _HALTON_TABLE:
        table = (table + terms[low][:, None]).ravel()  # digit low outermost
        low += 1
    varying = [(base ** j, terms[j][np.arange(-(-samples // base ** j)) % base])
               for j in range(low, min(digits, count))]
    constants = [float(c) for c in terms[digits:, 0] if c]
    return table, varying, constants


def _blocks(dims: list, samples: int) -> Iterator[np.ndarray]:
    """The blocks of _halton_chunks.  Every full block is made in one
    buffer, which the next block overwrites; the last partial block gets
    its own, so each block is C-contiguous."""
    out = np.empty((len(dims), min(_CHUNK, samples)))
    for start in range(0, samples, _CHUNK):
        if samples - start < out.shape[1]:
            out = np.empty((len(dims), samples - start))
        for row, dim in zip(out, dims):
            _fill(row, start, *dim)
        yield out


def _fill(row: np.ndarray, start: int, table: np.ndarray, varying: list,
          constants: list) -> None:
    """Fill ``row`` with one dimension's points from index ``start`` on, by
    scipy's additions in scipy's order, and compute no digit: digit j of i
    is (i // b^j) mod b, so its term is constant over blocks of b^j
    indices.  The low digits' sums repeat with the table's period and are
    copied in period by period (0 + x is x for x >= 0); each higher digit
    adds one value per block through a (blocks, b^j) view of the row, plus
    a partial block at each end, and each constant is added to the whole
    row."""
    head, body, tail = _periods(row, start, table.size)
    offset = start % table.size
    head[...] = table[offset:offset + head.size]
    body[...] = table
    tail[...] = table[:tail.size]
    for period, values in varying:
        head, body, tail = _periods(row, start, period)
        k = start // period  # the block of the row's first point
        if head.size:
            head += values[k]
            k += 1
        body += values[k:k + len(body), None]
        if tail.size:
            tail += values[k + len(body)]
    for c in constants:
        row += c


def _periods(row: np.ndarray, start: int, period: int):
    """``row``, which holds the points from index ``start`` on, as the part
    before the first multiple of ``period``, a (full periods, period) view
    of the part after it, and the partial period left at the end."""
    lead = min(-start % period, row.size)
    full = (row.size - lead) // period
    stop = lead + full * period
    return row[:lead], row[lead:stop].reshape(full, period), row[stop:]


def sampled_positive_definite(f: Callable[[np.ndarray], np.ndarray],
                              box: Sequence[Sequence[float]],
                              samples: int,
                              seed: int) -> SamplingResult:
    """Check f(0) = 0 and f(x) > 0 on quasi-random samples of the box.

    The box must contain 0 strictly inside.  Besides ``samples`` scrambled
    Halton points from ``_halton_chunks``, mapped onto the box as ``lo + u *
    (hi - lo)``, 2n axis points at distance 1e-6 from the origin are tested
    to catch functions that vanish along a coordinate direction.  ``f`` maps
    an (N, n) stack of points to N values.  It is called first on the
    origin and the axis points, then on each block of at most _CHUNK Halton
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
    chunks = _halton_chunks(n, int(samples), seed)

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
