"""Lyapunov stability classification and quadratic storage certificates.

classify_stability() sorts a real matrix into Hurwitz / marginally stable /
unstable, deciding semisimplicity of imaginary-axis eigenvalues through the
numerical rank of A - lambda*I rather than a Jordan form.
lyapunov_certificate() then constructs P > 0 with A^T P + P A <= 0 and
verifies it post hoc by direct multiplication; it is the only user of
scipy.linalg, which it imports when called, so a scenario that gives its
own P never loads scipy.
sampled_positive_definite() checks f(0) = 0 and f > 0 on scrambled Halton
points of a box, drawn by _halton(), a numpy copy of scipy's sampler.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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

    Hurwitz: solve A^T P + P A = -I.  Marginally stable: block-diagonalize
    into a Hurwitz part and a semisimple imaginary-axis part brought to
    skew-symmetric form, then assemble P = T^-T diag(P_h, I) T^-1.
    The result is always verified by direct multiplication.
    """
    import scipy.linalg as sla

    a = _as_square(a)
    if verdict.classification is Classification.UNSTABLE:
        raise StabilityError("no Lyapunov certificate exists for an unstable matrix")
    if verdict.classification is Classification.HURWITZ:
        p = sla.solve_continuous_lyapunov(a.T, -np.eye(a.shape[0]))
        p = 0.5 * (p + p.T)
    else:
        p = _marginal_certificate(a, verdict.tol)
    _verify_certificate(a, p)
    return p


def _marginal_certificate(a, tol):
    import scipy.linalg as sla

    n = a.shape[0]
    t, q, sdim = sla.schur(a, output="real", sort=lambda re, im: re < -tol)
    s = int(sdim)
    t11, t12, t22 = t[:s, :s], t[:s, s:], t[s:, s:]
    basis = q.copy()
    if s and t22.size:
        # decouple the stable and critical blocks: T11 R - R T22 = -T12
        r = sla.solve_sylvester(t11, -t22, -t12)
        m = np.eye(n)
        m[:s, s:] = r
        basis = q @ m
    sk = _skew_basis(t22, tol)
    t_full = basis.copy()
    t_full[:, s:] = basis[:, s:] @ sk
    cond = np.linalg.cond(t_full)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ConditioningError(
            f"block-diagonalizing transform is ill-conditioned (cond={cond:.3e})")
    d = np.eye(n)
    if s:
        d[:s, :s] = sla.solve_continuous_lyapunov(t11.T, -np.eye(s))
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


# the longest table of low-digit sums that _halton builds per dimension
_HALTON_TABLE = 4096


def _halton(d: int, samples: int, seed: int) -> np.ndarray:
    """The first ``samples`` points of the Owen-scrambled Halton sequence in
    [0, 1)^d, bit for bit those of ``scipy.stats.qmc.Halton(d=d,
    seed=seed).random(samples)`` (the tests check this against scipy).

    Dimension i uses the i-th prime b as base.  One ``default_rng(seed)``
    shuffles, dimension after dimension, ``ceil(54 / log2 b) - 1`` copies of
    ``arange(b)``, one per digit position j; ``terms[j]`` is that
    permutation times b^-(j+1).  Point i is the sum over j of ``terms[j]``
    at digit j of i, added from the lowest digit up as scipy's loop adds
    it, and a position past every index's last digit adds ``terms[j][0]``.

    No digit is computed: digit j of i is (i // b^j) mod b, so its term is
    constant over blocks of b^j indices.  The low digits, while b^k <=
    _HALTON_TABLE, are summed once over a period of b^k indices, each digit
    onto the sums below it, and this table is added period by period into
    the row of zeros.  Each higher digit adds one value per block through a
    (blocks, b^j) view of the row.  Each point so gets scipy's additions in
    scipy's order, and nothing of size ``samples`` is allocated besides the
    output.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((d, samples))
    for row, base in zip(out, _primes(d)):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
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
            table = np.tile(table, base) + np.repeat(terms[low], table.size)
            low += 1
        head, tail = _periods(row, table.size)
        head += table
        tail += table[:tail.size]
        for j in range(low, count):
            if j < digits:
                period = base ** j
                head, tail = _periods(row, period)
                vals = terms[j][np.arange(-(-samples // period)) % base]
                head += vals[:len(head), None]
                tail += vals[-1]  # the partial last block, if there is one
            else:
                row += terms[j][0]
    return out.T


def _periods(row: np.ndarray, period: int):
    """``row`` as a (full periods, period) view and the partial tail."""
    full = row.size // period
    return row[:full * period].reshape(full, period), row[full * period:]


def sampled_positive_definite(f: Callable[[np.ndarray], np.ndarray],
                              box: Sequence[Sequence[float]],
                              samples: int,
                              seed: int) -> SamplingResult:
    """Check f(0) = 0 and f(x) > 0 on quasi-random samples of the box.

    The box must contain 0 strictly inside.  Besides ``samples`` scrambled
    Halton points from ``_halton``, mapped onto the box as ``lo + u * (hi -
    lo)``, 2n axis points at distance 1e-6 from the origin are tested to
    catch functions that vanish along a coordinate direction.  ``f`` is
    called once and maps the (N, n) stack of all points, origin first, to N values.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must be a sequence of (lo, hi) pairs")
    lo, hi = box[:, 0], box[:, 1]
    if not np.all((lo < 0) & (hi > 0)):
        raise ValueError("box must contain the origin strictly inside")
    n = box.shape[0]

    points = np.zeros((1 + 2 * n + int(samples), n))
    points[1:1 + 2 * n] = 1e-6 * np.vstack([np.eye(n), -np.eye(n)])
    drawn = points[1 + 2 * n:]
    drawn[...] = _halton(n, int(samples), seed)
    drawn *= hi - lo
    drawn += lo
    values = np.asarray(f(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"f gave shape {values.shape}, not one value per point")
    f0 = float(values[0])
    if not -1e-12 <= f0 <= 1e-12:
        return SamplingResult(False, 1, (0.0,) * n, f0)
    nonzero = np.any(points, axis=1)  # false at the origin, already checked
    bad = np.flatnonzero(nonzero & ~(values > 0.0))
    if bad.size:
        i = bad[0]
        return SamplingResult(False, 1 + int(nonzero[:i + 1].sum()),
                              tuple(float(v) for v in points[i]), float(values[i]))
    return SamplingResult(True, 1 + int(nonzero.sum()))
