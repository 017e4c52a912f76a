"""Stability classifier, Lyapunov certificates and sampled positivity."""

import tracemalloc

import numpy as np
import pytest

from nisyn.lyapunov import (
    Classification, StabilityError, _halton, _primes, classify_stability,
    default_tolerance, lyapunov_certificate, sampled_positive_definite,
)


def _random_hurwitz(rng, n):
    m = rng.normal(size=(n, n))
    return m - (np.linalg.eigvals(m).real.max() + rng.uniform(0.2, 1.0)) * np.eye(n)


def _random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


# --- classification ---------------------------------------------------------

def test_classify_truth_table():
    v = classify_stability([[-1.0]])
    assert v.classification is Classification.HURWITZ
    assert v.det_nonzero

    v = classify_stability([[0.0, 1.0], [-1.0, 0.0]])
    assert v.classification is Classification.MARGINALLY_STABLE
    assert v.det_nonzero
    assert all(c.geometric_multiplicity >= c.algebraic_multiplicity for c in v.critical)

    v = classify_stability([[0.0, 1.0], [0.0, 0.0]])
    assert v.classification is Classification.UNSTABLE
    assert not v.det_nonzero
    # one critical cluster: double zero with a one-dimensional eigenspace
    (c,) = v.critical
    assert c.algebraic_multiplicity == 2
    assert c.geometric_multiplicity == 1


def test_classify_positive_real_part():
    v = classify_stability([[1.0]])
    assert v.classification is Classification.UNSTABLE


def test_classify_orthogonal_similarity_invariance():
    rng = np.random.default_rng(99)
    samples = [
        np.array([[-1.0]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        _random_hurwitz(rng, 4),
        np.block([[_random_hurwitz(rng, 2), np.zeros((2, 2))],
                  [np.zeros((2, 2)), np.array([[0.0, 2.0], [-2.0, 0.0]])]]),
    ]
    for a in samples:
        base = classify_stability(a).classification
        for _ in range(5):
            q = _random_orthogonal(rng, a.shape[0])
            assert classify_stability(q.T @ a @ q).classification is base


def test_classify_repeated_imaginary_semisimple():
    # two identical rotation blocks: eigenvalues +-2j, each double, semisimple
    rot = np.array([[0.0, 2.0], [-2.0, 0.0]])
    a = np.block([[rot, np.zeros((2, 2))], [np.zeros((2, 2)), rot]])
    rng = np.random.default_rng(3)
    q = _random_orthogonal(rng, 4)
    v = classify_stability(q.T @ a @ q)
    assert v.classification is Classification.MARGINALLY_STABLE


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_stability([[1.0, 2.0]])
    with pytest.raises(ValueError):
        classify_stability([[np.inf]])
    with pytest.raises(ValueError):
        classify_stability([[1.0]], tol=-1.0)


def test_default_tolerance_scales_with_norm():
    assert default_tolerance(np.eye(3)) == pytest.approx(1e-9 * np.sqrt(3))


# --- certificates -----------------------------------------------------------

def test_certificate_scalar_closed_form():
    a = np.array([[-1.0]])
    p = lyapunov_certificate(a, classify_stability(a))
    assert p == pytest.approx(np.array([[0.5]]))


def test_certificate_rotation_is_identity():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = lyapunov_certificate(a, classify_stability(a))
    assert p == pytest.approx(np.eye(2), abs=1e-12)


def test_certificate_random_hurwitz_residual():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = rng.integers(1, 9)
        a = _random_hurwitz(rng, n)
        p = lyapunov_certificate(a, classify_stability(a))
        assert np.linalg.norm(a.T @ p + p @ a + np.eye(n), 2) <= 1e-8


def test_certificate_marginal_nonnormal():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = _random_hurwitz(rng, 3)
        om = rng.uniform(0.5, 3.0, size=2)
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = om[0], -om[0]
        skew[2, 3], skew[3, 2] = om[1], -om[1]
        b = np.zeros((7, 7))
        b[:3, :3] = h
        b[3:, 3:] = skew
        t = rng.normal(size=(7, 7)) + 3 * np.eye(7)
        a = t @ b @ np.linalg.inv(t)
        verdict = classify_stability(a)
        assert verdict.classification is Classification.MARGINALLY_STABLE
        p = lyapunov_certificate(a, verdict)
        g = a.T @ p + p @ a
        assert np.linalg.eigvalsh(p).min() > 0
        assert np.linalg.eigvalsh(0.5 * (g + g.T)).max() <= 1e-8 * np.linalg.norm(p, 2)


def test_certificate_semisimple_zero_eigenvalue():
    a = np.array([[0.0, 0.0], [0.0, -2.0]])
    p = lyapunov_certificate(a, classify_stability(a))
    g = a.T @ p + p @ a
    assert np.linalg.eigvalsh(p).min() > 0
    assert np.linalg.eigvalsh(g).max() <= 1e-8 * np.linalg.norm(p, 2)


def test_certificate_rejects_unstable():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(StabilityError):
        lyapunov_certificate(a, classify_stability(a))


def test_certificate_scaling_linearity():
    rng = np.random.default_rng(5)
    a = _random_hurwitz(rng, 4)
    p1 = lyapunov_certificate(a, classify_stability(a))
    c = 3.5
    p2 = lyapunov_certificate(c * a, classify_stability(c * a))
    assert p2 == pytest.approx(p1 / c, rel=1e-8)


# --- sampled positive definiteness -----------------------------------------

def test_sampled_pd_norm_squared():
    res = sampled_positive_definite(
        lambda x: np.sum(x * x, axis=1), [[-1, 1], [-2, 2]], samples=500, seed=0)
    assert res.passed
    assert res.witness is None


def test_sampled_pd_semidefinite_fails_with_witness():
    res = sampled_positive_definite(
        lambda x: x[:, 0] ** 2, [[-1, 1], [-1, 1]], samples=500, seed=0)
    assert not res.passed
    assert res.witness is not None
    assert res.witness[0] == pytest.approx(0.0, abs=1e-9)
    assert res.witness[1] != 0.0


def test_sampled_pd_nonzero_at_origin_fails():
    res = sampled_positive_definite(
        lambda x: np.sum(x * x, axis=1) + 1e-6, [[-1, 1]], samples=10, seed=0)
    assert not res.passed
    assert res.witness == (0.0,)


def test_sampled_pd_box_validation():
    with pytest.raises(ValueError):
        sampled_positive_definite(lambda x: 1.0, [[0.0, 1.0]], 10, 0)


def test_sampled_pd_deterministic():
    f = lambda x: np.sum(x * x, axis=1)
    a = sampled_positive_definite(f, [[-1, 1], [-1, 1]], 100, seed=42)
    b = sampled_positive_definite(f, [[-1, 1], [-1, 1]], 100, seed=42)
    assert a == b


def test_primes():
    assert _primes(0) == []
    assert _primes(25) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                           47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


@pytest.mark.parametrize("d, samples, seed", [
    (1, 10, 0), (1, 1, 0), (3, 1, 4), (6, 0, 5), (2, 1025, 5), (4, 2000, 3),
    (6, 100_000, 12345), (7, 6000, 99), (12, 20_000, 1), (20, 3000, 2),
    # the edges of base 2's 4096-point table and of its blocks, of base 3's
    # blocks (3^8 = 6561), and fewer points than the base (37, at d = 12)
    (1, 2, 3), (1, 4095, 8), (2, 4096, 9), (3, 4097, 10), (2, 6561, 11),
    (2, 6562, 12), (5, 8193, 13), (2, 65537, 14), (12, 30, 15),
] + [  # 20 seeded random cases: d <= 15, samples <= 30000
    (int(d), int(samples), int(seed)) for d, samples, seed in
    np.random.default_rng(2024).integers([1, 0, 0], [16, 30_001, 2**31],
                                         size=(20, 3))
])
def test_halton_equals_scipy_bit_for_bit(d, samples, seed):
    from scipy.stats import qmc
    want = qmc.Halton(d=d, seed=seed).random(samples)
    got = _halton(d, samples, seed)
    assert got.shape == want.shape == (samples, d)
    assert got.tobytes() == want.tobytes()


def test_halton_allocates_nothing_but_its_output():
    tracemalloc.start()
    try:
        got = _halton(6, 100_000, 12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 4_800_000
    assert peak <= got.nbytes + 500_000


def test_halton_rows_are_pinned():
    # qmc.Halton(d=3, seed=2024).random(4), scipy 1.17.1
    want = np.array([
        [0.8384968189834792, 0.8242146834946684, 0.6420158068815491],
        [0.33849681898347916, 0.15754801682800185, 0.042015806881548975],
        [0.5884968189834792, 0.4908813501613352, 0.44201580688154896],
        [0.08849681898347916, 0.7131035723835575, 0.24201580688154897],
    ])
    assert _halton(3, 4, 2024).tobytes() == want.tobytes()


def test_halton_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        _halton(2, 4, -1)
    with pytest.raises(ValueError):
        sampled_positive_definite(lambda x: np.sum(x * x, axis=1),
                                  [[-1, 1]], 10, seed=-1)


def _reference_sampled_pd(f, box, samples, seed):
    """The per-point loop: origin, then axis points, then Halton points;
    exact-zero rows are skipped and not counted."""
    from scipy.stats import qmc
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    f0 = f(np.zeros((1, n)))[0]
    if not -1e-12 <= f0 <= 1e-12:
        return False, 1, (0.0,) * n, f0
    axis = 1e-6 * np.vstack([np.eye(n), -np.eye(n)])
    halton = qmc.Halton(d=n, seed=seed)
    points = qmc.scale(halton.random(samples), box[:, 0], box[:, 1])
    checked = 1
    for x in np.vstack([axis, points]):
        if not np.any(x):
            continue
        value = f(x[None, :])[0]
        checked += 1
        if not value > 0.0:
            return False, checked, tuple(float(v) for v in x), float(value)
    return True, checked, None, None


@pytest.mark.parametrize("f, box, passes", [
    (lambda x: np.sum(x * x, axis=1) + x[:, 0] * x[:, 1], [[-1, 1], [-2, 2]],
     True),
    (lambda x: np.sum(x * x, axis=1) - 0.5 * x[:, 1] ** 2 - x[:, 0] ** 4,
     [[-1.5, 1.5], [-1, 1]], False),
])
def test_sampled_pd_matches_point_loop(f, box, passes):
    res = sampled_positive_definite(f, box, samples=400, seed=3)
    assert res.passed is passes
    want = _reference_sampled_pd(f, box, 400, 3)
    assert (res.passed, res.points_checked, res.witness,
            res.witness_value) == want


def test_sampled_pd_calls_f_once_with_the_stack():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sum(x * x, axis=1)

    res = sampled_positive_definite(f, [[-1, 1], [-1, 1], [-1, 1]], 50, seed=1)
    assert calls == [(1 + 2 * 3 + 50, 3)]
    assert res.points_checked == 1 + 2 * 3 + 50


def test_sampled_pd_rejects_a_one_point_function():
    with pytest.raises(ValueError, match="one value per"):
        sampled_positive_definite(lambda x: float(np.sum(x)), [[-1, 1]], 10, 0)
