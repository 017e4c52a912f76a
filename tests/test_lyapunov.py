"""Stability classifier, Lyapunov certificates and sampled positivity."""

import tracemalloc

import numpy as np
import pytest

import nisyn.lyapunov
from nisyn.lyapunov import (
    _CHUNK, Classification, ConditioningError, SamplingResult,
    StabilityError, _lyapunov_solve, _uniform_chunks, _verify_certificate,
    classify_stability, default_tolerance, lyapunov_certificate,
    sampled_positive_definite,
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


def _hurwitz_cases(rng):
    """Hurwitz matrices of every size 1-8: as drawn, with entries rounded
    to 3 significant digits, and with -0.0 across the last row and column
    but for a stable diagonal entry."""
    for n in range(1, 9):
        a = _random_hurwitz(rng, n)
        yield a
        yield np.vectorize(lambda v: float(f"{v:.3g}"))(a)
        if n > 1:
            b = np.full((n, n), -0.0)
            b[:-1, :-1] = _random_hurwitz(rng, n - 1)
            b[-1, -1] = -rng.uniform(0.2, 1.0)
            yield b


@pytest.mark.parametrize("seed", range(5))
def test_a_hurwitz_certificate_is_the_solve_on_the_whole_matrix(seed):
    # with no critical block the projector, the basis and the transform of
    # the split are I, so P is Roberts' solve on A bit for bit
    for a in _hurwitz_cases(np.random.default_rng(seed)):
        verdict = classify_stability(a)
        assert verdict.classification is Classification.HURWITZ
        assert (lyapunov_certificate(a, verdict).tobytes()
                == _lyapunov_solve(a).tobytes())


def _nonnormal_marginal(rng):
    """A random Hurwitz 3x3 beside two rotations, under a non-orthogonal
    similarity."""
    h = _random_hurwitz(rng, 3)
    om = rng.uniform(0.5, 3.0, size=2)
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = om[0], -om[0]
    skew[2, 3], skew[3, 2] = om[1], -om[1]
    b = np.zeros((7, 7))
    b[:3, :3] = h
    b[3:, 3:] = skew
    t = rng.normal(size=(7, 7)) + 3 * np.eye(7)
    return t @ b @ np.linalg.inv(t)


def test_certificate_marginal_nonnormal():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = _nonnormal_marginal(rng)
        verdict = classify_stability(a)
        assert verdict.classification is Classification.MARGINALLY_STABLE
        p = lyapunov_certificate(a, verdict)
        g = a.T @ p + p @ a
        assert np.linalg.eigvalsh(p).min() > 0
        assert np.linalg.eigvalsh(0.5 * (g + g.T)).max() <= 1e-8 * np.linalg.norm(p, 2)


def _rotation(omega):
    return np.array([[0.0, omega], [-omega, 0.0]])


def _similar(b, seed):
    """T B T^-1 with T = default_rng(seed).normal(size=B.shape) + 2I."""
    t = np.random.default_rng(seed).normal(size=b.shape) + 2 * np.eye(len(b))
    return t @ b @ np.linalg.inv(t)


def _semisimple_zero_cases():
    rotation_zero = np.zeros((4, 4))
    rotation_zero[:2, :2] = _rotation(1.0)
    # in the last two, eig returns the critical block's double zero as a
    # conjugate pair with imaginary parts of ~1e-17: the two complex
    # eigenvectors are independent, their real parts are not
    return [pytest.param(np.array([[0.0, 0.0], [0.0, -2.0]]), id="zero-beside-stable"),
            pytest.param(_similar(np.diag([-1.0, 0.0, 0.0]), 8), id="double-zero"),
            pytest.param(_similar(rotation_zero, 2), id="rotation-double-zero")]


@pytest.mark.parametrize("a", _semisimple_zero_cases())
def test_certificate_semisimple_zero_eigenvalue(a):
    verdict = classify_stability(a)
    assert verdict.classification is Classification.MARGINALLY_STABLE
    p = lyapunov_certificate(a, verdict)
    g = a.T @ p + p @ a
    assert np.linalg.eigvalsh(p).min() > 0
    assert np.linalg.eigvalsh(0.5 * (g + g.T)).max() <= 1e-8 * np.linalg.norm(p, 2)


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


def schur_certificate(a, verdict):
    """The certificate by scipy's sorted real Schur form, a Sylvester solve
    that decouples its blocks and scipy's Lyapunov solver.  The bases it
    picks span the subspaces that lyapunov_certificate's do, and while the
    critical eigenvalues are simple P does not depend on the choice, so the
    two agree up to rounding."""
    sla = pytest.importorskip("scipy.linalg")
    n, tol = a.shape[0], verdict.tol
    if verdict.classification is Classification.HURWITZ:
        p = sla.solve_continuous_lyapunov(a.T, -np.eye(n))
        return 0.5 * (p + p.T)
    t, q, sdim = sla.schur(a, output="real", sort=lambda re, im: re < -tol)
    s = int(sdim)
    t11, t12, t22 = t[:s, :s], t[:s, s:], t[s:, s:]
    m = np.eye(n)
    m[:s, s:] = sla.solve_sylvester(t11, -t22, -t12)  # T11 R - R T22 = -T12
    t_full = q @ m
    t_full = np.hstack([t_full[:, :s], t_full[:, s:] @ np.linalg.eig(t22)[1]])
    d = np.eye(n)
    if s:
        d[:s, :s] = sla.solve_continuous_lyapunov(t11.T, -np.eye(s))
    x = np.linalg.solve(t_full, np.eye(n))
    p = (x.conj().T @ d @ x).real
    return 0.5 * (p + p.T)


def _oracle_cases():
    rng = np.random.default_rng(2025)
    cases = [pytest.param(_random_hurwitz(rng, n), id=f"hurwitz-{n}")
             for n in range(1, 9)]
    rng = np.random.default_rng(11)
    cases += [pytest.param(_nonnormal_marginal(rng), id=f"nonnormal-{i}")
              for i in range(10)]
    # A11 of the shape perfbench's wide workload generates: a rotation
    # beside a coupled Hurwitz 2x2
    wide = np.zeros((4, 4))
    wide[:2, :2] = _rotation(0.9)
    wide[2:, 2:] = [[-1.3, 0.4], [-0.25, -1.7]]
    jordan = np.zeros((4, 4))
    jordan[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
    jordan[2:, 2:] = _rotation(1.5)
    q = _random_orthogonal(np.random.default_rng(8), 4)
    return cases + [pytest.param(wide, id="wide"),
                    pytest.param(jordan, id="jordan"),
                    pytest.param(q.T @ jordan @ q, id="jordan-rotated")]


@pytest.mark.parametrize("a", _oracle_cases())
def test_certificate_agrees_with_the_schur_construction(a):
    verdict = classify_stability(a)
    assert verdict.lyapunov_stable
    p = lyapunov_certificate(a, verdict)
    want = schur_certificate(a, verdict)
    assert np.linalg.norm(p - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


def test_a_sign_iteration_stagnating_above_its_change_test_still_stops():
    # T has condition ~1e3 and sign(A - cI) a 1-norm of ~1e3: rounding
    # holds each step's change at hundreds of eps times ||Z||_1, above
    # 10*n*eps, and the iteration ends when the change stops shrinking;
    # the agreement is as good as that conditioning allows
    b = np.zeros((5, 5))
    b[0, 0], b[1, 1], b[2, 2] = -0.5, -1.5, -3.0
    b[3:, 3:] = _rotation(1.3)
    t = (np.eye(5)
         + 10 * np.outer([1.0, -2.0, 0.5, 1.5, -1.0], [0.5, 1.0, -1.0, 2.0, 1.0])
         + 3 * np.outer([-1.0, 0.5, 2.0, 1.0, 0.5], [1.0, 1.0, 0.5, -0.5, 2.0]))
    a = t @ b @ np.linalg.inv(t)
    verdict = classify_stability(a)
    assert verdict.classification is Classification.MARGINALLY_STABLE
    p = lyapunov_certificate(a, verdict)
    want = schur_certificate(a, verdict)
    assert np.linalg.norm(p - want, 2) <= 1e-9 * np.linalg.norm(want, 2)


def test_a_stable_eigenvalue_near_the_axis_is_split_or_refused(monkeypatch):
    # -10*tol is stable by the classifier's margin; the split point c lies
    # within 5*tol of both sides, so the sign iteration starts close to
    # singular.  Counting its steps shows it ends within the cap.
    a = np.zeros((3, 3))
    a[1:, 1:] = _rotation(1.0)
    a[0, 0] = -10 * default_tolerance(a)
    verdict = classify_stability(a)
    assert verdict.classification is Classification.MARGINALLY_STABLE
    steps = []
    inv = np.linalg.inv

    def counted(z):
        steps.append(z.shape)
        return inv(z)

    monkeypatch.setattr(nisyn.lyapunov.np.linalg, "inv", counted)
    try:
        p = lyapunov_certificate(a, verdict)
    except ConditioningError:
        pass
    else:
        _verify_certificate(a, p)
    assert 0 < len(steps) <= 2 * nisyn.lyapunov._SIGN_MAX_STEPS


def test_a_sign_iteration_that_does_not_converge_is_refused(monkeypatch):
    monkeypatch.setattr(nisyn.lyapunov, "_SIGN_MAX_STEPS", 2)
    a = _random_hurwitz(np.random.default_rng(4), 3)
    with pytest.raises(ConditioningError,
                       match="sign iteration did not converge in 2 steps"):
        lyapunov_certificate(a, classify_stability(a))


def test_an_ill_conditioned_block_transform_is_refused():
    # the stable Jordan pair at -1e-3 couples to the zero eigenvalue through
    # a Sylvester solution of norm 1e6, so the transform's condition is 1e12
    a = np.array([[-1e-3, 1.0, 0.0], [0.0, -1e-3, 1.0], [0.0, 0.0, 0.0]])
    verdict = classify_stability(a)
    assert verdict.classification is Classification.MARGINALLY_STABLE
    with pytest.raises(ConditioningError, match="block-diagonalizing transform "
                                                "is ill-conditioned"):
        lyapunov_certificate(a, verdict)


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


def _oracle(d, samples, seed):
    """Row j of the draw, ``default_rng([seed, j]).random(samples)``, for
    each j < d, in the (samples, d) layout of points."""
    rows = [np.random.default_rng([seed, j]).random(samples) for j in range(d)]
    return np.array(rows).T


def _uniform(d, samples, seed):
    """The blocks of _uniform_chunks joined into the (samples, d) layout."""
    blocks = [b.copy() for b in _uniform_chunks(d, samples, seed)]
    return np.hstack(blocks).T if blocks else np.zeros((0, d))


@pytest.mark.parametrize("d, samples, seed", [
    (1, 10, 0), (1, 1, 0), (3, 1, 4), (6, 0, 5), (2, 1025, 5), (4, 2000, 3),
    (6, 100_000, 12345), (7, 6000, 99), (12, 20_000, 1), (20, 3000, 2),
    (1, 2, 3), (1, 4095, 8), (2, 4096, 9), (3, 4097, 10), (2, 6561, 11),
    (2, 6562, 12), (5, 8193, 13), (2, 65537, 14), (12, 30, 15),
    # the edges of the streamed blocks, and a last block of a few points
    (2, _CHUNK - 1, 16), (3, _CHUNK, 17), (2, _CHUNK + 1, 18),
    (4, 3 * _CHUNK + 7, 19), (6, 2 * _CHUNK + 4095, 20),
    (9, 5 * _CHUNK + 3 ** 8 + 1, 21),
] + [  # 20 seeded random cases: d <= 15, samples <= 30000
    (int(d), int(samples), int(seed)) for d, samples, seed in
    np.random.default_rng(2024).integers([1, 0, 0], [16, 30_001, 2**31],
                                         size=(20, 3))
])
def test_the_joined_blocks_equal_the_oracle_byte_for_byte(d, samples, seed):
    want = _oracle(d, samples, seed)
    got = _uniform(d, samples, seed)
    assert got.shape == want.shape == (samples, d)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("samples", [0, 1, _CHUNK, 2 * _CHUNK + 1])
def test_uniform_chunks_streams_blocks_of_the_chunk_size(samples):
    blocks = [(b.shape, b.flags.c_contiguous)
              for b in _uniform_chunks(5, samples, 7)]
    assert blocks == [
        ((5, min(_CHUNK, samples - start)), True)
        for start in range(0, samples, _CHUNK)]


def test_a_streamed_check_holds_nothing_of_the_sample_count_size():
    # one block is 6 * _CHUNK * 8 = 786 kB; a (6, 100000) draw alone is 4.8 MB
    tracemalloc.start()
    try:
        for _ in _uniform_chunks(6, 100_000, 12345):
            pass
        draw_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        res = sampled_positive_definite(lambda x: np.sum(x * x, axis=1),
                                        [[-2, 2]] * 6, 100_000, 12345)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed and res.points_checked == 1 + 12 + 100_000
    assert draw_peak <= 1_200_000
    assert check_peak <= 3_000_000


def test_uniform_rows_are_pinned():
    # the first 4 points of _uniform_chunks(3, 4, 2024), numpy 2.4.6; a
    # change of numpy's streams would move every sampled witness
    want = np.array([
        [0.6758313379812818, 0.09183453929532381, 0.42706428035550714],
        [0.21432320123825765, 0.08683496189721551, 0.5600786480186489],
        [0.3094520308816917, 0.8939972118108674, 0.13842967712023757],
        [0.7994660967748332, 0.29024044465477805, 0.25948556511349086],
    ])
    assert _uniform(3, 4, 2024).tobytes() == want.tobytes()


@pytest.mark.parametrize("samples", [
    0, 1, 4095, 4096, 4097, 3 * 4096 + 7,
    _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
@pytest.mark.parametrize("seed", [0, 12345, 2 ** 31 - 1])
def test_the_leading_columns_of_a_wider_draw_are_the_narrower_draw(samples, seed):
    wide = _uniform(9, samples, seed)
    for d in (1, 2, 4, 6, 8):
        assert wide[:, :d].tobytes() == _uniform(d, samples, seed).tobytes()


def test_a_narrow_indefinite_form_gives_a_witness_for_every_seed():
    # y1^2 + y2^2 + 2.02 y1 y2 is negative only in two thin wedges around
    # the line y1 = -y2
    f = lambda y: y[:, 0] ** 2 + y[:, 1] ** 2 + 2.02 * y[:, 0] * y[:, 1]  # noqa: E731
    found = [not sampled_positive_definite(f, [[-2, 2]] * 2, 100_000, seed).passed
             for seed in range(20)]
    assert all(found)


@pytest.mark.parametrize("d, samples", [(4, 2000), (9, 3000)])
def test_no_two_dimensional_projection_leaves_a_hole(d, samples):
    # a 16 x 16 grid over each pair of coordinates; a sequence whose points
    # lie on a few lines of some projection leaves tens of cells empty there
    for seed in range(5):
        cells = np.floor(_uniform(d, samples, seed) * 16).astype(int)
        for i in range(d):
            for k in range(i + 1, d):
                counts = np.bincount(16 * cells[:, i] + cells[:, k], minlength=256)
                assert np.count_nonzero(counts == 0) <= 4, (seed, i, k)


def test_uniform_chunks_rejects_a_negative_seed_or_sample_count():
    # at the call, before any block is made
    for samples, seed in ((4, -1), (0, -1), (-1, 0)):
        with pytest.raises(ValueError):
            _uniform_chunks(2, samples, seed)
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sum(x * x, axis=1)

    for samples, seed in ((10, -1), (-1, 0)):
        with pytest.raises(ValueError):
            sampled_positive_definite(f, [[-1, 1]], samples, seed=seed)
    assert calls == []


def _reference_sampled_pd(f, box, samples, seed):
    """The per-point loop: origin, then axis points, then the oracle's
    points; exact-zero rows are skipped and not counted."""
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    f0 = f(np.zeros((1, n)))[0]
    if not -1e-12 <= f0 <= 1e-12:
        return False, 1, (0.0,) * n, f0
    axis = 1e-6 * np.vstack([np.eye(n), -np.eye(n)])
    points = _oracle(n, samples, seed) * (box[:, 1] - box[:, 0]) + box[:, 0]
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


def _unchunked_sampled_pd(f, box, samples, seed):
    """The sampler before it streamed: one (n, N) stack of the origin, the
    axis points and every sampled point (drawn here by the oracle), mapped
    onto the box in place, and one call of f on its transpose."""
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    n = box.shape[0]
    points = np.zeros((n, 1 + 2 * n + samples))
    points[:, 1:1 + 2 * n] = 1e-6 * np.hstack([np.eye(n), -np.eye(n)])
    drawn = points[:, 1 + 2 * n:]
    drawn[...] = _oracle(n, samples, seed).T
    drawn *= (hi - lo)[:, None]
    drawn += lo[:, None]
    values = np.asarray(f(points.T), dtype=float)
    f0 = float(values[0])
    if not -1e-12 <= f0 <= 1e-12:
        return SamplingResult(False, 1, (0.0,) * n, f0)
    nonzero = np.any(points, axis=0)
    bad = np.flatnonzero(nonzero & ~(values > 0.0))
    if bad.size:
        i = bad[0]
        return SamplingResult(False, 1 + int(nonzero[:i + 1].sum()),
                              tuple(float(v) for v in points[:, i]),
                              float(values[i]))
    return SamplingResult(True, 1 + int(nonzero.sum()))


def _sample_point(box, samples, seed, k):
    """Sampled point k of a check, mapped onto the box as the sampler maps it."""
    box = np.asarray(box, dtype=float)
    u = _oracle(box.shape[0], samples, seed)[k]
    return u * (box[:, 1] - box[:, 0]) + box[:, 0]


def _failing_at(targets):
    """|x|^2, but -1 at each of the target points."""
    def f(x):
        hit = np.zeros(x.shape[0], dtype=bool)
        for t in targets:
            hit |= (x == t).all(axis=1)
        return np.where(hit, -1.0, np.sum(x * x, axis=1))
    return f


_BOX = [[-1.0, 1.0], [-2.0, 0.5], [-0.3, 3.0]]
_SIZES = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]


def _witness_cases():
    for samples in _SIZES:
        yield samples, "passes"
        yield samples, "axis"
        # the first chunk, both sides of its end, and the last point, which
        # lies in the last partial chunk when there is one
        for k in sorted({0, 100, _CHUNK - 1, _CHUNK, samples - 1}):
            if 0 <= k < samples:
                yield samples, k


@pytest.mark.parametrize("samples, witness", list(_witness_cases()))
def test_the_streamed_sampler_gives_the_unchunked_samplers_results(samples,
                                                                   witness):
    seed = 11
    if witness == "passes":
        f = lambda x: np.sum(x * x, axis=1)  # noqa: E731
    elif witness == "axis":
        f = lambda x: x[:, 0] ** 2 + x[:, 2] ** 2  # noqa: E731  zero along e2
    else:
        # a second bad point a chunk later must not replace the first
        later = [k for k in (witness + _CHUNK,) if k < samples]
        f = _failing_at([_sample_point(_BOX, samples, seed, k)
                         for k in [witness] + later])
    got = sampled_positive_definite(f, _BOX, samples, seed)
    assert got == _unchunked_sampled_pd(f, _BOX, samples, seed)
    assert got.passed is (witness == "passes")
    if isinstance(witness, int):
        assert got.points_checked == 1 + 2 * 3 + witness + 1
        assert got.witness_value == -1.0


@pytest.mark.parametrize("fails_after", [False, True])
def test_a_sample_point_on_the_origin_is_skipped_and_not_counted(fails_after):
    # in a box [-4u, 4(1 - u)] per coordinate, with 1/2 <= u < 1, the point
    # u maps onto 4u - 4u = 0 exactly; take the first such point from the
    # second chunk on
    samples, seed = 2 * _CHUNK, 5
    units = _oracle(2, samples, seed)
    k = _CHUNK + int(np.flatnonzero((units[_CHUNK:] >= 0.5).all(axis=1))[0])
    box = [[-4 * u, 4 * (1 - u)] for u in units[k]]
    assert not _sample_point(box, samples, seed, k).any()
    targets = [_sample_point(box, samples, seed, samples - 1)] if fails_after else []
    f = _failing_at(targets)
    got = sampled_positive_definite(f, box, samples, seed)
    assert got == _unchunked_sampled_pd(f, box, samples, seed)
    assert got.points_checked == 1 + 2 * 2 + samples - 1


def test_sampled_pd_passes_f_the_axis_block_then_chunks_of_contiguous_rows():
    calls = []

    def f(x):
        calls.append((x.shape, x.T.flags.c_contiguous))
        return np.sum(x * x, axis=1)

    res = sampled_positive_definite(f, [[-1, 1], [-1, 1], [-1, 1]],
                                    2 * _CHUNK + 5, seed=1)
    assert calls == [((1 + 2 * 3, 3), True), ((_CHUNK, 3), True),
                     ((_CHUNK, 3), True), ((5, 3), True)]
    assert res.points_checked == 1 + 2 * 3 + 2 * _CHUNK + 5


def test_sampled_pd_stops_at_the_first_block_with_a_bad_point():
    calls = []

    def f(x):
        calls.append(x.shape[0])
        return np.sum(x * x, axis=1) - 0.5 * x[:, 1] ** 2 - x[:, 0] ** 4

    res = sampled_positive_definite(f, [[-1.5, 1.5], [-1, 1]], 3 * _CHUNK, 3)
    assert not res.passed and res.points_checked <= 1 + 4 + _CHUNK
    assert calls == [1 + 2 * 2, _CHUNK]
    calls.clear()
    res = sampled_positive_definite(lambda x: f(x) + 1.0, [[-1, 1]] * 2,
                                    3 * _CHUNK, 3)
    assert res == SamplingResult(False, 1, (0.0, 0.0), 1.0) and calls == [5]


def test_sampled_pd_rejects_a_one_point_function():
    with pytest.raises(ValueError, match="one value per"):
        sampled_positive_definite(lambda x: float(np.sum(x)), [[-1, 1]], 10, 0)


def test_sampled_pd_rejects_a_chunk_with_the_wrong_number_of_values():
    def f(x):
        values = np.sum(x * x, axis=1)
        return values if x.shape[0] < _CHUNK else values[:-1]

    with pytest.raises(ValueError, match="one value per"):
        sampled_positive_definite(f, [[-1, 1]], _CHUNK + 1, 0)
