import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from oracle import matrix_by_basis_loop
from strategies import admissible_cases

from affinehs import library
from affinehs.exceptions import SimulationError
from affinehs.params import (
    ExponentialDensity,
    OperatorJumpMeasure,
    ParameterSet,
    PowerLawDensity,
    ScalarJumpMeasure,
    atom,
    build_admissible,
    ray,
    truncate,
)
from affinehs.pdmpsim import (
    CounterStream,
    FlowPropagator,
    PathSimulator,
    drift_data,
    jump_intensity,
    mc_summary,
    philox4x32,
    terminal_statistics,
    worker_cap,
)
from affinehs.symcone import (
    DenseOperator,
    LyapunovOperator,
    VecBasis,
    ZeroOperator,
    frob_norm,
    inner,
    min_eigenvalue,
    random_psd,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def unit_dir(d=2):
    a = np.eye(d) + 0.2 * np.ones((d, d))
    return a / frob_norm(a)


def poisson_set(rate=2.0):
    """Constant jump intensity: m atoms only, no state dependence."""
    m = ScalarJumpMeasure(2, (atom(0.5 * unit_dir(), rate / 2.0),
                              atom(1.5 * unit_dir(), rate / 2.0)))
    return build_admissible(2, beta=-0.5 * np.eye(2), m=m, b_extra=np.eye(2))


def flow(drift, x, t):
    """Deterministic motion from x over time t, through FlowPropagator.flow_vec."""
    prop = FlowPropagator(drift)
    return prop.basis.unvec(prop.flow_vec(prop.basis.vec(x), t))


# ---------------------------------------------------------------------------
# drift and flow
# ---------------------------------------------------------------------------

def test_drift_data_psd_and_values(bench):
    for s in bench[:8]:
        d = drift_data(truncate(s.params, 4))
        assert min_eigenvalue(d.btilde) >= -1e-9 * (1.0 + frob_norm(d.btilde))


def test_drift_compensation_identity():
    # builder: b = b_extra + small-jump mean, so btilde == b_extra exactly
    m = ScalarJumpMeasure(2, (atom(0.5 * unit_dir(), 2.0),))
    extra = 0.7 * np.eye(2)
    p = build_admissible(2, beta=-np.eye(2), m=m, b_extra=extra)
    np.testing.assert_allclose(drift_data(p).btilde, extra, rtol=1e-14, atol=1e-15)


def test_flow_examples(rng):
    d0 = drift_data(ParameterSet(2, np.zeros((2, 2)), ZeroOperator(2),
                                 ScalarJumpMeasure(2), OperatorJumpMeasure(2)))
    x = random_psd(rng, 2)
    np.testing.assert_allclose(flow(d0, x, 3.0), x, rtol=1e-12, atol=1e-14)

    b_mat = np.array([[0.4, 0.1], [0.1, 0.3]])
    d1 = drift_data(ParameterSet(2, b_mat, ZeroOperator(2),
                                 ScalarJumpMeasure(2), OperatorJumpMeasure(2)))
    np.testing.assert_allclose(flow(d1, x, 2.0), x + 2.0 * b_mat, rtol=1e-10, atol=1e-12)

    beta = -0.3 * np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    d2 = drift_data(ParameterSet(2, np.zeros((2, 2)), LyapunovOperator(beta),
                                 ScalarJumpMeasure(2), OperatorJumpMeasure(2)))
    e_mat = scipy.linalg.expm(1.3 * beta)
    np.testing.assert_allclose(flow(d2, x, 1.3), e_mat @ x @ e_mat.T, rtol=1e-10, atol=1e-12)
    assert min_eigenvalue(flow(d2, x, 1.3)) >= -1e-9


FLOW_SETS = ("scalar-00", "mc2-00", "mixed-d3-01", "mixed-d5-01")


def flow_reference(dd, x_vec, t, n_steps=4000):
    """e^{t Btilde} x plus a fine trapezoid of int_0^t e^{s Btilde} btilde ds."""
    basis = VecBasis(dd.dim)
    mat = matrix_by_basis_loop(dd.Btilde)
    step = scipy.linalg.expm(t / n_steps * mat)
    vals = np.empty((n_steps + 1, basis.n))
    vals[0] = basis.vec(dd.btilde)
    for k in range(n_steps):
        vals[k + 1] = step @ vals[k]
    return scipy.linalg.expm(t * mat) @ x_vec + np.trapezoid(vals, dx=t / n_steps, axis=0)


def test_flow_matches_expm_and_drift_integral(rng):
    # eigen-coordinates of the augmented generator
    for name in FLOW_SETS:
        dd = drift_data(truncate(library.get(name).params, 4))
        prop = FlowPropagator(dd)
        assert prop._aug.use_eig
        x_vec = prop.basis.vec(random_psd(rng, dd.dim))
        for t in (0.1, 0.7):
            np.testing.assert_allclose(prop.flow_vec(x_vec, t), flow_reference(dd, x_vec, t),
                                       rtol=1e-7, atol=1e-9)


def test_flow_defective_generator_matches_expm(rng):
    # Jordan-block coordinate matrix: no eigenbasis, so the flow takes the
    # dense exponential of the augmented matrix
    n = 3  # d = 2 -> n = 3 coordinates
    mat = np.zeros((n, n))
    mat[0, 1] = 1.0
    b_mat = np.array([[0.5, 0.0], [0.0, 0.2]])
    dd = drift_data(ParameterSet(2, b_mat, DenseOperator(2, mat), ScalarJumpMeasure(2),
                                 OperatorJumpMeasure(2)))
    prop = FlowPropagator(dd)
    assert not prop._aug.use_eig
    x_vec = prop.basis.vec(random_psd(rng, 2))
    for t in (0.1, 0.9):
        np.testing.assert_allclose(prop.flow_vec(x_vec, t), flow_reference(dd, x_vec, t),
                                   rtol=1e-7, atol=1e-9)


def defective_set():
    """B = 0 with a drift and jumps: the augmented generator is a Jordan block."""
    m = ScalarJumpMeasure(2, (atom(0.7 * unit_dir(), 1.5),))
    mu = OperatorJumpMeasure(2, (atom(2.0 * unit_dir(), 0.4 * unit_dir()),))
    return build_admissible(2, m=m, mu=mu, b_extra=0.5 * np.eye(2))


def test_clock_matches_quadrature_of_intensity(rng):
    # Lambda(s) = m_total s + int_0^s <kappa, x(r)> dr and lambda(s) = m_total
    # + <kappa, x(s)>, with the flow from flow_vec and the integral by quad
    sims = [PathSimulator(truncate(library.get(name).params, 4)) for name in FLOW_SETS]
    defective = defective_set()
    sims.append(PathSimulator(defective))
    assert isinstance(defective.B, ZeroOperator) and not sims[-1].flowprop._aug.use_eig
    for sim in sims:
        fp, kappa, m_total = sim.flowprop, sim.table.kappa_vec, sim.table.m_total
        x_vec = sim.basis.vec(random_psd(rng, sim.dim))
        s = np.array([0.05, 0.3, 1.0])
        lam_int, lam, _ = fp.clock(np.repeat(fp.coords(x_vec)[None], 3, axis=0), s)
        for si, got_int, got in zip(s, lam_int, lam):
            integral = scipy.integrate.quad(lambda r: kappa @ fp.flow_vec(x_vec, r), 0.0, si,
                                            epsabs=0.0, epsrel=1e-13)[0]
            assert got_int == pytest.approx(m_total * si + integral, rel=1e-10, abs=0.0)
            assert got == pytest.approx(m_total + kappa @ fp.flow_vec(x_vec, si), rel=1e-10, abs=0.0)


def test_jump_times_are_roots_of_the_clock():
    # the snapshot after jump j reads the Exp(1) level E of jump j + 1 first;
    # Lambda from the post-jump state over the gap to the next jump hits E,
    # and after the last jump Lambda stays below E up to the horizon; the
    # third set starts at zero intensity, which first tests the horizon
    horizon = 2.0
    mu = OperatorJumpMeasure(2, (atom(2.0 * unit_dir(), 3.0 * unit_dir()),))
    rising = build_admissible(2, beta=-0.5 * np.eye(2), mu=mu, b_extra=np.eye(2))
    for sim, x0 in ((PathSimulator(truncate(library.get("mixed-d3-01").params, 4)), np.eye(3)),
                    (PathSimulator(defective_set()), np.eye(2)),
                    (PathSimulator(rising), np.zeros((2, 2)))):
        n_jumps = 0
        for i in range(30):
            path = sim.run(x0, horizon, CounterStream(31, i))
            starts = [x0] + list(path.states)
            streams = [CounterStream(31, i)] + list(path.rng_states)
            ends = np.concatenate([[0.0], path.times, [horizon]])
            for j, (x, stream) in enumerate(zip(starts, streams)):
                level = -math.log1p(-stream.take(np.array([0]))[0])
                z = sim.flowprop.coords(sim.basis.vec(x))[None]
                lam_int = sim.flowprop.clock(z, np.array([ends[j + 1] - ends[j]]))[0][0]
                if j < path.n_jumps:
                    assert abs(lam_int - level) <= 1e-12 * max(1.0, level)
                else:
                    assert lam_int < level
            n_jumps += path.n_jumps
        assert n_jumps > 30


def test_non_finite_clock_raises_with_context():
    # beta = 20 I overflows e^{s Btilde} long before T = 50: the error names
    # the stream, the path and t, and the named path fails again alone
    m = ScalarJumpMeasure(2, (atom(0.5 * unit_dir(), 1.0),))
    p = build_admissible(2, beta=20.0 * np.eye(2), m=m, b_extra=np.eye(2))
    message = r"not finite \(seed 13, path (\d+), t = \S+"
    with pytest.raises(SimulationError, match=message) as err:
        terminal_statistics(p, np.eye(2), 50.0, 100, seed=13)
    path_id = int(re.search(message, str(err.value)).group(1))
    with pytest.raises(SimulationError, match=rf"seed 13, path {path_id}, t = "):
        PathSimulator(p).run(np.eye(2), 50.0, CounterStream(13, path_id))


# ---------------------------------------------------------------------------
# intensity and jump sampling
# ---------------------------------------------------------------------------

def test_jump_intensity_examples():
    p = poisson_set(rate=3.0)
    assert jump_intensity(p, np.zeros((2, 2))) == pytest.approx(3.0, rel=1e-12)
    mu = OperatorJumpMeasure(2, (atom(2.0 * E11, E11),))
    m3 = ScalarJumpMeasure(2, (atom(0.5 * unit_dir(), 3.0),))
    p2 = build_admissible(2, beta=-np.eye(2), m=m3, mu=mu, b_extra=np.eye(2))
    assert jump_intensity(p2, np.eye(2)) == pytest.approx(3.25, rel=1e-12)
    p_empty = build_admissible(2, beta=-np.eye(2), b_extra=np.eye(2))
    assert jump_intensity(p_empty, np.eye(2)) == 0.0


def test_jump_intensity_requires_finite_activity():
    s = library.get("cascade-00")
    with pytest.raises(SimulationError, match="truncate"):
        jump_intensity(s.params, s.x0)


def draw_jumps(p, x, rng, n):
    """n draws from the normalized jump kernel at state x, through the jump
    table's component choice and radii on vectors of uniforms."""
    sim = PathSimulator(p)
    table = sim.table
    comp = table.choose(np.broadcast_to(sim.basis.vec(x), (n, sim.basis.n)), rng.random(n))
    scales = table.scales(comp, lambda sel: rng.random(len(sel)))
    return scales[:, None, None] * np.array(table.directions)[comp]


def test_sample_jump_single_atom(rng):
    xi = 1.3 * unit_dir()
    m = ScalarJumpMeasure(2, (atom(xi, 2.0),))
    p = build_admissible(2, beta=-np.eye(2), m=m, b_extra=np.eye(2))
    for jump in draw_jumps(p, np.eye(2), rng, 5):
        np.testing.assert_array_equal(jump, xi)


def test_sample_jump_two_atom_frequencies(rng):
    xi1 = 0.5 * unit_dir()
    xi2 = 2.0 * unit_dir()
    m = ScalarJumpMeasure(2, (atom(xi1, 1.0), atom(xi2, 3.0)))
    p = build_admissible(2, beta=-np.eye(2), m=m, b_extra=np.eye(2))
    n = 100_000
    hits = np.count_nonzero(np.linalg.norm(draw_jumps(p, np.eye(2), rng, n), axis=(1, 2)) < 1.0)
    p_hat = hits / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(p_hat - 0.25) <= 3.0 * sigma


def test_radial_sampler_ks(rng):
    # truncated power law and an exponential tail, against the exact CDF
    for den in (PowerLawDensity(1.0, 0.5, 0.25, 1.0),
                ExponentialDensity(0.8, 2.0, 0.0)):
        total = den.cdf_mass(den.rmax)
        n = 10_000
        draws = np.sort(den.inverse_cdf_mass(rng.random(n) * total))
        cdf = np.asarray(den.cdf_mass(draws)) / total
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
        assert ks < 1.63 / math.sqrt(n)  # 1% level


def test_radial_inverse_cdf_round_trip():
    # closed-form inverse CDFs of every library ray density: cdf_mass(r(m)) = m
    # to 1e-12 relative, beyond the one rounding of r itself (slope r * pdf(r))
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    n_dens = 0
    for k in (1, 4, 16):
        for s in library.benchmark_sets():
            p = truncate(s.params, k)
            for den in (r.law for r in p.m.rays + p.mu.rays):
                total = den.cdf_mass(den.rmax)
                m = total * (1.0 - rng.random(64))   # (0, total]
                m[0] = total
                r = den.inverse_cdf_mass(m)
                assert np.all((r >= den.rmin) & (r <= den.rmax))
                fin = np.isfinite(r)
                slack = np.zeros_like(m)
                slack[fin] = 2.0 * eps * r[fin] * den.pdf(r[fin])
                err = np.abs(den.cdf_mass(r) - m)
                assert np.all(err <= 1e-12 * m + slack), (s.name, k, den)
                n_dens += 1
    assert n_dens > 50


def test_radial_sampler_rejects_infinite_activity():
    # a power-law ray reaching r = 0 has infinite mass: the simulator refuses it
    mu = OperatorJumpMeasure(2, (ray(unit_dir(), PowerLawDensity(0.2, 0.5, 0.0, 1.0), 0.3 * unit_dir()),))
    p = build_admissible(2, beta=-np.eye(2), mu=mu, b_extra=np.eye(2))
    assert not p.is_finite_activity
    with pytest.raises(SimulationError, match="infinite"):
        PathSimulator(p)


# ---------------------------------------------------------------------------
# path simulation
# ---------------------------------------------------------------------------

def test_simulate_no_jumps(rng):
    p = build_admissible(2, beta=-0.4 * np.eye(2), b_extra=0.5 * np.eye(2))
    x0 = np.eye(2)
    path = PathSimulator(p).run(x0, 2.0, rng)
    assert path.n_jumps == 0
    np.testing.assert_allclose(path.terminal, flow(drift_data(p), x0, 2.0),
                               rtol=1e-12, atol=1e-13)


def test_simulate_poisson_statistics():
    rate, horizon, n = 2.0, 1.0, 10_000
    p = poisson_set(rate)
    stats = terminal_statistics(p, np.eye(2), horizon, n, seed=42)
    counts = stats[:, -1]
    lam = rate * horizon
    mean_sigma = math.sqrt(lam / n)
    assert abs(counts.mean() - lam) <= 3.0 * mean_sigma
    var_sigma = math.sqrt((lam + 2.0 * lam ** 2) / n)
    assert abs(counts.var(ddof=1) - lam) <= 3.0 * var_sigma


def test_path_states_stay_psd(bench):
    s = library.get("mc2-02")
    p = truncate(s.params, 4)
    sim = PathSimulator(p)
    worst = 0.0
    for i in range(200):
        path = sim.run(s.x0, 1.0, CounterStream(5, i))
        worst = min(worst, path.min_state_eig)
    assert worst >= -1e-9


def test_markov_restart_from_counter_stream_snapshot():
    # a CounterStream snapshot resumes the path at its draw index, after the
    # first jump and after a middle one
    s = library.get("mc2-03")
    p = truncate(s.params, 4)
    sim = PathSimulator(p)
    path = next(pth for pth in (sim.run(s.x0, 1.0, CounterStream(77, i))
                                for i in range(200)) if pth.n_jumps >= 3)
    for j in (0, path.n_jumps // 2):
        tail = sim.run(path.states[j], 1.0 - path.times[j], path.rng_states[j])
        assert tail.n_jumps == path.n_jumps - (j + 1)
        np.testing.assert_allclose(tail.times + path.times[j], path.times[j + 1:],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(tail.terminal, path.terminal, rtol=1e-10, atol=1e-12)


def test_generator_seeds_a_counter_stream():
    # a numpy Generator passed to run only draws the seed of the path's stream
    sim = PathSimulator(poisson_set(rate=3.0))
    a = sim.run(np.eye(2), 2.0, np.random.default_rng(9))
    b = sim.run(np.eye(2), 2.0, CounterStream(np.random.default_rng(9).integers(2 ** 63)))
    assert a.n_jumps > 0
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.terminal, b.terminal)


def test_simulate_rejects_bad_inputs():
    p = poisson_set(1.0)
    with pytest.raises(SimulationError):
        PathSimulator(p).run(-np.eye(2), 1.0, CounterStream(0))
    s = library.get("cascade-00")
    with pytest.raises(SimulationError, match="truncate"):
        PathSimulator(s.params)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_t_zero_exact():
    p = poisson_set(1.0)
    x0 = np.eye(2)
    u = 0.5 * np.eye(2)
    est = mc_summary(p, x0, 0.0, 200, seed=1, u=u)["laplace"]
    assert est.estimate == pytest.approx(math.exp(-inner(x0, u)), rel=1e-15)
    assert est.std_error == 0.0


def test_mc_deterministic_case():
    p = build_admissible(2, beta=-0.3 * np.eye(2), b_extra=0.4 * np.eye(2))
    x0 = np.eye(2)
    v = np.eye(2)
    est = mc_summary(p, x0, 1.5, 300, seed=2, v=v)["mean"]
    expected = inner(flow(drift_data(p), x0, 1.5), v)
    assert est.estimate == pytest.approx(expected, rel=1e-12)
    assert est.std_error == 0.0


def test_mc_requires_min_paths():
    p = poisson_set(1.0)
    with pytest.raises(ValueError):
        mc_summary(p, np.eye(2), 1.0, 50, seed=0, v=np.eye(2))


def test_mc_laplace_scalar_compound_poisson():
    # d = 1 compound-Poisson style set: analytic transform vs simulation
    from affinehs.moments import laplace
    s = library.get("scalar-00")
    p = truncate(s.params, 4)
    est = mc_summary(p, s.x0, 1.0, 20_000, seed=21, u=s.u)["laplace"]
    analytic = laplace(p, s.x0, 1.0, s.u)
    assert abs(est.estimate - analytic) <= 3.0 * est.std_error


def test_mc_worker_reproducibility(pools):
    s = library.get("mc2-04")
    p = truncate(s.params, 4)
    runs = [terminal_statistics(p, s.x0, 1.0, 1200, seed=3, workers=w) for w in (1, 4, 8)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])
    assert pools == [4, 8]


def test_mc_worker_reproducibility_across_blocks(monkeypatch):
    # many small lockstep blocks, spread over workers in whole blocks
    import affinehs.pdmpsim as mod
    monkeypatch.setattr(mod, "_BLOCK", 128)
    s = library.get("mc2-02")
    p = truncate(s.params, 4)
    runs = [terminal_statistics(p, s.x0, 1.0, 1000, seed=8, workers=w) for w in (1, 3, 4)]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[0], runs[2])


def test_philox4x32_known_answers():
    # Random123's known-answer vectors for Philox4x32-10: (counter; key) -> output
    cases = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ]
    out = philox4x32(np.array([c for c, _, _ in cases]).T, (0, 0))
    assert tuple(out[:, 0]) == cases[0][2]
    for ctr, key, expected in cases:
        assert tuple(int(w) for w in philox4x32([[c] for c in ctr], key)[:, 0]) == expected


def test_counter_stream_draws_do_not_depend_on_the_batch():
    # u[i, j] is the same whether path i is read alone or inside any batch,
    # whatever the other paths of the batch read in between
    seed, n_draws = 2 ** 40 + 5, 150
    alone = {}
    for i in (0, 3, 7, 2 ** 33 + 1):
        st = CounterStream(seed, i)
        alone[i] = np.array([st.take(np.array([0]))[0] for _ in range(n_draws)])
    rng = np.random.default_rng(0)
    batch = CounterStream(seed, 0, 8)
    seen = {i: [] for i in range(8)}
    while min(len(v) for v in seen.values()) < n_draws:
        rows = np.flatnonzero(rng.random(8) < 0.6)
        for r, u in zip(rows, batch.take(rows)):
            seen[r].append(u)
    for i in (0, 3, 7):
        np.testing.assert_array_equal(np.array(seen[i][:n_draws]), alone[i])
    far = CounterStream(seed, 2 ** 33, 2)
    far_draws = np.array([far.take(np.array([1]))[0] for _ in range(n_draws)])
    np.testing.assert_array_equal(far_draws, alone[2 ** 33 + 1])
    assert 0.0 <= alone[0].min() and alone[0].max() < 1.0
    assert len(np.unique(np.concatenate(list(alone.values())))) == 4 * n_draws


def test_mc_matches_analytics_one_set():
    from affinehs.moments import laplace, mean, second_moment
    s = library.get("mc2-05")
    p = truncate(s.params, 4)
    v = np.eye(2)
    est = mc_summary(p, s.x0, 1.0, 20_000, seed=11, u=s.u, v=v, workers=2)
    checks = [
        (laplace(p, s.x0, 1.0, s.u), est["laplace"]),
        (mean(p, s.x0, 1.0, v), est["mean"]),
        (second_moment(p, s.x0, 1.0, v), est["second_moment"]),
    ]
    for analytic, e in checks:
        assert abs(e.estimate - analytic) <= 3.0 * e.std_error


def test_worker_cap_env(monkeypatch):
    monkeypatch.setenv("AFFINEHS_THREADS", "3")
    assert worker_cap() == 3
    monkeypatch.setenv("AFFINEHS_THREADS", "junk")
    assert worker_cap() == 0
    monkeypatch.delenv("AFFINEHS_THREADS")
    assert worker_cap() == 0


def test_mean_jump_count_matches_integrated_intensity():
    # E N_T = m_total T + int_0^T <kappa, E X_r> dr, with E X_r from the moments
    from affinehs.moments import mean
    s = library.get("mc2-02")
    p = truncate(s.params, 4)
    horizon = 1.0
    kappa = p.mu.kernel_total_matrix()
    integral = scipy.integrate.quad(lambda r: mean(p, s.x0, r, kappa), 0.0, horizon,
                                    epsrel=1e-10)[0]
    expected = p.m.total_mass() * horizon + integral
    est = mc_summary(p, s.x0, horizon, 20_000, seed=12)["jump_count"]
    assert abs(est.estimate - expected) <= 3.0 * est.std_error


def test_mc_laplace_on_defective_generator():
    # B = 0 takes the dense route: one exponential per path and clock step
    from affinehs.moments import laplace
    p = defective_set()
    x0, u = np.eye(2), 0.5 * np.eye(2)
    est = mc_summary(p, x0, 1.0, 2000, seed=4, u=u)["laplace"]
    assert abs(est.estimate - laplace(p, x0, 1.0, u)) <= 3.0 * est.std_error


@settings(derandomize=True, max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(admissible_cases())
def test_mc_matches_moments_on_random_admissible_sets(case):
    # 2000 paths of the level-4 truncation against its Laplace transform and mean
    from affinehs.moments import laplace, mean
    p, x, u, w, t = case
    p4 = truncate(p, 4)
    est = mc_summary(p4, x, t, 2000, seed=21, u=u, v=w)
    for key, exact in (("laplace", laplace(p4, x, t, u)), ("mean", mean(p4, x, t, w))):
        err = abs(est[key].estimate - exact)
        assert err <= 4.0 * est[key].std_error + 1e-9 * (1.0 + abs(exact)), (key, exact, est[key])
