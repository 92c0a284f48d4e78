import numpy as np
import pytest

from quncert import correlations
from quncert.correlations import (
    OptimizerConfig,
    _FRAMES,
    _Frame,
    _basis_projectors,
    _holevo,
    _memory_entropies,
    _polish,
    _search,
    _search_plan,
    bell_diagonal_classical_closed,
    classical_correlation,
    classical_correlations,
    concurrence,
    concurrence_x,
    discord,
    holevo_quantity,
)
from quncert.entropy import (
    ProjectiveMeasurement,
    branch_matrix,
    branch_spectra,
    mutual_information,
    von_neumann,
)
from quncert.linalg import PAULI_Z, kron, partial_trace, validate_density
from quncert.scenarios import ScenarioSpec, random_density, run_scenario
from quncert.states import bell_diagonal, bell_like, singlet, werner

np_rng = np.random.default_rng(20240803)

FAST = OptimizerConfig(grid_points=48, refine_iters=120)


def pauli_measurement(sigma):
    _, v = np.linalg.eigh(sigma)
    return ProjectiveMeasurement.from_basis(v)


def rand_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def binary_entropy(p):
    if p <= 0 or p >= 1:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def test_holevo_product_state():
    rho = validate_density(kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])), (2, 2))
    assert abs(holevo_quantity(rho, pauli_measurement(PAULI_Z))) < 1e-12


def test_holevo_singlet_z():
    assert abs(holevo_quantity(singlet(), pauli_measurement(PAULI_Z)) - 1.0) < 1e-12


def test_holevo_werner_z():
    f = 0.8
    expected = 1.0 - binary_entropy((1 + f) / 2)
    assert abs(holevo_quantity(werner(2, f), pauli_measurement(PAULI_Z)) - expected) < 1e-12


def frame_derivatives_by_differences(rho, u, h=1e-4):
    """Central differences of holevo_quantity at the basis u along the frame coordinates."""
    frame = _FRAMES[rho.dA]
    e = np.eye(len(frame.generators))

    def f(c):
        return holevo_quantity(rho, ProjectiveMeasurement.from_basis(u @ frame.moves(c[None])[0]))

    g = np.array([(f(h * a) - f(-h * a)) / (2 * h) for a in e])
    hess = np.array([[(f(h * (a + b)) - f(h * (a - b)) - f(h * (b - a)) + f(-h * (a + b)))
                      / (4 * h * h) for b in e] for a in e])
    return g, hess


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in (2, 3) for d_b in (2, 3, 4)])
def test_frame_derivatives_match_central_differences(dims):
    d_a, d_b = dims
    rng = np.random.default_rng((20241025,) + dims)
    states = [random_density(rng, dims) for _ in range(2)]
    if d_b > 2:
        # a state that lives on two dimensions of the memory: rank-deficient branches
        w = kron(np.eye(d_a), rand_unitary(d_b, rng)[:, :2])
        states.append(validate_density(w @ random_density(rng, (d_a, 2)).mat @ w.conj().T, dims))
    for rho in states:
        u = rand_unitary(d_a, rng)
        g, hess = _FRAMES[d_a].derivatives(branch_matrix(rho)[None], u[None])
        g_fd, hess_fd = frame_derivatives_by_differences(rho, u)
        assert np.abs(g[0] - g_fd).max() <= 1e-6
        assert np.abs(hess[0] - hess_fd).max() <= 1e-6


def test_frame_derivatives_finite_at_pure_branches():
    # at the optimum of a |c| = 1 Bell-diagonal state every branch is pure, and the
    # entropy's log singularity sits at the basis itself
    rho = bell_diagonal(0.5, 0.5, -1.0)
    g, hess = _FRAMES[2].derivatives(branch_matrix(rho)[None], np.eye(2, dtype=complex)[None])
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(hess))
    assert np.abs(g).max() <= 1e-12 and np.linalg.eigvalsh(hess[0]).max() < 0.0


def test_classical_correlation_product():
    rho = validate_density(kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])), (2, 2))
    assert classical_correlation(rho, FAST) < 1e-9


def test_classical_correlation_pure_state():
    # for a pure bipartite state the optimum equals the marginal entropy
    for alpha in (0.6, 1 / np.sqrt(10), 0.95):
        rho = bell_like(alpha)
        expected = von_neumann(partial_trace(rho, "A"))
        assert abs(expected - binary_entropy(alpha ** 2)) < 1e-12
        assert abs(classical_correlation(rho, FAST) - expected) < 1e-7


def test_classical_correlation_rejects_large_da():
    rho = random_density(np_rng, (4, 2))
    with pytest.raises(ValueError, match="dA"):
        classical_correlation(rho, FAST)


def test_bell_diagonal_closed_zero():
    assert bell_diagonal_classical_closed(0.0, 0.0, 0.0) == 0.0


def test_bell_diagonal_closed_point_eight():
    assert abs(bell_diagonal_classical_closed(-0.8, -0.8, -0.8) - 0.5310044064107189) < 1e-14


def test_bell_diagonal_closed_unit_coefficient():
    assert abs(bell_diagonal_classical_closed(1.0, -0.6, 0.6) - 1.0) < 1e-14


def test_optimizer_matches_closed_form_on_bell_diagonal():
    triples = [
        (-0.8, -0.8, -0.8),
        (0.3, -0.5, 0.7),
        (1.0, -0.6, 0.6),
        (0.0, 0.0, 0.9),
        (0.2, 0.1, -0.05),
    ]
    # J is invariant under a local unitary on A and a local isometry C^2 -> C^dB on B;
    # the rotation moves the optimum off the grid axes and into either hemisphere
    rng = np.random.default_rng(20240805)
    for c1, c2, c3 in triples:
        rho = bell_diagonal(c1, c2, c3)
        want = bell_diagonal_classical_closed(c1, c2, c3)
        states = [rho]
        for d_b in (2, 3, 4):
            w = kron(rand_unitary(2, rng), rand_unitary(d_b, rng)[:, :2])
            states.append(validate_density(w @ rho.mat @ w.conj().T, (2, d_b)))
        for state in states:
            got = classical_correlation(state)
            assert abs(got - want) <= 1e-5
            assert got <= want + 1e-9  # never exceeds the projective optimum


def test_unit_coefficient_bell_diagonal_reaches_closed_form():
    # |c| = 1 gives pure branches at the optimum, where the branch entropies have their
    # log singularity
    triples = [(1.0, -0.6, 0.6), (-1.0, 0.3, 0.3), (0.2, 1.0, -0.2), (0.9, -1.0, 0.9),
               (0.5, 0.5, -1.0), (1.0, 0.0, 0.0)]
    rng = np.random.default_rng(20241022)
    for c1, c2, c3 in triples:
        rho = bell_diagonal(c1, c2, c3)
        want = bell_diagonal_classical_closed(c1, c2, c3)
        states = [rho]
        for d_b in (2, 3, 4):
            w = kron(rand_unitary(2, rng), rand_unitary(d_b, rng)[:, :2])
            states.append(validate_density(w @ rho.mat @ w.conj().T, (2, d_b)))
        for state in states:
            assert abs(classical_correlation(state) - want) <= 1e-9
    # the default sudden-transition sweep starts at c = (1, -0.6, 0.6)
    row = run_scenario(ScenarioSpec(name="sudden-transition", sweep=(0.0, 0.0, 1)))[0]
    assert abs(row.report.classical - 1.0) <= 1e-9


@pytest.mark.parametrize("triple", [(0.14, -0.2379, 0.2378995), (0.14, -0.2379, 0.237899),
                                    (0.3, 0.5, -0.4999995)])
def test_near_degenerate_bell_diagonal_reaches_closed_form(triple):
    # two |c_i| equal to 1e-6 make a ridge of nearly equal optima whose curvature
    # along the ridge is about 1e-6 of the curvature across it
    got = classical_correlation(bell_diagonal(*triple))
    assert abs(got - bell_diagonal_classical_closed(*triple)) <= 1e-12


def ridge_bell_diagonal(rng, d_b):
    """A rotated Bell-diagonal state whose two largest |c_i| differ by eps; returns it, eps, J.

    a ~ U(0.05, 0.95), eps = 10^U(-9, -2), and c shuffles (+-a, +-(a - eps),
    U(-1, 1) (a - eps)), drawn again until it is a state. The state is rotated
    by kron(Haar U(2), the first two columns of a Haar U(dB)).
    """
    while True:
        a, eps = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-9, -2)
        s = rng.choice([-1.0, 1.0], size=2)
        c = rng.permutation([s[0] * a, s[1] * (a - eps), rng.uniform(-1, 1) * (a - eps)])
        try:
            bell = bell_diagonal(*c)
            break
        except ValueError:  # a negative Bell weight
            continue
    w = kron(rand_unitary(2, rng), rand_unitary(d_b, rng)[:, :2])
    rho = validate_density(w @ bell.mat @ w.conj().T, (2, d_b))
    return rho, eps, bell_diagonal_classical_closed(*c)


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_rotated_ridge_bell_diagonal_reaches_closed_form(d_b):
    # the two largest |c_i| make a ridge of nearly equal optima on which one polished
    # lane can stall; however flat the ridge, no state may end more than 1e-9 short
    rng = np.random.default_rng((11, d_b))
    cases = [ridge_bell_diagonal(rng, d_b) for _ in range(20)]
    got = classical_correlations([rho for rho, _, _ in cases])
    short = np.array([want for _, _, want in cases]) - got
    assert np.all(short <= 1e-9)
    assert np.all(short >= -1e-12)  # never above the projective optimum


def test_ridge_state_173_reaches_closed_form():
    # state 173 of the ridge corpus drawn from default_rng(11) with dB uniform in
    # {2, 3, 4}: dB = 3, eps = 1.28e-6, and all three lanes from the 16-point grid
    # start in one basin of the ridge
    rng = np.random.default_rng(11)
    for _ in range(174):
        d_b = int(rng.integers(2, 5))
        rho, eps, want = ridge_bell_diagonal(rng, d_b)
    assert d_b == 3 and abs(eps - 1.281e-6) < 1e-9
    assert abs(classical_correlation(rho) - want) <= 1e-12


def test_newton_lanes_match_one_lane_searches():
    # each lane searches its own state (a flat product state, a pure state and HS-random
    # states) from a random basis, so the lanes stop after different numbers of iterations
    rng = np.random.default_rng(20241020)
    for dims in ((2, 3), (3, 2)):
        d_a = dims[0]
        states = [validate_density(kron(np.diag(rng.dirichlet(np.ones(d_a))),
                                        random_density(rng, (dims[1], 1)).mat), dims),
                  stack_corpus(dims, rng)[0]]
        states += [random_density(rng, dims) for _ in range(3)]
        u0 = np.array([rand_unitary(d_a, rng) for _ in states])

        def run(idx):
            # lane l searches states[idx[l]]; returns its bases, values, the lanes of every
            # derivative and value call, and each lane's derivative inputs and trial bases
            m = branch_matrix([states[i] for i in idx])
            s_b = _memory_entropies([states[i] for i in idx])
            calls = {"derivatives": [], "value": []}
            seen = {kind: [[] for _ in idx] for kind in calls}

            def record(kind, bases, lanes):
                calls[kind].append(lanes.tolist())
                for lane, b in zip(lanes, bases):
                    seen[kind][lane].append(b.copy())

            def value(bases, lanes):
                record("value", bases, lanes)
                return _holevo(s_b[lanes, None], branch_spectra(m[lanes], _basis_projectors(bases)))

            def derivatives(bases, lanes):
                record("derivatives", bases, lanes)
                return _FRAMES[d_a].derivatives(m[lanes], bases)

            fu0 = _holevo(s_b[:, None], branch_spectra(m, _basis_projectors(u0[idx, None])))[:, 0]
            u, fu = _polish(value, derivatives, u0[idx], fu0, iters=12)
            return u, fu, calls, seen

        idx = list(range(len(states)))
        u_all, fu_all, calls_all, seen_all = run(idx)
        for l in idx:
            u_one, fu_one, calls_one, seen_one = run([l])
            assert fu_all[l] == fu_one[0]
            assert np.array_equal(u_all[l], u_one[0])
            for kind in calls_all:
                mine, alone = seen_all[kind][l], seen_one[kind][0]
                assert len(mine) == len(alone)
                assert all(np.array_equal(a, b) for a, b in zip(mine, alone))
                # a lane is in every call of a kind until it stops, and in none after
                present = [l in lanes for lanes in calls_all[kind]]
                assert present == sorted(present, reverse=True)
                assert sum(present) == len(calls_one[kind])
        lengths = [sum(l in lanes for lanes in calls_all["derivatives"]) for l in idx]
        assert len(set(lengths)) > 1 and max(lengths) == len(calls_all["derivatives"])


@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("d_a, cfg, starts", [(2, OptimizerConfig(grid_points=2), 1),
                                              (2, OptimizerConfig(grid_points=3), 4),
                                              (3, OptimizerConfig(restarts=1), 1),
                                              (3, OptimizerConfig(restarts=2), 2)])
def test_few_starts_stack_like_one_state(d_a, d_b, cfg, starts):
    # with fewer starts than the 3 lanes a state keeps, each state polishes them all
    assert len(_search_plan(d_a, cfg)["starts"]) == starts
    states = stack_corpus((d_a, d_b), np.random.default_rng((20241024, d_a, d_b)))
    assert classical_correlations(states, cfg).tolist() == [classical_correlation(rho, cfg)
                                                            for rho in states]


@pytest.mark.parametrize("d_b, i",
                         [(d_b, i) for d_b in (2, 3, 4) for i in range(3)] + [(4, 14), (2, 41)])
def test_qubit_search_reaches_high_effort_optimum(d_b, i):
    # (4, 14) and (2, 41) lie on curved ridges that a coordinate search climbs slowly
    rho = random_density(np.random.default_rng((12345, 2, d_b, i)), (2, d_b))
    high = classical_correlation(rho, OptimizerConfig(grid_points=256, refine_iters=2000))
    assert classical_correlation(rho) >= high - 1e-9


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_qutrit_lock_step_equals_each_start_refined_alone(d_b):
    # every start is scored once; the keep best-scored starts are polished
    cfg = OptimizerConfig()
    plan = _search_plan(3, cfg)
    starts, keep = plan.pop("starts"), plan.pop("keep")
    for i in range(2):
        rho = random_density(np.random.default_rng((20241018, d_b, i)), (3, d_b))
        scored = [_search([rho], starts[k:k + 1], 1, iters=0)[0][0] for k in range(len(starts))]
        kept = np.argsort(-np.array(scored), kind="stable")[:keep]
        alone = [_search([rho], starts[k:k + 1], 1, **plan)[0][0] for k in kept]
        assert classical_correlation(rho, cfg) == max(alone)


@pytest.mark.parametrize("d_b, i", [(d_b, i) for d_b in (2, 3, 4) for i in range(3)])
def test_qutrit_search_reaches_best_of_seeds(d_b, i):
    rho = random_density(np.random.default_rng((12345, 3, d_b, i)), (3, d_b))
    best = max(classical_correlation(rho, OptimizerConfig(seed=seed)) for seed in range(4))
    assert classical_correlation(rho) >= best - 1e-9


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in (2, 3) for d_b in (1, 2, 3, 4)])
def test_product_state_search_stops_after_one_stencil(dims, monkeypatch):
    # J = 0 for every measurement: the frame derivatives are roundoff, so the polish
    # stops after the scoring call and one derivative call, with no line search
    rng = np.random.default_rng((20241023,) + dims)
    rho = validate_density(kron(random_density(rng, (dims[0], 1)).mat,
                                random_density(rng, (dims[1], 1)).mat), dims)
    calls = []

    def counted(kernel):
        def call(*args):
            calls.append(kernel.__name__)
            return kernel(*args)
        return call

    monkeypatch.setattr(correlations, "branch_spectra", counted(branch_spectra))
    monkeypatch.setattr(_Frame, "derivatives", counted(_Frame.derivatives))
    assert classical_correlation(rho) <= 1e-12
    assert calls == ["branch_spectra", "derivatives"]


def stack_corpus(dims, rng):
    """Two pure, two classical-quantum and three HS-random states of the given dims."""
    d_a, d_b = dims
    states = []
    for _ in range(2):
        v = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
        states.append(validate_density(np.outer(v, v.conj()) / np.vdot(v, v).real, dims))
    for _ in range(2):
        u = rand_unitary(d_a, rng)
        p = rng.dirichlet(np.ones(d_a))
        mat = sum(p[k] * kron(np.outer(u[:, k], u[:, k].conj()), random_density(rng, (d_b, 1)).mat)
                  for k in range(d_a))
        states.append(validate_density(mat, dims))
    states.extend(random_density(rng, dims) for _ in range(3))
    return states


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in (2, 3) for d_b in (1, 2, 3, 4)])
def test_stacked_search_equals_one_state_search(dims):
    states = stack_corpus(dims, np.random.default_rng((20241019,) + dims))
    stacked = classical_correlations(states)
    assert stacked.tolist() == [classical_correlation(rho) for rho in states]
    # the order of a stack does not matter either
    assert classical_correlations(states[::-1]).tolist() == stacked[::-1].tolist()


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in (2, 3) for d_b in (1, 2, 3, 4)])
def test_search_basis_certifies_its_value(dims):
    states = stack_corpus(dims, np.random.default_rng((20241021,) + dims))
    values, bases = _search(states, **_search_plan(dims[0], OptimizerConfig()))
    assert values.tolist() == classical_correlations(states).tolist()
    for rho, j, u in zip(states, values, bases):
        assert abs(holevo_quantity(rho, ProjectiveMeasurement.from_basis(u)) - j) <= 1e-12


def test_optimizer_grid_convergence():
    # the default 16-point grid lists 113 distinct measurements, and a grid four
    # times as fine moves the polished estimate by less than 1e-9
    assert len(_search_plan(2, OptimizerConfig())["starts"]) == 113
    for _ in range(50):
        rho = random_density(np_rng, (2, 2))
        j16 = classical_correlation(rho)
        j64 = classical_correlation(rho, OptimizerConfig(grid_points=64))
        assert abs(j64 - j16) <= 1e-9


def test_correlation_bounds():
    for _ in range(25):
        rho = random_density(np_rng, (2, 2))
        j = classical_correlation(rho, FAST)
        d = discord(rho, FAST)
        s_a = von_neumann(partial_trace(rho, "A"))
        s_b = von_neumann(partial_trace(rho, "B"))
        assert -1e-9 <= j <= min(s_a, s_b) + 1e-6
        assert -1e-9 <= d <= s_a + 1e-6


def test_local_unitary_invariance():
    for _ in range(5):
        rho = random_density(np_rng, (2, 2))
        u = kron(rand_unitary(2, np_rng), rand_unitary(2, np_rng))
        rotated = validate_density(u @ rho.mat @ u.conj().T, (2, 2))
        assert abs(classical_correlation(rho) - classical_correlation(rotated)) <= 1e-5
        assert abs(discord(rho) - discord(rotated)) <= 1e-5


def test_discord_classical_state():
    # orthogonal-flag mixture on A carries zero discord
    rho = validate_density(
        0.5 * kron(np.diag([1.0, 0.0]), np.diag([0.2, 0.8]))
        + 0.5 * kron(np.diag([0.0, 1.0]), np.diag([0.9, 0.1])),
        (2, 2),
    )
    assert discord(rho, FAST) < 1e-9


def test_discord_singlet():
    assert abs(discord(singlet(), FAST) - 1.0) < 1e-8


def test_discord_werner():
    f = 0.8
    rho = werner(2, f)
    expected = mutual_information(rho) - bell_diagonal_classical_closed(-f, -f, -f)
    assert abs(discord(rho) - expected) < 1e-6


def test_concurrence_x_singlet():
    assert abs(concurrence_x(singlet()) - 1.0) < 1e-12


def test_concurrence_x_maximally_mixed():
    rho = validate_density(np.eye(4) / 4, (2, 2))
    assert concurrence_x(rho) == 0.0


def test_concurrence_x_werner():
    for f in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        expected = max(0.0, (3 * f - 1) / 2)
        assert abs(concurrence_x(werner(2, f)) - expected) < 1e-12


def test_concurrence_x_rejects_non_x_state():
    rho = random_density(np_rng, (2, 2))
    with pytest.raises(ValueError, match="X form"):
        concurrence_x(rho)


def test_concurrence_singlet():
    assert abs(concurrence(singlet()) - 1.0) < 1e-10


def test_concurrence_matches_x_formula():
    for _ in range(100):
        rho = random_x_state(np_rng)
        assert abs(concurrence(rho) - concurrence_x(rho)) <= 1e-9


def test_concurrence_separable_mixture():
    for _ in range(20):
        mat = np.zeros((4, 4), dtype=complex)
        w = np_rng.dirichlet(np.ones(8))
        for k in range(8):
            va = np_rng.normal(size=2) + 1j * np_rng.normal(size=2)
            vb = np_rng.normal(size=2) + 1j * np_rng.normal(size=2)
            v = kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
            mat += w[k] * np.outer(v, v.conj())
        rho = validate_density(mat, (2, 2))
        assert concurrence(rho) <= 1e-9


def random_x_state(rng):
    d = rng.dirichlet(np.ones(4))
    m = np.diag(d).astype(complex)
    r14 = np.sqrt(d[0] * d[3]) * rng.random() * np.exp(2j * np.pi * rng.random())
    r23 = np.sqrt(d[1] * d[2]) * rng.random() * np.exp(2j * np.pi * rng.random())
    m[0, 3], m[3, 0] = r14, r14.conjugate()
    m[1, 2], m[2, 1] = r23, r23.conjugate()
    return validate_density(m, (2, 2))
