import numpy as np
import pytest

from quncert import correlations
from quncert.bounds import STACK_STATES
from quncert.correlations import (
    KEEP,
    NEWTON_ITERS,
    OptimizerConfig,
    _FRAMES,
    _Frame,
    _holevo,
    _hs_scores,
    _search,
    _starts,
    bell_diagonal_classical_closed,
    clamp_discord,
    classical_correlation,
    classical_correlations,
    concurrence,
    concurrences,
    holevo_quantity,
)
from quncert.entropy import (
    ProjectiveMeasurement,
    basis_projectors,
    branch_matrix,
    branch_spectra,
    mutual_information,
    von_neumann,
)
from quncert.linalg import PAULIS, PAULI_Z, kron, validate_density
from quncert.scenarios import ScenarioSpec, random_density, run_scenario
from quncert.states import bell_diagonal, bell_like, werner

from helpers import FAST, pauli_measurement, rand_unitary, random_x_state
from oracles import concurrence_x, measure_on_A, partial_trace, rank2_qubit_memory_j

np_rng = np.random.default_rng(20240803)


def binary_entropy(p):
    if p <= 0 or p >= 1:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def test_holevo_product_state():
    rho = validate_density(kron(np.diag([0.7, 0.3]), np.diag([0.2, 0.8])), (2, 2))
    assert abs(holevo_quantity(rho, pauli_measurement(PAULI_Z))) < 1e-12


def test_holevo_singlet_z():
    assert abs(holevo_quantity(werner(2, 1.0), pauli_measurement(PAULI_Z)) - 1.0) < 1e-12


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
        g, hess = _FRAMES[d_a].derivatives(branch_matrix(rho.mat, rho.dims)[None], u[None])
        g_fd, hess_fd = frame_derivatives_by_differences(rho, u)
        assert np.abs(g[0] - g_fd).max() <= 1e-6
        assert np.abs(hess[0] - hess_fd).max() <= 1e-6


def test_frame_derivatives_finite_at_pure_branches():
    # at the optimum of a |c| = 1 Bell-diagonal state every branch is pure, and the
    # entropy's log singularity sits at the basis itself
    rho = bell_diagonal(0.5, 0.5, -1.0)
    m = branch_matrix(rho.mat, rho.dims)[None]
    g, hess = _FRAMES[2].derivatives(m, np.eye(2, dtype=complex)[None])
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


@pytest.mark.parametrize("triple", [(0.5, np.nan, 0.2), (np.nan, 0.0, 0.0), (0.0, 1.1, 0.0)])
def test_bell_diagonal_closed_rejects_nan_and_out_of_range(triple):
    # a NaN fails every comparison, so only a negated range check rejects it
    with pytest.raises(ValueError, match="outside"):
        bell_diagonal_classical_closed(*triple)


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
    got = classical_correlations(np.stack([rho.mat for rho, _, _ in cases]), (2, d_b))
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


def test_newton_lanes_match_one_lane_searches(monkeypatch):
    # each lane searches its own state (a flat product state, a pure state and HS-random
    # states) from one shared random basis, so the lanes stop after different numbers of
    # iterations; every derivative and line-search call is recorded, and each of its rows
    # is told to a lane by the branch matrix of the lane's state
    calls = []

    def recorded(kind, kernel):
        def call(*args):
            m, x = args[-2:]
            if x.shape[1] > 1:  # scoring passes the one start as a starts axis of length 1
                calls.append((kind, m, x))
            return kernel(*args)
        return call

    monkeypatch.setattr(correlations, "branch_spectra", recorded("value", branch_spectra))
    monkeypatch.setattr(_Frame, "derivatives", recorded("derivatives", _Frame.derivatives))
    rng = np.random.default_rng(20241020)
    for dims in ((2, 3), (3, 2)):
        d_a = dims[0]
        states = [validate_density(kron(np.diag(rng.dirichlet(np.ones(d_a))),
                                        random_density(rng, (dims[1], 1)).mat), dims),
                  stack_corpus(dims, rng)[0]]
        states += [random_density(rng, dims) for _ in range(3)]
        # one draw per state keeps the (3, 2) states of this seed; every state starts at the first
        start = np.array([rand_unitary(d_a, rng) for _ in states])[:1]
        mats = np.array([rho.mat for rho in states])
        ms = branch_matrix(mats, dims)

        def run(lo, hi):
            # searches states lo..hi-1; returns their values and bases, the lanes of every
            # call of each kind, and each lane's derivative bases and trial projectors
            calls.clear()
            values, bases = _search(mats[lo:hi], dims, start, 1, iters=12)
            lanes = {"derivatives": [], "value": []}
            seen = {kind: [[] for _ in states] for kind in lanes}
            for kind, m, x in calls:
                # exactly one state has each row's branch matrix
                here = [[k for k, mk in enumerate(ms) if np.array_equal(mi, mk)] for mi in m]
                lanes[kind].append([k for (k,) in here])
                for (k,), xi in zip(here, x):
                    seen[kind][k].append(xi)
            return values, bases, lanes, seen

        idx = list(range(len(states)))
        values_all, bases_all, lanes_all, seen_all = run(0, len(states))
        for l in idx:
            values_one, bases_one, lanes_one, seen_one = run(l, l + 1)
            assert values_all[l] == values_one[0]
            assert np.array_equal(bases_all[l], bases_one[0])
            for kind in lanes_all:
                mine, alone = seen_all[kind][l], seen_one[kind][l]
                assert len(mine) == len(alone)
                assert all(np.array_equal(a, b) for a, b in zip(mine, alone))
                # a lane is in every call of a kind until it stops, and in none after
                present = [l in lanes for lanes in lanes_all[kind]]
                assert present == sorted(present, reverse=True)
                assert sum(present) == len(lanes_one[kind])
        lengths = [sum(l in lanes for lanes in lanes_all["derivatives"]) for l in idx]
        assert len(set(lengths)) > 1 and max(lengths) == len(lanes_all["derivatives"])


@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("d_a, cfg, starts", [(2, OptimizerConfig(grid_points=2), 1),
                                              (2, OptimizerConfig(grid_points=3), 4),
                                              (3, OptimizerConfig(restarts=1), 1),
                                              (3, OptimizerConfig(restarts=2), 2)])
def test_few_starts_stack_like_one_state(d_a, d_b, cfg, starts):
    # with fewer starts than the 3 lanes a state keeps, each state polishes them all
    assert len(_starts(d_a, cfg)) == starts
    states = stack_corpus((d_a, d_b), np.random.default_rng((20241024, d_a, d_b)))
    mats = np.stack([rho.mat for rho in states])
    assert classical_correlations(mats, (d_a, d_b), cfg).tolist() == [classical_correlation(rho, cfg)
                                                                      for rho in states]


@pytest.mark.parametrize("d_b, i",
                         [(d_b, i) for d_b in (2, 3, 4) for i in range(3)] + [(4, 14), (2, 41)])
def test_qubit_search_reaches_high_effort_optimum(d_b, i):
    # (4, 14) and (2, 41) lie on curved ridges that a coordinate search climbs slowly
    rho = random_density(np.random.default_rng((12345, 2, d_b, i)), (2, d_b))
    starts = _starts(2, OptimizerConfig(grid_points=256))
    high = _search(rho.mat[None], rho.dims, starts, 3, 666)[0][0]
    assert classical_correlation(rho) >= high - 1e-9


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_qubit_search_reaches_every_start_polished(d_b):
    # the reference polishes all 113 starts, so it does not depend on how the starts are ranked
    rng = np.random.default_rng((20241027, d_b))
    mats = np.stack([random_density(rng, (2, d_b)).mat for _ in range(20)])
    starts = _starts(2, OptimizerConfig())
    every = _search(mats, (2, d_b), starts, len(starts), NEWTON_ITERS[2])[0]
    assert (classical_correlations(mats, (2, d_b)) >= every - 1e-12).all()


@pytest.mark.parametrize("d_b", [3, 4])
def test_hs_ranking_keeps_the_best_exact_start(d_b):
    # with no polish, the KEEP starts that the HS score ranks first hold the best exactly scored
    # start for 34 and 30 of these 40 states; the first KEEP grid starts hold it for at most 1
    rng = np.random.default_rng((20261022, d_b))
    mats = np.stack([random_density(rng, (2, d_b)).mat for _ in range(40)])
    starts = _starts(2, OptimizerConfig())
    kept = _search(mats, (2, d_b), starts, KEEP, 0)[0]
    best = _search(mats, (2, d_b), starts, len(starts), 0)[0]
    assert (kept >= best - 1e-12).sum() >= len(mats) / 2


@pytest.mark.parametrize("d_b", [3, 4])
def test_hs_scores_match_measured_branches(d_b):
    # sum_k Tr s_k^2 / p_k = sum_k p_k Tr rho_B|k^2, each branch built and checked on its own;
    # the last two states are pure on A, along a column of a tested start, so that start has
    # an empty branch: exactly empty at the pole, and empty up to roundoff at start 88
    rng = np.random.default_rng((20241028, d_b))
    states = stack_corpus((2, d_b), rng)
    starts = _starts(2, OptimizerConfig())
    for u in starts[[0, 88]]:
        pure = np.outer(u[:, 0], u[:, 0].conj())
        states.append(validate_density(kron(pure, random_density(rng, (d_b, 1)).mat), (2, d_b)))
    starts = starts[::8]
    mats = np.stack([rho.mat for rho in states])
    scores = _hs_scores(branch_matrix(mats, (2, d_b)), basis_projectors(starts))
    assert scores.shape == (len(states), len(starts))
    for rho, row in zip(states, scores):
        for u, score in zip(starts, row):
            out = measure_on_A(rho, ProjectiveMeasurement.from_basis(u))
            want = sum(p * np.trace(c.mat @ c.mat).real for p, c in zip(out.probs, out.conditional_states))
            assert abs(score - want) <= 1e-12


def scoring_calls(monkeypatch, n_starts):
    """The number of states of each scoring product of _search, by either scorer, as it runs."""
    sizes = []

    def exact(m, projectors):
        if projectors.shape[-4] == n_starts:  # every start, so a scoring call, not a line search
            sizes.append(len(m))
        return branch_spectra(m, projectors)

    def ranked(m, projectors):
        sizes.append(len(m))
        return _hs_scores(m, projectors)

    monkeypatch.setattr(correlations, "branch_spectra", exact)
    monkeypatch.setattr(correlations, "_hs_scores", ranked)
    return sizes


@pytest.mark.parametrize("rows", [1, 3 * 226])
def test_scores_in_several_products_equal_one_product(rows, monkeypatch):
    # SCORE_ROWS = 1 takes one state per product, 3 * 226 three states of the default qubit
    # grid's 226 branch rows and all 7 qutrit states of 24 rows each; the values and bases are
    # bit for bit those of one product
    chunks = {1: {2: [1] * 7, 3: [1] * 7}, 3 * 226: {2: [3, 3, 1], 3: [7]}}[rows]
    for dims in ((2, 2), (2, 3), (2, 4), (3, 2)):
        mats = np.stack([rho.mat for rho in stack_corpus(dims, np.random.default_rng((20241029,) + dims))])
        args = (mats, dims, _starts(dims[0], OptimizerConfig()), KEEP, NEWTON_ITERS[dims[0]])
        one_values, one_bases = _search(*args)
        with monkeypatch.context() as patch:
            sizes = scoring_calls(patch, len(args[2]))
            patch.setattr(correlations, "SCORE_ROWS", rows)
            values, bases = _search(*args)
        assert sizes == chunks[dims[0]]
        assert values.tolist() == one_values.tolist()
        assert np.array_equal(bases, one_bases)


def test_default_qubit_chunk_is_scored_in_one_product(monkeypatch):
    # a full chunk of evaluate_bounds_many at (2, 2) holds 128 * 226 branch rows at the default
    # grid, within SCORE_ROWS, so one branch_spectra call scores every start of every state
    rng = np.random.default_rng(20261023)
    mats = np.stack([random_density(rng, (2, 2)).mat for _ in range(STACK_STATES)])
    sizes = scoring_calls(monkeypatch, len(_starts(2, OptimizerConfig())))
    classical_correlations(mats, (2, 2))
    assert sizes == [STACK_STATES]


@pytest.mark.parametrize("d_a", [2, 3])
def test_rank2_qubit_memory_j_matches_closed_form(d_a):
    # J of a rank-2 state with a qubit memory is S(B) - E_F(rho_BC) wherever rho_BC is entangled;
    # where C(rho_BC) = 0 the closed form is only the POVM value, which J may not exceed
    # the states are g g^+ / Tr, g a (2 dA) x 2 complex Gaussian
    states = []
    for i in range(400):
        rng = np.random.default_rng((1, 10 * d_a + 2, i))
        g = rng.normal(size=(2 * d_a, 2)) + 1j * rng.normal(size=(2 * d_a, 2))
        states.append(validate_density(g @ g.conj().T / np.vdot(g, g).real, (d_a, 2)))
    j = classical_correlations(np.stack([rho.mat for rho in states]), (d_a, 2))
    want, c = np.array([rank2_qubit_memory_j(rho) for rho in states]).T
    entangled = c > 0.0
    assert np.abs(j - want)[entangled].max() <= 1e-12
    assert (j[~entangled] <= want[~entangled] + 1e-12).all()
    # the qutrit corpus holds both cases
    assert entangled.sum() >= 350 and (d_a == 2 or not entangled.all())


@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_qutrit_lock_step_equals_each_start_refined_alone(d_b):
    # every start is scored once; the KEEP best-scored starts are polished
    cfg = OptimizerConfig()
    starts = _starts(3, cfg)
    for i in range(2):
        rho = random_density(np.random.default_rng((20241018, d_b, i)), (3, d_b))
        scored = [_search(rho.mat[None], rho.dims, starts[k:k + 1], 1, iters=0)[0][0]
                  for k in range(len(starts))]
        kept = np.argsort(-np.array(scored), kind="stable")[:KEEP]
        alone = [_search(rho.mat[None], rho.dims, starts[k:k + 1], 1, NEWTON_ITERS[3])[0][0]
                 for k in kept]
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


def test_line_search_that_does_not_improve_leaves_each_lane_where_it_was(monkeypatch):
    # one line point 16 times the Newton step: a lane moves to it only if it beats the lane's
    # own value, even where it beats another lane's, and a lane that does not move stops for good
    starts = _starts(2, OptimizerConfig())
    mats = np.array([random_density(np.random.default_rng((3, i)), (2, 3)).mat for i in range(8)])
    scored, kept = _search(mats, (2, 3), starts, 1, iters=0)
    values = []

    def recorded(*args):
        out = _holevo(*args)
        values.append(out.copy())  # the search updates its lane values in place
        return out

    monkeypatch.setattr(correlations, "_holevo", recorded)
    monkeypatch.setattr(correlations, "LINE_STEPS", np.array([16.0]))
    got, bases = _search(mats, (2, 3), starts, 1, iters=5)
    # the kept starts' kernel call, then the first line search, on every lane
    assert values[0].tolist() == scored.tolist()
    line = values[1][:, 0]
    assert len(line) == len(mats)
    stay = line <= scored
    assert got[stay].tolist() == scored[stay].tolist()
    assert np.array_equal(bases[stay], kept[stay])
    assert (got[~stay] >= line[~stay]).all()
    assert all(len(v) <= (~stay).sum() for v in values[2:])
    # the rule is tested: a lane that stays had a line point above another lane's value
    assert (line[stay] > scored.min()).any()


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
    mats = np.stack([rho.mat for rho in states])
    stacked = classical_correlations(mats, dims)
    assert stacked.tolist() == [classical_correlation(rho) for rho in states]
    # the order of a stack does not matter either
    assert classical_correlations(mats[::-1], dims).tolist() == stacked[::-1].tolist()


@pytest.mark.parametrize("dims", [(d_a, d_b) for d_a in (2, 3) for d_b in (1, 2, 3, 4)])
def test_search_basis_certifies_its_value(dims):
    states = stack_corpus(dims, np.random.default_rng((20241021,) + dims))
    mats = np.stack([rho.mat for rho in states])
    starts = _starts(dims[0], OptimizerConfig())
    values, bases = _search(mats, dims, starts, KEEP, NEWTON_ITERS[dims[0]])
    assert values.tolist() == classical_correlations(mats, dims).tolist()
    for rho, j, u in zip(states, values, bases):
        assert abs(holevo_quantity(rho, ProjectiveMeasurement.from_basis(u)) - j) <= 1e-12


def test_optimizer_grid_convergence():
    # the default 16-point grid lists 113 distinct measurements, and a grid four
    # times as fine moves the polished estimate by less than 1e-9
    assert len(_starts(2, OptimizerConfig())) == 113
    for _ in range(50):
        rho = random_density(np_rng, (2, 2))
        j16 = classical_correlation(rho)
        j64 = classical_correlation(rho, OptimizerConfig(grid_points=64))
        assert abs(j64 - j16) <= 1e-9


def test_default_effort_per_side(monkeypatch):
    # the starts, kept lanes and Newton cap classical_correlations passes at the default config
    seen = []

    def recorded(mats, dims, starts, keep, iters):
        seen.append((dims, len(starts), keep, iters))
        return _search(mats, dims, starts, keep, iters)

    monkeypatch.setattr(correlations, "_search", recorded)
    for dims in [(2, 2), (3, 2)]:
        rng = np.random.default_rng((20241025,) + dims)
        classical_correlations(np.stack([random_density(rng, dims).mat for _ in range(2)]), dims)
    assert seen == [((2, 2), 113, 3, 66), ((3, 2), 8, 3, 25)]


@pytest.mark.parametrize("field, value", [("grid_points", 16.5), ("restarts", 3.5), ("seed", 1.5),
                                          ("seed", True)])
def test_optimizer_config_rejects_non_integers(field, value):
    # each passes the range check, and all but the bool would fail later inside numpy
    with pytest.raises(ValueError) as info:
        OptimizerConfig(**{field: value})
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


def test_qubit_starts_are_the_bloch_grid_measurements():
    # the reference is the closed form: theta over the first half of the 16-point
    # grid, 16 values of phi, and the pole theta = 0 once, at phi = 0; projectors
    # are compared, so the phases of the basis columns do not matter
    thetas = np.linspace(0.0, np.pi, 16)[:8]
    phis = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    angles = [(0.0, 0.0)] + [(t, f) for t in thetas[1:] for f in phis]
    starts = _starts(2, OptimizerConfig())
    assert starts.shape == (113, 2, 2)
    for (t, f), got in zip(angles, basis_projectors(starts)):
        n = (np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t))
        n_sigma = sum(a * s for a, s in zip(n, PAULIS))
        want = np.array([np.eye(2) + n_sigma, np.eye(2) - n_sigma]) / 2.0
        assert np.abs(got - want).max() <= 1e-14


def test_correlation_bounds():
    for _ in range(25):
        rho = random_density(np_rng, (2, 2))
        j = classical_correlation(rho, FAST)
        d = clamp_discord(mutual_information(rho) - classical_correlation(rho, FAST))
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
        d = [clamp_discord(mutual_information(r) - classical_correlation(r)) for r in (rho, rotated)]
        assert abs(d[0] - d[1]) <= 1e-5


def test_discord_classical_state():
    # orthogonal-flag mixture on A carries zero discord
    rho = validate_density(
        0.5 * kron(np.diag([1.0, 0.0]), np.diag([0.2, 0.8]))
        + 0.5 * kron(np.diag([0.0, 1.0]), np.diag([0.9, 0.1])),
        (2, 2),
    )
    assert clamp_discord(mutual_information(rho) - classical_correlation(rho, FAST)) < 1e-9


def test_discord_singlet():
    rho = werner(2, 1.0)
    assert abs(clamp_discord(mutual_information(rho) - classical_correlation(rho, FAST)) - 1.0) < 1e-8


def test_discord_werner():
    f = 0.8
    rho = werner(2, f)
    expected = mutual_information(rho) - bell_diagonal_classical_closed(-f, -f, -f)
    assert abs(clamp_discord(mutual_information(rho) - classical_correlation(rho)) - expected) < 1e-6


def test_concurrence_x_singlet():
    assert abs(concurrence_x(werner(2, 1.0)) - 1.0) < 1e-12


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
    assert abs(concurrence(werner(2, 1.0)) - 1.0) < 1e-10


def test_concurrence_matches_x_formula():
    for _ in range(100):
        rho = random_x_state(np_rng)
        assert abs(concurrence(rho) - concurrence_x(rho)) <= 1e-9


def test_concurrence_rejects_a_qubit_qutrit_state():
    with pytest.raises(ValueError, match=r"two-qubit state, got dims \(2, 3\)"):
        concurrence(random_density(np_rng, (2, 3)))


def test_stacked_concurrences_equal_scalar_concurrence_bit_for_bit():
    rng = np.random.default_rng(41)
    rhos = [random_density(rng, (2, 2)) for _ in range(20)]
    rhos += [bell_diagonal(c, -c, 0.5) for c in np.linspace(-0.5, 0.5, 7)]
    rhos += [bell_like(a) for a in (0.0, 0.3, 1.0)] + [werner(2, 1.0), werner(2, 0.2)]
    stacked = concurrences(np.array([r.mat for r in rhos]))
    assert [float(c) for c in stacked] == [concurrence(r) for r in rhos]


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
