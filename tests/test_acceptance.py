"""End-to-end checks of the toolkit's published guarantees.

Each test builds its oracle independently inside the test body, runs the
library against it, and emits a single "ACCEPTANCE n: PASS/FAIL" line with
the elapsed time.  Runtime budgets are asserted alongside the numeric
checks, so a slow pass is a failure.
"""

import itertools
import math
import time

import numpy as np

import spbench as sb
from spbench import cli
from test_hessians import fd_gradient

TWO_PI = 2.0 * math.pi

RING_NEWTON_SEED = 21
RING_HOMOTOPY_SEED = 22
RING_ACCEPT_TOL = 1e-13
THOMSON_SEED = 0
DISORDER_GRADSQ = dict(starts=500, seed=7, max_iters=1500)


def _report(num, checks, detail):
    bad = [name for name, ok in checks if not ok]
    verdict = "FAIL" if bad else "PASS"
    line = "ACCEPTANCE %d: %s (%s)" % (num, verdict, detail)
    if bad:
        line += "; failed: " + ", ".join(bad)
    print(line)
    assert not bad, line


def test_criterion_01_phi4_grid_census_matches_enumeration():
    t0 = time.perf_counter()
    lam, mu2 = 0.6, 2.0
    inst = sb.Phi4Lattice(2, lam=lam, mu2=mu2, J=0.0)

    # with no coupling the sites separate: every stationary point picks one
    # cubic root per site, and curvature is negative exactly at the 0 root
    root = math.sqrt(6.0 * mu2 / lam)
    oracle = []
    for combo in itertools.product((0.0, root, -root), repeat=inst.n):
        phi = np.array(combo)
        energy = float(np.sum(-0.5 * mu2 * phi ** 2 + lam * phi ** 4 / 24.0))
        index = sum(1 for v in combo if v == 0.0)
        oracle.append((phi, energy, index))

    res = sb.multistart(inst, sb.SolverConfig(method="newton", seed=0),
                        starts=inst.grid_starts())
    pts = res.solutions.points

    matched = 0
    for phi, energy, index in oracle:
        hits = [sp for sp in pts if np.max(np.abs(sp.point - phi)) <= 1e-8]
        if (len(hits) == 1 and abs(hits[0].energy - energy) <= 1e-8
                and hits[0].index == index):
            matched += 1

    elapsed = time.perf_counter() - t0
    checks = [
        ("81 distinct points", len(pts) == 81),
        ("oracle bijection", matched == 81),
        ("index histogram", res.solutions.index_histogram()
         == {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}),
        ("bezout count", sb.phi4_bezout(2) == 81),
        ("runtime < 5s", elapsed < 5.0),
    ]
    _report(1, checks, "%d/81 matched, %.2fs" % (matched, elapsed))


def test_criterion_02_phi4_uniform_points_survive_coupling():
    t0 = time.perf_counter()
    root = math.sqrt(20.0)
    worst = 0.0
    for coupling in (0.1, 0.5, 1.0):
        inst = sb.Phi4Lattice(3, J=coupling)
        for val in (0.0, root, -root):
            r = inst.residual(np.full(inst.n, val))
            worst = max(worst, float(np.max(np.abs(r))))
    elapsed = time.perf_counter() - t0
    checks = [
        ("residual <= 1e-12", worst <= 1e-12),
        ("runtime < 1s", elapsed < 1.0),
    ]
    _report(2, checks, "worst residual %.2e, %.2fs" % (worst, elapsed))


def test_criterion_03_analytic_gradients_match_central_differences():
    t0 = time.perf_counter()
    rng0 = np.random.default_rng(2024)
    pay_a = rng0.uniform(-1.0, 1.0, (2, 3))
    pay_b = rng0.uniform(-1.0, 1.0, (2, 3))
    puz, _ = sb.generate_grid_puzzle(2, 2, 3, seed=5)
    instances = [
        sb.Phi4Lattice(3, J=0.5),
        sb.XYLattice(2, 3, disorder="uniform-signed", seed=3),
        sb.ThomsonSphere(5),
        sb.LennardJonesCluster(4),
        sb.MorseCluster(4, rho=6.0),
        sb.NashInstance(sb.NashGame([pay_a, pay_b])),
        sb.PuzzleInstance(puz),
    ]
    worst = {}
    for k, inst in enumerate(instances):
        errs = []
        for i in range(100):
            rng = np.random.default_rng((4100, k, i))
            x = inst.sample_start(rng)
            ga = inst.gradient(x)
            gfd = fd_gradient(inst, x)
            errs.append(float(np.linalg.norm(ga - gfd))
                        / (1.0 + float(np.linalg.norm(ga))))
        worst[inst.family] = max(errs)
    elapsed = time.perf_counter() - t0
    checks = [(fam, err < 1e-6) for fam, err in worst.items()]
    checks.append(("runtime < 30s", elapsed < 30.0))
    top = max(worst, key=worst.get)
    _report(3, checks, "7 families x 100 points, worst rel err %.1e (%s), %.2fs"
            % (worst[top], top, elapsed))


def test_criterion_04_dimer_closed_forms():
    t0 = time.perf_counter()
    lj = sb.LennardJonesCluster(2)
    morse = sb.MorseCluster(2, rho=6.0)

    def deepest(inst):
        # 32 separations from [0.8, 2.5), start i drawn by its own generator (4, i)
        starts = [np.random.default_rng((4, i)).uniform(0.8, 2.5, 1) for i in range(32)]
        res = sb.multistart(inst, sb.SolverConfig(method="newton", seed=4), starts=starts)
        return min(res.solutions.points, key=lambda sp: sp.energy)

    lj_min = deepest(lj)
    morse_min = deepest(morse)
    elapsed = time.perf_counter() - t0
    checks = [
        ("lj separation", abs(lj_min.point[0] - 2.0 ** (1.0 / 6.0)) <= 1e-10),
        ("lj energy", abs(lj_min.energy + 1.0) <= 1e-10),
        ("morse separation", abs(morse_min.point[0] - 1.0) <= 1e-10),
        ("morse energy", abs(morse_min.energy + 1.0) <= 1e-12),
        ("lj curvature 72", sb.pair_curvature(lj) == 72.0),
        ("morse curvature 72", sb.pair_curvature(morse) == 72.0),
        ("runtime < 1s", elapsed < 1.0),
    ]
    _report(4, checks, "lj r=%.12f, morse r=%.12f, curvatures 72 == 72, %.2fs"
            % (lj_min.point[0], morse_min.point[0], elapsed))


def test_criterion_05_thomson_small_clusters():
    t0 = time.perf_counter()
    targets = {2: 0.5, 3: math.sqrt(3.0), 4: 6.0 / math.sqrt(8.0 / 3.0)}
    checks = []

    def best_energy(charges, seed):
        cfg = sb.SolverConfig(method="newton", starts=200, seed=seed)
        res = sb.multistart(sb.ThomsonSphere(charges), cfg)
        energies = [sp.energy for sp in res.solutions.points]
        assert energies, "no converged points for N=%d" % charges
        return min(energies)

    for charges, target in targets.items():
        best = best_energy(charges, THOMSON_SEED)
        checks.append(("N=%d optimum" % charges, abs(best - target) <= 1e-8))

    spreads = {}
    for charges in (5, 6):
        bests = [best_energy(charges, seed) for seed in (0, 1, 2)]
        spreads[charges] = max(bests) - min(bests)
        checks.append(("N=%d seed agreement" % charges,
                       spreads[charges] <= 1e-8))

    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 60s", elapsed < 60.0))
    _report(5, checks, "N=2..4 at known optima, N=5,6 spread %.1e/%.1e, %.1fs"
            % (spreads[5], spreads[6], elapsed))


def _ring_grad(theta):
    # theta has shape (m, 4); bond k joins sites k and k+1 mod 4
    diff = theta - np.roll(theta, -1, axis=1)
    s = np.sin(diff)
    return (s - np.roll(s, 1, axis=1))[:, 1:]


def _ring_hess(theta):
    diff = theta - np.roll(theta, -1, axis=1)
    c = np.cos(diff)
    m = theta.shape[0]
    hess = np.zeros((m, 4, 4))
    for k in range(4):
        kn = (k + 1) % 4
        hess[:, k, k] += c[:, k]
        hess[:, kn, kn] += c[:, k]
        hess[:, k, kn] -= c[:, k]
        hess[:, kn, k] -= c[:, k]
    return hess[:, 1:, 1:]


def _ring_energy(angles3):
    theta = np.concatenate(([0.0], angles3))
    diff = theta - np.roll(theta, -1)
    return float(np.sum(1.0 - np.cos(diff)))


def _solve3(hess, rhs):
    # cofactor solve of a batch of 3x3 systems; singular rows get a zero step
    a, b, c = hess[:, 0, 0], hess[:, 0, 1], hess[:, 0, 2]
    d, e, f = hess[:, 1, 0], hess[:, 1, 1], hess[:, 1, 2]
    g, h, i = hess[:, 2, 0], hess[:, 2, 1], hess[:, 2, 2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    live = np.abs(det) > 1e-12
    safe = np.where(live, det, 1.0)
    r0, r1, r2 = rhs[:, 0], rhs[:, 1], rhs[:, 2]
    x0 = (r0 * (e * i - f * h) - b * (r1 * i - f * r2) + c * (r1 * h - e * r2)) / safe
    x1 = (a * (r1 * i - f * r2) - r0 * (d * i - f * g) + c * (d * r2 - r1 * g)) / safe
    x2 = (a * (e * r2 - r1 * h) - b * (d * r2 - r1 * g) + r0 * (d * h - e * g)) / safe
    step = np.column_stack((x0, x1, x2))
    step[~live] = 0.0
    return step


def _angle_key(p):
    c = np.mod(np.asarray(p, dtype=float), TWO_PI)
    c[c > TWO_PI - 1e-6] = 0.0
    return tuple(np.round(c, 6))


def test_criterion_06_xy_ring_matches_grid_oracle():
    t0 = time.perf_counter()

    # oracle: polish every point of the full 80^3 grid with its own Newton
    # iteration, keep well-converged roots, and drop anything whose Hessian
    # has a near-zero eigenvalue (the ring carries whole curves of degenerate
    # stationary points, so only the isolated ones form a finite list)
    axis = np.arange(80) * (math.pi / 40.0)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    theta = np.zeros((80 ** 3, 4))
    for k in range(3):
        theta[:, k + 1] = mesh[k].ravel()

    alive = np.ones(theta.shape[0], dtype=bool)
    for _ in range(50):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        grad = _ring_grad(theta[idx])
        done = np.linalg.norm(grad, axis=1) <= 1e-13
        alive[idx[done]] = False
        idx = idx[~done]
        if idx.size == 0:
            break
        step = _solve3(_ring_hess(theta[idx]), -grad[~done])
        norms = np.linalg.norm(step, axis=1)
        big = norms > 1.0
        step[big] /= norms[big][:, None]
        theta[idx, 1:] += step

    grad = _ring_grad(theta)
    roots = theta[np.linalg.norm(grad, axis=1) <= 1e-12]
    eigs = np.linalg.eigvalsh(_ring_hess(roots))
    cut = 1e-6 * (1.0 + np.max(np.abs(eigs), axis=1))
    isolated = roots[np.min(np.abs(eigs), axis=1) > cut]
    oracle = {_angle_key(p[1:]) for p in isolated}

    inst = sb.XYLattice(1, 4)
    found = {}
    for method, seed in (("newton", RING_NEWTON_SEED),
                         ("homotopy", RING_HOMOTOPY_SEED)):
        cfg = sb.SolverConfig(method=method, starts=1000, seed=seed,
                              accept_tol=RING_ACCEPT_TOL)
        res = sb.multistart(inst, cfg)
        found[method] = {_angle_key(sp.point)
                         for sp in res.solutions.points if not sp.singular}

    zero_key = _angle_key(np.zeros(3))
    energies = {key: _ring_energy(np.array(key)) for key in oracle}
    elapsed = time.perf_counter() - t0
    checks = [
        ("oracle found >= 2", len(oracle) >= 2),
        ("newton subset", found["newton"] <= oracle),
        ("homotopy subset", found["homotopy"] <= oracle),
        ("jointly complete", (found["newton"] | found["homotopy"]) == oracle),
        ("all-zero in list", zero_key in oracle),
        ("all-zero is global min at 0",
         zero_key in oracle and energies[zero_key] == 0.0
         and all(v > 0.0 for k, v in energies.items() if k != zero_key)),
        ("runtime < 120s", elapsed < 120.0),
    ]
    _report(6, checks, "oracle %d isolated SPs, newton %d, homotopy %d, %.1fs"
            % (len(oracle), len(found["newton"]), len(found["homotopy"]),
               elapsed))


def test_criterion_07_gradsq_reports_spurious_minima():
    t0 = time.perf_counter()
    inst = sb.XYLattice(2, 3, disorder="uniform-signed", seed=1)
    cfg = sb.SolverConfig(method="gradsq", **DISORDER_GRADSQ)
    res = sb.multistart(inst, cfg)

    spurious = [o for o in res.outcomes
                if o.status is sb.Status.SPURIOUS_MINIMUM]
    converged = [o for o in res.outcomes if o.status is sb.Status.CONVERGED]
    spur_norms = [float(np.linalg.norm(inst.gradient(o.point)))
                  for o in spurious]
    conv_norms = [float(np.linalg.norm(inst.gradient(o.point)))
                  for o in converged]

    elapsed = time.perf_counter() - t0
    checks = [
        ("spurious minima found", len(spurious) >= 1),
        ("spurious have W > 0", all(g > 0.0 for g in spur_norms)),
        ("some starts converged", len(converged) > 0),
        ("converged revalidate <= 1e-10",
         all(g <= 1e-10 for g in conv_norms)),
        ("runtime < 60s", elapsed < 60.0),
    ]
    _report(7, checks, "%d spurious, %d converged (max grad %.1e), %.1fs"
            % (len(spurious), len(converged),
               max(conv_norms, default=0.0), elapsed))


def _best_response_ok(pay_a, pay_b, p, q, tol=1e-7):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p < -tol) or np.any(q < -tol):
        return False
    if abs(float(np.sum(p)) - 1.0) > tol or abs(float(np.sum(q)) - 1.0) > tol:
        return False
    row = pay_a @ q
    col = p @ pay_b
    return (bool(np.all(row[p > tol] >= np.max(row) - tol))
            and bool(np.all(col[q > tol] >= np.max(col) - tol)))


def _support_candidates(pay_a, pay_b):
    """All equilibria of a nondegenerate 2x2 game: pure profiles that survive
    the best-response inequalities plus the indifference-mixing point when it
    lands inside the simplex."""
    eye = np.eye(2)
    cands = []
    for i in range(2):
        for j in range(2):
            if (pay_a[i, j] >= pay_a[1 - i, j]
                    and pay_b[i, j] >= pay_b[i, 1 - j]):
                cands.append((eye[i].copy(), eye[j].copy()))
    den_q = (pay_a[0, 0] - pay_a[1, 0]) + (pay_a[1, 1] - pay_a[0, 1])
    den_p = (pay_b[0, 0] - pay_b[0, 1]) + (pay_b[1, 1] - pay_b[1, 0])
    if abs(den_q) > 1e-6 and abs(den_p) > 1e-6:
        q0 = (pay_a[1, 1] - pay_a[0, 1]) / den_q
        p0 = (pay_b[1, 1] - pay_b[1, 0]) / den_p
        if -1e-9 <= q0 <= 1.0 + 1e-9 and -1e-9 <= p0 <= 1.0 + 1e-9:
            cands.append((np.array([p0, 1.0 - p0]),
                          np.array([q0, 1.0 - q0])))
    return cands


def test_criterion_08_nash_oracle_equivalence():
    t0 = time.perf_counter()
    checks = []

    for name, game in (("pennies", sb.matching_pennies()),
                       ("dilemma", sb.prisoners_dilemma())):
        pay_a, pay_b = game.payoffs
        inst = sb.NashInstance(game)
        res = sb.multistart(inst, sb.SolverConfig(method="newton",
                                                  starts=100, seed=11))
        eq_pts = []
        for sp in res.solutions.points:
            probs, pis = inst.split(sp.point)
            flag, _ = sb.is_equilibrium(game, probs, pis)
            if flag:
                eq_pts.append((np.array(probs[0]), np.array(probs[1])))
        cands = _support_candidates(pay_a, pay_b)
        oracle_agrees = all(_best_response_ok(pay_a, pay_b, p, q)
                            for p, q in eq_pts)
        all_found = all(
            any(np.max(np.abs(p - fp)) <= 1e-6
                and np.max(np.abs(q - fq)) <= 1e-6 for fp, fq in eq_pts)
            for p, q in cands)
        checks.append(("%s equilibria found" % name, len(eq_pts) >= 1))
        checks.append(("%s oracle agrees" % name, oracle_agrees))
        checks.append(("%s oracle set covered" % name,
                       len(cands) >= 1 and all_found))

    rng = np.random.default_rng(31415)
    worst_res = 0.0
    oracle_rejections = 0
    flagged = 0
    for gi in range(100):
        pay_a = rng.uniform(-1.0, 1.0, (2, 2))
        pay_b = rng.uniform(-1.0, 1.0, (2, 2))
        game = sb.NashGame([pay_a, pay_b])
        inst = sb.NashInstance(game)
        for p, q in _support_candidates(pay_a, pay_b):
            pis = np.array([p @ pay_a @ q, p @ pay_b @ q])
            r = sb.nash_residual(game, [p, q], pis)
            worst_res = max(worst_res, float(np.max(np.abs(r))))
        res = sb.multistart(inst, sb.SolverConfig(method="newton",
                                                  starts=20, seed=1000 + gi))
        for sp in res.solutions.points:
            probs, pis = inst.split(sp.point)
            flag, _ = sb.is_equilibrium(game, probs, pis)
            if flag:
                flagged += 1
                if not _best_response_ok(pay_a, pay_b, probs[0], probs[1]):
                    oracle_rejections += 1

    elapsed = time.perf_counter() - t0
    checks += [
        ("random games flag equilibria", flagged >= 100),
        ("no oracle rejections", oracle_rejections == 0),
        ("candidate residual < 1e-9", worst_res < 1e-9),
        ("runtime < 30s", elapsed < 30.0),
    ]
    _report(8, checks, "%d flagged points all pass oracle, "
            "worst candidate residual %.1e, %.1fs"
            % (flagged, worst_res, elapsed))


def test_criterion_09_puzzle_soundness_and_converse_failure():
    t0 = time.perf_counter()
    shapes = [(2, 2), (2, 1), (1, 2), (3, 1), (1, 3), (4, 1), (1, 4),
              (2, 2), (3, 1), (2, 1)]
    all_verified = True
    all_small = True
    worst = 0.0
    for seed in range(50):
        cols, rows = shapes[seed % len(shapes)]
        puz, sol = sb.generate_grid_puzzle(cols, rows, 1 + seed % 3,
                                           seed=seed)
        assert puz.n_pieces() <= 4
        all_verified &= sb.verify_geometric(puz, sol)
        lin = float(np.max(np.abs(sb.linear_residual(puz, sol))))
        expo = float(np.max(np.abs(sb.exponential_residual(puz, sol))))
        worst = max(worst, lin, expo)
        all_small &= lin < 1e-9 and expo < 1e-9

    # one interior color makes every linear constraint relative, so a rigid
    # shift of all pieces stays in the kernel while the geometry is wrong
    puz, sol = sb.generate_grid_puzzle(2, 1, 1, seed=0)
    shifted = sol + np.array([0.35, -0.2])
    lin_shift = float(np.max(np.abs(sb.linear_residual(puz, shifted))))
    exp_shift = float(np.linalg.norm(sb.exponential_residual(puz, shifted)))

    elapsed = time.perf_counter() - t0
    checks = [
        ("50 placements verify", all_verified),
        ("both residuals < 1e-9", all_small),
        ("shifted linear residual ~ 0", lin_shift < 1e-9),
        ("shifted fails geometry", not sb.verify_geometric(puz, shifted)),
        ("exponential rejects shift", exp_shift > 1e-6),
        ("runtime < 30s", elapsed < 30.0),
    ]
    _report(9, checks, "50 puzzles sound (worst %.1e), converse: linear %.1e "
            "vs exponential %.2f, %.1fs" % (worst, lin_shift, exp_shift,
                                            elapsed))


def _run_cli(argv):
    rc = cli.main(argv)
    assert rc == 0, "cli failed: %s" % " ".join(argv)


def test_criterion_10_thread_count_determinism(tmp_path):
    t0 = time.perf_counter()
    generators = [
        ["generate", "phi4", "--N", "2", "-o", str(tmp_path / "census.json")],
        ["generate", "thomson", "--charges", "4",
         "-o", str(tmp_path / "shell.json")],
        ["generate", "xy", "--d", "1", "--L", "4",
         "-o", str(tmp_path / "ring.json")],
        ["generate", "xy", "--d", "2", "--L", "3",
         "--disorder", "uniform-signed", "--seed", "1",
         "-o", str(tmp_path / "disordered.json")],
    ]
    for argv in generators:
        _run_cli(argv)

    campaigns = [
        ("census", "census.json",
         ["--method", "newton", "--starts", "grid3"]),
        ("shell", "shell.json",
         ["--method", "newton", "--starts", "200",
          "--seed", str(THOMSON_SEED)]),
        ("ring-newton", "ring.json",
         ["--method", "newton", "--starts", "1000",
          "--seed", str(RING_NEWTON_SEED), "--tol", str(RING_ACCEPT_TOL)]),
        ("ring-homotopy", "ring.json",
         ["--method", "homotopy", "--starts", "1000",
          "--seed", str(RING_HOMOTOPY_SEED), "--tol", str(RING_ACCEPT_TOL)]),
        ("disordered-gradsq", "disordered.json",
         ["--method", "gradsq", "--starts",
          str(DISORDER_GRADSQ["starts"]), "--seed",
          str(DISORDER_GRADSQ["seed"]), "--max-iters",
          str(DISORDER_GRADSQ["max_iters"])]),
    ]
    checks = []
    for name, inst_file, extra in campaigns:
        blobs = {}
        for run in (1, 2):
            out = tmp_path / ("%s-run%d.json" % (name, run))
            _run_cli(["solve", str(tmp_path / inst_file),
                      "-o", str(out)] + extra)
            blobs[run] = out.read_bytes()
        checks.append(("%s byte-identical" % name, blobs[1] == blobs[2]))

    elapsed = time.perf_counter() - t0
    _report(10, checks, "%d campaigns identical across two runs, %.1fs"
            % (len(campaigns), elapsed))
