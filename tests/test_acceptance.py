"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 2 reads the limit of u(n)/K(n) by Richardson extrapolation over
n = 2000, 8000, 32000 and asserts it in the window [10.56, 11.67]; its line
reports r(n) at the three horizons, the extrapolated limit and the window.
"""

import math
import time

import numpy as np

from pinlab.disorder import DisorderLaw, draw_base, sample_coupled
from pinlab.geometry import PinnedSet, set_entropy
from pinlab.gibbs import (
    PinningModel,
    backward_sweep,
    enumerate_distribution,
    forward_table,
    set_log_weight,
)
from pinlab.harness import ExperimentConfig, run_experiment
from pinlab.polymer import binary_entropy_rate, tent_entropy
from pinlab.renewal import build_law, tilt
from pinlab.streams import substream
from pinlab.subordinator import MarkedPointSet
from pinlab.varmax import EnergyLandscape, solve_bruteforce, solve_dp

GRID = (0.3, 0.5, 0.8)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {status} {name}{suffix}")


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    disagreements = 0
    checked = 0
    for alpha in GRID:
        for gamma in GRID:
            rng = substream(101, "acc1", int(alpha * 10), int(gamma * 10))
            for _ in range(1000):
                m = int(rng.integers(1, 16))
                T, Y = draw_base(m, rng)
                beta = float(rng.uniform(0.05, 3.0))
                L = EnergyLandscape.from_marks(Y, T ** (-1.0 / alpha), beta, gamma)
                bf = solve_bruteforce(L)
                dp = solve_dp(L)
                checked += 1
                if dp != bf:
                    disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60.0
    _report(1, "solve_dp == solve_bruteforce",
            ok, f"{checked} instances, {disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 60.0


def test_criterion_02_renewal_asymptotics(tmp_path):
    # For K(n) ~ exp(-c n^gamma) with gamma = 1/2, the ratio r(n) = u(n)/K(n)
    # expands as L + a n^(-1/2) + b n^(-1) + O(n^(-3/2)), and L = 1/K_inf^2 is
    # met only around n ~ 1e5. Each 4x step in n halves n^(-1/2), so two
    # Richardson steps over n = 2000, 8000, 32000 cancel a and b. The value
    # at n = 128000 is also read directly, and must lie in the same window.
    t0 = time.monotonic()
    horizons = (2000, 8000, 32000, 128_000)
    diags = {}
    for n_eval in horizons:
        cfg = ExperimentConfig(experiment="renewal-asymptotics", gamma=0.5, c=1.0,
                               rho=0.0, k_inf=0.3, n_eval=n_eval,
                               n_max=130_000 if n_eval == 128_000 else 100_000,
                               seed=0, out_dir=str(tmp_path))
        diags[n_eval] = run_experiment(cfg).summary["diagnostics"]
    elapsed = time.monotonic() - t0
    r1, r2, r3, r4 = (diags[n]["u_over_K"] for n in horizons)
    conv2 = diags[2000]["conv2_ratio"]
    limit = (4.0 * (2.0 * r3 - r2) - (2.0 * r2 - r1)) / 3.0
    target = 1.0 / 0.3**2
    conv2_ok = abs(conv2 - 2.0) <= 0.2
    from_above = r1 > r2 > r3 > target
    limit_ok = 10.56 <= limit <= 11.67
    direct_ok = 10.56 <= r4 <= 11.67
    ok = limit_ok and direct_ok and from_above and conv2_ok and elapsed < 30.0
    _report(2, "renewal limit u/K -> 1/K_inf^2", ok,
            f"u/K at n=2000, 8000, 32000 = {r1:.4f}, {r2:.4f}, {r3:.4f}; "
            f"extrapolated limit={limit:.4f}, u/K at n=128000 = {r4:.5f} "
            f"(window [10.56, 11.67]), q*2/q={conv2:.4f}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert conv2_ok, f"q*2/q at 2000 = {conv2}, outside 2 +- 10%"
    assert from_above, (
        f"u/K at n=2000, 8000, 32000 = {r1}, {r2}, {r3} does not fall toward "
        f"1/K_inf^2 = {target:.4f} from above"
    )
    assert limit_ok, (
        f"extrapolated limit of u/K = {limit:.4f} (from {r1:.4f}, {r2:.4f}, "
        f"{r3:.4f} at n=2000, 8000, 32000) is outside [10.56, 11.67]"
    )
    assert direct_ok, f"u/K at n=128000 = {r4:.5f} is outside [10.56, 11.67]"


def _gibbs_instance(N: int):
    # strong pinning keeps the distribution concentrated enough that the
    # sampling-noise floor of the TV statistic sits well under the 0.01 bar
    law = tilt(build_law(0.5, 1.0, 0.0, 0.0, n_max=2000), 4.0)
    dlaw = DisorderLaw(0.5)
    d = sample_coupled(dlaw, N, substream(99, "acc3", N))
    beta = 10.0 * N**0.5 / d.b_N
    return PinningModel(law=law, omega=d.omega, beta=beta, N=N)


def test_criterion_03_gibbs_exactness():
    draws = 100_000
    worst_tv = 0.0
    worst_norm = 0.0
    for N in (6, 12):
        model = _gibbs_instance(N)
        dist = enumerate_distribution(model)
        table = forward_table(model)
        logZ = table[N]
        norm_err = abs(sum(
            math.exp(set_log_weight(model, idx) - logZ) for idx in dist
        ) - 1.0)
        worst_norm = max(worst_norm, norm_err)
        rng = substream(99, "acc3-draws", N)
        counts = {}
        for idx in backward_sweep(model, table, rng, draws):
            counts[idx] = counts.get(idx, 0) + 1
        tv = 0.5 * sum(abs(counts.get(idx, 0) / draws - p) for idx, p in dist.items())
        worst_tv = max(worst_tv, tv)
    ok = worst_tv < 0.01 and worst_norm < 1e-9
    _report(3, "gibbs sampler vs enumeration", ok,
            f"max TV={worst_tv:.4f} over N in (6,12), norm err={worst_norm:.2e}")
    assert worst_tv < 0.01
    assert worst_norm < 1e-9


def test_criterion_04_concentration_trend(tmp_path):
    t0 = time.monotonic()
    cfg = ExperimentConfig(experiment="concentration", alpha=0.5, gamma=0.5,
                           beta_hat=1.0, h=1.0, N_list=(64, 128, 256, 512, 1024, 2048),
                           n_samples=20_000, seed=2024, out_dir=str(tmp_path))
    rep = run_experiment(cfg)
    elapsed = time.monotonic() - t0
    s = rep.summary
    ok = s["negative_at_95"] and elapsed < 600.0
    _report(4, "log P(d_H > 0.1) slope vs N^gamma", ok,
            f"slope={s['slope']:.4f}, ci95={[round(v, 4) for v in s['slope_ci95']]}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert s["negative_at_95"], f"slope CI {s['slope_ci95']} does not exclude 0"


def test_criterion_05_convergence_medians(tmp_path):
    cfg = ExperimentConfig(experiment="convergence", alpha=0.5, gamma=0.5, beta_hat=1.0,
                           N_list=(64, 256, 1024), k_list=(256,), replicas=200,
                           seed=11, out_dir=str(tmp_path))
    rep = run_experiment(cfg)
    meds = rep.summary["medians"]
    ok = rep.summary["monotone_ok"]
    _report(5, "median d_H to continuum maximizer non-increasing", ok,
            f"medians={ {k: round(v, 6) for k, v in meds.items()} }, "
            f"inversions={rep.summary['inversions']}")
    assert ok


def test_criterion_06_threshold_positivity(tmp_path):
    all_ok = True
    details = []
    for alpha in GRID:
        for gamma in GRID:
            cfg = ExperimentConfig(experiment="threshold-pinning", alpha=alpha,
                                   gamma=gamma, k_list=(128, 512), replicas=500,
                                   seed=6, out_dir=str(tmp_path))
            s = run_experiment(cfg).summary
            stable = s["p05_rel_change"][0] < 0.20
            all_ok &= s["all_positive"] and stable
            details.append(f"a={alpha},g={gamma}: p05={s['per_k']['512']['p05']:.2e} "
                           f"change={s['p05_rel_change'][0]:.3f}")
    _report(6, "pinning threshold positive and stable in k", all_ok, "; ".join(details[:3]) + " ...")
    assert all_ok


def test_criterion_07_polymer_dichotomy(tmp_path):
    out = {}
    for alpha in (0.3, 0.8, 1.5):
        cfg = ExperimentConfig(experiment="threshold-polymer", alpha=alpha,
                               k_list=(32, 128, 512), replicas=200, seed=5,
                               out_dir=str(tmp_path))
        out[alpha] = run_experiment(cfg).summary
    stable_low = out[0.3]["median_rel_change"][1] < 0.20  # k=2^7 -> 2^9
    dec_mid = out[0.8]["strictly_decreasing"]
    dec_high = out[1.5]["strictly_decreasing"]
    ok = stable_low and dec_mid and dec_high
    _report(7, "polymer threshold dichotomy in alpha", ok,
            f"a=0.3 rel change 128->512 = {out[0.3]['median_rel_change'][1]:.3f}; "
            f"a=0.8 decreasing={dec_mid}; a=1.5 decreasing={dec_high}")
    assert stable_low
    assert dec_mid and dec_high


def test_criterion_08_entropy_laws():
    cases = 100_000
    rng = substream(88, "acc8")
    violations = 0

    # strict insertion monotonicity on full sets
    for _ in range(cases // 10):
        pts = np.unique(rng.uniform(0.001, 0.999, rng.integers(0, 12)))
        I = PinnedSet(np.concatenate([[0.0], pts, [1.0]]))
        gamma = float(rng.uniform(0.05, 0.95))
        x = float(rng.uniform(0.0005, 0.9995))
        if np.min(np.abs(I.points - x)) <= 1e-9:
            continue
        if not set_entropy(I.insert(x), gamma) > set_entropy(I, gamma):
            violations += 1
    # vectorized insertion increments: (x-a)^g + (b-x)^g - (b-a)^g > 0
    a = rng.uniform(0.0, 0.98, cases)
    b = a + rng.uniform(1e-9, 1.0 - a)
    x = a + rng.uniform(0.0, 1.0, cases) * (b - a)
    g = rng.uniform(0.05, 0.95, cases)
    inc = (x - a) ** g + (b - x) ** g - (b - a) ** g
    violations += int(np.sum(inc[(x > a) & (x < b)] <= 0.0))

    # superadditivity of gap costs
    u = rng.uniform(1e-9, 1.0, cases)
    v = rng.uniform(1e-9, 1.0, cases)
    g2 = rng.uniform(0.05, 0.95, cases)
    violations += int(np.sum(u**g2 + v**g2 <= (u + v) ** g2))

    # reflection symmetry within float tolerance
    for _ in range(cases // 10):
        pts = np.unique(rng.uniform(0.001, 0.999, rng.integers(0, 12)))
        I = PinnedSet(np.concatenate([[0.0], pts, [1.0]]))
        gamma = float(rng.uniform(0.05, 0.95))
        e1 = set_entropy(I, gamma)
        e2 = set_entropy(I.reflect(), gamma)
        if not math.isclose(e1, e2, rel_tol=1e-9):
            violations += 1

    # tent-entropy lower bound with C0 from a dense grid plus its y->0 limit row
    xs = np.linspace(0.005, 0.995, 199)
    grid_ratios = [1.0 / (2 * x) + 1.0 / (2 * (1 - x)) for x in xs]  # analytic limit
    for x in xs:
        for frac in np.linspace(0.02, 0.999, 60):
            y = frac * min(x, 1.0 - x)
            grid_ratios.append(tent_entropy(x, y) / y**2)
    C0 = float(min(grid_ratios))
    assert C0 > 0.0
    cx = rng.uniform(0.0, 1.0, cases)
    cy = rng.uniform(-1.0, 1.0, cases) * np.minimum(cx, 1.0 - cx)
    keep = np.abs(cy) > 0
    slope1 = cy[keep] / cx[keep]
    slope2 = cy[keep] / (1.0 - cx[keep])
    tents = cx[keep] * binary_entropy_rate(slope1) + (1.0 - cx[keep]) * binary_entropy_rate(slope2)
    # 1e-6 relative headroom for float cancellation at very small slopes
    violations += int(np.sum(tents < C0 * cy[keep] ** 2 * (1.0 - 1e-6)))

    ok = violations == 0
    _report(8, "entropy laws on randomized cases", ok,
            f"violations={violations}, tent C0={C0:.4f}")
    assert violations == 0


def test_criterion_09_subordinator_checks(tmp_path, growth_oracle):
    cfg = ExperimentConfig(experiment="subordinator-growth", alpha=0.5, q=1.5,
                           k_list=(1000,), replicas=1000, seed=14,
                           out_dir=str(tmp_path))
    rep = run_experiment(cfg)
    s = rep.summary
    cell = np.loadtxt(rep.cells[0], delimiter=",", skiprows=1)
    sups = cell[:, 1]
    # every tenth replica's marks, redrawn: sup_coarse is the edge_process
    # supremum over [t_lo, t_hi] within the summation bound of growth_oracle
    checked = range(0, cfg.replicas, 10)
    off = 0
    for r in checked:
        T, Y = draw_base(cfg.k_list[0], substream(cfg.seed, "subordinator-growth", r))
        mps = MarkedPointSet(T ** (-1.0 / cfg.alpha), Y)
        want, rel = growth_oracle(mps, cfg.alpha, cfg.q, cfg.t_lo, cfg.t_hi)
        off += abs(sups[r] - want) > rel * want
    oracle_ok = off == 0 and np.array_equal(cell[:, 2], sups)
    ok = s["w_ge_u_ok"] and s["homogeneity_ok_3sigma"] and oracle_ok
    zs = {k: round(v["z"], 2) for k, v in s["homogeneity"].items()}
    _report(9, "subordinator band and growth checks", ok,
            f"W>=U: {s['w_ge_u_ok']}, homogeneity z={zs}, "
            f"growth supremum off the oracle in {off} of {len(checked)} replicas")
    assert s["w_ge_u_ok"]
    assert s["homogeneity_ok_3sigma"]
    assert oracle_ok


def test_criterion_10_determinism(tmp_path):
    def run_into(sub):
        cfg = ExperimentConfig(experiment="convergence", N_list=(16, 32), k_list=(16,),
                               replicas=8, seed=42, out_dir=str(tmp_path / sub))
        return run_experiment(cfg)

    rep_a = run_into("a")
    rep_b = run_into("b")
    pairs = list(zip(rep_a.cells, rep_b.cells))
    identical = all(open(x, "rb").read() == open(y, "rb").read() for x, y in pairs)
    rep_c = run_into("a")  # in-place rerun resumes and leaves bytes unchanged
    identical &= all(open(x, "rb").read() == open(y, "rb").read()
                     for x, y in zip(rep_a.cells, rep_c.cells))
    summaries_match = rep_a.summary == rep_b.summary == rep_c.summary
    ok = identical and summaries_match
    _report(10, "byte-identical reruns", ok,
            f"cells compared={len(pairs)}, summaries match={summaries_match}")
    assert identical and summaries_match
