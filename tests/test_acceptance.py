"""Executable acceptance criteria.

Every test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance.  The random suites are
seeded, so the whole module is deterministic.
"""

import gc
import itertools
import json
import math
import statistics
import time

import numpy as np
import pytest

from tsalign import (
    ConstraintConfig,
    WeightParams,
    compose_exact,
    compose_expectation,
    compose_greedy,
    compose_setpacking,
    conflicts,
    consistency_delta,
    fit_model,
    generate_candidates,
    generate_synthetic,
    inject_mcar,
    phi_similarity,
    theta_similarity,
)
from tsalign.cli import main, write_table
from conftest import (
    aligned_tuples,
    assert_same_alignment,
    brute_force_candidates,
    expectation_scan,
    mwis_bruteforce,
    random_table,
    weight,
)

BENCH_N = 2000
BENCH_M = 4
BENCH_JITTER = 4.0
BENCH_SEEDS = 5


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def make_instance(seed: int, max_candidates: int = 12):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(3, 9))
    table = random_table(rng, m, n, missing_rate=0.25)
    theta = float(rng.uniform(2, 25 * n))
    beta = int(rng.integers(0, 3))
    cfg = ConstraintConfig(theta=theta, beta=beta)
    rc = generate_candidates(table, cfg)
    if not 1 <= len(rc) <= max_candidates:
        return None
    params = WeightParams(k1=float(rng.integers(1, 5)), k2=float(rng.integers(1, 5)))
    return table, rc, cfg, params


def collect(count: int, start_seed: int, **kwargs):
    out, seed = [], start_seed
    while len(out) < count:
        inst = make_instance(seed, **kwargs)
        seed += 1
        if inst is not None:
            out.append(inst)
    return out


@pytest.fixture(scope="session")
def instance_suite():
    """Criterion-2 suite, shared by the ratio and cardinality bounds."""
    suite = []
    for table, rc, cfg, params in collect(220, start_seed=0):
        exact = compose_exact(rc, cfg, params)
        suite.append((table, rc, cfg, params, exact))
    return suite


@pytest.fixture(scope="session")
def bench_runs(tmp_path_factory):
    """The rows of one ``tsalign bench`` run, by (strategy, rate) in seed order."""
    report = tmp_path_factory.mktemp("bench") / "bench.json"
    assert main(["bench", "--n", str(BENCH_N), "--m", str(BENCH_M),
                 "--jitter", str(BENCH_JITTER), "--rates", "0.1", "0.4",
                 "--seeds", str(BENCH_SEEDS), "--seed", "0",
                 "--strategies", "greedy", "expect", "--report", str(report)]) == 0
    runs = {}
    for row in json.loads(report.read_text()):
        runs.setdefault((row["strategy"], row["rate"]), []).append(row)
    return runs


def test_criterion_01_candidate_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(500):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 9))
        table = random_table(rng, m, n, missing_rate=float(rng.uniform(0, 0.6)))
        theta = float(rng.uniform(0, 30 * n))
        beta = int(rng.integers(0, 4))
        cfg = ConstraintConfig(theta=theta, beta=beta)
        fast = generate_candidates(table, cfg).slots.tolist()
        slow = brute_force_candidates(table, cfg).slots.tolist()
        assert fast == slow, f"divergence on m={m} n={n} theta={theta} beta={beta}"
        checked += 1
    elapsed = time.perf_counter() - started
    announce(1, checked == 500 and elapsed < 30,
             f"candidate generator == brute force on {checked} random tables "
             f"({elapsed:.1f}s)")


def test_criterion_02_exact_composer_optimality(instance_suite):
    started = time.perf_counter()
    for table, rc, cfg, params, exact in instance_suite:
        tuples = aligned_tuples(rc.slots)
        weights = [weight(r, table, params) for r in tuples]
        pairs = [(i, j) for i in range(len(rc)) for j in range(i + 1, len(rc))
                 if conflicts(tuples[i], tuples[j])]
        oracle = mwis_bruteforce(weights, pairs, len(rc))
        assert abs(exact.total_weight - oracle) <= 1e-9, \
            f"exact {exact.total_weight} != oracle {oracle}"
    elapsed = time.perf_counter() - started
    announce(2, elapsed < 60,
             f"exact composer matches the independent max-weight-independent-set "
             f"oracle on {len(instance_suite)} instances ({elapsed:.1f}s)")


def _theory_bounds(m: int, n_opt: int, cfg, params):
    p_max = m * (m - 1) / 2
    w_max = (params.k1 * p_max + params.b) / params.c
    w_min = params.b / (params.k2 * cfg.beta * m * (m - 1) / 2 + params.c)
    ceil_nm = math.ceil(n_opt / m)
    return w_max, w_min, ceil_nm


def test_criterion_03_setpacking_ratio_bound(instance_suite):
    worst = math.inf
    for table, rc, cfg, params, exact in instance_suite:
        if exact.total_weight <= 0:
            continue
        packed = compose_setpacking(rc, cfg, params)
        ratio = packed.total_weight / exact.total_weight
        bound = 3 / (2 * (table.m + 1))
        worst = min(worst, ratio - bound)
        assert ratio >= bound - 1e-12, f"ratio {ratio} < bound {bound}"
    announce(3, True, f"set-packing ratio >= 3/(2(m+1)) on every instance "
                      f"(worst margin {worst:.3f})")


def test_criterion_04_greedy_ratio_bound(instance_suite):
    worst = math.inf
    for table, rc, cfg, params, exact in instance_suite:
        if exact.total_weight <= 0:
            continue
        greedy = compose_greedy(rc, cfg, params, seed=13)
        n_opt = len(exact)
        w_max, w_min, ceil_nm = _theory_bounds(table.m, n_opt, cfg, params)
        bound = ceil_nm * w_min / (n_opt * w_max)
        ratio = greedy.total_weight / exact.total_weight
        worst = min(worst, ratio - bound)
        assert ratio >= bound - 1e-12, f"ratio {ratio} < bound {bound}"
    announce(4, True, f"greedy ratio >= ceil(N/m)*Wmin/(N*Wmax) on every instance "
                      f"(worst margin {worst:.3f})")


def test_criterion_05_expectation_ratio_bound(instance_suite):
    worst = math.inf
    for table, rc, cfg, params, exact in instance_suite:
        if exact.total_weight <= 0:
            continue
        expect = compose_expectation(rc, cfg, params, seed=13)
        n_opt = len(exact)
        w_max, w_min, ceil_nm = _theory_bounds(table.m, n_opt, cfg, params)
        bound = min((ceil_nm + 1) * w_min / (n_opt * w_max),
                    ceil_nm * w_min / ((n_opt - 1) * w_max + w_min))
        ratio = expect.total_weight / exact.total_weight
        worst = min(worst, ratio - bound)
        assert ratio >= bound - 1e-12, f"ratio {ratio} < bound {bound}"
    announce(5, True, f"expectation ratio >= the two-case minimum on every instance "
                      f"(worst margin {worst:.3f})")


def test_criterion_06_cardinality_lower_bound(instance_suite):
    for table, rc, cfg, params, exact in instance_suite:
        n_opt = len(exact)
        need = math.ceil(n_opt / table.m)
        greedy = compose_greedy(rc, cfg, params, seed=29)
        expect = compose_expectation(rc, cfg, params, seed=29)
        assert len(greedy) >= need
        assert len(expect) >= need
    announce(6, True, f"greedy and expectation both align >= ceil(N/m) tuples "
                      f"on all {len(instance_suite)} instances")


def test_criterion_07_pruning_equivalence():
    checked = 0
    for table, rc, base, params in collect(500, start_seed=50_000, max_candidates=16):
        for delta, retries in ((math.inf, 16), (0.5, 4), (0.05, 4)):
            cfg = ConstraintConfig(theta=base.theta, beta=base.beta, delta=delta)
            indexed = compose_expectation(rc, cfg, params, seed=7, max_retries=retries)
            for pruned in (True, False):
                assert_same_alignment(indexed, expectation_scan(
                    rc, cfg, params, seed=7, max_retries=retries, pruned=pruned))
        checked += 1
    announce(7, checked == 500,
             f"indexed expectation composer identical to the pruned and unpruned "
             f"scans on {checked} instances at delta inf, 0.5 and 0.05")


def test_criterion_08_constraint_validity_fuzz():
    runs = 0
    seed = 90_000
    deltas = [math.inf, 0.5, 0.05]
    while runs < 1000:
        inst = make_instance(seed, max_candidates=10)
        seed += 1
        if inst is None:
            continue
        table, rc, base_cfg, params = inst
        cfg = ConstraintConfig(theta=base_cfg.theta, beta=base_cfg.beta,
                               delta=deltas[runs % len(deltas)])
        strategy = runs % 4
        if strategy == 0:
            alignment = compose_exact(rc, cfg, params)
        elif strategy == 1:
            alignment = compose_setpacking(rc, cfg, params)
        elif strategy == 2:
            alignment = compose_greedy(rc, cfg, params, seed=seed, max_retries=4)
        else:
            alignment = compose_expectation(rc, cfg, params, seed=seed, max_retries=4)
        tuples = aligned_tuples(alignment.slots)
        for r1, r2 in itertools.combinations(tuples, 2):
            assert not conflicts(r1, r2)
        for r in tuples:
            assert phi_similarity(r) <= cfg.beta
            th = theta_similarity(r, table)
            assert th is None or th <= cfg.theta
        if not alignment.exhausted:
            assert alignment.report.delta <= cfg.delta
        runs += 1
    announce(8, runs == 1000,
             f"{runs} fuzzed runs across all strategies satisfy non-conflict, "
             f"theta, beta, and delta whenever not exhausted")


def test_criterion_09_desk_scale_f1_proxy(bench_runs):
    started = time.perf_counter()
    mean_f1 = {key: statistics.mean(r["f1"] for r in rows)
               for key, rows in bench_runs.items()}
    ok = (mean_f1["expect", 0.1] >= 0.95
          and mean_f1["expect", 0.4] >= 0.90
          and mean_f1["greedy", 0.4] >= mean_f1["expect", 0.4] - 0.05)
    elapsed = time.perf_counter() - started
    announce(9, ok and elapsed < 300,
             f"expectation F1 {mean_f1['expect', 0.1]:.3f}@10% / "
             f"{mean_f1['expect', 0.4]:.3f}@40% (>= 0.95/0.90), greedy "
             f"{mean_f1['greedy', 0.4]:.3f}@40% within 0.05")


def test_criterion_10_tuple_count_trend(bench_runs):
    greedy = [r["aligned_tuple_count"] for r in bench_runs["greedy", 0.4]]
    expect = [r["aligned_tuple_count"] for r in bench_runs["expect", 0.4]]
    wins = sum(1 for g, e in zip(greedy, expect) if e >= g)
    announce(10, wins >= 4,
             f"expectation aligned >= greedy tuples at 40% missing in {wins}/5 seeds "
             f"(expect {expect}, greedy {greedy})")


def test_criterion_11_near_linear_scaling():
    params = WeightParams(3, 2, 1, 1)
    cfg = ConstraintConfig(theta=7.0, beta=1)
    seeds = range(3)
    pairs = 5

    def tables(n):
        out = []
        for seed in seeds:
            table, _ = generate_synthetic(n, BENCH_M, BENCH_JITTER, seed=seed)
            out.append((seed, inject_mcar(table, 0.2, seed=seed + 1)))
        return out

    def one_run(inputs, strategy):
        start = time.perf_counter()
        for seed, masked in inputs:
            rc = generate_candidates(masked, cfg)
            if strategy == "greedy":
                compose_greedy(rc, cfg, params, seed=seed)
            else:
                compose_expectation(rc, cfg, params, seed=seed)
        return time.perf_counter() - start

    # Each pair times n=2000 and n=4000 back to back on the same inputs, so a
    # drift in host speed hits both sides; the median over pairs drops a pair
    # with an odd repeat.  A min over repeats is no steadier: on a shared host
    # one repeat can also run about 20 % fast, and the min picks that up.
    small_inputs, big_inputs = tables(2000), tables(4000)
    factors = {}
    # Objects left by earlier tests are frozen out of the cyclic collector, so
    # the timed code pays only for collections over its own objects, as in a
    # fresh process; otherwise each full collection walks the whole session.
    gc.freeze()
    try:
        for strategy in ("greedy", "expect"):
            ratios = []
            for _ in range(pairs):
                small = one_run(small_inputs, strategy)
                ratios.append(one_run(big_inputs, strategy) / small)
            factors[strategy] = statistics.median(ratios)
    finally:
        gc.unfreeze()
    ok = all(f <= 2.5 for f in factors.values())
    announce(11, ok,
             f"doubling n=2000 to 4000 scales wall time by "
             f"greedy x{factors['greedy']:.2f}, expectation x{factors['expect']:.2f} "
             f"(bound 2.5)")


def test_criterion_12_consistency_sanity():
    exact_zero = True
    values = np.full((12, 3), 2.5)
    values[:, 1] = -4.0
    values[:, 2] = 0.0
    report = consistency_delta(values, fit_model(values))
    exact_zero = report.delta == 0.0

    rng = np.random.default_rng(77)
    non_negative = True
    for _ in range(200):
        rows = int(rng.integers(0, 15))
        width = int(rng.integers(1, 4))
        matrix = rng.normal(size=(rows, width))
        matrix[rng.random((rows, width)) < 0.4] = np.nan
        rep = consistency_delta(matrix, fit_model(matrix))
        if not (rep.delta >= 0.0 and math.isfinite(rep.delta)):
            non_negative = False
            break
    announce(12, exact_zero and non_negative,
             "delta = 0 on the exactly-predicted constant fixture and "
             "delta >= 0 over 200 fuzzed matrices")


def test_criterion_13_run_determinism(tmp_path):
    table, _ = generate_synthetic(200, 3, 2.0, seed=99)
    masked = inject_mcar(table, 0.2, seed=100)
    data = tmp_path / "data.csv"
    write_table(masked, str(data))
    outputs = []
    for i in range(3):
        out = tmp_path / f"aligned_{i}.csv"
        rep = tmp_path / f"report_{i}.json"
        code = main(["align", "--input", str(data), "--strategy", "expect",
                     "--tune-theta", "--tune-beta", "--k1", "3", "--k2", "2",
                     "--seed", "11", "--out", str(out), "--report", str(rep)])
        assert code == 0
        metrics = json.loads(rep.read_text())
        metrics.pop("wall_time_ms")
        outputs.append((out.read_bytes(), json.dumps(metrics, sort_keys=True)))
    ok = all(o == outputs[0] for o in outputs[1:])
    announce(13, ok, "three identical runs produced byte-identical aligned CSV "
                     "and metrics JSON (wall_time_ms excluded)")
