"""Scenario constructions, the n* estimator, and experiment orchestration."""

import hashlib
import importlib.resources as res
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comparelearn import (
    BinaryClass,
    BinaryModel,
    ConfigError,
    Dataset,
    DiscreteDistribution,
    Domain,
    RealClass,
    RealHypothesis,
    RealModel,
    absolute_loss,
    class_error,
    corr_partial,
    correlation,
    estimate_sample_complexity,
    goal_satisfied,
    mutual_vc,
    regression_loss,
    rng_stream,
    run_experiment,
    scenario,
    squared_loss,
    wilson_interval,
)
from comparelearn.experiments import (
    GOAL_ATOL,
    TaskSpec,
    _ENTRY_DEFAULTS,
    _all_sign_patterns,
    _validate_config,
    c4_correlations_exact,
    default_learner_factory,
)


# --- scenario constructions ----------------------------------------------------


def test_figure1_exact_zero_sample():
    spec = scenario("figure1", 3)
    assert spec.source.domain.size == 6
    assert mutual_vc(spec.source, spec.benchmark).value == 0
    f = spec.baseline_model
    for mu in spec.mu_family:
        assert goal_satisfied(spec, f, mu)  # epsilon = 0


def test_c1_forward_exact_quarter():
    spec = scenario("c1", 1)
    f = spec.baseline_model
    assert f.values.tolist() == [-1] * 4
    for mu in spec.mu_family:
        err = class_error(f, mu)
        best = min(
            class_error(spec.benchmark.member(i), mu) for i in range(len(spec.benchmark))
        )
        assert err == pytest.approx(0.25, abs=1e-12)
        assert best == pytest.approx(0.25, abs=1e-12)


def test_c2_forward_exact():
    spec = scenario("c2", 2)
    f = spec.baseline_model
    for mu in spec.mu_family:
        assert goal_satisfied(spec, f, mu)


def test_c3_forward_exact():
    spec = scenario("c3", 3)
    f = spec.baseline_model
    for mu in spec.mu_family:
        loss_f = regression_loss(f, spec.loss, mu)
        best = min(
            regression_loss(spec.benchmark.member(i), spec.loss, mu)
            for i in range(len(spec.benchmark))
        )
        assert loss_f == pytest.approx(1.0, abs=1e-12)
        assert best == pytest.approx(1.0, abs=1e-12)


def test_c4_invariance_and_value_formula():
    m = 3
    spec = scenario("c4", m)
    table = c4_correlations_exact(spec)
    assert len(table) == len(spec.benchmark) == 4**m
    for bi, per_source in enumerate(table):
        assert len(set(per_source)) == 1  # independent of the source, exactly
        # value = (1/(8m)) * (4/3) * sum_j (p_j + r_j)
        brow = spec.benchmark.matrix[bi]
        p_sum = sum(int(brow[1 + m + j]) for j in range(m))  # row a_{2j} holds p_j
        r_sum = sum(int(brow[1 + j]) for j in range(m))  # row a_{1j} holds r_j
        expected = Fraction(1, 8 * m) * Fraction(4, 3) * (p_sum + r_sum)
        assert per_source[0] == expected


def _c4_oracle(spec):
    """E[s(x) b(x)] for every (b, s) pair by a per-entry Fraction sum."""
    m = spec.meta["m"]
    n = spec.source.domain.size
    mu = [Fraction(1, 2)] + [Fraction(1, 8 * m)] * (n - 1)

    def exactify(v: float) -> Fraction:
        # c4 values are 0, +-1, +-1/3, +-2/3 by construction
        for frac in map(Fraction, (0, 1, -1, "1/3", "-1/3", "2/3", "-2/3")):
            if abs(v - float(frac)) < 1e-12:
                return frac
        raise ValueError(f"unexpected c4 value {v}")

    sources = [[exactify(float(v)) for v in row] for row in spec.source.matrix]
    out = []
    for brow in spec.benchmark.matrix:
        brow = [exactify(float(v)) for v in brow]
        out.append([sum(mu[x] * srow[x] * brow[x] for x in range(n)) for srow in sources])
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_c4_correlations_match_fraction_oracle(m):
    spec = scenario("c4", m)
    table = c4_correlations_exact(spec)
    assert table == _c4_oracle(spec)
    assert all(isinstance(v, Fraction) for row in table for v in row)


def test_c4_table_rejects_values_off_its_grid():
    spec = scenario("c4", 1)
    off_value = spec.source.matrix.copy()
    off_value[0, 1] = 0.5
    bad = TaskSpec("c4", "corm", RealClass(spec.source.domain, off_value), spec.benchmark,
                   0.0, 0.0, mu_x=spec.mu_x, meta=spec.meta)
    with pytest.raises(ValueError, match="multiples of 1/3"):
        c4_correlations_exact(bad)
    off_mass = spec.mu_x.copy()
    off_mass[:2] = [0.45, 0.175]
    bad = TaskSpec("c4", "corm", spec.source, spec.benchmark, 0.0, 0.0, mu_x=off_mass, meta=spec.meta)
    with pytest.raises(ValueError, match="multiples of 1/8"):
        c4_correlations_exact(bad)


def test_c4_runs_beyond_m4_from_the_integer_table(tmp_path):
    summary = run_experiment({"seed": 3, "experiments": [{"scenario": "c4", "m": 5}]}, tmp_path)
    (entry,) = summary["experiments"]
    assert entry["pairs"] == entry["invariant_ok"] == 1024


# every construction step that feeds a TaskSpec, for figure1 m = 1..3, c1 m =
# 1, 2, 3, 5, c2 m = 1..3, c3 m = 1, 3, 6 (both directions) and c4 m = 1..3
PIN_CASES = (
    [("figure1", m, "forward") for m in (1, 2, 3)]
    + [("c1", m, d) for m in (1, 2, 3, 5) for d in ("forward", "reversed")]
    + [("c2", m, d) for m in (1, 2, 3) for d in ("forward", "reversed")]
    + [("c3", m, d) for m in (1, 3, 6) for d in ("forward", "reversed")]
    + [("c4", m, "forward") for m in (1, 2, 3)]
)


def _feed(h, *parts):
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")


def _feed_dist(h, mu):
    _feed(h, mu.domain.size, mu.label_kind, mu.xs, mu.ys, mu.ps)


def test_constructions_are_pinned():
    """Classes, family atoms, mu_x, baseline, meta and five draw_mu draws, byte for byte."""
    h = hashlib.sha256()
    for name, m, direction in PIN_CASES:
        spec = scenario(name, m, direction, 0.125, 0.25)
        _feed(h, name, m, direction, spec.name, spec.kind, spec.epsilon, spec.delta)
        for cls in (spec.source, spec.benchmark):
            _feed(h, type(cls).__name__, cls.domain.size, cls.matrix)
        _feed(h, None if spec.loss is None else spec.loss.name)
        _feed(h, spec.mu_x, spec.mu_generator is None, spec.mu_family is None)
        for mu in spec.mu_family or ():
            _feed_dist(h, mu)
        base = spec.baseline_model
        _feed(h, type(base).__name__, None if base is None else base.values)
        _feed(h, json.dumps(spec.meta, sort_keys=True))
        if spec.mu_family or spec.mu_generator is not None:
            for k in range(5):
                rng = rng_stream(2024, k)
                _feed_dist(h, spec.draw_mu(rng))
                _feed(h, int(rng.integers(2**62)))  # the draw's rng use
    assert h.hexdigest() == "9043dfd479618c9e6aae0d116cb7cc8572499502c5222ce1c6c30d98f87c4739"


def test_scenario_validation():
    with pytest.raises(ConfigError):
        scenario("nope", 1)
    with pytest.raises(ConfigError):
        scenario("c1", 0)
    with pytest.raises(Exception):
        scenario("c2", 8)  # hard guard


def test_c1_subclass_mode_beyond_guard():
    spec = scenario("c1", 5, "forward")
    assert spec.meta["exhaustive"] is False
    assert spec.mu_family is None  # enumeration replaced by the seeded subfamily
    assert len(spec.source) == 512 and len(spec.benchmark) == 512
    rng = rng_stream(1, 2)
    mu = spec.draw_mu(rng)
    assert goal_satisfied(spec, spec.baseline_model, mu)
    # deterministic subclass: rebuilding gives the same classes
    again = scenario("c1", 5, "forward")
    assert again.source == spec.source and again.benchmark == spec.benchmark


def test_all_sign_patterns_bit_order():
    for n in range(1, 6):
        expected = [[1 if (i >> j) & 1 else -1 for j in range(n)] for i in range(2**n)]
        out = _all_sign_patterns(n)
        assert out.dtype == np.int8 and out.tolist() == expected


# --- goal evaluation --------------------------------------------------------------

LOSSES = (squared_loss(), absolute_loss())


def _goal_oracle(spec, model, mu):
    """The goal by one scalar functional call per member; None if it must raise."""
    members = [spec.benchmark.member(i) for i in range(len(spec.benchmark))]
    if spec.kind == "compl":
        best = min(class_error(b, mu) for b in members)
        return class_error(model, mu) <= best + spec.epsilon + GOAL_ATOL
    if spec.kind in ("corm", "dcorm"):
        best = max(corr_partial(b, mu) for b in members)
        return correlation(model, mu) >= best - spec.epsilon - GOAL_ATOL
    losses = [regression_loss(b, spec.loss, mu) for b in members]
    if any(math.isnan(v) for v in losses):
        return None
    return regression_loss(model, spec.loss, mu) <= min(losses) + spec.epsilon + GOAL_ATOL


def _gap(spec, model, mu):
    """How far the model is behind the best member (negative when ahead)."""
    members = [spec.benchmark.member(i) for i in range(len(spec.benchmark))]
    if spec.kind == "compl":
        return class_error(model, mu) - min(class_error(b, mu) for b in members)
    if spec.kind in ("corm", "dcorm"):
        return max(corr_partial(b, mu) for b in members) - correlation(model, mu)
    losses = [regression_loss(b, spec.loss, mu) for b in members]
    return regression_loss(model, spec.loss, mu) - min(losses)


REAL_VALUES = (-1.0, -0.5, -0.25, 0.0, 1.0 / 3.0, 0.5, 1.0)


@st.composite
def goal_cases(draw):
    kind = draw(st.sampled_from(["compl", "corm", "dcorm", "compr"]))
    n = draw(st.integers(1, 5))
    domain = Domain(n)
    if kind == "compl" or draw(st.booleans()):
        labels = st.sampled_from([-1, 0, 1] if draw(st.booleans()) else [-1, 1])
        matrix = draw(st.lists(st.lists(labels, min_size=n, max_size=n), min_size=1, max_size=6))
        bench = BinaryClass(domain, np.array(matrix, dtype=np.int8))
        completed = np.where(bench.matrix == 0, 1, bench.matrix).astype(np.float64)
    else:
        values = st.sampled_from(REAL_VALUES + ((np.nan,) if draw(st.booleans()) else ()))
        matrix = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=6))
        bench = RealClass(domain, np.array(matrix, dtype=np.float64))
        completed = np.nan_to_num(bench.matrix, nan=1.0)
    # the model is either free or a member completed on its * points
    pick = draw(st.integers(-1, len(bench) - 1))
    if pick >= 0:
        fvals = completed[pick]
    else:
        fvals = np.array(draw(st.lists(st.sampled_from(REAL_VALUES), min_size=n, max_size=n)))
    if kind == "compl":
        model = BinaryModel(domain, np.where(fvals >= 0, 1, -1).astype(np.int8))
    else:
        model = RealModel(domain, fvals)
    real_labels = kind in ("corm", "dcorm") and draw(st.booleans())
    label = st.sampled_from(REAL_VALUES if real_labels else (-1.0, 1.0))
    atoms = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), label, st.integers(1, 9)), min_size=1, max_size=8
        )
    )
    total = sum(w for _, _, w in atoms)
    mu = DiscreteDistribution(
        domain, [(x, y, w / total) for x, y, w in atoms], "real" if real_labels else "binary"
    )
    spec = TaskSpec("prop", kind, bench, bench, 0.0, 0.0, loss=draw(st.sampled_from(LOSSES)))
    mode = draw(st.sampled_from(["tie", "below", "free"]))
    if kind == "compr" and _goal_oracle(spec, model, mu) is None:
        return spec, model, mu
    gap = _gap(spec, model, mu)
    if mode == "tie":
        spec.epsilon = max(gap, 0.0)
    elif mode == "below":
        spec.epsilon = max(gap - 1e-6, 0.0)
    else:
        spec.epsilon = draw(st.floats(0.0, 1.0))
    return spec, model, mu


@settings(max_examples=300, deadline=None)
@given(goal_cases())
def test_goal_satisfied_matches_per_member_oracle(case):
    spec, model, mu = case
    expected = _goal_oracle(spec, model, mu)
    if expected is None:
        with pytest.raises(ValueError, match="defined on the support"):
            goal_satisfied(spec, model, mu)
    else:
        assert goal_satisfied(spec, model, mu) == expected


def test_compr_partial_benchmark_raises_in_either_member_order():
    # losses under the squared loss: model 0.25, total member 1.0, partial member NaN
    domain = Domain(2)
    mu = DiscreteDistribution(domain, [(0, 1.0, 0.5), (1, 1.0, 0.5)], "binary")
    model = RealModel(domain, [0.5, 0.5])
    total, partial = [0.0, 0.0], [1.0, np.nan]
    for rows in ([partial, total], [total, partial]):
        bench = RealClass(domain, rows)
        spec = TaskSpec("c3", "compr", bench, bench, 0.0, 0.0, loss=squared_loss())
        with pytest.raises(ValueError, match="defined on the support"):
            goal_satisfied(spec, model, mu)


def test_goal_keeps_label_law_and_totality_checks():
    domain = Domain(2)
    real_law = DiscreteDistribution(domain, [(0, 0.5, 0.5), (1, 1.0, 0.5)], "real")
    binary = BinaryClass(domain, [[1, -1]])
    real = RealClass(domain, [[0.5, -0.5]])
    spec = TaskSpec("t", "compl", binary, binary, 0.0, 0.0)
    with pytest.raises(ValueError, match="binary-label distribution"):
        goal_satisfied(spec, BinaryModel(domain, [1, 1]), real_law)
    spec = TaskSpec("t", "compr", real, real, 0.0, 0.0, loss=squared_loss())
    with pytest.raises(ValueError, match="binary-label distribution"):
        goal_satisfied(spec, RealModel(domain, [0.0, 0.0]), real_law)
    spec = TaskSpec("t", "corm", real, real, 0.0, 0.0)
    with pytest.raises(ValueError, match="total model"):
        goal_satisfied(spec, RealHypothesis(domain, [0.5, np.nan]), real_law)
    ones = RealClass(domain, [[1.0, 1.0]])
    plus = DiscreteDistribution(domain, [(0, 1.0, 0.5), (1, 1.0, 0.5)], "binary")
    spec = TaskSpec("t", "compr", ones, ones, 1.0, 0.0, loss=squared_loss())
    with pytest.raises(ValueError, match="total model"):
        goal_satisfied(spec, RealHypothesis(domain, [1.0, np.nan]), plus)


# --- estimator -------------------------------------------------------------------


def test_estimate_adversarial_zero_for_c1_forward():
    spec = scenario("c1", 1, "forward", epsilon=0.0, delta=0.0)
    report = estimate_sample_complexity(
        spec,
        lambda s: (lambda data, rng: s.baseline_model),
        [0],
        trials=1,
        seed=5,
        adversarial=True,
    )
    assert report.n_star == 0
    assert report.successes == [1]


def test_estimate_impossible_goal_reports_failure_curve():
    spec = scenario("c1", 1, "reversed", epsilon=0.0, delta=0.0)
    # constant model cannot hit epsilon = 0 against every source
    report = estimate_sample_complexity(
        spec,
        lambda s: (lambda data, rng: BinaryModel.constant(s.source.domain, 1)),
        [0],
        trials=8,
        seed=5,
    )
    assert report.n_star is None
    assert len(report.successes) == 1


def test_estimate_monotone_in_n_for_erm():
    spec = scenario("c1", 1, "reversed", epsilon=0.1, delta=0.25)
    report = estimate_sample_complexity(
        spec, default_learner_factory, [0, 2, 4, 8, 16, 32], trials=60, seed=11
    )
    assert report.monotonicity_violations(tol_se=2.0) == []
    assert report.n_star is not None and report.n_star >= 1


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo > 0.9


# --- orchestration ------------------------------------------------------------------


SMALL_CONFIG = {
    "seed": 99,
    "experiments": [
        {
            "scenario": "c1",
            "m": 1,
            "direction": "forward",
            "epsilon": 0.0,
            "delta": 0.0,
            "grid": [0],
            "trials": 1,
            "mode": "adversarial",
        },
        {
            "scenario": "c1",
            "m": 1,
            "direction": "reversed",
            "epsilon": 0.1,
            "delta": 0.25,
            "grid": [0, 4, 16],
            "trials": 20,
            "mode": "sampled",
        },
        {"scenario": "c4", "m": 2},
    ],
}


def test_run_experiment_outputs_and_replay(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_experiment(SMALL_CONFIG, out1)
    run_experiment(SMALL_CONFIG, out2)
    csv1 = (out1 / "results.csv").read_bytes()
    csv2 = (out2 / "results.csv").read_bytes()
    assert csv1 == csv2  # byte-identical replay
    header = csv1.decode().splitlines()[0]
    assert header == "scenario,direction,m,n,trials,successes,wilson_lo,wilson_hi,seed,millis"
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["seed"] == 99
    assert "toolkit_hash" in summary
    assert (out1 / "curves").is_dir()
    dats = list((out1 / "curves").glob("*.dat"))
    assert dats


def test_run_experiment_rejects_bad_config(tmp_path):
    bad = {"seed": 1, "experiments": [{"scenario": "c9", "m": 1}]}
    out = tmp_path / "bad"
    with pytest.raises(ConfigError):
        run_experiment(bad, out)
    assert not out.exists()  # no partial outputs
    with pytest.raises(ConfigError):
        run_experiment({"experiments": []}, out)
    with pytest.raises(ConfigError):
        run_experiment({"seed": 1, "experiments": [{"scenario": "c1", "m": 1, "grid": [-1]}]}, out)
    c1 = {"scenario": "c1", "m": 1}
    for cfg in (
        # a JSON bool is not an integer or a number
        {"seed": True, "experiments": [{"scenario": "c4", "m": 1}]},
        {"seed": 1, "experiments": [{"scenario": "c4", "m": True}]},
        {"seed": 1, "experiments": [{**c1, "epsilon": True}]},
        {"seed": 1, "experiments": [{**c1, "delta": False}]},
        {"seed": 1, "experiments": [{**c1, "grid": [True]}]},
        {"seed": 1, "experiments": [{**c1, "trials": True}]},
        # epsilon finite and nonnegative, delta in [0, 1)
        {"seed": 1, "experiments": [{**c1, "epsilon": math.nan}]},
        {"seed": 1, "experiments": [{**c1, "epsilon": math.inf}]},
        {"seed": 1, "experiments": [{**c1, "epsilon": -0.1}]},
        {"seed": 1, "experiments": [{**c1, "delta": math.nan}]},
        {"seed": 1, "experiments": [{**c1, "delta": 1}]},
        {"seed": 1, "experiments": [{**c1, "delta": -0.5}]},
        {"seed": 1, "experiments": [{**c1, "epsilon": "0.1"}]},
    ):
        with pytest.raises(ConfigError):
            run_experiment(cfg, out)
    assert not out.exists()
    checked = _validate_config({"seed": 1, "experiments": [{**c1, "epsilon": 2, "delta": 0.999}]})
    assert checked["experiments"][0]["epsilon"] == 2


def test_paper_suite_config_validates():
    import importlib.resources as res

    blob = res.files("comparelearn").joinpath("data/paper_suite.json").read_text()
    cfg = json.loads(blob)
    given = json.loads(blob)
    checked = _validate_config(cfg)
    assert cfg == given  # the config as given is left as it is
    assert checked["seed"] == cfg["seed"]
    assert checked["record_millis"] is cfg.get("record_millis", False)
    assert checked["experiments"] == [{**_ENTRY_DEFAULTS, **e} for e in cfg["experiments"]]
    names = {e["scenario"] for e in cfg["experiments"]}
    assert names == {"figure1", "c1", "c2", "c3", "c4"}


def test_paper_suite_summary_matches_acceptance_claims(tmp_path):
    cfg = json.loads(res.files("comparelearn").joinpath("data/paper_suite.json").read_text())
    run_experiment(cfg, tmp_path)
    rows = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    forward = [e for e in rows if e.get("direction") == "forward"]
    assert {(e["scenario"], e["m"]) for e in forward} == {
        ("figure1", 3), ("c1", 1), ("c1", 2), ("c1", 3), ("c2", 2), ("c3", 3)
    }
    assert all(e["n_star"] == 0 for e in forward)
    growth = sorted(
        (e["m"], e["n_star"]) for e in rows if e.get("direction") == "reversed"
    )
    assert [m for m, _ in growth] == [1, 2, 3]
    stars = [n_star for _, n_star in growth]
    assert None not in stars and stars == sorted(set(stars))
    c4 = [e for e in rows if e["scenario"] == "c4"]
    assert c4 and all(e["invariant_ok"] == e["pairs"] for e in c4)
    # the bundled suite's replay is byte-identical (value on numpy 2.4.6)
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == "744da5599661be5a06bd0b056102bc045df57971c1b792e98447777ef8e8db31"


def test_omitted_defaults_replay_like_written_defaults(tmp_path):
    short = {
        "seed": 7,
        "experiments": [
            {"scenario": "figure1", "m": 1},
            {"scenario": "c1", "m": 1},
            {"scenario": "c3", "m": 1},
            {"scenario": "c4", "m": 1},
        ],
    }
    full = {
        "seed": 7,
        "record_millis": False,
        "experiments": [
            {
                "scenario": name,
                "m": 1,
                "direction": "forward",
                "epsilon": 0.0,
                "delta": 0.0,
                "grid": [0],
                "trials": 1,
                "mode": "sampled",
                "learner": "default",
            }
            for name in ("figure1", "c1", "c3", "c4")
        ],
    }
    assert _validate_config(short) == _validate_config(full)
    run_experiment(short, tmp_path / "short")
    run_experiment(full, tmp_path / "full")
    for path in ("results.csv", "curves/figure1_forward_m1.dat"):
        assert (tmp_path / "short" / path).read_bytes() == (tmp_path / "full" / path).read_bytes()
    # the summary hashes each config as given
    digests = [
        json.loads((tmp_path / run / "summary.json").read_text())["config_sha256"]
        for run in ("short", "full")
    ]
    assert digests[0] == hashlib.sha256(json.dumps(short, sort_keys=True).encode()).hexdigest()
    assert digests[1] == hashlib.sha256(json.dumps(full, sort_keys=True).encode()).hexdigest()


def test_millis_column_zero_by_default(tmp_path):
    out = tmp_path / "m"
    run_experiment(SMALL_CONFIG, out)
    lines = (out / "results.csv").read_text().splitlines()[1:]
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines)
    cfg = dict(SMALL_CONFIG)
    cfg["record_millis"] = True
    cfg["experiments"] = [SMALL_CONFIG["experiments"][0]]
    out2 = tmp_path / "m2"
    run_experiment(cfg, out2)
    lines2 = (out2 / "results.csv").read_text().splitlines()[1:]
    assert lines2  # millis recorded (possibly 0 on a fast machine)
