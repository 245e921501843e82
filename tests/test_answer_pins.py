"""sha256 pins over seeded exact answers: dimensions with witnesses, functionals, and CLI bytes.

Each pin feeds its answers through ``conftest.feed`` in a fixed order and compares one
digest. All four were computed with numpy 2.4.6; a digest that moves means an answer
moved (a value, a witness, a tie-break, a float's last bit, a written or a printed byte).
"""

import hashlib
import json
from itertools import product

import numpy as np

from comparelearn import (
    BinaryClass,
    Dataset,
    Domain,
    IntervalPartition,
    RealClass,
    SOALearner,
    absolute_loss,
    cal_error,
    class_error,
    class_to_json,
    corr_partial,
    correlation,
    covering_upper,
    fat,
    ma_error,
    mc_error,
    mc_error_lambda,
    mutual_fat,
    mutual_fat2,
    mutual_ldim,
    mutual_vc,
    packing_number,
    regression_loss,
    rng_stream,
    sign_cal_error,
    squared_loss,
    tree_shattered_by,
)
from comparelearn.cli import main
from comparelearn.dimensions import sup_theta_mutual_vc
from comparelearn.stat_model import save_dataset
from conftest import (
    feed,
    random_binary_class,
    random_binary_distribution,
    random_binary_model,
    random_real_class,
    random_real_distribution,
    random_real_model,
    random_total_real_class,
)

GRID = np.linspace(-1, 1, 9)


def _feed_result(h, res):
    w = res.witness
    if hasattr(w, "nodes"):
        w = (w.depth, w.nodes)
    feed(h, res.value, w)


def _planted_pair(gen, n, members, star, d) -> list[BinaryClass]:
    """Two classes of random rows over {-1, *, +1}, each with 2^d rows overwritten by every sign
    pattern on the same d points, so the pair mutually shatters them."""
    planted = np.sort(gen.choice(n, size=d, replace=False))
    patterns = np.array(list(product((-1, 1), repeat=d)), np.int8)
    pair = []
    for _ in range(2):
        m = gen.choice(np.array([-1, 0, 1], np.int8), size=(members, n), p=[(1 - star) / 2, star, (1 - star) / 2])
        m[np.ix_(gen.choice(members, size=2**d, replace=False), planted)] = patterns
        pair.append(BinaryClass(Domain(n), m))
    return pair


def _feed_small_dimensions(h, gen, seed):
    n = 3 + seed % 4
    S = random_binary_class(gen, n, 4 + seed % 9, star_prob=0.2)
    B = random_binary_class(gen, n, 4 + seed % 7, star_prob=0.2)
    _feed_result(h, mutual_vc(S))
    _feed_result(h, mutual_vc(S, B))
    ldim = mutual_ldim(S, B)
    _feed_result(h, ldim)
    if ldim.witness is not None:
        feed(h, tree_shattered_by(S, ldim.witness), tree_shattered_by(random_binary_class(gen, n, 4), ldim.witness))
    soa = SOALearner(S)
    for x, y in zip(gen.integers(0, n, size=2 * n).tolist(), gen.choice([-1, 1], size=2 * n).tolist()):
        feed(h, soa.predict(x))
        soa.update(x, y)
    eta = (0.1, 0.2, 0.3)[seed % 3]
    Sr = random_real_class(gen, n, 4 + seed % 7, grid=GRID)
    Br = random_real_class(gen, n, 4 + seed % 5, grid=GRID)
    _feed_result(h, fat(Sr, eta))
    _feed_result(h, mutual_fat(Sr, Br, eta))
    _feed_result(h, mutual_fat2(Sr, Br, eta, 2 * eta))
    _feed_result(h, sup_theta_mutual_vc(S, Br, eta))
    St = random_total_real_class(gen, n, 3 + seed % 6, grid=GRID)
    Bt = random_total_real_class(gen, n, 2 + seed % 3, grid=GRID)
    mu = gen.integers(1, 5, size=n).astype(np.float64)
    mu /= mu.sum()
    for eps in (0.05, 0.2):
        feed(h, packing_number(St, Bt, mu, eps), covering_upper(St, Bt, mu, eps))


def _feed_workload_dimensions(h, gen):
    """The dims workload's shapes: vc on 14 points and 512 members, ldim on 12 and 384, fat on 4 and 16."""
    _feed_result(h, mutual_vc(*_planted_pair(gen, 14, 512, 0.5, 5)))
    _feed_result(h, mutual_ldim(*_planted_pair(gen, 12, 384, 0.35, 6)))
    values = np.array([-1.0, -0.75, -0.5, 0.5, 0.75, 1.0])
    S, B = (RealClass(Domain(4), gen.choice(values, size=(16, 4))) for _ in range(2))
    _feed_result(h, mutual_fat(S, B, 0.1))


def test_dimensions_are_pinned():
    """Values and witnesses of every dimension search, tree checks, SOA predictions and packing counts."""
    h = hashlib.sha256()
    for seed in range(24):
        _feed_small_dimensions(h, rng_stream(101, seed), seed)
    for seed in range(2):
        _feed_workload_dimensions(h, rng_stream(103, seed))
    assert h.hexdigest() == "641c5bd40a9d0908ab5478207e4da9635192623e18a46815a7f40f997f13501a"


def test_functionals_are_pinned():
    """Every exact functional over seeded models, classes and distributions, float bits included."""
    h = hashlib.sha256()
    for seed in range(24):
        gen = rng_stream(107, seed)
        n = 3 + seed % 5
        binary = random_binary_distribution(gen, n, n_atoms=2 + seed % 9)
        real = random_real_distribution(gen, n, n_atoms=2 + seed % 7, grid=GRID)
        f = random_real_model(gen, n, grid=GRID)
        fb = random_binary_model(gen, n)
        B = random_real_class(gen, n, 1 + seed % 5, grid=GRID)
        Bb = random_binary_class(gen, n, 1 + seed % 4, star_prob=0.3)
        part = IntervalPartition(1 + seed % 4)
        for dist in (binary, real):
            feed(h, correlation(f, dist), correlation(fb, dist), corr_partial(Bb.member(0), dist))
            feed(h, corr_partial(B.member(0), dist), cal_error(f, dist), sign_cal_error(f, dist))
            for cls in (B, Bb):
                feed(h, ma_error(f, cls, dist), mc_error(f, cls, dist), mc_error_lambda(f, cls, dist, part))
        feed(h, class_error(fb, binary), class_error(Bb.member(0), binary))
        for loss in (squared_loss(), absolute_loss()):
            feed(h, regression_loss(f, loss, binary), regression_loss(fb, loss, binary))
    assert h.hexdigest() == "bed2f33557061c135d412f24334209de31c68d35b0cb767041ffdc708c9f0993"


def _write(path, obj):
    path.write_text(json.dumps(obj) + "\n")


def test_cli_bytes_are_pinned(tmp_path, capsys):
    """The files that the README's learn, online, scenario and estimate examples write, byte for byte.

    summary.json is hashed without its timings and with the source hash blanked, since that
    hash changes with every edit of the package.
    """
    gen = rng_stream(109, 0)
    S = random_binary_class(gen, 5, 8, star_prob=0.2)
    B = random_binary_class(gen, 5, 8, star_prob=0.2)
    H = BinaryClass(Domain(3), np.array(list(product((-1, 1), repeat=3)), np.int8))
    files = {name: tmp_path / f"{name}.json" for name in ("S", "B", "H")}
    for name, cls in zip(files, (S, B, H)):
        _write(files[name], class_to_json(cls))
    row = S.matrix[0]
    xs = gen.integers(0, 5, size=200)
    save_dataset(Dataset(xs, np.where(row[xs] == -1, -1.0, 1.0)), tmp_path / "data.csv")
    save_dataset(Dataset(xs, gen.choice([-1.0, 1.0], size=200)), tmp_path / "seq.csv")
    _write(tmp_path / "params.json", {"eta1": 0.1, "eta2": 0.3, "n1": 120, "n2": 80})
    assert main(["dims", str(files["H"]), "--ldim"]) == 0
    _write(tmp_path / "witness.json", json.loads(capsys.readouterr().out)["witness"])
    _write(tmp_path / "config.json", {
        "seed": 20240901,
        "experiments": [
            {"scenario": "c1", "m": 1, "direction": "reversed", "epsilon": 0.1, "delta": 0.25,
             "grid": [0, 1, 2, 4], "trials": 20, "learner": "benchmark_erm"},
            {"scenario": "figure1", "m": 2, "grid": [0, 1], "trials": 3, "mode": "adversarial"},
            {"scenario": "c4", "m": 2},
        ],
    })
    pair = ["--source", str(files["S"]), "--benchmark", str(files["B"])]
    data = ["--data", str(tmp_path / "data.csv"), "--seed", "7"]
    for argv in (
        ["learn", "--task", "comp", *pair, *data, "--out", str(tmp_path / "comp.json")],
        ["learn", "--task", "dcorm", *pair, "--params", str(tmp_path / "params.json"), *data,
         "--out", str(tmp_path / "dcorm.json")],
        ["online", "--learner", "comp", *pair, "--adversary", "replay", "--replay", str(tmp_path / "seq.csv"),
         "--rounds", "200", "--out-report", str(tmp_path / "replay_report.json"),
         "--out-rounds", str(tmp_path / "replay_rounds.csv")],
        ["online", "--learner", "rwm", "--hypothesis-class", str(files["H"]), "--adversary", "tree",
         "--tree", str(tmp_path / "witness.json"), "--rounds", "3",
         "--out-report", str(tmp_path / "tree_report.json"), "--out-rounds", str(tmp_path / "tree_rounds.csv")],
        ["scenario", "--name", "c1", "--m", "2", "--direction", "reversed", "--out-dir", str(tmp_path / "scen")],
        ["estimate", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "results")],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    summary["toolkit_hash"] = ""
    for entry in summary["experiments"]:
        del entry["wall_ms"]
    h = hashlib.sha256()
    feed(h, json.dumps(summary, indent=2))
    for path in sorted(tmp_path.glob("**/*")):
        if path.is_file() and path.name != "summary.json":
            feed(h, str(path.relative_to(tmp_path)), path.read_bytes())
    assert h.hexdigest() == "7ed3b030c298e139deb6663a3315eba6226aef5214fe8bbd60c65a34755f0f09"


def test_cli_stdout_is_pinned(tmp_path, capsys):
    """What the README's dims and eval examples and `scenario` without --out-dir print, byte for byte.

    Computed with numpy 2.4.6 before `cli.build_parser` was cached, so it also gates the reused parser.
    """
    gen = rng_stream(113, 0)
    files = {name: tmp_path / f"{name}.json" for name in ("S", "B", "C", "St", "Bt")}
    for name, path in files.items():  # St and Bt are total, as --packing needs
        _write(path, class_to_json(random_binary_class(gen, 6, 24, star_prob=0.0 if "t" in name else 0.15)))
    _write(tmp_path / "f.json", {"domain": {"size": 6}, "kind": "real",
                                 "values": gen.choice(GRID, size=6).tolist()})
    _write(tmp_path / "mu.json", random_binary_distribution(gen, 6, n_atoms=9).to_json())
    pair = [str(files["S"]), str(files["B"])]
    triple = [*pair, str(files["C"])]
    functional = ["--model", str(tmp_path / "f.json"), "--benchmark", str(files["B"]), "--dist", str(tmp_path / "mu.json")]
    h = hashlib.sha256()
    for argv in (
        ["dims", *pair],
        ["dims", *triple],
        ["dims", *pair, "--margin", "0.1"],
        ["dims", *pair, "--margins", "0.1,0.2"],
        ["dims", *pair, "--ldim"],
        ["dims", str(files["St"]), str(files["Bt"]), "--packing", "0.2"],
        ["eval", "--functional", "ma_error", *functional],
        ["eval", "--functional", "mc_error_lambda", *functional, "--k", "4"],
        ["scenario", "--name", "c1", "--m", "2", "--direction", "reversed"],
    ):
        assert main(argv) == 0, argv
        feed(h, [arg.replace(str(tmp_path), "") for arg in argv], capsys.readouterr().out)
    assert h.hexdigest() == "7e89bcb0586632e77c0042b4ff56b28be522074818fd2bb4e9eda93c3d82305e"
