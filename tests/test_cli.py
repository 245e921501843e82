"""CLI subcommands, file formats, and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from comparelearn import (
    BinaryClass,
    Domain,
    RealClass,
    class_to_json,
    model_from_json,
    rng_stream,
)
from comparelearn.cli import main
from comparelearn.stat_model import DiscreteDistribution, Dataset, save_dataset
from conftest import random_binary_class, random_binary_distribution


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")


@pytest.fixture
def class_files(tmp_path):
    rng = rng_stream(97, 1)
    S = random_binary_class(rng, 4, 6)
    B = random_binary_class(rng, 4, 6)
    sp, bp = tmp_path / "S.json", tmp_path / "B.json"
    write_json(sp, class_to_json(S))
    write_json(bp, class_to_json(B))
    return sp, bp, S, B


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_dims_mutual_vc(capsys, class_files, tmp_path):
    sp, bp, S, B = class_files
    code, out = run_main(capsys, ["dims", str(sp), str(bp)])
    assert code == 0
    from comparelearn import is_shattered, mutual_vc

    assert out["mutual_vc"] == mutual_vc(S, B).value
    assert is_shattered(S, out["witness"]) and is_shattered(B, out["witness"])


def test_dims_single_class_and_ldim(capsys, class_files):
    sp, bp, S, B = class_files
    code, out = run_main(capsys, ["dims", str(sp)])
    assert code == 0 and "vc" in out
    code, out = run_main(capsys, ["dims", str(sp), str(bp), "--ldim"])
    assert code == 0 and "mutual_ldim" in out
    assert set(out["witness"]) <= {"depth", "nodes"}


def test_dims_three_classes(capsys, class_files, tmp_path):
    sp, bp, S, B = class_files
    C = random_binary_class(rng_stream(97, 5), 4, 6)
    cp = tmp_path / "C.json"
    write_json(cp, class_to_json(C))
    from comparelearn import mutual_ldim, mutual_vc

    code, out = run_main(capsys, ["dims", str(sp), str(bp), str(cp)])
    expected = mutual_vc(S, B, C)
    assert expected != mutual_vc(S, B)
    assert code == 0
    assert out["mutual_vc"] == expected.value and out["witness"] == list(expected.witness)
    code, out = run_main(capsys, ["dims", str(sp), str(bp), str(cp), "--ldim"])
    assert code == 0 and out["mutual_ldim"] == mutual_ldim(S, B, C).value
    for flag in (["--margin", "0.2"], ["--margins", "0.1,0.3"], ["--packing", "0.2"]):
        assert main(["dims", str(sp), str(bp), str(cp), *flag]) == 2


def test_dims_margin_flags(capsys, tmp_path):
    d = Domain(3)
    S = RealClass(d, [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.5], [0.1, 0.9, -0.9]])
    B = RealClass(d, [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
    sp, bp = tmp_path / "rS.json", tmp_path / "rB.json"
    write_json(sp, class_to_json(S))
    write_json(bp, class_to_json(B))
    code, out = run_main(capsys, ["dims", str(sp), str(bp), "--margin", "0.2"])
    assert code == 0 and "mutual_fat" in out
    code, out = run_main(capsys, ["dims", str(sp), str(bp), "--margins", "0.1,0.3"])
    assert code == 0 and "mutual_fat2" in out
    code, out = run_main(capsys, ["dims", str(sp), str(bp), "--packing", "0.2"])
    assert code == 0 and out["packing"] >= out["covering_upper"] >= 1
    dp = tmp_path / "mu.json"
    write_json(dp, DiscreteDistribution(d, [(0, 1.0, 0.5), (2, -1.0, 0.5)], "binary").to_json())
    code, out = run_main(capsys, ["dims", str(sp), str(bp), "--packing", "0.2", "--dist", str(dp)])
    assert code == 0 and out["packing"] >= out["covering_upper"] >= 1


def test_dims_conflicting_flags_exit_2(capsys, tmp_path):
    d = Domain(3)
    sp, bp = tmp_path / "rS.json", tmp_path / "rB.json"
    write_json(sp, class_to_json(RealClass(d, [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.5]])))
    write_json(bp, class_to_json(RealClass(d, [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])))
    dp = tmp_path / "mu.json"
    write_json(dp, DiscreteDistribution(d, [(1, 1.0, 1.0)], "binary").to_json())
    for flags in (
        ["--ldim", "--margin", "0.1"],
        ["--margin", "0.1", "--margins", "0.1,0.2"],
        ["--packing", "0.2", "--ldim"],
        ["--margins", "0.1,0.2", "--packing", "0.2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["dims", str(sp), str(bp), *flags])
        assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err
    for flags in ([], ["--margin", "0.1"], ["--ldim"]):
        assert main(["dims", str(sp), str(bp), "--dist", str(dp), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--dist is read only with --packing" in captured.err


def test_eval_functionals(capsys, tmp_path):
    rng = rng_stream(97, 2)
    dist = random_binary_distribution(rng, 4, 8)
    dp = tmp_path / "mu.json"
    write_json(dp, dist.to_json())
    from comparelearn import BinaryModel, model_to_json

    f = BinaryModel(Domain(4), [1, -1, 1, -1])
    mp = tmp_path / "f.json"
    write_json(mp, model_to_json(f))
    code, out = run_main(
        capsys, ["eval", "--functional", "class_error", "--model", str(mp), "--dist", str(dp)]
    )
    assert code == 0
    from comparelearn import class_error

    assert out["value"] == pytest.approx(class_error(f, dist))
    B = random_binary_class(rng, 4, 3)
    bp = tmp_path / "B.json"
    write_json(bp, class_to_json(B))
    code, out = run_main(
        capsys,
        ["eval", "--functional", "ma_error", "--model", str(mp), "--benchmark", str(bp), "--dist", str(dp)],
    )
    assert code == 0
    code, out = run_main(
        capsys,
        ["eval", "--functional", "mc_error_lambda", "--model", str(mp), "--benchmark", str(bp), "--dist", str(dp), "--k", "2"],
    )
    assert code == 0


def test_eval_unknown_functional_exit_2(capsys, tmp_path):
    rng = rng_stream(97, 3)
    dist = random_binary_distribution(rng, 3, 5)
    dp = tmp_path / "mu.json"
    write_json(dp, dist.to_json())
    assert main(["eval", "--functional", "nope", "--dist", str(dp)]) == 2


def test_learn_comp_and_model_provenance(capsys, tmp_path, class_files):
    sp, bp, S, B = class_files
    rng = rng_stream(97, 4)
    si = 0
    defined = np.flatnonzero(S.matrix[si] != 0)
    if defined.size == 0:
        pytest.skip("draw has no defined source point")
    xs = rng.choice(defined, size=20)
    ys = S.matrix[si, xs].astype(np.float64)
    datap = tmp_path / "data.csv"
    save_dataset(Dataset(xs, ys), datap, sidecar={"seed": 97, "label_kind": "binary"})
    outp = tmp_path / "model.json"
    code = main(
        [
            "learn", "--task", "comp", "--source", str(sp), "--benchmark", str(bp),
            "--data", str(datap), "--seed", "3", "--out", str(outp),
        ]
    )
    assert code == 0
    model_data = json.loads(outp.read_text())
    assert model_data["provenance"]["task"] == "comp"
    assert model_data["provenance"]["seed"] == 3
    model = model_from_json(model_data)
    assert model.domain.size == 4


def test_learn_dcorm(tmp_path, class_files):
    sp, bp, S, B = class_files
    rng = rng_stream(97, 5)
    xs = rng.integers(0, 4, size=60)
    ys = rng.uniform(-1, 1, size=60)
    datap = tmp_path / "data.csv"
    save_dataset(Dataset(xs, ys), datap)
    pp = tmp_path / "params.json"
    write_json(pp, {"eta1": 0.1, "eta2": 0.3, "n1": 40, "n2": 20})
    outp = tmp_path / "model.json"
    code = main(
        [
            "learn", "--task", "dcorm", "--source", str(sp), "--benchmark", str(bp),
            "--params", str(pp), "--data", str(datap), "--seed", "3", "--out", str(outp),
        ]
    )
    assert code == 0


def test_online_replay_outputs(tmp_path, class_files):
    sp, bp, S, B = class_files
    rng = rng_stream(97, 6)
    xs = rng.integers(0, 4, size=30)
    ys = rng.choice([-1.0, 1.0], size=30)
    datap = tmp_path / "seq.csv"
    save_dataset(Dataset(xs, ys), datap)
    rp = tmp_path / "report.json"
    rounds = tmp_path / "rounds.csv"
    code = main(
        [
            "online", "--learner", "comp", "--source", str(sp), "--benchmark", str(bp),
            "--adversary", "replay", "--replay", str(datap), "--rounds", "30",
            "--out-report", str(rp), "--out-rounds", str(rounds),
        ]
    )
    assert code == 0
    report = json.loads(rp.read_text())
    assert 0 <= report["learner_rate"] <= 1
    lines = rounds.read_text().splitlines()
    assert lines[0] == "round,p_plus,y,cum_expected_mistakes"
    assert len(lines) == 31


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1.5\n1,-1\n", "labels must be -1 or +1, got 1.5"),  # int() would play +1
        ("0,1\n-1,1\n", "x_index must lie in [0, 3), got -1"),  # would wrap to the last point
        ("0,1\n3,1\n", "x_index must lie in [0, 3), got 3"),
    ],
)
def test_online_replay_bad_rows_exit_2(tmp_path, capsys, rows, message):
    hp, datap, rp = tmp_path / "H.json", tmp_path / "seq.csv", tmp_path / "report.json"
    write_json(hp, class_to_json(BinaryClass(Domain(3), [[1, -1, 1], [-1, -1, 1]])))
    datap.write_text("x_index,y\n" + rows)
    code = main(
        [
            "online", "--learner", "rwm", "--hypothesis-class", str(hp),
            "--adversary", "replay", "--replay", str(datap), "--rounds", "2",
            "--out-report", str(rp),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not rp.exists()


def test_eval_nan_distribution_exit_2(capsys, tmp_path):
    mp = tmp_path / "f.json"
    write_json(mp, {"domain": {"size": 2}, "kind": "real", "values": [0.5, -0.5]})
    for support, message in (
        ([[0, float("nan"), 0.5], [1, 1.0, 0.5]], "label must lie in [-1, 1]"),
        ([[0, 1.0, float("nan")], [1, 1.0, 0.5]], "masses must be positive"),
    ):
        dp = tmp_path / "mu.json"
        write_json(dp, {"domain": {"size": 2}, "kind": "real", "support": support})
        assert main(["eval", "--functional", "correlation", "--model", str(mp), "--dist", str(dp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_online_tree_adversary(tmp_path, capsys):
    from itertools import product as iproduct

    d = Domain(2)
    H = BinaryClass(d, np.array(list(iproduct((-1, 1), repeat=2)), dtype=np.int8))
    hp = tmp_path / "H.json"
    write_json(hp, class_to_json(H))
    from comparelearn import mutual_ldim

    tree = mutual_ldim(H, H).witness
    tp = tmp_path / "tree.json"
    write_json(tp, {"depth": tree.depth, "nodes": list(tree.nodes)})
    rp = tmp_path / "report.json"
    rounds_csv = tmp_path / "tree_rounds.csv"
    code = main(
        [
            "online", "--learner", "rwm", "--hypothesis-class", str(hp),
            "--adversary", "tree", "--tree", str(tp), "--rounds", "2",
            "--out-report", str(rp), "--out-rounds", str(rounds_csv),
        ]
    )
    assert code == 0
    report = json.loads(rp.read_text())
    assert report["learner_rate"] >= 0.5 - 1e-12  # >= depth/2 mistakes over depth rounds
    lines = rounds_csv.read_text().splitlines()
    assert lines[0] == "round,p_plus,y,cum_expected_mistakes"
    assert len(lines) == 3


@pytest.mark.parametrize("learner", ["soa", "rwm", "comp"])
def test_online_depth_zero_tree_exit_2(tmp_path, capsys, learner):
    # dims --ldim writes this witness for a class of Littlestone dimension 0
    hp, tp, rp = tmp_path / "H.json", tmp_path / "tree.json", tmp_path / "report.json"
    write_json(hp, class_to_json(BinaryClass(Domain(2), [[1, -1]])))
    write_json(tp, {"depth": 0, "nodes": []})
    classes = ["--hypothesis-class", str(hp)]
    if learner == "comp":
        classes = ["--source", str(hp), "--benchmark", str(hp)]
    code = main(
        [
            "online", "--learner", learner, *classes, "--adversary", "tree", "--tree", str(tp),
            "--rounds", "1", "--out-report", str(rp),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: sequence must be nonempty\n"
    assert not rp.exists()


@pytest.mark.parametrize("node", [7, -1])
def test_online_tree_node_outside_domain(tmp_path, capsys, node):
    from itertools import product as iproduct

    H = BinaryClass(Domain(3), np.array(list(iproduct((-1, 1), repeat=3)), dtype=np.int8))
    hp, tp, rp = tmp_path / "H.json", tmp_path / "tree.json", tmp_path / "report.json"
    write_json(hp, class_to_json(H))
    write_json(tp, {"depth": 1, "nodes": [node]})
    code = main(
        [
            "online", "--learner", "soa", "--hypothesis-class", str(hp),
            "--adversary", "tree", "--tree", str(tp), "--rounds", "1",
            "--out-report", str(rp),
        ]
    )
    assert code == 2
    assert not rp.exists()


def test_scenario_command(tmp_path, capsys):
    out_dir = tmp_path / "scen"
    code, out = run_main(
        capsys, ["scenario", "--name", "c1", "--m", "1", "--out-dir", str(out_dir)]
    )
    assert code == 0
    assert out["source_size"] == 4 and out["benchmark_size"] == 6
    assert (out_dir / "source.json").exists()
    assert (out_dir / "benchmark.json").exists()


def test_estimate_command_and_exit_codes(tmp_path, capsys):
    cfg = {
        "seed": 5,
        "experiments": [
            {"scenario": "c1", "m": 1, "direction": "forward", "epsilon": 0.0,
             "delta": 0.0, "grid": [0], "trials": 1, "mode": "adversarial"}
        ],
    }
    cp = tmp_path / "cfg.json"
    write_json(cp, cfg)
    out_dir = tmp_path / "out"
    code, _ = run_main(capsys, ["estimate", "--config", str(cp), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    # malformed config: exit 2, no output dir
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["estimate", "--config", str(bad), "--out-dir", str(tmp_path / "nope")]) == 2
    assert not (tmp_path / "nope").exists()
    # guard exceeded: exit 3
    big = tmp_path / "big.json"
    write_json(big, {"seed": 1, "experiments": [{"scenario": "c2", "m": 8, "grid": [0], "trials": 1}]})
    assert main(["estimate", "--config", str(big), "--out-dir", str(tmp_path / "nope2")]) == 3


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "comparelearn.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_learn_mamc_boost_omni_paths(tmp_path):
    rng = rng_stream(97, 7)
    d = Domain(6)
    grid = np.linspace(-1, 1, 9)
    svals = rng.choice(grid, size=6)
    from comparelearn import RealHypothesis, SourceModel, make_distribution
    from comparelearn.stat_model import BER_STAR, DETERMINISTIC

    S = RealClass(d, [svals, rng.choice(grid, size=6)])
    B = RealClass(d, rng.choice([-1.0, 1.0], size=(3, 6)))
    sp, bp = tmp_path / "S.json", tmp_path / "B.json"
    write_json(sp, class_to_json(S))
    write_json(bp, class_to_json(B))
    mu = np.full(6, 1 / 6)
    # mamc (Ber* labels)
    dist = make_distribution(mu, SourceModel(RealHypothesis(d, svals), BER_STAR))
    W, n1, n2 = 46, 40, 40
    data = dist.sample(W * (n1 + n2), rng_stream(97, 8))
    dp = tmp_path / "mamc.csv"
    save_dataset(Dataset(data.xs, data.ys), dp)
    pp = tmp_path / "mamc_params.json"
    write_json(pp, {"alpha": 0.6, "gamma": 0.3, "W": W, "n1": n1, "n2": n2, "k": 2, "eta2": 0.45})
    outp = tmp_path / "mamc_model.json"
    assert main(["learn", "--task", "mamc", "--source", str(sp), "--benchmark", str(bp),
                 "--params", str(pp), "--data", str(dp), "--seed", "1", "--out", str(outp)]) == 0
    assert json.loads(outp.read_text())["kind"] == "real"
    # boost (deterministic labels)
    distd = make_distribution(mu, SourceModel(RealHypothesis(d, svals), DETERMINISTIC))
    Wp, W2, bn1, bn2, bn3 = 10, 60, 60, 40, 30
    datab = distd.sample(Wp * (bn1 + bn2) + W2 * bn3, rng_stream(97, 9))
    dpb = tmp_path / "boost.csv"
    save_dataset(Dataset(datab.xs, datab.ys), dpb)
    ppb = tmp_path / "boost_params.json"
    write_json(ppb, {"alpha": 0.5, "gamma": 0.3, "epsilon": 0.3, "W": W2, "W_prime": Wp,
                     "n1": bn1, "n2": bn2, "n3": bn3, "eta2": 0.45})
    outb = tmp_path / "boost_model.json"
    assert main(["learn", "--task", "boost", "--source", str(sp), "--benchmark", str(bp),
                 "--params", str(ppb), "--data", str(dpb), "--seed", "1", "--out", str(outb)]) == 0
    assert json.loads(outb.read_text())["kind"] == "binary"
    # omni (Ber* binary labels)
    Wo_p, Wo = 46, 92
    datao = dist.sample(Wo_p * (n1 + n2) + Wo * 30, rng_stream(97, 10))
    dpo = tmp_path / "omni.csv"
    save_dataset(Dataset(datao.xs, datao.ys), dpo)
    ppo = tmp_path / "omni_params.json"
    write_json(ppo, {"alpha": 0.7, "gamma": 0.3, "epsilon": 0.3, "W": Wo, "W_prime": Wo_p,
                     "n1": n1, "n2": n2, "n3": 30, "k": 2, "eta2": 0.45})
    outo = tmp_path / "omni_model.json"
    assert main(["learn", "--task", "omni", "--source", str(sp), "--benchmark", str(bp),
                 "--params", str(ppo), "--data", str(dpo), "--seed", "1", "--out", str(outo),
                 "--loss", "squared"]) == 0
    # corm: tiny enumeration
    datac = distd.sample(2 + 30, rng_stream(97, 11))
    dpc = tmp_path / "corm.csv"
    save_dataset(Dataset(datac.xs, datac.ys), dpc)
    ppc = tmp_path / "corm_params.json"
    write_json(ppc, {"eta1": 0.34, "eta2": 0.34, "n1": 2, "n2": 30})
    outc = tmp_path / "corm_model.json"
    assert main(["learn", "--task", "corm", "--source", str(sp), "--benchmark", str(bp),
                 "--params", str(ppc), "--data", str(dpc), "--seed", "1", "--out", str(outc)]) == 0


def test_eval_regression_loss(tmp_path):
    rng = rng_stream(97, 12)
    dist = random_binary_distribution(rng, 3, 5)
    dp = tmp_path / "mu.json"
    write_json(dp, dist.to_json())
    from comparelearn import RealModel, model_to_json

    f = RealModel(Domain(3), [0.0, 0.5, -0.5])
    mp = tmp_path / "f.json"
    write_json(mp, model_to_json(f))
    assert main(["eval", "--functional", "regression_loss", "--model", str(mp),
                 "--dist", str(dp), "--loss", "squared"]) == 0


@pytest.fixture
def eval_files(tmp_path):
    d = Domain(2)
    write_json(tmp_path / "mu.json", DiscreteDistribution(d, [(0, 1.0, 0.5), (1, -1.0, 0.5)], "binary").to_json())
    write_json(tmp_path / "real.json", {"domain": {"size": 2}, "kind": "real", "values": [0.5, -0.5]})
    write_json(tmp_path / "binary.json", {"domain": {"size": 2}, "kind": "binary", "values": [1, -1]})
    write_json(tmp_path / "B.json", class_to_json(BinaryClass(d, [[1, -1]])))
    write_json(tmp_path / "empty.json", class_to_json(BinaryClass(d, [])))
    for name, values in (("frac", [1.5, -1]), ("wrap", [1, 255]), ("overflow", [1, 128])):
        write_json(tmp_path / f"{name}.json", {"domain": {"size": 2}, "kind": "binary", "values": values})
    return tmp_path


@pytest.mark.parametrize(
    "functional, files, message",
    [
        ("ma_error", {"benchmark": "B"}, "ma_error needs --model"),
        ("class_error", {}, "class_error needs --model"),
        ("mc_error", {"model": "real"}, "mc_error needs --benchmark"),
        ("corr_partial", {}, "corr_partial needs --benchmark"),
        ("corr_partial", {"benchmark": "empty"}, "corr_partial needs a nonempty --benchmark"),
        ("ma_error", {"model": "real", "benchmark": "empty"}, "ma_error needs a nonempty --benchmark"),
        ("class_error", {"model": "real"}, "class_error needs a binary --model"),
        ("class_error", {"model": "frac"}, "binary model values"),
        ("class_error", {"model": "wrap"}, "binary model values"),
        ("ma_error", {"model": "overflow", "benchmark": "B"}, "binary model values"),
    ],
)
def test_eval_bad_inputs_exit_2(capsys, eval_files, functional, files, message):
    argv = ["eval", "--functional", functional, "--dist", str(eval_files / "mu.json")]
    for option, name in files.items():
        argv += [f"--{option}", str(eval_files / f"{name}.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_eval_every_functional_runs(capsys, eval_files):
    from comparelearn.cli import _FUNCTIONALS

    for name, (reads, _) in _FUNCTIONALS.items():
        argv = ["eval", "--functional", name, "--dist", str(eval_files / "mu.json")]
        if "model" in reads:
            argv += ["--model", str(eval_files / "binary.json")]
        if "benchmark" in reads:
            argv += ["--benchmark", str(eval_files / "B.json")]
        code, out = run_main(capsys, argv)
        assert code == 0 and out["functional"] == name


def _edited(eval_files, name, **fields):
    data = json.loads((eval_files / f"{name}.json").read_text())
    data.update(fields)
    path = eval_files / f"edited-{name}.json"
    write_json(path, data)
    return str(path)


@pytest.mark.parametrize("name", ["B", "binary", "mu"])
@pytest.mark.parametrize("size", [2.7, 2.0, "2", True, 0])
def test_domain_size_must_be_a_positive_int(capsys, eval_files, name, size):
    # int() would read 2.7 as a 2-point domain and answer as if nothing were wrong
    path = _edited(eval_files, name, domain={"size": size})
    model = path if name == "binary" else str(eval_files / "binary.json")
    dist = path if name == "mu" else str(eval_files / "mu.json")
    argv = ["eval", "--functional", "class_error", "--model", model, "--dist", dist]
    if name == "B":
        argv = ["dims", path]
    assert main(argv) == 2
    assert "domain size must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, fields",
    [
        ("B", {"members": 5}),
        ("B", {"members": [5]}),
        ("B", {"members": [[True, -1]]}),
        ("B", {"members": [[1, 0]]}),
        ("B", {"kind": "real", "members": [["0.5", 1.0]]}),
        ("B", {"kind": None, "members": [["0.5", 1.0]]}),
        ("B", {"kind": "real", "members": [[None, 1.0]]}),
        ("binary", {"values": 5}),
        ("binary", {"kind": None, "values": 5}),
        ("binary", {"values": [True, -1]}),
        ("binary", {"kind": None, "values": [True, -1]}),
        ("real", {"values": ["0.5", 0.5]}),
        ("real", {"values": [None, 0.5]}),
    ],
)
def test_malformed_label_rows_exit_2(capsys, eval_files, name, fields):
    path = _edited(eval_files, name, **fields)
    if name == "B":
        argv = ["dims", path]
    else:
        argv = ["eval", "--functional", "correlation", "--model", path, "--dist", str(eval_files / "mu.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "support, message",
    [
        ([[0.7, 1, 0.5], [1, 1, 0.5]], "support index must be an integer"),
        ([[0, 1, 0.5], [True, 1, 0.5]], "support index must be an integer"),
        ([[0, 1, 0.5], ["1", 1, 0.5]], "support index must be an integer"),
        ([[0, 1, 0.5], [1, True, 0.5]], "support label must be a number"),
        ([[0, "0.5", 0.5], [1, 1, 0.5]], "support label must be a number"),
        ([[0, None, 0.5], [1, 1, 0.5]], "support label must be a number"),
        ([[0, 1, 0.5], [1, 1, "0.5"]], "support mass must be a number"),
        ([[0, 1, 0.5], [1, 1, False]], "support mass must be a number"),
        ([[0, 1, 0.5], [1, 1]], "support row must be a list [x, y, p]"),
        ([[0, 1, 0.5], [1, 1, 0.5, 0.0]], "support row must be a list [x, y, p]"),
        ([[0, 1, 0.5], {"x": 1}], "support row must be a list [x, y, p]"),
    ],
)
def test_malformed_support_rows_exit_2(capsys, eval_files, support, message):
    # int() and float() would read 0.7 as point 0, true as +1 and "0.5" as 0.5
    path = _edited(eval_files, "mu", kind="real", support=support)
    argv = ["eval", "--functional", "correlation", "--model", str(eval_files / "real.json"), "--dist", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid distribution JSON: ") and message in err


def test_support_rows_of_json_numbers_still_load(capsys, eval_files):
    # a JSON integer is a number: label 1 and mass 1 load as 1.0
    path = _edited(eval_files, "mu", kind="real", support=[[0, 1, 1]])
    code, out = run_main(capsys, ["eval", "--functional", "correlation",
                                  "--model", str(eval_files / "real.json"), "--dist", path])
    assert code == 0 and out["value"] == 0.5


HUGE = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "name, fields",
    [
        ("B", {"kind": "real", "members": [[HUGE, 0.5]]}),
        ("B", {"kind": None, "members": [[HUGE, 0.5]]}),
        ("real", {"values": [HUGE, 0.5]}),
        ("real", {"values": [-HUGE, 0.5]}),
        ("mu", {"kind": "real", "support": [[0, HUGE, 0.5], [1, 1, 0.5]]}),
        ("mu", {"kind": "real", "support": [[0, 1, HUGE], [1, 1, 0.5]]}),
    ],
)
def test_huge_json_integers_exit_2(capsys, eval_files, name, fields):
    # float(10**400) raises OverflowError, which is not a file error the CLI reports
    path = _edited(eval_files, name, **fields)
    if name == "B":
        argv = ["dims", path, "--margin", "0.1"]
    else:
        model = path if name == "real" else str(eval_files / "real.json")
        dist = path if name == "mu" else str(eval_files / "mu.json")
        argv = ["eval", "--functional", "correlation", "--model", model, "--dist", dist]
    assert main(argv) == 2
    assert "got an integer too large for a float" in capsys.readouterr().err
