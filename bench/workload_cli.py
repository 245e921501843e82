"""cli: in-process ``comparelearn.cli.main(argv)`` calls on files in a scratch directory.

Each good op gets freshly generated files.  The five malformed ops are
inputs the CLI must reject with exit code 2 or 3; today none of them does,
so each counts as failed in every round.  Their files depend on the round
index only, never on the seed, so the failed share is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import reference as ref
from comparelearn import cli
from comparelearn.core import (
    BinaryClass,
    Domain,
    IntervalPartition,
    RealClass,
    RealModel,
    class_from_json,
    class_to_json,
    dump_json,
    load_json,
    model_from_json,
    model_to_json,
)
from comparelearn.dimensions import mutual_vc
from comparelearn.experiments import scenario
from comparelearn.offline import comparative_learn
from comparelearn.online import LabeledSequence, comp_online, run_sequence
from comparelearn.stat_model import Dataset, DiscreteDistribution, load_dataset, mc_error_lambda, save_dataset
from harness import require
from workload_nstar import growth_successes

GOOD = ["dims", "learn", "eval", "online", "scenario", "estimate"]
BAD = ["bad_x_negative", "bad_x_range", "bad_params_key", "bad_tree_no_depth", "bad_replay_missing"]
ROUND = GOOD + BAD
TAIL_PCT = 90
TRACE_ROUNDS = 3

SCENARIOS = [("figure1", 2, "forward"), ("c1", 2, "forward"), ("c1", 2, "reversed"),
             ("c2", 2, "forward"), ("c2", 3, "reversed"), ("c3", 4, "forward")]

HERE = os.path.dirname(os.path.abspath(__file__))


class Result:
    def __init__(self, code, stdout):
        self.code = code
        self.stdout = stdout


def setup() -> dict:
    work = os.path.join(HERE, "out", f"cli-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return {"work": work}


def _write_class(path, cls) -> str:
    dump_json(class_to_json(cls), path)
    return path


def _write_data(path, xs, ys, meta=None) -> str:
    save_dataset(Dataset(np.asarray(xs), np.asarray(ys, dtype=np.float64), meta), path)
    return path


def make_input(ctx, kind, seed, round_index, slot):
    d = os.path.join(ctx["work"], f"op-{round_index}-{slot}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    p = lambda name: os.path.join(d, name)  # noqa: E731
    # malformed inputs depend on the round only, so they fail the same way on every seed
    rng = ref.stream(seed if kind in GOOD else 0, 0xC1, round_index, slot)
    inp = {"dir": d}
    if kind == "dims":
        n = 12
        S = BinaryClass(Domain(n), ref.binary_rows(rng, n, 128, 0.4, range(4)))
        B = BinaryClass(Domain(n), ref.binary_rows(rng, n, 128, 0.4, range(4)))
        inp["argv"] = ["dims", _write_class(p("S.json"), S), _write_class(p("B.json"), B)]
        inp["inputs"] = inp["argv"][1:]
    elif kind in ("learn", "bad_x_negative", "bad_x_range", "bad_params_key"):
        n = 16
        S, B = ref.binary_rows(rng, n, 64, 0.1), ref.binary_rows(rng, n, 64, 0.1)
        i = int(rng.integers(64))
        B[int(rng.integers(64))] = S[i]
        xs = rng.choice(np.flatnonzero(S[i] != 0), size=300)
        ys = S[i, xs].astype(np.float64)
        if kind == "bad_x_negative":
            xs[int(rng.integers(300))] = -1
        elif kind == "bad_x_range":
            xs[int(rng.integers(300))] = n
        params = {"bogus_knob": 1} if kind == "bad_params_key" else {"epsilon": 0.1}
        dump_json(params, p("params.json"))
        inp["argv"] = ["learn", "--task", "comp",
                       "--source", _write_class(p("S.json"), BinaryClass(Domain(n), S)),
                       "--benchmark", _write_class(p("B.json"), BinaryClass(Domain(n), B)),
                       "--params", p("params.json"),
                       "--data", _write_data(p("data.csv"), xs, ys, {"seed": seed}),
                       "--seed", str(round_index), "--out", p("model.json")]
        inp["inputs"] = [p("S.json"), p("B.json"), p("params.json"), p("data.csv"), p("data.csv.meta.json")]
    elif kind == "eval":
        n = 16
        B = RealClass(Domain(n), rng.choice(np.linspace(-1, 1, 9), size=(64, n)))
        dump_json(model_to_json(RealModel(Domain(n), rng.choice(np.linspace(-1, 1, 17), size=n))), p("f.json"))
        xs = np.repeat(np.arange(n), 2)
        ys = np.tile([-1.0, 1.0], n)
        ps = rng.dirichlet(np.ones(2 * n))
        dist = DiscreteDistribution(Domain(n), list(zip(xs, ys, ps / ps.sum())), "binary")
        dump_json(dist.to_json(), p("mu.json"))
        inp["argv"] = ["eval", "--functional", "mc_error_lambda", "--k", "4", "--model", p("f.json"),
                       "--benchmark", _write_class(p("B.json"), B), "--dist", p("mu.json")]
        inp["inputs"] = [p("f.json"), p("B.json"), p("mu.json")]
    elif kind in ("online", "bad_replay_missing"):
        n = 10
        S, B = ref.binary_rows(rng, n, 32, 0.1), ref.binary_rows(rng, n, 32, 0.1)
        row = S[int(rng.integers(32))]
        xs = rng.choice(np.flatnonzero(row != 0), size=200)
        inp["argv"] = ["online", "--learner", "comp",
                       "--source", _write_class(p("S.json"), BinaryClass(Domain(n), S)),
                       "--benchmark", _write_class(p("B.json"), BinaryClass(Domain(n), B)),
                       "--adversary", "replay", "--rounds", "200",
                       "--out-report", p("report.json"), "--out-rounds", p("rounds.csv")]
        inp["inputs"] = [p("S.json"), p("B.json")]
        if kind == "online":
            inp["argv"] += ["--replay", _write_data(p("seq.csv"), xs, row[xs])]
            inp["inputs"] += [p("seq.csv"), p("seq.csv.meta.json")]
    elif kind == "bad_tree_no_depth":
        n = 6
        H = BinaryClass(Domain(n), ref.binary_rows(rng, n, 16, 0.0, range(2)))
        dump_json({"nodes": [0, 1, 1]}, p("tree.json"))
        inp["argv"] = ["online", "--learner", "soa", "--hypothesis-class", _write_class(p("H.json"), H),
                       "--adversary", "tree", "--tree", p("tree.json"), "--rounds", "2",
                       "--out-report", p("report.json")]
        inp["inputs"] = [p("H.json"), p("tree.json")]
    elif kind == "scenario":
        name, m, direction = SCENARIOS[int(rng.integers(len(SCENARIOS)))]
        inp["argv"] = ["scenario", "--name", name, "--m", str(m), "--direction", direction,
                       "--epsilon", repr(float(rng.uniform(0, 0.2))), "--out-dir", p("scen")]
        inp["inputs"] = []
    else:  # estimate
        config = {"seed": int(rng.integers(1 << 30)), "experiments": [
            {"scenario": "c1", "m": 2, "direction": "reversed", "epsilon": 0.1, "delta": 0.25,
             "grid": [1, 6], "trials": 40, "mode": "sampled", "learner": "benchmark_erm"}]}
        dump_json(config, p("config.json"))
        inp["config"] = config
        inp["argv"] = ["estimate", "--config", p("config.json"), "--out-dir", p("results")]
        inp["inputs"] = [p("config.json")]
    return inp


def run_op(ctx, kind, inp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(inp["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return Result(code, out.getvalue())


def succeeded(kind, out) -> bool:
    return out.code == 0 if kind in GOOD else out.code in (2, 3)


def _written(inp) -> int:
    total = 0
    for root, _, files in os.walk(inp["dir"]):
        for f in files:
            path = os.path.join(root, f)
            if path not in inp["inputs"]:
                total += os.path.getsize(path)
    return total


def check(ctx, kind, inp, out):
    tracer = ctx.get("tracer")
    if tracer is not None:
        tracer.counters["cli.bytes_read"] += sum(os.path.getsize(f) for f in inp["inputs"])
        tracer.counters["cli.bytes_written"] += _written(inp)
    argv, d = inp["argv"], inp["dir"]
    if kind == "dims":
        got = json.loads(out.stdout)
        S = class_from_json(load_json(argv[1]))
        B = class_from_json(load_json(argv[2]))
        require(got["mutual_vc"] == mutual_vc(S, B).value, "dims value differs in-process")
        require(got["mutual_vc"] >= 4, "dims value below the planted set")
        w = got["witness"]
        require(len(w) == got["mutual_vc"] and ref.shatters(S.matrix, w) and ref.shatters(B.matrix, w),
                f"dims witness {w} does not re-verify")
    elif kind == "learn":
        S = class_from_json(load_json(argv[4]))
        B = class_from_json(load_json(argv[6]))
        model = load_json(os.path.join(d, "model.json"))
        expected = comparative_learn(S, B, load_dataset(argv[10]))
        require(model["values"] == expected.values.tolist(), "learn model differs in-process")
        require(model["provenance"]["task"] == "comp", "learn provenance")
    elif kind == "eval":
        value = json.loads(out.stdout)["value"]
        f = model_from_json(load_json(argv[6]))
        B = class_from_json(load_json(argv[8]))
        dist = DiscreteDistribution.from_json(load_json(argv[10]))
        require(value == mc_error_lambda(f, B, dist, IntervalPartition(4)), "eval value differs in-process")
        own = ref.mc_error_cells(f.values, B.matrix, 4, dist.xs, dist.ys, dist.ps)
        require(abs(value - own) < 1e-12, "eval value differs from the benchmark's own")
    elif kind == "online":
        S = class_from_json(load_json(argv[4]))
        B = class_from_json(load_json(argv[6]))
        data = load_dataset(argv[argv.index("--replay") + 1])
        seq = LabeledSequence(tuple(zip(data.xs.tolist(), data.ys.astype(int).tolist())))
        learner = comp_online(S, B, 200)
        expected = run_sequence(learner, seq, B)
        report = load_json(os.path.join(d, "report.json"))
        require(report["learner_rate"] == expected.learner_rate, "online rate differs in-process")
        require(report["benchmark_rate"] == expected.benchmark_rate, "online benchmark rate")
        require(report["learner_rate"] <= report["benchmark_rate"] + report["rwm_bound"] + 1e-9,
                "online regret chain broken")
        with open(os.path.join(d, "rounds.csv")) as fh:
            lines = fh.read().splitlines()
        require(len(lines) == 201, "online rounds file length")
        require(abs(float(lines[-1].split(",")[3]) - expected.learner_rate * 200) < 1e-9,
                "online rounds file total")
    elif kind == "scenario":
        name, m, direction = argv[2], int(argv[4]), argv[6]
        spec = scenario(name, m, direction, float(argv[8]))
        got = json.loads(out.stdout)
        require(got["source_size"] == len(spec.source) and got["benchmark_size"] == len(spec.benchmark),
                "scenario sizes")
        scen = argv[10]
        require(load_json(os.path.join(scen, "source.json")) == class_to_json(spec.source), "scenario source")
        require(load_json(os.path.join(scen, "benchmark.json")) == class_to_json(spec.benchmark),
                "scenario benchmark")
    elif kind == "estimate":
        e = inp["config"]["experiments"][0]
        seed = inp["config"]["seed"]
        spec = scenario("c1", e["m"], e["direction"], e["epsilon"], e["delta"])
        with open(os.path.join(d, "results", "results.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        require(len(rows) == len(e["grid"]), "estimate row count")
        n_star = None
        for gi, (n, row) in enumerate(zip(e["grid"], rows)):
            wins = growth_successes(spec, n, e["trials"], seed, gi)
            lo, hi = ref.wilson(wins, e["trials"])
            want = f"c1,reversed,{e['m']},{n},{e['trials']},{wins},{lo:.6f},{hi:.6f},{seed},0"
            require(row == want, f"results.csv row {row!r} != {want!r}")
            if n_star is None and wins >= math.ceil((1 - e["delta"]) * e["trials"]):
                n_star = n
        summary = load_json(os.path.join(d, "results", "summary.json"))
        require([x["n_star"] for x in summary["experiments"]] == [n_star], "summary.json n*")


def check_round(ctx, results):
    for kind, inp, _ in results:
        shutil.rmtree(inp["dir"], ignore_errors=True)


def finish(ctx):
    shutil.rmtree(ctx["work"], ignore_errors=True)
