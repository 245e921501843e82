"""Tests of the benchmark itself: every checker rejects a corrupted output,
and a short run of every workload passes its checks.

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import speed  # noqa: E402
import workload_cli  # noqa: E402
import workload_dims  # noqa: E402
import workload_learn  # noqa: E402
import workload_nstar  # noqa: E402
from comparelearn.core import BinaryModel  # noqa: E402
from comparelearn.dimensions import DimensionResult, MistakeTree  # noqa: E402
from harness import CheckFailed  # noqa: E402


def op(wl, kind, seed=5, round_index=0):
    ctx = wl.setup()
    inp = wl.make_input(ctx, kind, seed, round_index, wl.ROUND.index(kind))
    out = wl.run_op(ctx, kind, inp)
    assert wl.succeeded(kind, out)
    wl.check(ctx, kind, inp, out)  # the genuine output passes
    return ctx, inp, out


def swap_one(points, n):
    """Replace the first witness point by the lowest point not in the witness."""
    outside = min(set(range(n)) - set(points))
    return (outside,) + tuple(points[1:])


def test_dims_vc_rejects_swapped_witness_point():
    ctx, inp, out = op(workload_dims, "vc")
    bad = DimensionResult(out.value, swap_one(out.witness, 14))
    with pytest.raises(CheckFailed):
        workload_dims.check(ctx, "vc", inp, bad)


def test_dims_vc_rejects_a_value_that_is_not_maximal():
    ctx, inp, out = op(workload_dims, "vc")
    bad = DimensionResult(out.value - 1, tuple(out.witness[:-1]))
    with pytest.raises(CheckFailed, match="larger subset"):
        workload_dims.check(ctx, "vc", dict(inp, planted=out.value - 1), bad)


def test_dims_fat_rejects_swapped_witness_point():
    ctx, inp, out = op(workload_dims, "fat")
    subset, r1, r2 = out.witness
    bad = DimensionResult(out.value, (swap_one(subset, 4), r1, r2))
    with pytest.raises(CheckFailed):
        workload_dims.check(ctx, "fat", inp, bad)


def test_dims_ldim_rejects_swapped_tree_node():
    ctx, inp, out = op(workload_dims, "ldim")
    nodes = list(out.witness.nodes)
    nodes[0] = min(set(range(12)) - set(nodes))
    bad = DimensionResult(out.value, MistakeTree(out.witness.depth, tuple(nodes)))
    with pytest.raises(CheckFailed):
        workload_dims.check(ctx, "ldim", inp, bad)


@pytest.mark.parametrize("kind", ["grow_m2_n1", "fwd_c3"])
def test_nstar_rejects_success_count_off_by_one(kind):
    ctx, inp, out = op(workload_nstar, kind)
    bad = dataclasses.replace(out, successes=[out.successes[0] + (1 if kind == "grow_m2_n1" else -1)])
    with pytest.raises(CheckFailed):
        workload_nstar.check(ctx, kind, inp, bad)


def test_nstar_round_rejects_n_star_that_does_not_rise():
    genuine = {"grow_m1_n0": None, "grow_m1_n2": 2, "grow_m2_n1": None, "grow_m2_n6": 6,
               "grow_m3_n3": None, "grow_m3_n8": 8, "grow_m3_n12": 12}

    def rows(stars):
        return [(kind, None, SimpleNamespace(n_star=n)) for kind, n in stars.items()]

    workload_nstar.check_round(None, rows(genuine))
    with pytest.raises(CheckFailed):
        workload_nstar.check_round(None, rows({**genuine, "grow_m3_n3": 3}))
    with pytest.raises(CheckFailed):
        workload_nstar.check_round(None, rows({**genuine, "grow_m1_n0": 0}))


def test_learn_rejects_flipped_model_value():
    ctx, inp, out = op(workload_learn, "comp")
    values = out.values.copy()
    values[0] = -values[0]
    with pytest.raises(CheckFailed):
        workload_learn.check(ctx, "comp", inp, BinaryModel(out.domain, values))


def test_learn_rejects_a_weak_tree_adversary():
    ctx, inp, out = op(workload_learn, "tree")
    with pytest.raises(CheckFailed):
        workload_learn.check(ctx, "tree", inp, (out[0], workload_learn.TREE_DEPTH / 2 - 0.01))


def test_learn_rejects_too_many_boost_oracle_calls():
    ctx, inp, out = op(workload_learn, "boost")
    with pytest.raises(CheckFailed):
        workload_learn.check(ctx, "boost", inp, (out[0], workload_learn.BOOST_WP + 1))


def test_learn_rejects_failures_over_budget():
    ctx = workload_learn.setup()
    ctx["trials"]["mamc"], ctx["fails"]["mamc"] = 10, 5
    with pytest.raises(CheckFailed):
        workload_learn.finish(ctx)


@pytest.mark.parametrize("kind,code", [("dims", 2), ("learn", 1), ("bad_x_negative", 0), ("bad_params_key", 1)])
def test_cli_rejects_wrong_exit_code(kind, code):
    assert not workload_cli.succeeded(kind, workload_cli.Result(code, ""))


def test_cli_rejects_swapped_dims_witness():
    ctx, inp, out = op(workload_cli, "dims")
    got = json.loads(out.stdout)
    got["witness"] = list(swap_one(got["witness"], 12))
    with pytest.raises(CheckFailed):
        workload_cli.check(ctx, "dims", inp, workload_cli.Result(0, json.dumps(got)))
    workload_cli.finish(ctx)


def test_cli_rejects_results_csv_off_by_one():
    ctx, inp, out = op(workload_cli, "estimate")
    path = os.path.join(inp["dir"], "results", "results.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[5] = str(int(fields[5]) + 1)
    lines[1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        workload_cli.check(ctx, "estimate", inp, out)
    workload_cli.finish(ctx)


def test_reference_shattering_matches_definition():
    m = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1], [0, 1]], np.int8)
    assert ref.shatters(m, [0, 1]) and not ref.shatters(m[:3], [0, 1])
    assert ref.max_mutual_shattered([m, m[:3]]) == 1
    assert ref.littlestone(m[:4]) == 2


def test_reference_speed_scales_by_the_kernel_time():
    assert speed.at_reference(0.5, speed.REF_MS, speed.REF_MS) == pytest.approx(0.5)
    # a machine at half speed: the kernel took twice as long on both sides
    assert speed.at_reference(1.0, 2 * speed.REF_MS, 2 * speed.REF_MS) == pytest.approx(0.5)
    assert speed.sample() > 0


@pytest.mark.parametrize("workload,failed", [("nstar", 0), ("dims", 0), ("learn", 0), ("cli", 5)])
def test_short_run_of_every_workload(workload, failed):
    """One round per workload through the command line, checks included."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.001", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] == len(__import__(f"workload_{workload}").ROUND)
    assert result["failed"] == failed
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}


def test_short_traced_run_reports_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "learn",
         "--seed", "3", "--seconds", "0.001", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["core.agreement_class.calls"]["value"] > 0
    assert metrics["offline.weak_oracle.calls"]["value"] > 0
    assert metrics["experiments.goal_satisfied.calls"]["value"] == 0
