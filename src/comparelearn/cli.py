"""Command-line interface.

Subcommands: dims (dimensions of class files), eval (exact functionals),
learn (batch learners), online (online matches), scenario (construction
export), estimate (experiment orchestration).

Exit codes: 0 success, 2 config/usage error, 3 guard exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import pathlib
import sys

import numpy as np

from . import __version__, dimensions, offline, online
from .core import (
    BinaryModel,
    ConfigError,
    GuardError,
    IntervalPartition,
    ToolkitError,
    as_real_class,
    class_from_json,
    class_to_json,
    dump_json,
    load_json,
    model_from_json,
    model_to_json,
)
from .experiments import DIRECTIONS, SCENARIOS, run_experiment, scenario
from .stat_model import (
    DiscreteDistribution,
    cal_error,
    class_error,
    corr_partial,
    correlation,
    load_dataset,
    ma_error,
    mc_error,
    mc_error_lambda,
    regression_loss,
    rng_stream,
    sign_cal_error,
)


def _load_class(path):
    return class_from_json(load_json(path))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _witness_json(result: dimensions.DimensionResult):
    w = result.witness
    if w is None:
        return None
    if isinstance(w, dimensions.MistakeTree):
        return {"depth": w.depth, "nodes": list(w.nodes)}
    if isinstance(w, tuple) and w and isinstance(w[0], tuple):
        # fat witness: (subset, refs...) possibly with reference values
        return {"subset": list(w[0]), "references": [list(map(float, r)) for r in w[1:]]}
    return list(w)


def cmd_dims(args) -> None:
    if args.dist is not None and args.packing is None:
        raise ConfigError("--dist is read only with --packing")
    classes = [_load_class(path) for path in args.classes]
    mutual = "mutual_" if len(classes) > 1 else ""
    if len(classes) > 2 and any(v is not None for v in (args.margin, args.margins, args.packing)):
        raise ConfigError("--margin, --margins and --packing take one or two class files")
    out = {}
    if args.packing is not None:
        if not mutual:
            raise ConfigError("--packing needs a source and a benchmark class file")
        S, B = map(as_real_class, classes)
        mu = (
            DiscreteDistribution.from_json(load_json(args.dist)).marginal_x()
            if args.dist
            else np.full(S.domain.size, 1.0 / S.domain.size)
        )
        out["packing"] = dimensions.packing_number(S, B, mu, args.packing)
        out["covering_upper"] = dimensions.covering_upper(S, B, mu, args.packing)
        _emit(out)
        return
    if args.ldim:
        name, res = "ldim", dimensions.mutual_ldim(*classes)
    elif args.margins is not None:
        e1, e2 = (float(v) for v in args.margins.split(","))
        if not mutual:
            raise ConfigError("--margins needs two class files")
        name, res = "fat2", dimensions.mutual_fat2(*map(as_real_class, classes), e1, e2)
    elif args.margin is not None:
        fat = dimensions.mutual_fat if mutual else dimensions.fat
        name, res = "fat", fat(*map(as_real_class, classes), args.margin)
    else:
        name, res = "vc", dimensions.mutual_vc(*classes)
    out[mutual + name] = res.value
    out["witness"] = _witness_json(res)
    _emit(out)


def _binary_model(f):
    if not isinstance(f, BinaryModel):
        raise ConfigError("class_error needs a binary --model")
    return f


# name -> (the files it reads besides --dist, call(model, benchmark, dist, args))
_FUNCTIONALS = {
    "class_error": (("model",), lambda f, B, mu, a: class_error(_binary_model(f), mu)),
    "correlation": (("model",), lambda f, B, mu, a: correlation(f, mu)),
    "corr_partial": (("benchmark",), lambda f, B, mu, a: corr_partial(B.member(0), mu)),
    "ma_error": (("model", "benchmark"), lambda f, B, mu, a: ma_error(f, B, mu)),
    "mc_error": (("model", "benchmark"), lambda f, B, mu, a: mc_error(f, B, mu)),
    "mc_error_lambda": (
        ("model", "benchmark"), lambda f, B, mu, a: mc_error_lambda(f, B, mu, IntervalPartition(a.k))
    ),
    "cal_error": (("model",), lambda f, B, mu, a: cal_error(f, mu)),
    "sign_cal_error": (("model",), lambda f, B, mu, a: sign_cal_error(f, mu)),
    "regression_loss": (("model",), lambda f, B, mu, a: regression_loss(f, offline.LOSSES[a.loss](), mu)),
}


def cmd_eval(args) -> None:
    name = args.functional
    if name not in _FUNCTIONALS:
        raise ConfigError(f"unknown functional {name!r}; choose from {sorted(_FUNCTIONALS)}")
    reads, call = _FUNCTIONALS[name]
    for option in reads:
        if getattr(args, option) is None:
            raise ConfigError(f"{name} needs --{option}")
    dist = DiscreteDistribution.from_json(load_json(args.dist))
    model = model_from_json(load_json(args.model)) if "model" in reads else None
    cls = as_real_class(_load_class(args.benchmark)) if "benchmark" in reads else None
    if cls is not None and cls.is_empty:
        raise ConfigError(f"{name} needs a nonempty --benchmark")
    _emit({"functional": name, "value": call(model, cls, dist, args)})


def _params_hash(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:16]


def cmd_learn(args) -> None:
    params_raw = load_json(args.params) if args.params else {}
    if not isinstance(params_raw, dict):
        raise ConfigError(f"{args.params}: params must be a JSON object")
    lp = offline.LearnerParams(**params_raw)
    data = load_dataset(args.data)
    S = _load_class(args.source)
    B = _load_class(args.benchmark)
    rng = rng_stream(args.seed, 1)
    task = args.task
    if task == "comp":
        model = offline.comparative_learn(S, B, data)
    else:
        S, B = as_real_class(S), as_real_class(B)
        if task == "dcorm":
            model = offline.dcorm_real(S, B, data, lp, rng)
        elif task == "corm":
            model = offline.corm_general(S, B, data, lp, rng)
        else:
            oracle = offline.exact_weak_oracle(eta2=lp.eta2 or 0.25, alpha=lp.alpha, gamma=lp.gamma)
            part = IntervalPartition(lp.k)
            if task == "mamc":
                model = offline.ma_mc_learn(S, B, data, part, lp, oracle, rng)
            elif task == "boost":
                model = offline.boost(S, B, data, oracle, lp, rng)
            else:
                model = offline.omnipredict(S, B, offline.LOSSES[args.loss](), data, part, lp, oracle, rng)
    provenance = {"task": task, "params_hash": _params_hash(params_raw), "seed": args.seed}
    dump_json(model_to_json(model, provenance), args.out)


def cmd_online(args) -> None:
    if args.learner == "comp":
        classes = (_load_class(args.source), _load_class(args.benchmark))
        learner = online.comp_online(*classes, args.rounds)
    else:
        classes = (_load_class(args.hypothesis_class),)
        if args.learner == "soa":
            learner = online.SOALearner(classes[0])
        else:
            learner = online.RWMLearner(classes[0], args.rounds)
    if args.adversary == "replay":
        data = load_dataset(args.replay)
        size = classes[0].domain.size
        outside = (data.xs < 0) | (data.xs >= size)
        if outside.any():
            bad = data.xs[outside][0]
            raise ConfigError(f"{args.replay}: x_index must lie in [0, {size}), got {bad}")
        seq = online.LabeledSequence(tuple(zip(data.xs.tolist(), data.ys.tolist())))
        report = online.run_sequence(learner, seq, classes[-1])
    else:
        tree_data = load_json(args.tree)
        tree = dimensions.MistakeTree(tree_data["depth"], tuple(tree_data["nodes"]))
        match = online._tree_match(learner, tree, classes[0], classes[-1])
        report = online._report(learner, *match, None)
    if report.n != args.rounds:  # the RWM horizon and bound are set for --rounds
        raise ConfigError(f"--rounds is {args.rounds} but the {args.adversary} has {report.n} rounds")
    if args.out_report:
        ldim_bound = None
        try:
            m = dimensions.mutual_ldim(*classes).value
            if m is not None:
                ldim_bound = online.ldim_rate_bound(m, report.n)
        except GuardError:
            pass  # report the RWM quantity alone when Ldim guards trip
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "rounds"}
        dump_json({**fields, "ldim_rate_bound": ldim_bound}, args.out_report)
    if args.out_rounds:
        with open(args.out_rounds, "w") as fh:
            fh.write("round,p_plus,y,cum_expected_mistakes\n")
            for r in report.rounds:
                fh.write(f"{r[0]},{r[1]!r},{r[2]},{r[3]!r}\n")


def cmd_scenario(args) -> None:
    spec = scenario(args.name, args.m, args.direction, args.epsilon, args.delta)
    out = {
        "name": spec.name,
        "kind": spec.kind,
        "m": args.m,
        "direction": args.direction,
        "source_size": len(spec.source),
        "benchmark_size": len(spec.benchmark),
        "mu_family_size": len(spec.mu_family) if spec.mu_family else 0,
        "distribution_specific": spec.mu_x is not None,
    }
    if args.out_dir:
        d = pathlib.Path(args.out_dir)
        d.mkdir(parents=True, exist_ok=True)
        dump_json(class_to_json(spec.source), d / "source.json")
        dump_json(class_to_json(spec.benchmark), d / "benchmark.json")
        if spec.mu_family:
            dump_json(spec.mu_family[0].to_json(), d / "mu0.json")
        out["written_to"] = str(d)
    _emit(out)


def cmd_estimate(args) -> None:
    cfg = load_json(args.config)
    summary = run_experiment(cfg, args.out_dir)
    _emit({"out_dir": args.out_dir, "experiments": len(summary["experiments"])})


@functools.cache  # built on the first main call, after any rebinding of the cmd_* functions
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="comparelearn", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="dimensions of one or more class files")
    d.add_argument("classes", nargs="+", help="class JSON file(s)")
    which = d.add_mutually_exclusive_group()
    which.add_argument("--margin", type=float, default=None, help="fat-shattering margin")
    which.add_argument("--margins", default=None, help="two margins eta1,eta2")
    which.add_argument("--ldim", action="store_true", help="Littlestone dimension")
    which.add_argument("--packing", type=float, default=None, help="packing number at eps")
    d.add_argument("--dist", default=None, help="distribution JSON for --packing")
    d.set_defaults(func=cmd_dims)

    e = sub.add_parser("eval", help="exact functional of (model, class, distribution)")
    e.add_argument("--functional", required=True)
    e.add_argument("--model", default=None, help="model JSON")
    e.add_argument("--benchmark", default=None, help="class JSON")
    e.add_argument("--dist", required=True, help="distribution JSON")
    e.add_argument("--k", type=int, default=1, help="partition size for mc_error_lambda")
    e.add_argument("--loss", default="squared", choices=offline.LOSSES)
    e.set_defaults(func=cmd_eval)

    l = sub.add_parser("learn", help="run a batch learner")
    l.add_argument("--task", required=True, choices=["comp", "dcorm", "corm", "mamc", "boost", "omni"])
    l.add_argument("--source", required=True)
    l.add_argument("--benchmark", required=True)
    l.add_argument("--params", default=None, help="LearnerParams JSON")
    l.add_argument("--data", required=True, help="dataset CSV")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--loss", default="squared", choices=offline.LOSSES)
    l.add_argument("--out", required=True, help="output model JSON")
    l.set_defaults(func=cmd_learn)

    o = sub.add_parser("online", help="run an online learner")
    o.add_argument("--learner", required=True, choices=["soa", "rwm", "comp"])
    o.add_argument("--hypothesis-class", dest="hypothesis_class", default=None)
    o.add_argument("--source", default=None)
    o.add_argument("--benchmark", default=None)
    o.add_argument("--adversary", required=True, choices=["tree", "replay"])
    o.add_argument("--tree", default=None, help="mistake tree witness JSON")
    o.add_argument("--replay", default=None, help="dataset CSV to replay")
    o.add_argument("--rounds", type=int, required=True)
    o.add_argument("--out-report", dest="out_report", default=None)
    o.add_argument("--out-rounds", dest="out_rounds", default=None)
    o.set_defaults(func=cmd_online)

    s = sub.add_parser("scenario", help="build a named construction")
    s.add_argument("--name", required=True, choices=SCENARIOS)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--direction", default="forward", choices=DIRECTIONS)
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--out-dir", dest="out_dir", default=None)
    s.set_defaults(func=cmd_scenario)

    est = sub.add_parser("estimate", help="run an experiment config")
    est.add_argument("--config", required=True)
    est.add_argument("--out-dir", dest="out_dir", required=True)
    est.set_defaults(func=cmd_estimate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ToolkitError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
