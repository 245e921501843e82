"""Span tracing for the traced benchmark mode, installed from outside ``src/``.

:func:`install` wraps every public function of the seven comparelearn modules
and every public method of their classes (plus the class constructor and the
weak-oracle call) and rebinds each wrapped name in every module that holds it,
so that e.g. ``experiments.class_error`` is traced as well as
``stat_model.class_error``.  Spans (name, start, end, parent) are kept in
memory in flat arrays and written out by :meth:`Tracer.write` when the run
ends.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("core", "dimensions", "stat_model", "offline", "online", "experiments", "cli")

# Non-public callables that are layer boundaries all the same.
EXTRA = {
    ("core", "_BaseClass", "__init__"): "core.class_init",
    ("offline", "WeakOracle", "__call__"): "offline.WeakOracle.__call__",
}

# per-layer metric -> the spans it aggregates
GROUPS = {
    "experiments.goal_satisfied": ["experiments.goal_satisfied"],
    "core.member": ["core._BaseClass.member"],
    "stat_model.functional": [
        f"stat_model.{f}"
        for f in (
            "class_error",
            "correlation",
            "corr_partial",
            "ma_error",
            "mc_error",
            "mc_error_lambda",
            "cal_error",
            "sign_cal_error",
            "regression_loss",
        )
    ],
    "experiments.estimate": ["experiments.estimate_sample_complexity"],
    "stat_model.sample": ["stat_model.DiscreteDistribution.sample", "stat_model.sample"],
    "offline.erm": ["offline.erm_agnostic", "offline.erm_realizable"],
    "experiments.scenario": ["experiments.scenario"],
    "stat_model.make_distribution": ["stat_model.make_distribution"],
    "core.class_init": ["core.class_init"],
    "core.agreement_class": ["core.agreement_class"],
    "core.binarize_class": ["core.binarize_class"],
    "offline.weak_oracle": ["offline.WeakOracle.__call__"],
    "offline.comparative_learn": ["offline.comparative_learn"],
    "offline.dcorm": ["offline.dcorm_binary_benchmark", "offline.dcorm_real"],
    "offline.ma_mc_learn": ["offline.ma_mc_learn"],
    "offline.boost": ["offline.boost"],
    "offline.omnipredict": ["offline.omnipredict", "offline.omni_learn"],
    "online.predict": ["online.SOALearner.predict", "online.RWMLearner.predict"],
    "online.run_sequence": ["online.run_sequence"],
    "online.play_tree_adversary": ["online.play_tree_adversary"],
    "dimensions.tree_shattered_by": ["dimensions.tree_shattered_by"],
    "dimensions.mutual_vc": ["dimensions.mutual_vc"],
    "dimensions.mutual_ldim": ["dimensions.mutual_ldim"],
    "dimensions.mutual_fat": ["dimensions.mutual_fat", "dimensions.mutual_fat2"],
    "dimensions.is_shattered": ["dimensions.is_shattered"],
    "dimensions.reference_candidates": ["dimensions.reference_candidates"],
    "cli.main": ["cli.main"],
    "core.json": [
        f"core.{f}"
        for f in (
            "class_from_json",
            "class_to_json",
            "model_from_json",
            "model_to_json",
            "load_json",
            "dump_json",
        )
    ],
    "stat_model.dataset_io": ["stat_model.load_dataset", "stat_model.save_dataset"],
    "experiments.run_experiment": ["experiments.run_experiment"],
}

# (metric name, kind) in the order they are reported; kind is "calls",
# "self_s" or a counter name.
PER_LAYER = [
    ("experiments.goal_satisfied", "calls"),
    ("experiments.goal_satisfied", "self_s"),
    ("core.member", "calls"),
    ("core.member", "self_s"),
    ("stat_model.functional", "calls"),
    ("stat_model.functional", "self_s"),
    ("experiments.estimate", "self_s"),
    ("stat_model.sample", "calls"),
    ("stat_model.sample", "self_s"),
    ("offline.erm", "calls"),
    ("offline.erm", "self_s"),
    ("experiments.scenario", "self_s"),
    ("stat_model.make_distribution", "calls"),
    ("stat_model.make_distribution", "self_s"),
    ("core.class_init", "calls"),
    ("core.class_init", "self_s"),
    ("core.agreement_class", "calls"),
    ("core.agreement_class", "self_s"),
    ("core.agreement_class", "rows_in"),
    ("core.agreement_class", "rows_out"),
    ("core.binarize_class", "calls"),
    ("core.binarize_class", "self_s"),
    ("offline.weak_oracle", "calls"),
    ("offline.weak_oracle", "self_s"),
    ("offline.comparative_learn", "self_s"),
    ("offline.dcorm", "self_s"),
    ("offline.ma_mc_learn", "self_s"),
    ("offline.boost", "self_s"),
    ("offline.omnipredict", "self_s"),
    ("online.predict", "calls"),
    ("online.run_sequence", "self_s"),
    ("online.play_tree_adversary", "self_s"),
    ("dimensions.tree_shattered_by", "self_s"),
    ("dimensions.mutual_vc", "self_s"),
    ("dimensions.mutual_ldim", "self_s"),
    ("dimensions.mutual_fat", "self_s"),
    ("dimensions.is_shattered", "calls"),
    ("dimensions.reference_candidates", "calls"),
    ("cli.main", "calls"),
    ("cli.main", "self_s"),
    ("core.json", "self_s"),
    ("stat_model.dataset_io", "self_s"),
    ("experiments.run_experiment", "self_s"),
    ("cli", "bytes_read"),
    ("cli", "bytes_written"),
] + [(f"layer.{m}", "self_s") for m in MODULES]

UNITS = {"calls": "count", "self_s": "s", "rows_in": "count", "rows_out": "count",
         "bytes_read": "bytes", "bytes_written": "bytes"}


def metric_name(group: str, kind: str) -> str:
    return f"{group}.{kind}"


def metric_unit(kind: str) -> str:
    return UNITS[kind]


class Tracer:
    """Records spans while :attr:`active`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span index, child time]

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn, on_exit=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.starts)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer._stack.append(frame)
            tracer.name_col.append(name_id)
            tracer.parents.append(parent)
            start = time.perf_counter()
            tracer.starts.append(start)
            tracer.ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.ends[index] = end
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        out = {}
        for group, kind in PER_LAYER:
            if group.startswith("layer."):
                prefix = group[len("layer.") :] + "."
                value = sum(v for k, v in self.self_s.items() if k.startswith(prefix))
            elif kind == "calls":
                value = sum(self.calls[s] for s in GROUPS[group])
            elif kind == "self_s":
                value = sum(self.self_s[s] for s in GROUPS[group])
            else:
                value = self.counters[metric_name(group, kind)]
            out[metric_name(group, kind)] = {"value": value, "unit": metric_unit(kind)}
        return out

    def write(self, path, chunk: int = 1 << 16) -> None:
        """Write every span as one JSON object of parallel columns, a chunk at a time."""
        with open(path, "w") as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for key, col in (("name", self.name_col), ("start", self.starts),
                             ("end", self.ends), ("parent", self.parents)):
                fh.write(f',"{key}":[')
                for i in range(0, len(col), chunk):
                    fh.write(("," if i else "") + ",".join(map(repr, col[i : i + chunk])))
                fh.write("]")
            fh.write("}\n")


def _agreement_rows(tracer: Tracer, args, result) -> None:
    """agreement_class(S, B) builds |S| * |B| pair rows and keeps the distinct ones."""
    tracer.counters["core.agreement_class.rows_in"] += len(args[0]) * len(args[1])
    tracer.counters["core.agreement_class.rows_out"] += len(result)


ON_EXIT = {"core.agreement_class": _agreement_rows}


def _targets(package):
    """Yield (span name, owner, attribute, function) for every wrapped callable."""
    for short in MODULES:
        mod = getattr(package, short)
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if not attr.startswith("_"):
                    yield f"{short}.{attr}", mod, attr, obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for klass in obj.__mro__:
                    if klass.__module__ != mod.__name__:
                        continue
                    for name, member in list(vars(klass).items()):
                        label = EXTRA.get((short, klass.__name__, name))
                        if label is None and (
                            name.startswith("_") or not inspect.isfunction(member)
                            or attr.startswith("_")
                        ):
                            continue
                        yield label or f"{short}.{klass.__name__}.{name}", klass, name, member


def install(tracer: Tracer) -> None:
    """Wrap the comparelearn layers and rebind every reference to the originals."""
    import comparelearn

    replaced: dict[int, object] = {}
    for span, owner, attr, fn in _targets(comparelearn):
        if id(fn) in replaced:  # a base-class method reached through two subclasses
            continue
        wrapper = tracer.wrap(span, fn, ON_EXIT.get(span))
        replaced[id(fn)] = wrapper
        setattr(owner, attr, wrapper)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "comparelearn" or name.startswith("comparelearn.")):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
