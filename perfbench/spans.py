"""Outside-in span recorder and the per-layer metrics built from its spans.

The recorder wraps functions at the module (or class) attribute their caller
looks up, so the program under test is not edited.  ``from .x import name``
binds ``name`` in the importing module, which is why, for example, the hull
labeler is wrapped as ``cabc.trainer.member_mask`` for training and as
``cabc.autolabel.member_mask`` for ``labeldemo``.

Each span is one call: its name, start, end, the span open when it began
(its parent) and an optional annotation taken from the arguments or result.
Spans are kept in memory as parallel lists and written out once, at exit.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

_HEAD_NET = {"tanh": "policy", "identity": "dyn", "sigmoid": "clf"}


def _net(params) -> str:
    """Network name of an ``MlpParams``, keyed by its output head."""
    return _HEAD_NET.get(params.head, params.head)


def _forward_note(args, kwargs, result):
    x = args[1]
    return [_net(args[0]), 1 if getattr(x, "ndim", 2) == 1 else len(x)]


def _net_note(args, kwargs, result):
    return [_net(args[0])]


def _hull_note(args, kwargs, result):
    return [len(args[1]), bool(result)]


def _mask_note(args, kwargs, result):
    assume = kwargs.get("assume_member")
    return [len(args[1]), 0 if assume is None else int(assume.sum())]


def _laps_note(args, kwargs, result):
    return [result.laps_completed]


# (module, attribute path, span name, annotation).  The first three are the
# epoch and pass boundaries the untraced run needs; they are always wrapped.
BOUNDARY = (
    ("cabc.cli", "train", "cli.train", None),
    ("cabc.cli", "write_reports_csv", "reports.write_csv", None),
    ("cabc.cli", "label_synthetic", "autolabel.label_synthetic", None),
)
TRACED = BOUNDARY + (
    ("cabc.cli", "evaluate", "cli.expert_eval", None),
    ("cabc.cli", "save_dataset", "core.save_dataset", None),
    ("cabc.cli", "_cmd_labeldemo", "cli.labeldemo", None),
    ("cabc.cli", "train_synthetic_classifier", "autolabel.train_synthetic_classifier", None),
    ("cabc.cli", "classifier_grid", "autolabel.classifier_grid", None),
    ("cabc.cli", "svg_xy_figure", "reports.svg", None),
    ("cabc.cli", "contour_segments", "reports.svg", None),
    ("cabc.trainer", "_collect_epoch", "trainer.collect", None),
    ("cabc.trainer", "rollout", "sim.rollout", None),
    ("cabc.trainer", "fit_norm", "autolabel.fit_norm", None),
    ("cabc.trainer", "_LabelState.relabel", "trainer.relabel", None),
    ("cabc.trainer", "member_mask", "autolabel.member_mask", _mask_note),
    ("cabc.trainer", "agent_loss_and_grad", "trainer.agent_loss", None),
    ("cabc.trainer", "safety_penalty_and_input_grad", "critic.safety_penalty", None),
    ("cabc.trainer", "dyn_loss_and_grad", "critic.dyn_loss", None),
    ("cabc.trainer", "clf_loss_and_grad", "critic.clf_loss", None),
    ("cabc.trainer", "evaluate", "evalharness.evaluate", _laps_note),
    ("cabc.trainer", "MixedPolicy.__call__", "policy.mixed", None),
    ("cabc.trainer", "MlpPolicy.__call__", "policy.mlp", None),
    ("cabc.evalharness", "rollout", "sim.rollout", None),
    ("cabc.autolabel", "member_mask", "autolabel.member_mask", _mask_note),
    ("cabc.autolabel", "hull_membership", "autolabel.hull", _hull_note),
    ("cabc.nn", "forward", "nn.forward", _forward_note),
    ("cabc.nn", "backward", "nn.backward", _net_note),
    ("cabc.nn", "adam_step", "nn.adam_step", _net_note),
    ("cabc.nn", "save_weights", "nn.save_weights", None),
    ("cabc.sim", "step", "sim.step", None),
    ("cabc.sim", "observe", "sim.observe", None),
    ("cabc.experts", "PidCenterline.__call__", "experts.call", None),
    ("cabc.experts", "RacingExpert.__call__", "experts.call", None),
    ("cabc.core", "DatasetWriter.write", "core.dataset_write", None),
    ("cabc.core", "DatasetWriter.close", "core.dataset_write", None),
)


class Tracer:
    """Records one span per call of each wrapped function (single thread)."""

    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.notes: List[Optional[list]] = []
        self._open = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, note: Optional[Callable] = None) -> None:
        orig = owner.__dict__[attr]  # a missing binding raises here, loudly
        names, parents, starts, ends, notes, open_ = (
            self.names, self.parents, self.starts, self.ends, self.notes, self._open)
        clock = time.monotonic

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(open_[-1])
            notes.append(None)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if note is not None:
                notes[i] = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self, targets) -> None:
        for module, path, name, note in targets:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name, note)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def first_start(self, name: str) -> Optional[float]:
        return next((t for n, t in zip(self.names, self.starts) if n == name), None)

    def starts_of(self, name: str) -> List[float]:
        return [t for n, t in zip(self.names, self.starts) if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": self.names, "parent": self.parents, "start": self.starts,
                       "end": self.ends, "note": self.notes}, fh)


# --- per-layer metrics ------------------------------------------------------------

# name -> unit.  Every per-layer metric the benchmark reports, in print order.
PER_LAYER_UNITS = {
    "trainer.collect.s": "s",
    "trainer.label.s": "s",
    "trainer.dyn.s": "s",
    "trainer.clf.s": "s",
    "trainer.policy.s": "s",
    "trainer.eval.s": "s",
    "trainer.other.s": "s",
    "trainer.epochs.s": "s",
    "autolabel.member_mask.s": "s",
    "autolabel.hull.calls": "count",
    "autolabel.hull.us": "us",
    "autolabel.hull.accept_ratio": "ratio",
    "autolabel.hull.points_mean": "count",
    "autolabel.cache_skip_ratio": "ratio",
    "autolabel.fit_norm.s": "s",
    "autolabel.train_synthetic_classifier.s": "s",
    "autolabel.classifier_grid.s": "s",
    "critic.safety_penalty.calls": "count",
    "critic.safety_penalty.us": "us",
    "critic.dyn_loss.us": "us",
    "critic.clf_loss.us": "us",
    "nn.forward.policy.b256.us": "us",
    "nn.forward.dyn.b256.us": "us",
    "nn.forward.clf.b256.us": "us",
    "nn.forward.policy.b1.calls": "count",
    "nn.forward.policy.b1.us": "us",
    "nn.backward.policy.us": "us",
    "nn.backward.dyn.us": "us",
    "nn.backward.clf.us": "us",
    "nn.adam_step.policy.us": "us",
    "nn.adam_step.dyn.us": "us",
    "nn.adam_step.clf.us": "us",
    "nn.save_weights.calls": "count",
    "nn.save_weights.s": "s",
    "sim.collect.steps": "count",
    "sim.eval.steps": "count",
    "sim.step.us": "us",
    "sim.observe.us": "us",
    "sim.rollout.self_s": "s",
    "experts.calls": "count",
    "experts.us": "us",
    "evalharness.evaluate.s": "s",
    "evalharness.laps": "count",
    "cli.expert_eval.s": "s",
    "core.dataset_write.s": "s",
    "core.dataset_write.bytes": "bytes",
    "reports.write_csv.s": "s",
    "reports.svg.s": "s",
    "cli.labeldemo.other.s": "s",
    "trace.overhead_s": "s",
}

# the direct children of ``cli.train`` that make up each named epoch phase
_PHASES = {
    "collect": (("trainer.collect", None),),
    "label": (("autolabel.fit_norm", None), ("trainer.relabel", None)),
    "dyn": (("critic.dyn_loss", None), ("nn.adam_step", "dyn")),
    "clf": (("critic.clf_loss", None), ("nn.adam_step", "clf")),
    "policy": (("trainer.agent_loss", None), ("nn.adam_step", "policy")),
    "eval": (("evalharness.evaluate", None),),
}
_POLICY_CALLS = ("policy.mixed", "policy.mlp", "experts.call")
_LABELDEMO_PARTS = ("autolabel.label_synthetic", "autolabel.train_synthetic_classifier",
                    "autolabel.classifier_grid", "reports.svg")


def layer_metrics(spans: dict, dataset_bytes: int) -> Dict[str, Tuple[float, int]]:
    """Per-layer metrics of one traced run, as ``name -> (value, calls)``.

    ``calls`` is the number of spans the value was built from; the self-test
    uses it to tell a layer that did no work from one that is no longer
    reached through the wrapped binding.
    """
    names, parents, notes = spans["name"], spans["parent"], spans["note"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    n = len(names)

    # the enclosing training-loop phase of each span: collection, the epoch
    # evaluation, or the set-up expert evaluation (parents precede children)
    scope = [""] * n
    for i in range(n):
        if names[i] in ("trainer.collect", "evalharness.evaluate", "cli.expert_eval"):
            scope[i] = names[i]
        elif parents[i] >= 0:
            scope[i] = scope[parents[i]]

    by_name: Dict[str, List[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def pick(name, net=None, batch=None, parent_name=None, in_scope=None):
        return [i for i in by_name.get(name, ())
                if (net is None or notes[i][0] == net)
                and (batch is None or notes[i][1] == batch)
                and (parent_name is None
                     or (parents[i] >= 0 and names[parents[i]] == parent_name))
                and (in_scope is None or scope[i] == in_scope)]

    def total(idx) -> float:
        return float(sum(dur[i] for i in idx))

    def mean_us(idx) -> float:
        return 1e6 * total(idx) / len(idx) if idx else 0.0

    out: Dict[str, Tuple[float, int]] = {}

    train = pick("cli.train")
    phase_sum = 0.0
    for phase, parts in _PHASES.items():
        idx = [i for name, net in parts for i in pick(name, net=net, parent_name="cli.train")]
        out[f"trainer.{phase}.s"] = (total(idx), len(idx))
        phase_sum += total(idx)
    out["trainer.other.s"] = (total(train) - phase_sum, len(train))
    out["trainer.epochs.s"] = (total(train), len(train))

    masks = pick("autolabel.member_mask")
    hull = pick("autolabel.hull")
    out["autolabel.member_mask.s"] = (total(masks), len(masks))
    out["autolabel.hull.calls"] = (float(len(hull)), len(hull))
    out["autolabel.hull.us"] = (mean_us(hull), len(hull))
    accepted = sum(notes[i][1] for i in hull)
    out["autolabel.hull.accept_ratio"] = (accepted / len(hull) if hull else 0.0, len(hull))
    points = sum(notes[i][0] for i in hull)
    out["autolabel.hull.points_mean"] = (points / len(hull) if hull else 0.0, len(hull))
    queried = sum(notes[i][0] for i in masks)
    skipped = sum(notes[i][1] for i in masks)
    out["autolabel.cache_skip_ratio"] = (skipped / queried if queried else 0.0, len(masks))
    for name in ("autolabel.fit_norm", "autolabel.train_synthetic_classifier",
                 "autolabel.classifier_grid"):
        idx = pick(name)
        out[f"{name}.s"] = (total(idx), len(idx))

    penalty = pick("critic.safety_penalty")
    out["critic.safety_penalty.calls"] = (float(len(penalty)), len(penalty))
    out["critic.safety_penalty.us"] = (mean_us(penalty), len(penalty))
    for name in ("critic.dyn_loss", "critic.clf_loss"):
        idx = pick(name)
        out[f"{name}.us"] = (mean_us(idx), len(idx))

    for net in ("policy", "dyn", "clf"):
        idx = pick("nn.forward", net=net, batch=256)
        out[f"nn.forward.{net}.b256.us"] = (mean_us(idx), len(idx))
    b1 = pick("nn.forward", net="policy", batch=1)
    out["nn.forward.policy.b1.calls"] = (float(len(b1)), len(b1))
    out["nn.forward.policy.b1.us"] = (mean_us(b1), len(b1))
    for op in ("backward", "adam_step"):
        for net in ("policy", "dyn", "clf"):
            idx = pick(f"nn.{op}", net=net)
            out[f"nn.{op}.{net}.us"] = (mean_us(idx), len(idx))
    saves = pick("nn.save_weights")
    out["nn.save_weights.calls"] = (float(len(saves)), len(saves))
    out["nn.save_weights.s"] = (total(saves), len(saves))

    collect_steps = pick("sim.step", in_scope="trainer.collect")
    eval_steps = pick("sim.step", in_scope="evalharness.evaluate")
    out["sim.collect.steps"] = (float(len(collect_steps)), len(collect_steps))
    out["sim.eval.steps"] = (float(len(eval_steps)), len(eval_steps))
    for name in ("sim.step", "sim.observe"):
        idx = pick(name)
        out[f"{name}.us"] = (mean_us(idx), len(idx))
    rollouts = pick("sim.rollout")
    policy_time = sum(total(pick(name, parent_name="sim.rollout")) for name in _POLICY_CALLS)
    out["sim.rollout.self_s"] = (total(rollouts) - policy_time, len(rollouts))

    experts = pick("experts.call")
    out["experts.calls"] = (float(len(experts)), len(experts))
    out["experts.us"] = (mean_us(experts), len(experts))

    evals = pick("evalharness.evaluate")
    out["evalharness.evaluate.s"] = (total(evals), len(evals))
    out["evalharness.laps"] = (float(sum(notes[i][0] for i in evals)), len(evals))
    expert_eval = pick("cli.expert_eval")
    out["cli.expert_eval.s"] = (total(expert_eval), len(expert_eval))

    writes = pick("core.dataset_write") + pick("core.save_dataset")
    out["core.dataset_write.s"] = (total(writes), len(writes))
    out["core.dataset_write.bytes"] = (float(dataset_bytes), len(writes))
    csv_writes = pick("reports.write_csv")
    out["reports.write_csv.s"] = (total(csv_writes), len(csv_writes))
    svg = pick("reports.svg")
    out["reports.svg.s"] = (total(svg), len(svg))
    demo = pick("cli.labeldemo")
    parts = [i for name in _LABELDEMO_PARTS for i in pick(name, parent_name="cli.labeldemo")]
    out["cli.labeldemo.other.s"] = (total(demo) - total(parts), len(demo))
    return out

