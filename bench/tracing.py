"""Outside-in tracing of cascadelab's layers.

The tracer replaces public functions of the ``cascadelab`` modules (and
two methods of each weight-law class) with wrappers defined here, so the
program's source stays untouched.  Each call of a timed function becomes
one span ``[name, start, end, parent, trace_id]``; each CLI command opens
a new trace id.  ``joint_moment`` runs over a million times per ``loops``
pass, so it is counted, never timed.  ``uninstall`` puts every original
back, and ``installed_wrappers`` lets an untraced run prove that it runs
with none left in place.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter

from cascadelab import cascade, cli, estimate, modelio, predict, weights, words

MODULES = (words, weights, modelio, cascade, predict, estimate, cli)
KINDS = {
    weights.Fractional: "fractional",
    weights.LognormalSigned: "lognormal",
    weights.DiscreteTable: "table",
    weights.Mixed: "mixed",
}
CLI_COMMANDS = (
    "image-dim", "partition", "uniform-sweep", "levelset",
    "holder", "predict", "spectrum-predict", "simulate",
)
_MIB = float(2**20)


def _held_bytes(real) -> int:
    """Bytes of the arrays one realization holds (computed, not measured)."""
    arrays = [a for pair in real.weights + real.products for a in pair] + list(real.grid)
    return sum(a.nbytes for a in arrays)


class Tracer:
    """Spans and counts for one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.finished = []  # spans of earlier passes, for write_spans
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._moments = [0]  # joint_moment calls
        self.reset()

    def reset(self):
        """Start a new pass.  Counters are cleared in place: wrappers hold them."""
        if self.spans:
            self.finished.append(self.spans)
        self.spans = []
        self.counts.clear()
        self._stack.clear()
        self._moments[0] = 0
        self._trace_id = 0
        self._live = []  # (weakref to a realization, serial)
        self._serial = 0
        self._pairs = set()  # distinct (realization serial, level) for grid_min_max
        self.live_max = 0  # realizations alive at once
        self.held_bytes_max = 0

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, after=None, root=False):
        """Span per call; a ``root`` span opens a new trace named by the command."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, span_name = self.spans, name
            if root:
                self._trace_id += 1
                span_name = f"cli.{(args[0] or ['?'])[0]}"
            span = [span_name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._trace_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _counted_moment(self, fn):
        """``joint_moment`` is counted in a list cell, the cheapest counter."""
        cell = self._moments

        @functools.wraps(fn)
        def joint_moment(model, q1, q2):
            cell[0] += 1
            return fn(model, q1, q2)

        joint_moment.__bench_wrapper__ = True
        return joint_moment

    def _count(self, key, measure=lambda result: 1):
        """An ``after`` hook adding ``measure(result)`` to a count."""

        def after(args, kwargs, result):
            self.counts[key] += measure(result)

        return after

    def _on_build(self, args, kwargs, real):
        self._live = [(ref, s) for ref, s in self._live if ref() is not None]
        self._serial += 1
        self._live.append((weakref.ref(real), self._serial))
        self.counts["cascade.cells_built"] += real.cells
        self.live_max = max(self.live_max, len(self._live))
        self.held_bytes_max = max(self.held_bytes_max, _held_bytes(real))

    def _on_grid_min_max(self, args, kwargs, result):
        real = args[0]
        level = args[1] if len(args) > 1 else kwargs["level"]
        serial = next((s for ref, s in self._live if ref() is real), id(real))
        self.counts["cascade.grid_min_max_calls"] += 1
        self._pairs.add((serial, level))

    def _on_solve(self, fn):
        """Count root solves and the moment evaluations made inside them."""
        counts, moments = self.counts, self._moments

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            before = moments[0]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["predict.root_solves"] += 1
                counts["predict.solve_moment_evals"] += moments[0] - before

        return solve

    def _on_kpz(self, fn):
        """Count grid points and the root solves made for them."""
        counts = self.counts

        @functools.wraps(fn)
        def curve(model, xi0_grid, *args, **kwargs):
            before = counts["predict.root_solves"]
            try:
                return fn(model, xi0_grid, *args, **kwargs)
            finally:
                counts["predict.kpz_points"] += len(xi0_grid)
                counts["predict.kpz_solves"] += counts["predict.root_solves"] - before

        return curve

    # -- installation ------------------------------------------------------

    def _wrap_function(self, module, attr, after=None, inner=None, root=False):
        """Replace ``module.attr`` wherever a cascadelab module binds it."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapper = self._timed(name, inner(original) if inner else original, after, root)
        for mod in (sys.modules["cascadelab"], *MODULES):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrap = self._wrap_function
        wrap(words, "word_from_index", self._count("words.word_from_index_calls"))
        wrap(modelio, "load_model")
        wrap(weights, "check_assumptions")
        wrap(cascade, "build", self._on_build)
        wrap(cascade, "grid_min_max", self._on_grid_min_max)
        wrap(cascade, "sample_tilted_path", self._count("cascade.tilted_paths"))
        wrap(cascade, "export_level", self._count("cascade.rows_exported", len))
        wrap(estimate, "image_box_dim", self._count("estimate.squares_counted", _squares))
        wrap(estimate, "partition_function")
        wrap(estimate, "holder_exponents")
        wrap(estimate, "level_set")
        wrap(predict, "solve_xi", inner=self._on_solve)
        wrap(predict, "solve_zeta", inner=self._on_solve)
        wrap(predict, "kpz_curve", inner=self._on_kpz)
        wrap(cli, "main", root=True)
        for cls, kind in KINDS.items():
            self._wrap_method(cls, "joint_moment", self._counted_moment(vars(cls)["joint_moment"]))
            self._wrap_method(cls, "sample_pairs", self._timed(
                f"weights.sample_pairs.{kind}", vars(cls)["sample_pairs"],
                self._count("weights.pairs_drawn", lambda pair: len(pair[0])),
            ))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        spans = self.spans
        total, self_time = Counter(), Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
        c = self.counts
        m = {
            "modelio.load_model_s": total["modelio.load_model"],
            "weights.pairs_drawn": c["weights.pairs_drawn"],
            "weights.check_assumptions_s": total["weights.check_assumptions"],
            "weights.moment_evals": self._moments[0],
            "cascade.build_self_s": self_time["cascade.build"],
            "cascade.cells_built": c["cascade.cells_built"],
            "cascade.held_mb": self.held_bytes_max / _MIB,
            "cascade.live_realizations_max": self.live_max,
            "cascade.grid_min_max_s": total["cascade.grid_min_max"],
            "cascade.grid_min_max_calls": c["cascade.grid_min_max_calls"],
            "cascade.grid_min_max_useful": _ratio(len(self._pairs), c["cascade.grid_min_max_calls"]),
            "cascade.tilted_path_s": total["cascade.sample_tilted_path"],
            "cascade.tilted_paths": c["cascade.tilted_paths"],
            "cascade.export_level_s": total["cascade.export_level"],
            "cascade.rows_exported": c["cascade.rows_exported"],
            "estimate.image_box_dim_self_s": self_time["estimate.image_box_dim"],
            "estimate.squares_counted": c["estimate.squares_counted"],
            "estimate.partition_function_self_s": self_time["estimate.partition_function"],
            "estimate.level_set_self_s": self_time["estimate.level_set"],
            "estimate.holder_exponents_s": total["estimate.holder_exponents"],
            "words.word_from_index_calls": c["words.word_from_index_calls"],
            "words.word_from_index_s": total["words.word_from_index"],
            "predict.kpz_curve_s": total["predict.kpz_curve"],
            "predict.root_solves": c["predict.root_solves"],
            "predict.solves_per_point": _ratio(c["predict.kpz_solves"], c["predict.kpz_points"]),
            "predict.moment_evals_per_solve": _ratio(c["predict.solve_moment_evals"], c["predict.root_solves"]),
            "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
        }
        for kind in ("fractional", "lognormal", "table"):
            m[f"weights.sample_pairs_s.{kind}"] = total[f"weights.sample_pairs.{kind}"]
        for command in CLI_COMMANDS:
            m[f"cli.{command}_s"] = total[f"cli.{command}"]
        return m

    def write_spans(self, path):
        """Write every recorded span as a JSON line: [pass, name, start, end, parent, trace]."""
        with open(path, "w", encoding="utf-8") as fh:
            for number, spans in enumerate(self.finished + [self.spans]):
                for span in spans:
                    fh.write(json.dumps([number, *span]) + "\n")


def _squares(est) -> int:
    return sum(count for _, count in est.counts_per_scale)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def installed_wrappers() -> list[str]:
    """Names of cascadelab attributes currently replaced by a tracer wrapper."""
    found = []
    owners = [sys.modules["cascadelab"], *MODULES, *KINDS]
    for owner in owners:
        for name, value in vars(owner).items():
            if getattr(value, "__bench_wrapper__", False):
                found.append(f"{owner.__name__}.{name}")
    return found
