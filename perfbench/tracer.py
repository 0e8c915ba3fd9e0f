"""Spans and counts around minconsist's public functions, from outside the program.

``Tracer.install()`` replaces each traced function in its defining
module and in every ``minconsist`` module that imported it by name, and
replaces the traced methods on their classes.  Each call becomes a span
with a parent (the innermost traced call still open); the hottest
functions, ``distance`` and ``nb_transform``, are only counted, so the
trace does not drown the work it measures.  Totals are kept per round;
the spans of one round are kept in memory for the trace file.
"""

import os
import sys
import time

# span group -> functions (module, attribute) or methods (module, class, attribute)
SPAN_GROUPS = {
    "cli.main": [("cli", "main")],
    "dataio.load": [("dataio", "load_dataset"), ("dataio", "load_dataset_for_model"),
                    ("dataio", "load_queries")],
    "dataio.content_hash": [("dataio", "dataset_content_hash")],
    "dataio.model_io": [("dataio", "save_model"), ("dataio", "load_model")],
    "core.training_set": [("core", "TrainingSet", "__post_init__")],
    "core.problem_statement": [("core", "ProblemStatement", "__post_init__")],
    "core.require_labels": [("core", "require_labels")],
    "core.report_build": [("core", "InconsistencyReport", "build")],
    "linear.solve": [("linear", "svm_solve"), ("linear", "svr_solve")],
    "linear.objective": [("linear", "svm_objective"), ("linear", "svr_objective")],
    "linear.report": [("linear", "svm_report"), ("linear", "svr_report"),
                      ("linear", "ErmLearner", "report")],
    "pointwise.counterparts": [("pointwise", "smoothing_counterparts"),
                               ("pointwise", "dtree_counterparts")],
    "pointwise.nb_predict": [("pointwise", "nb_predict")],
    "pointwise.dtree_build": [("pointwise", "dtree_build")],
    "pointwise.dtree_predict": [("pointwise", "dtree_predict")],
}
COUNT_GROUPS = {
    "pointwise.distance": [("pointwise", "distance")],
    "pointwise.nb_transform": [("pointwise", "nb_transform")],
}


class Tracer:
    def __init__(self):
        self.reset(keep_spans=False)

    def reset(self, keep_spans):
        self.time = {}
        self.calls = {}
        self.covered = {}    # open span id -> time covered by its direct children
        self.cli_self = 0.0
        self.rows_parsed = 0
        self.model_bytes = 0
        self.stack = []
        self.next_id = 0
        self.keep_spans = keep_spans
        self.spans = []      # [id, parent, group, function, start, end]

    # -- wrapping ------------------------------------------------------------

    def _span(self, group, label, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            tracer.covered[sid] = 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                covered = tracer.covered.pop(sid)
                if parent is not None:
                    tracer.covered[parent] += dt
                tracer.time[group] = tracer.time.get(group, 0.0) + dt
                tracer.calls[group] = tracer.calls.get(group, 0) + 1
                if group == "cli.main":
                    tracer.cli_self += dt - covered
                if tracer.keep_spans:
                    tracer.spans.append([sid, parent, group, label, t0, t1])
            tracer._observe(label, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, group, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[group] = tracer.calls.get(group, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe(self, label, args, result):
        if label in ("load_dataset", "load_dataset_for_model"):
            self.rows_parsed += result.training.m
        elif label == "load_queries":
            self.rows_parsed += len(result)
        elif label == "save_model":
            self.model_bytes += os.path.getsize(args[1])

    def install(self):
        import minconsist.cli  # noqa: F401  (loads every module that gets patched)

        for groups, make in ((SPAN_GROUPS, self._span), (COUNT_GROUPS, None)):
            for group, targets in groups.items():
                for target in targets:
                    module = sys.modules["minconsist." + target[0]]
                    if len(target) == 2:
                        original = getattr(module, target[1])
                        label = target[1]
                        wrapped = (make(group, label, original) if make
                                   else self._count(group, original))
                        for name, mod in list(sys.modules.items()):
                            if name.startswith("minconsist") and getattr(
                                mod, target[1], None
                            ) is original:
                                setattr(mod, target[1], wrapped)
                    else:
                        cls = getattr(module, target[1])
                        raw = cls.__dict__[target[2]]
                        label = f"{target[1]}.{target[2]}"
                        if isinstance(raw, classmethod):
                            setattr(cls, target[2], classmethod(make(group, label, raw.__func__)))
                        else:
                            setattr(cls, target[2], make(group, label, raw))

    # -- per-round figures ---------------------------------------------------

    def snapshot(self):
        t, c = self.time, self.calls
        epochs = c.get("linear.objective", 0) - c.get("linear.solve", 0)
        solve_s = t.get("linear.solve", 0.0)
        return {
            "cli.self_s": self.cli_self,
            "dataio.load_s": t.get("dataio.load", 0.0),
            "dataio.rows_parsed": self.rows_parsed,
            "dataio.content_hash_s": t.get("dataio.content_hash", 0.0),
            "dataio.content_hash_calls": c.get("dataio.content_hash", 0),
            "dataio.model_io_s": t.get("dataio.model_io", 0.0),
            "dataio.model_bytes": self.model_bytes,
            "core.training_set_s": t.get("core.training_set", 0.0),
            "core.training_set_calls": c.get("core.training_set", 0),
            "core.problem_statement_s": t.get("core.problem_statement", 0.0),
            "core.problem_statement_calls": c.get("core.problem_statement", 0),
            "core.require_labels_s": t.get("core.require_labels", 0.0),
            "core.require_labels_calls": c.get("core.require_labels", 0),
            "core.report_build_s": t.get("core.report_build", 0.0),
            "core.report_build_calls": c.get("core.report_build", 0),
            "linear.solve_s": solve_s,
            "linear.epochs": epochs,
            "linear.epoch_s": solve_s / epochs if epochs else 0.0,
            "linear.objective_s": t.get("linear.objective", 0.0),
            "linear.report_s": t.get("linear.report", 0.0),
            "pointwise.counterparts_s": t.get("pointwise.counterparts", 0.0),
            "pointwise.counterparts_calls": c.get("pointwise.counterparts", 0),
            "pointwise.distance_calls": c.get("pointwise.distance", 0),
            "pointwise.nb_predict_s": t.get("pointwise.nb_predict", 0.0),
            "pointwise.nb_transform_calls": c.get("pointwise.nb_transform", 0),
            "pointwise.dtree_build_s": t.get("pointwise.dtree_build", 0.0),
            "pointwise.dtree_predict_s": t.get("pointwise.dtree_predict", 0.0),
        }
