"""Layer spans recorded from outside the program.

`install` replaces public functions and model methods of the spinorforge
modules, at their module (or class) attributes, with wrappers that record
one span per call: name, layer, start, end, parent span, case id, counts
taken from the call's arguments, and the time the wrapper itself spent
taking those counts.  It is only ever called in a traced worker process,
and `uninstall` puts the originals back for the untraced passes there.
Spans stay in memory; `take` hands them over, one pass at a time.

A span's self time is its duration minus the intervals of its child spans
and their bookkeeping, so the self times of all spans plus the time no
span covers (benchmark loop and bookkeeping) add up to the pass wall time.
"""

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from spinorforge import clifford

# Span row fields
NAME, LAYER, START, END, PARENT, CASE, COUNTS, BOOK = range(8)

LAYERS = ("cli", "serialization", "meshexport", "immersion", "spinor",
          "clifford", "lie_group", "grid", "cmc")

MODEL_METHODS = ("multiply", "inverse", "exp", "log", "normalize")
DIFF_METHODS = ("dx", "dy", "d2x", "d2y", "dz", "dzbar")


def _leading(x, trailing=1):
    return math.prod(np.shape(x)[:len(np.shape(x)) - trailing])


def _count_gp(args, kwargs, result):
    a, b, n = args[:3]
    dim = 1 << n
    a = np.asarray(a)
    products = _leading(result)
    rows = int(np.count_nonzero(np.any(a.reshape(-1, dim), axis=0)))
    # gp_array does, per nonzero row of a and per product, a sign scaling,
    # a multiply and an add over all 2**n coefficients of b
    return {"products": products, "rows": rows, "dim": dim,
            "flops": 3 * products * dim * rows,
            "bytes": 8 * (a.size + np.size(b) + products * dim)}


_EXP_TERMS = inspect.signature(clifford.exp_array).parameters["terms"].default


def _count_exp(args, kwargs, result):
    terms = args[2] if len(args) > 2 else kwargs.get("terms", _EXP_TERMS)
    return {"elements": _leading(result), "terms": terms}


def _count_model(args, kwargs, result):
    return {"elements": _leading(args[1])}


def _count_expm(args, kwargs, result):
    return {"matrices": _leading(args[0], trailing=2)}


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_read(args, kwargs, result):
    return {"bytes": _file_size(args[0])}


def _count_write(args, kwargs, result):
    return {"bytes": _file_size(args[1])}


def _count_mesh(args, kwargs, result):
    return {"vertices": len(result), "bytes": _file_size(args[3])}


# (layer, module, attribute path, count function)
TARGETS = [
    ("cli", "cli", "main", None),
    ("serialization", "serialization", "load_json", _count_read),
    ("serialization", "serialization", "dump_json", _count_write),
    ("serialization", "serialization", "problem_from_dict", None),
    ("serialization", "serialization", "cmc_from_dict", None),
    ("serialization", "serialization", "surface_from_dict", None),
    ("serialization", "serialization", "surface_to_dict", None),
    ("serialization", "serialization", "field_report", None),
    ("meshexport", "meshexport", "export_mesh", _count_mesh),
    ("immersion", "immersion", "ImmersionData.__init__", None),
    ("immersion", "immersion", "gcr_residuals", None),
    ("spinor", "spinor", "reconstruct_immersion", None),
    ("spinor", "spinor", "solve_killing", None),
    ("spinor", "spinor", "normalize_spinor", None),
    ("spinor", "spinor", "xi_from_spinor", None),
    ("spinor", "spinor", "verify_reconstruction", None),
    ("spinor", "spinor", "spinor_of_immersion", None),
    ("clifford", "clifford", "gp_array", _count_gp),
    ("clifford", "clifford", "exp_array", _count_exp),
    ("clifford", "clifford", "spin_lift", None),
    ("lie_group", "lie_group", "darboux_integrate", None),
    ("lie_group", "lie_group", "maurer_cartan_pullback", None),
    ("lie_group", "lie_group", "structure_residual", None),
    ("lie_group", "lie_group", "expm", _count_expm),
] + [
    ("lie_group", "lie_group", f"{cls}.{meth}", _count_model)
    for cls in ("AbelianModel", "S3Model", "SemidirectModel", "HnModel")
    for meth in MODEL_METHODS
] + [
    ("grid", "grid", f"ParamGrid.{meth}", None) for meth in DIFF_METHODS
] + [
    ("cmc", "cmc", name, None)
    for name in ("WeierstrassData.__init__", "weier_f_from_g",
                 "gauss_map_pde_residual", "dirac2_residual",
                 "xi_from_weierstrass")
]

DIFF = {f"grid.ParamGrid.{m}" for m in DIFF_METHODS}


class Tracer:
    """In-memory span recorder shared by the installed wrappers."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, layer, fn, count):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                   self.case, None, 0.0]
            self.spans.append(row)
            stack.append(len(self.spans) - 1)
            row[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[END] = perf_counter()
                row[COUNTS] = {"errors": 1}
                row[BOOK] = perf_counter() - row[END]
                raise
            finally:
                stack.pop()
            row[END] = perf_counter()
            if count is not None:
                row[COUNTS] = count(args, kwargs, result)
            row[BOOK] = perf_counter() - row[END]
            return result

        return traced


def install(tracer):
    """Wrap every TARGETS entry and return the undo list for `uninstall`.
    A module-level function is replaced in every loaded spinorforge module
    that imported it by name, so calls across module boundaries are seen."""
    undo = []
    for layer, module_name, attr, count in TARGETS:
        module = importlib.import_module(f"spinorforge.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(name, layer, original, count))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, layer, original, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "spinorforge":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return undo


def uninstall(undo):
    """Put back the originals that `install` replaced."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span: its duration minus the duration and
    bookkeeping of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START] + s[BOOK]
    return out


def pass_metrics(spans, wall):
    """Per-layer metrics of one traced pass of wall time `wall`."""
    own = self_times(spans)
    m = defaultdict(float)
    children = defaultdict(int)
    for s in spans:
        if s[PARENT] >= 0 and s[NAME] == "clifford.gp_array":
            children[s[PARENT]] += 1
    for i, s in enumerate(spans):
        name, layer, dur = s[NAME], s[LAYER], s[END] - s[START]
        c = s[COUNTS] or {}
        m[f"{layer}.self"] += own[i]
        m["trace.bookkeeping_s"] += s[BOOK]
        m["trace.spans"] += 1
        if name == "clifford.gp_array":
            m["clifford.gp_array_s"] += dur
            m["clifford.gp_array.calls"] += 1
            m["clifford.gp_array.products"] += c.get("products", 0)
            m["clifford.gp_array.flops"] += c.get("flops", 0)
            m["clifford.gp_array.bytes"] += c.get("bytes", 0)
            m["gp_rows"] += c.get("rows", 0)
            m["gp_dims"] += c.get("dim", 0)
        elif name == "clifford.exp_array":
            m["clifford.exp_array_s"] += dur
            m["clifford.exp_array.calls"] += 1
            if "elements" in c:
                m["clifford.exp_array.elements"] += c["elements"]
                m["clifford.exp_array.squarings"] += children[i] - c["terms"]
        elif name == "clifford.spin_lift":
            m["clifford.spin_lift_s"] += dur
            m["clifford.spin_lift.calls"] += 1
        elif name == "lie_group.expm":
            m["lie_group.model_s"] += own[i]
            m["lie_group.expm.calls"] += 1
            m["lie_group.expm.matrices"] += c.get("matrices", 0)
        elif name.split(".")[-1] in MODEL_METHODS and layer == "lie_group":
            m["lie_group.model_s"] += own[i]
            m["lie_group.model.elements"] += c.get("elements", 0)
        elif name == "lie_group.darboux_integrate":
            m["lie_group.darboux_s"] += dur
        elif name == "lie_group.maurer_cartan_pullback":
            m["lie_group.pullback_s"] += dur
        elif name == "lie_group.structure_residual":
            m["lie_group.structure_s"] += dur
        elif name in SPINOR_SELF:
            m[SPINOR_SELF[name]] += own[i]
        elif name == "serialization.load_json":
            m["serialization.read_s"] += dur
            m["serialization.read_bytes"] += c.get("bytes", 0)
        elif name == "serialization.dump_json":
            m["serialization.write_s"] += dur
            m["serialization.write_bytes"] += c.get("bytes", 0)
        elif name == "meshexport.export_mesh":
            m["meshexport.write_s"] += dur
            m["meshexport.vertices"] += c.get("vertices", 0)
            m["meshexport.bytes"] += c.get("bytes", 0)
            m["meshexport.errors"] += c.get("errors", 0)
        elif name == "immersion.ImmersionData.__init__":
            m["immersion.construct_s"] += dur
        elif name == "immersion.gcr_residuals":
            m["immersion.gcr_s"] += dur
        elif name in DIFF:
            m["grid.diff_s"] += own[i]
            m["grid.diff.calls"] += 1
    out = {key: 0.0 for key in PER_LAYER}
    for layer in LAYERS:
        out[layer_total(layer)] = m.pop(f"{layer}.self", 0.0)
    rows, dims = m.pop("gp_rows", 0), m.pop("gp_dims", 0)
    out.update(m)
    out["clifford.gp_array.row_use"] = rows / dims if dims else 0.0
    out["trace.wall_s"] = wall
    out["trace.uncovered_s"] = wall - sum(out[layer_total(layer)]
                                          for layer in LAYERS)
    return out


def summarize(traced, untraced_walls):
    """Mean of the per-pass metrics over the traced passes, with the rates
    and the tracing overhead against the untraced passes of the same run."""
    out = {key: sum(p[key] for p in traced) / len(traced) for key in traced[0]}
    out["trace.untraced_wall_s"] = sum(untraced_walls) / len(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    for rate, work, busy in (
            ("clifford.gp_array.rate", "clifford.gp_array.products",
             "clifford.gp_array_s"),
            ("lie_group.model.rate", "lie_group.model.elements",
             "lie_group.model_s")):
        out[rate] = out[work] / out[busy] if out[busy] > 0 else 0.0
    return out


def layer_total(layer):
    """Name of the metric that holds a layer's self time."""
    return "cmc.busy_s" if layer == "cmc" else f"{layer}.self_s"


SPINOR_SELF = {
    "spinor.solve_killing": "spinor.solve_s",
    "spinor.normalize_spinor": "spinor.normalize_s",
    "spinor.xi_from_spinor": "spinor.xi_s",
    "spinor.verify_reconstruction": "spinor.verify_s",
    "spinor.spinor_of_immersion": "spinor.converse_s",
}


def _spec(names, unit, better="lower"):
    return {name: (unit, better) for name in names.split()}


# Every per-layer metric: name -> (unit, better), in BENCHMARK.json order.
# Layer totals are self times and add up, with trace.uncovered_s, to
# trace.wall_s.  Function times ending in _s are inclusive span times,
# except the spinor.* stage times, grid.diff_s and lie_group.model_s, which
# are self times.  flops and bytes are computed from array shapes.
PER_LAYER = {
    **_spec("cli.self_s serialization.self_s meshexport.self_s "
            "immersion.self_s spinor.self_s clifford.self_s lie_group.self_s "
            "grid.self_s cmc.busy_s", "s"),
    **_spec("clifford.exp_array_s", "s"),
    **_spec("clifford.exp_array.calls clifford.exp_array.elements "
            "clifford.exp_array.squarings", "count"),
    **_spec("clifford.gp_array_s", "s"),
    **_spec("clifford.gp_array.calls clifford.gp_array.products", "count"),
    **_spec("clifford.gp_array.flops", "flop"),
    **_spec("clifford.gp_array.bytes", "B"),
    **_spec("clifford.gp_array.row_use", "ratio"),
    **_spec("clifford.gp_array.rate", "1/s", "higher"),
    **_spec("clifford.spin_lift_s", "s"),
    **_spec("clifford.spin_lift.calls", "count"),
    **_spec("lie_group.model_s", "s"),
    **_spec("lie_group.model.elements lie_group.expm.calls "
            "lie_group.expm.matrices", "count"),
    **_spec("lie_group.model.rate", "1/s", "higher"),
    **_spec("lie_group.darboux_s lie_group.pullback_s lie_group.structure_s "
            "spinor.solve_s spinor.normalize_s spinor.xi_s spinor.verify_s "
            "spinor.converse_s serialization.read_s", "s"),
    **_spec("serialization.read_bytes", "B"),
    **_spec("serialization.write_s", "s"),
    **_spec("serialization.write_bytes", "B"),
    **_spec("meshexport.write_s", "s"),
    **_spec("meshexport.vertices", "count"),
    **_spec("meshexport.bytes", "B"),
    **_spec("meshexport.errors", "count"),
    **_spec("immersion.construct_s immersion.gcr_s grid.diff_s", "s"),
    **_spec("grid.diff.calls", "count"),
    **_spec("trace.wall_s trace.untraced_wall_s trace.overhead_s "
            "trace.uncovered_s trace.bookkeeping_s", "s"),
    **_spec("trace.spans", "count"),
}
