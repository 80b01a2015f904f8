"""Spans and counters around the calls into msshadow's modules.

``Tracer.install`` replaces public functions at their module (or class)
attributes with recording wrappers, so ``xcli.run_pipeline`` runs
unchanged and internal callers that look a function up on its module,
such as ``shadow._propagate_rows`` calling ``timestep.tangent_sweep_many``,
are seen too.  The system instance built for each request gets counting
wrappers on its methods; those calls are too many to keep as spans.

Spans are kept in memory as (name, start, end, parent index, request
id) and turned into per-layer metrics by ``layer_metrics``.
"""

import json
import time
from collections import defaultdict

from msshadow import analysis, precond, shadow, solver, timestep, xcli

_SPANNED = (
    (timestep, "advance"),
    (timestep, "integrate"),
    (timestep, "tangent_sweep_many"),
    (timestep, "adjoint_sweep_many"),
    (shadow, "assemble_rhs"),
    (shadow, "schur_apply"),
    (shadow, "constraint_apply"),
    (shadow, "recover_checkpoints"),
    (shadow, "evaluate_sensitivity"),
    (solver, "cg_solve"),
    (precond, "build_preconditioner"),
    (precond.BlockDiagPreconditioner, "apply"),
    (precond.BlockDiagPreconditioner, "apply_inv"),
    (analysis, "dense_constraint_matrix"),
    (analysis, "spectrum"),
    (analysis, "preconditioned_spectrum"),
    (analysis, "picard_data"),
    (analysis, "sensitivity_vs_rank"),
    (xcli, "load_config"),
    (xcli, "run_pipeline"),
    (xcli, "write_artifacts"),
)

_SYSTEM_METHODS = (
    ("rhs", "rhs"),
    ("jacobian_apply", "jacobian"),
    ("jacobian_transpose_apply", "jacobian_T"),
    ("param_deriv", "param_deriv"),
)


def _span_name(owner, attr):
    """layer.function, or layer.Class.method for a class attribute."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _steps(args):
    t_start, t_end, h = args[2], args[3], args[4]
    return int(round((t_end - t_start) / h))


def _row_steps(args):
    traj, segments = args[0], args[1]
    return len(segments) * traj.stride


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.request = None
        self._stack = []
        self._saved = []

    def begin(self, request):
        """Open the root span of one request."""
        self.request = request
        self._open("request")

    def end(self):
        self._close(time.perf_counter())
        self.request = None

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()

    def _close(self, t_end):
        self.spans[self._stack.pop()][2] = t_end

    def _wrap(self, name, fn):
        hooks = {
            "timestep.advance": lambda a, r: self._add("primal_steps", _steps(a)),
            "timestep.integrate": lambda a, r: self._add("primal_steps", _steps(a)),
            "timestep.tangent_sweep_many":
                lambda a, r: self._add("sweep_row_steps", _row_steps(a)),
            "timestep.adjoint_sweep_many":
                lambda a, r: self._add("sweep_row_steps", _row_steps(a)),
            "analysis.dense_constraint_matrix":
                lambda a, r: self._add("dense_columns", r.shape[1]),
        }
        hook = hooks.get(name)

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(time.perf_counter())
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key, n):
        self.counts[key] += n

    def _count_system(self, system):
        counts = self.counts
        clock = time.perf_counter
        for attr, key in _SYSTEM_METHODS:
            fn = getattr(system, attr)

            def wrapper(u, *rest, _fn=fn, _key=key):
                t0 = clock()
                out = _fn(u, *rest)
                counts["dynsys_s"] += clock() - t0
                counts[_key + "_calls"] += 1
                counts[_key + "_rows"] += u.size // u.shape[-1]
                return out

            setattr(system, attr, wrapper)
        return system

    def install(self):
        for owner, attr in _SPANNED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(_span_name(owner, attr), original))

        build_system = xcli.build_system
        self._saved.append((xcli, "build_system", build_system))
        xcli.build_system = lambda *a, **k: self._count_system(build_system(*a, **k))

        for attr, kind in (("charge_forward", "forward"), ("charge_adjoint", "adjoint")):
            original = getattr(shadow.CostLedger, attr)
            self._saved.append((shadow.CostLedger, attr, original))

            def charge(ledger, n=1, _fn=original, _kind=kind):
                self.counts[_kind + "_products"] += n
                return _fn(ledger, n)

            setattr(shadow.CostLedger, attr, charge)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _durations(spans):
    """Per span name: total duration, total self time and call count.

    Durations count only the outermost span of a name, so a name that
    calls itself (through another wrapper) is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            total[name] += end - start
    return total, self_time, calls


def _direct_calls(spans, name, caller_prefix):
    """Calls of ``name`` made from outside the layer ``caller_prefix``."""
    return sum(
        1 for n, _, _, parent, _ in spans
        if n == name and (parent is None or not spans[parent][0].startswith(caller_prefix))
    )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, requests):
    """Per-layer metrics, each a mean per traced request.

    ``requests`` holds the worker's records of every traced request that
    ran, failed ones included, as the spans and counters cover them all;
    a request that raised adds 0 to the sums of its result fields.
    """
    n = len(requests)
    total, self_time, calls = _durations(tracer.spans)
    c = tracer.counts

    def per(x):
        return _ratio(x, n)

    def per_request(field):
        return per(sum(r.get(field, 0) for r in requests))

    sweep_s = total["timestep.tangent_sweep_many"] + total["timestep.adjoint_sweep_many"]
    primal_s = total["timestep.advance"] + total["timestep.integrate"]
    products = c["forward_products"] + c["adjoint_products"]
    jac_calls = c["jacobian_calls"] + c["jacobian_T_calls"]
    return {
        "dynsys.rhs_calls": per(c["rhs_calls"]),
        "dynsys.rhs_rows": _ratio(c["rhs_rows"], c["rhs_calls"]),
        "dynsys.jacobian_calls": per(c["jacobian_calls"]),
        "dynsys.jacobian_T_calls": per(c["jacobian_T_calls"]),
        "dynsys.jacobian_rows": _ratio(c["jacobian_rows"] + c["jacobian_T_rows"], jac_calls),
        "dynsys.call_s": per(c["dynsys_s"]),
        "timestep.advance_s": per(total["timestep.advance"]),
        "timestep.integrate_s": per(total["timestep.integrate"]),
        "timestep.primal_steps": per(c["primal_steps"]),
        "timestep.steps_per_s": _ratio(c["primal_steps"], primal_s),
        "timestep.stored_bytes": per_request("stored_bytes"),
        "timestep.tangent_sweep_calls": per(calls["timestep.tangent_sweep_many"]),
        "timestep.tangent_sweep_s": per(total["timestep.tangent_sweep_many"]),
        "timestep.adjoint_sweep_calls": per(calls["timestep.adjoint_sweep_many"]),
        "timestep.adjoint_sweep_s": per(total["timestep.adjoint_sweep_many"]),
        "timestep.sweep_row_steps": per(c["sweep_row_steps"]),
        "timestep.row_steps_per_s": _ratio(c["sweep_row_steps"], sweep_s),
        "shadow.rhs_s": per(total["shadow.assemble_rhs"]),
        "shadow.schur_calls": per(calls["shadow.schur_apply"]),
        "shadow.schur_s": per(total["shadow.schur_apply"]),
        "shadow.constraint_calls": per(_direct_calls(
            tracer.spans, "shadow.constraint_apply", "shadow.")),
        "shadow.recover_s": per(total["shadow.recover_checkpoints"]),
        "shadow.sensitivity_s": per(total["shadow.evaluate_sensitivity"]),
        "shadow.forward_products": per(c["forward_products"]),
        "shadow.adjoint_products": per(c["adjoint_products"]),
        "shadow.s_per_product": _ratio(sweep_s, products),
        "solver.iterations": per_request("iterations"),
        "solver.cg_s": per(total["solver.cg_solve"]),
        "solver.cg_self_s": per(self_time["solver.cg_solve"]),
        "solver.final_residual": per_request("final_residual"),
        "precond.build_s": per(total["precond.build_preconditioner"]),
        "precond.build_products": per_request("precond_cost"),
        "precond.apply_calls": per(calls["precond.BlockDiagPreconditioner.apply"]),
        "precond.apply_s": per(total["precond.BlockDiagPreconditioner.apply"]),
        "precond.apply_inv_calls": per(calls["precond.BlockDiagPreconditioner.apply_inv"]),
        "precond.apply_inv_s": per(total["precond.BlockDiagPreconditioner.apply_inv"]),
        "analysis.dense_assembly_s": per(total["analysis.dense_constraint_matrix"]),
        "analysis.dense_columns": per(c["dense_columns"]),
        "analysis.spectrum_s": per(total["analysis.spectrum"]
                                   + total["analysis.preconditioned_spectrum"]
                                   - _nested(tracer.spans, "analysis.spectrum",
                                             "analysis.preconditioned_spectrum")),
        "analysis.picard_s": per(total["analysis.picard_data"]),
        "analysis.truncated_s": per(total["analysis.sensitivity_vs_rank"]),
        "xcli.config_s": per(total["xcli.load_config"]),
        "xcli.pipeline_self_s": per(self_time["xcli.run_pipeline"]),
        "xcli.artifacts_s": per(total["xcli.write_artifacts"]),
        "xcli.artifact_bytes": per_request("artifact_bytes"),
    }


def _nested(spans, name, outer):
    """Time of ``name`` spans whose direct parent is an ``outer`` span."""
    return sum(end - start for n, start, end, parent, _ in spans
               if n == name and parent is not None and spans[parent][0] == outer)
