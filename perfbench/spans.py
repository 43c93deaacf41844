"""Spans around calls into the public functions of each hcntk module.

The wrappers are installed from here, on the module attributes the package
itself calls through, so ``src/`` stays untouched. A name imported with
``from .linalg import eig_sym`` is wrapped in the module that imported it
and traced under the name of the module that defines it. Generators
(``net.jacobian_blocks``) get one span per ``next()``, so the consumer's
work between blocks stays with the consumer. The closure returned by
``train.make_closure`` is wrapped as ``train.closure``.

Spans are ``[name, start, end, parent, op, ok]`` lists kept in memory and
written out by ``write`` when the run ends. A layer's self time is its
span's duration minus the time its child spans cover.
"""

import csv
import functools
import inspect
import os
import statistics
import time
import types

from hcntk import (boundary, config, dynamics, experiments, io, kernels, linalg,
                   net, optim, pde, train)

MODULES = (boundary, config, dynamics, experiments, io, kernels, linalg, net, optim, pde, train)

CLOSURE = "train.closure"

# Per-layer metrics in the order they are printed: (name, unit).
PER_LAYER = (
    ("net.jacobian_blocks.self_s", "s"),
    ("net.jacobian_blocks.blocks", "count"),
    ("kernels.assemble_kr.calls", "count"),
    ("kernels.assemble_kr.self_s", "s"),
    ("kernels.jac_mb_computed", "MB"),
    ("kernels.assemble_kn.self_s", "s"),
    ("kernels.assemble_kt.self_s", "s"),
    ("linalg.eig_sym.calls", "count"),
    ("linalg.eig_sym.self_s", "s"),
    ("linalg.eig_sym.s_p50", "s"),
    ("linalg.eig_sym.failed", "count"),
    ("linalg.eig_sym.ql_sweeps", "count"),
    ("net.forward.calls", "count"),
    ("net.forward.self_s", "s"),
    ("net.weighted_residual_gradient.calls", "count"),
    ("net.weighted_residual_gradient.self_s", "s"),
    ("train.closure.self_s", "s"),
    ("optim.adam.self_s", "s"),
    ("optim.lbfgs.self_s", "s"),
    ("optim.strong_wolfe.self_s", "s"),
    ("optim.fg_evals", "count"),
    ("optim.strong_wolfe.evals", "count"),
    ("train.l2_error.self_s", "s"),
    ("pde.coefficients.self_s", "s"),
    ("boundary.features.self_s", "s"),
    ("pde.benchmark.self_s", "s"),
    ("net.init_kaiming_uniform.self_s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    ("io.write_csv.self_s", "s"),
    ("io.bytes_written", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Patches:
    """Module attributes replaced by wrappers, restored by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _public_functions(module):
    """(attr, function, traced name) for every public hcntk function bound in module."""
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or isinstance(value, type):
            continue
        if not (isinstance(value, types.FunctionType) or hasattr(value, "__wrapped__")):
            continue
        origin = getattr(value, "__module__", "") or ""
        if not origin.startswith("hcntk.") or origin == "hcntk._eigh":
            continue
        yield attr, value, f"{origin.rsplit('.', 1)[1]}.{value.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.jac_bytes = 0
        self.io_bytes = 0
        self.ql_sweeps = 0
        self.blocks = 0
        self._stack = []
        self._patches = Patches()

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, True]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return span

    def _close(self, span, ok=True):
        span[2] = time.perf_counter()
        span[5] = ok
        self._stack.pop()

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(span, ok=False)
                raise
            self._close(span)
            return after(out, args) if after is not None else out

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(span)
                    return
                except BaseException:
                    self._close(span, ok=False)
                    raise
                self._close(span)
                self.blocks += 1
                self.jac_bytes += item[-1].nbytes
                yield item

        return traced

    # -- result hooks -----------------------------------------------------

    def _after_eig(self, report, args):
        self.ql_sweeps += report.sweeps
        return report

    def _after_write(self, out, args):
        self.io_bytes += os.path.getsize(args[0])
        return out

    def _after_make_closure(self, fg, args):
        traced = self._wrap(CLOSURE, fg)
        traced.residuals = fg.residuals
        return traced

    # -- install / remove -------------------------------------------------

    def install(self):
        after = {
            "linalg.eig_sym": self._after_eig,
            "io.write_csv": self._after_write,
            "io.write_json": self._after_write,
            "train.make_closure": self._after_make_closure,
        }
        for module in MODULES:
            for attr, fn, name in _public_functions(module):
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._wrap_generator(name, fn)
                else:
                    wrapped = self._wrap(name, fn, after.get(name))
                self._patches.set(module, attr, wrapped)

    def uninstall(self):
        self._patches.restore()

    # -- reduction --------------------------------------------------------

    def layer_stats(self):
        """{name: (calls, self_s, durations)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {}
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            calls, self_s, durs = stats.get(name, (0, 0.0, []))
            durs.append(t1 - t0)
            stats[name] = (calls + 1, self_s + (t1 - t0) - child[i], durs)
        return stats

    def _count_under(self, name, ancestor_prefix):
        """Spans called ``name`` with an ancestor whose name starts with the prefix."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0].startswith(ancestor_prefix):
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def per_layer(self, overhead_s):
        stats = self.layer_stats()

        def self_s(name):
            return stats[name][1] if name in stats else 0.0

        def calls(name):
            return stats[name][0] if name in stats else 0

        eig = stats.get("linalg.eig_sym")
        out = {
            "net.jacobian_blocks.self_s": self_s("net.jacobian_blocks"),
            "net.jacobian_blocks.blocks": self.blocks,
            "kernels.assemble_kr.calls": calls("kernels.assemble_kr"),
            "kernels.assemble_kr.self_s": self_s("kernels.assemble_kr"),
            "kernels.jac_mb_computed": self.jac_bytes / 1e6,
            "kernels.assemble_kn.self_s": self_s("kernels.assemble_kn"),
            "kernels.assemble_kt.self_s": self_s("kernels.assemble_kt"),
            "linalg.eig_sym.calls": calls("linalg.eig_sym"),
            "linalg.eig_sym.self_s": self_s("linalg.eig_sym"),
            "linalg.eig_sym.s_p50": statistics.median(eig[2]) if eig else 0.0,
            "linalg.eig_sym.failed": sum(1 for s in self.spans if s[0] == "linalg.eig_sym" and not s[5]),
            "linalg.eig_sym.ql_sweeps": self.ql_sweeps,
            "net.forward.calls": calls("net.forward"),
            "net.forward.self_s": self_s("net.forward"),
            "net.weighted_residual_gradient.calls": calls("net.weighted_residual_gradient"),
            "net.weighted_residual_gradient.self_s": self_s("net.weighted_residual_gradient"),
            "train.closure.self_s": self_s(CLOSURE),
            "optim.adam.self_s": self_s("optim.adam"),
            "optim.lbfgs.self_s": self_s("optim.lbfgs"),
            "optim.strong_wolfe.self_s": self_s("optim.strong_wolfe"),
            "optim.fg_evals": self._count_under(CLOSURE, "optim."),
            "optim.strong_wolfe.evals": self._count_under(CLOSURE, "optim.strong_wolfe"),
            "train.l2_error.self_s": self_s("train.l2_error"),
            "pde.coefficients.self_s": self_s("pde.coefficients"),
            "boundary.features.self_s": self_s("boundary.features"),
            "pde.benchmark.self_s": self_s("pde.benchmark"),
            "net.init_kaiming_uniform.self_s": self_s("net.init_kaiming_uniform"),
            "experiments.run_experiment.self_s": self_s("experiments.run_experiment"),
            "io.write_csv.self_s": self_s("io.write_csv"),
            "io.bytes_written": self.io_bytes,
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
        }
        return {name: (out[name], unit) for name, unit in PER_LAYER}

    def write(self, path):
        """Spans as CSV: name, start, end (seconds from the first span), parent, op, ok."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start_s", "end_s", "parent", "op", "ok"])
            for name, t0, t1, parent, op, ok in self.spans:
                w.writerow([name, f"{t0 - t_base:.9f}", f"{t1 - t_base:.9f}", parent, op, int(ok)])
