"""One benchmark process: import the package, warm up, run workload items.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Reads a
JSON spec on stdin and prints one JSON result line on stdout.  Modes:

  warm   import, one warm-up item (together: set-up time), then the given
         items until "seconds" of measuring are used; before each item one
         calibration task per part is timed, then the item's parts, which
         are checked against the oracles outside the timed region.
         Reports the process's peak RSS.
  cli    import, then cli.main(argv) in this process (a traced cold command);
         reports the import time and the time of cli.main.
  probe  import, then `height --n 1`; reports the import time and whether
         scipy.integrate was loaded on that exact-only path.

With "trace" set, the tracer is installed after the warm-up and active only
while the program runs; per-item counter deltas and spans are recorded.
"""

import sys
import time

_T0 = time.perf_counter()
import hirzebruch_torsion.cli as cli  # noqa: E402  (the import is measured)
from hirzebruch_torsion import radial, torsion  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

GK = radial.QuadratureConfig(scheme="gauss_kronrod")
TS = radial.QuadratureConfig(scheme="tanh_sinh")


def timed(fn):
    """(seconds, result or None, error text or None)."""
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task (rational and dict arithmetic,
    garbage collection off so the program's heap does not slow it), timed
    next to every item to track the speed of the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            acc = {}
            for i in range(1, 400):
                acc[i % 13] = acc.get(i % 13, Fraction(0)) + Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate_tanh_sinh() -> float:
    """Seconds taken by scipy's tanh-sinh on three fixed integrands: numpy
    array work like the program's tanh-sinh part, without the program."""
    import numpy as np
    from scipy import integrate  # loaded by then: the warm-up item integrated

    t0 = time.perf_counter()
    for k in range(3):
        integrate.tanhsinh(lambda x: np.exp(-x) * x ** k, 0, np.inf)
    return time.perf_counter() - t0


def run_cli(argv):
    """(exit code, stdout) of cli.main(argv) run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


class ExactSweep:
    """Part a: main_theorem(n); part b: height(n)."""

    warmup = 1001  # outside the measured range, so no measured n is seen twice

    def calibrate(self):
        cal = calibrate()
        return [cal, cal]

    def run(self, n):
        ta, res, ea = timed(lambda: torsion.main_theorem(n))
        tb, h, eb = timed(lambda: torsion.height(n))
        return [ta, tb], [res, h], [ea, eb]

    def check(self, n, outs):
        res, h = outs
        wrong = []
        if res is not None:
            wrong += oracle.check_main_theorem(n, res)
        if h is not None:
            wrong += oracle.check_height(n, h)
        return [int(res is not None), int(h is not None)], wrong, []


class QuadChecks:
    """Part a: named integrals plus Hodge/L2 checks under Gauss-Kronrod;
    part b: the same under tanh-sinh."""

    warmup = 101

    def calibrate(self):
        return [calibrate(), calibrate_tanh_sinh()]

    def run(self, n):
        times, outs, errs = [], [], []
        for cfg in (GK, TS):
            t, out, err = timed(lambda: (torsion.named_integrals(n, cfg),
                                         torsion.hodge_l2_checks(n, cfg)))
            times.append(t)
            outs.append(out)
            errs.append(err)
        return times, outs, errs

    def check(self, n, outs):
        work, wrong, failed = [], [], []
        for cfg, out in zip((GK, TS), outs):
            if out is None:
                work.append(0)
                continue
            named, hodge = out
            tag = "gk" if cfg is GK else "ts"
            for label, rows, expected in (
                    (f"named_integrals[{tag}]",
                     [(m.name, m.closed_form, m.quadrature_value, m.passed, cfg.pass_tol)
                      for m in named], oracle.named_integrals(n)),
                    (f"hodge_l2_checks[{tag}]",
                     [(e.name, e.expected, e.computed, e.passed, e.tol) for e in hodge],
                     oracle.hodge_l2(n))):
                w, f = oracle.check_entries(n, label, rows, expected)
                wrong += w
                failed += f
            work.append(len(named) + len(hodge))
        return work, wrong, failed


class ColdSetup:
    """Set-up of the cold-CLI workload: one exact-only command in process."""

    warmup = 1

    def run(self, n):
        t, out, err = timed(lambda: run_cli(["height", "--n", str(n)]))
        return [t, 0.0], [out, None], [err, None]


WORKLOADS = {"exact_sweep": ExactSweep, "quad_checks": QuadChecks, "cold_cli": ColdSetup}


def write_spans(tracer, path):
    if path:
        with open(path, "w") as fh:
            json.dump({"names": tracer.span_names, "dropped": tracer.spans_dropped,
                       "columns": ["id", "name", "parent", "start_s", "end_s"],
                       "spans": tracer.spans}, fh)


def trace_summary(tracer):
    return {"counts": dict(tracer.counts), "self_s": dict(tracer.self_s)}


def warm(spec):
    wl = WORKLOADS[spec["workload"]]()
    times, _, errs = wl.run(wl.warmup)
    result = {"import_s": IMPORT_S, "setup_s": IMPORT_S + sum(times),
              "setup_error": next((e for e in errs if e), None), "ops": []}
    if spec.get("setup_only"):
        return result
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
        result["item_counts"] = []
    start = time.perf_counter()
    deadline = start + spec["seconds"] if spec.get("seconds") else None
    for n in spec["items"]:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        cal = wl.calibrate()
        if tracer:
            before = dict(tracer.counts)
            tracer.start()
        times, outs, errs = wl.run(n)
        if tracer:
            tracer.stop()
            after = dict(tracer.counts)
            result["item_counts"].append({k: v - before.get(k, 0) for k, v in after.items()
                                          if v != before.get(k, 0)})
        work, wrong, failed = wl.check(n, outs)
        failed += [e for e in errs if e]
        result["ops"].append([n, times, work, wrong, failed, cal])
    result["measured_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result.update(trace_summary(tracer))
        write_spans(tracer, spec.get("spans_path"))
    return result


def cold(spec):
    tracer = Tracer()
    tracer.install()
    tracer.start()
    t0 = time.perf_counter()
    rc, out = run_cli(spec["argv"])
    cli_s = time.perf_counter() - t0
    tracer.stop()
    write_spans(tracer, spec.get("spans_path"))
    return {"import_s": IMPORT_S, "cli_s": cli_s, "rc": rc, "stdout": out,
            **trace_summary(tracer)}


def probe(spec):
    rc, _ = run_cli(["height", "--n", "1"])
    return {"import_s": IMPORT_S, "rc": rc,
            "scipy_on_exact_path": int("scipy.integrate" in sys.modules)}


def main():
    spec = json.load(sys.stdin)
    result = {"warm": warm, "cli": cold, "probe": probe}[spec["mode"]](spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
