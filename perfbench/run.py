"""Benchmark of hirzebruch-torsion: cold CLI, exact ring sweep, quadrature checks.

Run from the root of a checkout (Python 3.10+, with the package's numpy and
scipy importable):

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 30 --trace 0

Workloads (one client, closed loop, one operation at a time):

  cold_cli     each operation is a fresh `python -m hirzebruch_torsion.cli`
               process.  Part a: exact-only commands (height --n k,
               height --n-max 50 --format csv, constants).  Part b: integrating
               commands (torsion --n k, integrals --n k, verify --n k).
               Operations alternate a, b, each part cycling through its
               three commands; k is drawn from 0..20.
  exact_sweep  warm processes; n runs through seeded shuffles of 0..1000,
               each shuffle in a fresh process, so no n repeats in a process
               (at seed a run takes about half of the first shuffle).
               Part a: main_theorem(n); part b: height(n).
  quad_checks  warm processes, as exact_sweep with shuffles of 0..100, but
               a run is a fixed number of whole shuffles (one per
               WHOLE_PASS_S of --seconds) rather than a deadline, so every
               run attempts each n equally often and the failures known at
               seed (tanh-sinh, 11 of the 101 n) give the same failed count
               on every run, whatever the seed or the host's speed.
               Part a: named_integrals + hodge_l2_checks under Gauss-Kronrod;
               part b: the same under tanh-sinh (22 checks per part).

Every output is checked against the oracles in oracle.py; stdout of the
commands that do not integrate (and of `torsion`) must also equal the golden
bytes in golden.json.  An operation fails on an exception, a nonzero exit,
or a check the program reports as not passed; a wrong answer (an output the
oracles contradict) also sets "correct" to false.

Times are scaled to a reference machine speed by calibration tasks run next
to the operations (see CAL_COLD below).  With --trace 0 the last
stdout line carries the end-to-end metrics.  With --trace 1 a traced run (see
tracer.py) gives per-layer metrics per item, the tracing overhead against an
untraced replay of the same items, and a count self-check: a fresh traced
process repeats the first items and must reproduce their counts exactly.
Each run writes its record, and a traced run its spans, under .bench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hirzebruch_torsion"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("cold_cli", "exact_sweep", "quad_checks")
SETUPS = 5          # fresh processes whose set-up time is measured; median reported
CHECK_ITEMS = 3     # items repeated by the count self-check
BUDGET_S = 170.0    # every run ends within this, whatever --seconds says
# Machine speed drifts by 10-80% over minutes on a shared host, and adjacent
# processes drift together.  Operations are timed next to a calibration task
# that does not involve the program, and their times are scaled to the speed
# at which the calibration takes its reference time.  Warm processes time a
# calibration per part before every item (see the workloads in worker.py):
# a pure-Python task, and for quad_checks' tanh-sinh part a scipy tanh-sinh
# task, which tracks that numpy-heavy part better (the Python task moved it
# by about 0.66 of its own change); both take about CAL_WARM_REF_S at the
# reference speed.  Cold processes (CLI operations and
# set-up) use a cold import of numpy and the scipy modules the package uses,
# which is most of their work: a lighter task (`import numpy`) over-corrected
# by 20% when the host slowed down.  It is taken before each set-up and before
# every CAL_COLD_EVERY-th CLI operation, so that it costs no more of a run
# than the lighter task did.  The unscaled times are kept in the run record.
CAL_WARM_REF_S = 0.008
CAL_COLD_REF_S = 0.8
CAL_COLD = ["-c", "import numpy, scipy.integrate, scipy.special"]
CAL_COLD_EVERY = 3
EXACT_CMDS = (["height", "--n", "{k}"], ["height", "--n-max", "50", "--format", "csv"],
              ["constants"])
NUMERIC_CMDS = (["torsion", "--n", "{k}"], ["integrals", "--n", "{k}"], ["verify", "--n", "{k}"])
K_RANGE = range(21)
# main_theorem raises NonConvergence from about n = 10**4; Gauss-Kronrod
# named_integrals from about n = 329 and route_checks from about 266
N_RANGES = {"exact_sweep": range(1001), "quad_checks": range(101)}
# Workloads that run whole shuffles, one per this many seconds of --seconds
# (at seed a quad_checks shuffle measures about 8 s)
WHOLE_PASS_S = {"quad_checks": 10.0}
SRC_MODULES = ("__init__", "chow", "cli", "constants", "forms", "radial", "torsion")


def golden_argvs():
    """Commands whose stdout is fixed bytes: nothing in it comes from quadrature."""
    return ([["height", "--n", str(k)] for k in K_RANGE]
            + [["torsion", "--n", str(k)] for k in K_RANGE]
            + [list(EXACT_CMDS[1]), list(EXACT_CMDS[2])])


def inputs(workload: str, seed: int) -> list:
    """cold_cli: the argvs.  Warm workloads: passes, shuffles of the n range,
    each run in a fresh process, so no n repeats within a process."""
    rng = random.Random(seed)
    if workload in N_RANGES:
        return [rng.sample(N_RANGES[workload], len(N_RANGES[workload])) for _ in range(50)]
    ops = []
    for i in range(1000):
        cmd = (EXACT_CMDS if i % 2 == 0 else NUMERIC_CMDS)[i // 2 % 3]
        k = str(rng.choice(K_RANGE))
        ops.append([k if a == "{k}" else a for a in cmd])
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts the benchmark's processes one at a time, within the run budget."""

    def __init__(self):
        self.deadline = time.perf_counter() + BUDGET_S
        self.env = child_env()

    def _timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise TimeoutError("benchmark run budget exhausted")
        return left

    def passes(self, workload: str, passes: list, seconds: float, trace: int = 0,
               spans_path=None) -> list:
        """Results of warm workers, one per pass, until `seconds` of
        measuring are used (each pass ends early at that deadline), or for a
        WHOLE_PASS_S workload a fixed number of whole passes.  When traced,
        the first worker writes its spans to spans_path."""
        whole = workload in WHOLE_PASS_S
        if whole:
            passes = passes[:max(1, int(seconds // WHOLE_PASS_S[workload]))]
        results, left = [], seconds
        for items in passes:
            if results and left <= 0 and not whole:
                break
            results.append(self.worker({"mode": "warm", "workload": workload, "items": items,
                                        "seconds": None if whole else left, "trace": trace,
                                        "spans_path": None if results else spans_path}))
            left -= results[-1]["measured_s"]
        return results

    def worker(self, spec: dict) -> dict:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                              capture_output=True, text=True, cwd=ROOT, env=self.env,
                              timeout=self._timeout())
        if proc.returncode != 0:
            raise RuntimeError(f"worker {spec['mode']} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def cli(self, argv: list):
        """(wall seconds, exit code, stdout, peak RSS in MB) of one cold CLI
        process.  os.wait4 reaps it, so the RSS is that process's own."""
        old = signal.signal(signal.SIGALRM, _budget_exhausted)
        signal.setitimer(signal.ITIMER_REAL, self._timeout())
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "hirzebruch_torsion.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                                cwd=ROOT, env=self.env)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out, usage.ru_maxrss / 1024.0

    def calibrate(self) -> float:
        """Wall seconds of one cold calibration process."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *CAL_COLD], capture_output=True, cwd=ROOT,
                              env=self.env, timeout=self._timeout())
        if proc.returncode != 0:
            raise RuntimeError("calibration process failed")
        return time.perf_counter() - t0


def cold_cal(runner: Runner, i: int):
    """The calibration taken before cold op i, or None between calibrations."""
    return runner.calibrate() if i % CAL_COLD_EVERY == 0 else None


def _budget_exhausted(signum, frame):
    raise TimeoutError("benchmark run budget exhausted")


# ---------------------------------------------------------------------------
# Checks of cold CLI output
# ---------------------------------------------------------------------------


def check_cli(argv: list, rc: int, out: str, golden: dict):
    """(wrong, failed) messages for one CLI run."""
    key = " ".join(argv)
    if rc != 0:
        return [], [f"{key}: exit {rc}"]
    wrong = []
    if key in golden and out != golden[key]:
        wrong.append(f"{key}: stdout differs from the golden bytes")
    cmd = argv[0]
    if cmd == "height":
        wrong += oracle.check_height_text(argv, out)
    elif cmd == "constants":
        wrong += oracle.check_constants_text(out)
    else:
        n = int(argv[argv.index("--n") + 1])
        wrong += {"torsion": oracle.check_torsion_text, "integrals": oracle.check_integrals_text,
                  "verify": oracle.check_verify_text}[cmd](n, out)
    return wrong, []


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Operations.  Each op is a dict: item, cmd (which of its part's commands a
# cold op ran; 0 for warm ops), a / b (seconds in each part or None), wa / wb
# (work done in each part), wrong, failed, cal (calibration seconds), and for
# cold ops rss (peak RSS of the CLI process, MB).
# ---------------------------------------------------------------------------


def warm_ops(results: list) -> list:
    return [{"item": n, "cmd": 0, "a": t[0], "b": t[1], "wa": w[0], "wb": w[1], "wrong": wrong,
             "failed": failed, "cal": cal}
            for res in results for n, t, w, wrong, failed, cal in res["ops"]]


def cold_op(i: int, argv: list, cal: float, wall: float, rc: int, out: str, rss: float,
            golden: dict) -> dict:
    wrong, failed = check_cli(argv, rc, out, golden)
    part_a = i % 2 == 0
    return {"item": " ".join(argv), "cmd": i // 2 % 3, "a": wall if part_a else None,
            "b": None if part_a else wall, "wa": int(part_a), "wb": int(not part_a),
            "wrong": wrong, "failed": failed, "cal": None if cal is None else [cal, cal],
            "rss": rss}


def normalize(ops: list, ref: float) -> list:
    """Scale each part's time by ref over that part's calibration taken just
    before the op (an op without its own calibrations, cal None, takes the
    ones before it).  Host speed changes within seconds, so the nearest
    calibration tracks it better than a median over several."""
    out, cal = [], None
    for op in ops:
        cal = op["cal"] if op["cal"] is not None else cal
        scale = [ref / c for c in cal]
        out.append({**op, "scale": scale,
                    **{p: op[p] * s for p, s in zip(("a", "b"), scale) if op[p] is not None}})
    return out


def op_seconds(op: dict) -> float:
    return (op["a"] or 0.0) + (op["b"] or 0.0)


def tail(values: list):
    """(value, percentile, samples): the highest percentile that still has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    i = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def end_to_end(ops: list, setup_s: list, peak_rss_mb: float, notes: dict) -> dict:
    """The gated metrics.  A part's p50 is the mean over its commands of each
    command's median, so the mix of commands a run happens to get (cold_cli
    commands differ in cost) does not move it.  Tails go to the
    notes only: the highest percentile with ten samples beyond it moves by
    more than any usable bound between runs on a shared host."""
    metrics = {"setup_s": (statistics.median(setup_s), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    totals = [op_seconds(op) for op in ops]
    metrics["ops_per_s"] = (len(ops) / sum(totals), "1/s")
    tails = {"op_tail_ms": tail(totals)}
    for part in ("a", "b"):
        xs = [op[part] for op in ops if op[part] is not None]
        by_cmd = {}
        for op in ops:
            if op[part] is not None:
                by_cmd.setdefault(op["cmd"], []).append(op[part])
        metrics[f"{part}_p50_ms"] = (
            1e3 * statistics.fmean(statistics.median(v) for v in by_cmd.values()), "ms")
        metrics[f"{part}_work_per_s"] = (sum(op["w" + part] for op in ops) / sum(xs), "1/s")
        tails[f"{part}_tail_ms"] = tail(xs)
    notes["tails"] = {name: f"{1e3 * value:.4g} ms (p{pct:.1f} of {count})"
                      for name, (value, pct, count) in tails.items()}
    return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run
# ---------------------------------------------------------------------------


def src_lines() -> dict:
    """Lines per source file of the package, keyed by path within it."""
    return {str(p.relative_to(PACKAGE)): sum(1 for _ in p.open())
            for p in sorted(PACKAGE.rglob("*.py"))}


def per_layer(items: int, counts: dict, self_s: dict, probes: list, import_share: float,
              overhead: float) -> dict:
    def per(key):
        return counts.get(key, 0) / items

    m = {"import.package_s": (statistics.median(p["import_s"] for p in probes), "s"),
         "import.scipy_on_exact_path": (max(p["scipy_on_exact_path"] for p in probes), "flag"),
         "import.op_share": (import_share, "ratio"),
         "constants.ExactConstant.count": (per("constants.ExactConstant.count"), "count"),
         "chow.ChowClass.count": (per("chow.ChowClass.count"), "count")}
    for key in ("chow.mul", "chow.reduce", "chow.arithmetic_chern_classes", "forms.combine",
                "forms.wedge"):
        m[f"{key}.calls"] = (per(f"{key}.calls"), "count")
    for tag in ("gk", "ts"):
        b = f"radial.{tag}"
        m[f"{b}.integrate_halfline.calls"] = (per(f"{b}.integrate_halfline.calls"), "count")
        m[f"{b}.evals"] = (per(f"{b}.evals"), "count")
        m[f"{b}.attempts"] = (per(f"{b}.attempts"), "count")
        tried = counts.get(f"{b}.tried", 0)
        m[f"{b}.first_try_ratio"] = (counts.get(f"{b}.first_try", 0) / tried if tried else 1.0,
                                     "ratio")
    for bucket in ("constants", "chow", "forms", "radial", "radial.gk", "radial.ts", "torsion",
                   "cli"):
        m[f"{bucket}.self_s"] = (self_s.get(bucket, 0.0) / items, "s")
    m["trace.overhead"] = (overhead, "ratio")
    lines = src_lines()
    for mod in SRC_MODULES:
        m[f"src_lines.{mod}"] = (lines.get(f"{mod}.py", 0), "count")
    m["src_lines.total"] = (sum(lines.values()), "count")
    return m


def layer_shares(self_s: dict) -> dict:
    """Share of each layer in the traced program time (the benchmark's own
    time outside the program excluded)."""
    total = sum(v for k, v in self_s.items() if k != "bench") or 1.0
    shares = {}
    for bucket, v in self_s.items():
        layer = bucket.split(".")[0]
        if layer != "bench":
            shares[layer] = shares.get(layer, 0.0) + v / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def count_mismatches(first: list, again: list) -> list:
    return [i for i, (x, y) in enumerate(zip(first, again)) if x != y]


def merge(into: dict, more: dict) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_plain(workload: str, items: list, seconds: float, runner: Runner, notes: dict):
    """Peak RSS is the largest of the program's processes: the cold CLI
    processes, or the warm workers that ran the items."""
    setups = [(runner.calibrate(),
               runner.worker({"mode": "warm", "workload": workload, "setup_only": True}))
              for _ in range(SETUPS)]
    if workload == "cold_cli":
        golden = load_golden()
        ops, stop = [], time.perf_counter() + seconds
        for i, argv in enumerate(items):
            if i >= 2 and time.perf_counter() >= stop:  # at least one op per part
                break
            ops.append(cold_op(i, argv, cold_cal(runner, i), *runner.cli(argv), golden))
        peak_rss_mb = max(op["rss"] for op in ops)
        ops = normalize(ops, CAL_COLD_REF_S)
    else:
        results = runner.passes(workload, items, seconds)
        notes["processes"] = len(results)
        peak_rss_mb = max(res["peak_rss_mb"] for res in results)
        ops = normalize(warm_ops(results), CAL_WARM_REF_S)
    errors = [s["setup_error"] for _, s in setups if s["setup_error"]]
    if errors:
        raise RuntimeError(f"set-up failed: {errors[0]}")
    notes["setup_s"] = "unscaled: " + ", ".join(f"{s['setup_s']:.3f}" for _, s in setups)
    setup_s = [s["setup_s"] * CAL_COLD_REF_S / cal for cal, s in setups]
    return ops, end_to_end(ops, setup_s, peak_rss_mb, notes), []


def run_traced(workload: str, items: list, seconds: float, runner: Runner, notes: dict,
               spans_path: Path):
    """Half of the measured time goes to the traced pass and about half to
    the untraced replay of the same items, so a traced run takes about as
    long as an untraced one."""
    seconds /= 2
    probes = [runner.worker({"mode": "probe"}) for _ in range(SETUPS)]
    wrong = []
    if workload == "cold_cli":
        golden = load_golden()
        ops, counts, self_s, item_counts = [], {}, {}, []
        import_s = cli_s = 0.0
        stop = time.perf_counter() + seconds
        for i, argv in enumerate(items):
            if i >= 2 and time.perf_counter() >= stop:  # at least one op per part
                break
            cal = cold_cal(runner, i)
            t0 = time.perf_counter()
            res = runner.worker({"mode": "cli", "argv": argv,
                                 "spans_path": str(spans_path) if i == 0 else None})
            ops.append(cold_op(i, argv, cal, time.perf_counter() - t0, res["rc"],
                               res["stdout"], None, golden))
            merge(counts, res["counts"])
            merge(self_s, res["self_s"])
            item_counts.append(res["counts"])
            import_s += res["import_s"]
            cli_s += res["cli_s"]
        argvs = items[:len(ops)]
        plain = normalize([cold_op(i, argv, cold_cal(runner, i), *runner.cli(argv), golden)
                           for i, argv in enumerate(argvs)], CAL_COLD_REF_S)
        again = [runner.worker({"mode": "cli", "argv": argv})["counts"]
                 for argv in argvs[:CHECK_ITEMS]]
        ops = normalize(ops, CAL_COLD_REF_S)
        import_share = import_s / (import_s + cli_s)
    else:
        traced = runner.passes(workload, items, seconds, trace=1, spans_path=str(spans_path))
        ops = warm_ops(traced)
        counts, self_s, item_counts = {}, {}, []
        for res in traced:
            merge(counts, res["counts"])
            merge(self_s, res["self_s"])
            item_counts += res["item_counts"]
        done = [[n for n, *_ in res["ops"]] for res in traced]
        plain = normalize(warm_ops([runner.worker({"mode": "warm", "workload": workload,
                                                   "items": pass_items})
                                    for pass_items in done]), CAL_WARM_REF_S)
        again = runner.worker({"mode": "warm", "workload": workload,
                               "items": done[0][:CHECK_ITEMS], "trace": 1})["item_counts"]
        import_s = sum(res["import_s"] for res in traced)
        import_share = import_s / (import_s + sum(op_seconds(op) for op in ops))
        ops = normalize(ops, CAL_WARM_REF_S)
    overhead = sum(op_seconds(op) for op in ops) / sum(op_seconds(op) for op in plain)
    mismatch = count_mismatches(item_counts, again)
    if mismatch:
        wrong.append(f"count self-check: items {mismatch} gave different counts when repeated")
    for op in plain:
        wrong += op["wrong"]
    notes["layer_shares"] = {k: round(v, 4) for k, v in layer_shares(self_s).items()}
    notes["count_self_check"] = (f"{min(CHECK_ITEMS, len(ops))} items repeated in a fresh "
                                 f"process: {'identical' if not mismatch else 'MISMATCH'}")
    notes["trace_totals"] = {"counts": counts, "self_s": self_s}
    # compare these between two traced runs of one seed: they must be equal
    notes["item_count_digests"] = [
        hashlib.sha1(json.dumps(c, sort_keys=True).encode()).hexdigest()[:12]
        for c in item_counts]
    return ops, per_layer(len(ops), counts, self_s, probes, import_share, overhead), wrong


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="hirzebruch-torsion benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seconds > BUDGET_S / 3:
        print(f"error: --seconds must be in (0, {BUDGET_S / 3:g}]", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    items = inputs(args.workload, args.seed)
    runner, notes = Runner(), {}
    if args.trace:
        ops, metrics, wrong = run_traced(args.workload, items, args.seconds, runner, notes,
                                         OUT / f"{stem}-spans.json")
    else:
        ops, metrics, wrong = run_plain(args.workload, items, args.seconds, runner, notes)
    wrong = [w for op in ops for w in op["wrong"]] + wrong
    failures = [f for op in ops for f in op["failed"]]
    failed = sum(1 for op in ops if op["failed"] or op["wrong"])
    result = {"correct": not wrong, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(), "cpus": os.cpu_count(),
              "failed_ratio": failed / len(ops), "wrong": wrong[:50], "failures": failures[:200],
              "notes": notes, "src_lines": src_lines(), "result": result,
              "ops": [{k: op[k] for k in ("item", "cmd", "a", "b", "wa", "wb", "cal", "scale")}
                      for op in ops]}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:38s} {value:14.6g} {unit}" + (f"   ({note})" if note else ""))
    print(f"{'failed_ratio':38s} {failed / len(ops):14.6g} ratio   ({failed} of {len(ops)})")
    for key in ("tails", "layer_shares", "count_self_check"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    for line in sorted(set(failures))[:20] + wrong[:20]:
        print(f"  {line}")
    print(f"record: {OUT / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
