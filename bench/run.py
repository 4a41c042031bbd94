"""Benchmark of the tcspace command line, run in-process.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every operation is one call of `tcspace.cli.main(argv)` with stdout
captured: JSON load, validation, canonical graph, solve and JSON output,
without interpreter start-up.  A run sets up (import, seeded inputs written
to a temporary directory, one warm-up command; set-up is repeated and the
median reported), then runs whole rounds of its workload's operations while
the next round is expected to end within `--seconds` (at least one round),
checking every output.  Calibration blocks before and after every operation
and set-up measure the machine's current speed, and the end-to-end times are
reported at its nominal speed (see `REF_UNIT_S`).  The last line of stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics, or with `--trace 1` the per-layer metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

_STARTED = time.perf_counter()  # set-up time counts the imports below

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_DIR, "src"))

import tcspace.cli as cli  # noqa: E402  (fails, as it should, without the program)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5

# The shared machine's speed drifts by 15-25% over tens of seconds and swings
# faster still, for wall and CPU time alike, and that is most of the
# run-to-run spread of raw times (README, Noise).  A fixed unit of `Fraction`
# arithmetic, the kind of work the program does, runs in a block before and
# after every operation and set-up; the unit's mean time over the two blocks,
# against REF_UNIT_S, is the machine's slowness around that operation.  The
# two blocks tell a short operation's speed well and a long one's poorly, so
# an operation of t seconds is divided by slowness ** (1 / (1 + t / REF_SPAN_S)):
# fully for short operations, less and less for long ones.  The unit calls
# nothing of the program, so a change to the program cannot move it; garbage
# collection is off while it runs, so the program's heap does not either.
REF_UNIT_S = 0.00105  # median unit time on the machine of the README figures
REF_SHARE = 0.03  # block length per second of the operation before it
REF_MIN_S = 0.003
SETUP_REF_S = 0.05  # block length around each set-up
REF_SPAN_S = 3.0


def _ref_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 301):
        total += Fraction(1, i % 97 + 1)
    return total


def _calibrate(budget: float) -> tuple[int, float]:
    """Run whole units until `budget` seconds have passed: (units, seconds)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        units, start = 0, time.perf_counter()
        while True:
            _ref_unit()
            units += 1
            took = time.perf_counter() - start
            if took >= budget:
                return units, took
    finally:
        if was_enabled:
            gc.enable()


def _slowness(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Mean unit time of two blocks over REF_UNIT_S: above 1 the machine is slow."""
    return (before[1] + after[1]) / (before[0] + after[0]) / REF_UNIT_S


def _calibrated(seconds: float, slowness: float) -> float:
    """`seconds` measured at `slowness`, brought to the nominal speed."""
    return seconds / slowness ** (1 / (1 + seconds / REF_SPAN_S))


def _execute(argv: list[str]) -> tuple[float, object, str]:
    """Run one command; return (seconds, exit code or error, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # a crash is a failed operation, not a dead benchmark
        code = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()[:300]}"
    return seconds, code, out.getvalue()


def _check(op, stdout: str) -> str | None:
    """None when the output passes its check, else the reason."""
    try:
        op.check(json.loads(stdout) if stdout.strip() else None)
    except (checks.CheckError, KeyError, TypeError, ValueError, IndexError,
            AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@contextlib.contextmanager
def _environment(overrides: dict[str, str]):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _set_up(name: str, seed: int, tmp: str):
    """Write the inputs into `tmp` and warm up once; return (seconds, plan)."""
    start = time.perf_counter()
    plan = workloads.WORKLOADS[name](seed, tmp)
    _, code, _ = _execute(plan.warmup)
    if code != 0:
        raise RuntimeError(f"warm-up failed: {code}")
    return time.perf_counter() - start, plan


def _round(plan, name: str, seed: int, index: int, tmp: str, block):
    """Run every operation once, each between two calibration blocks, the
    first being `block`.  Return (raw times, calibrated times, records,
    failed, incorrect, last block)."""
    raw, times, records, failed, incorrect = [], [], [], 0, 0
    for op in plan.ops:
        took, code, stdout = _execute(op.argv)
        after = _calibrate(max(REF_MIN_S, REF_SHARE * took))
        slow = _slowness(block, after)
        block = after
        raw.append(took)
        times.append(_calibrated(took, slow))
        if code != 0:
            failed += 1
            result, detail = "fail", str(code)
        else:
            detail = _check(op, stdout)
            incorrect += detail is not None
            result = "wrong" if detail else "pass"
        records.append({"workload": name, "seed": seed, "round": index,
                        "argv": [a.replace(tmp, "$INPUTS") for a in op.argv],
                        "seconds": took, "slowness": slow,
                        "result": result, "detail": detail})
    return raw, times, records, failed, incorrect, block


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> dict:
    tracer = tracing.Tracer() if trace else None
    raw_rounds, rounds, records, layer_rounds, peel = [], [], [], [], []
    failed = incorrect = 0
    with _environment(workloads.WORKLOAD_ENV.get(name, {})), \
            tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as root:
        block = _calibrate(SETUP_REF_S)
        import_slowness = _slowness(block, block)
        setups, raw_setups = [], []
        for i in range(SETUP_REPEATS):
            tmp = os.path.join(root, f"setup{i}")
            os.mkdir(tmp)
            took, plan = _set_up(name, seed, tmp)
            after = _calibrate(SETUP_REF_S)
            raw_setups.append(took)
            setups.append(_calibrated(took, _slowness(block, after)))
            block = after
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                first_span = len(tracer.spans) if tracer else 0
                peel_before = tracer.peel_levels if tracer else 0
                raw, times, recs, bad, wrong, block = _round(
                    plan, name, seed, len(rounds), tmp, block)
                raw_rounds.append(raw)
                rounds.append(times)
                records += recs
                failed += bad
                incorrect += wrong
                if tracer:
                    layer_rounds.append(tracing.summarize(
                        tracer.spans, first_span, len(tracer.spans)))
                    peel.append(tracer.peel_levels - peel_before)
                # Start another round only if it should end within the budget.
                now = time.perf_counter()
                if now - start + (now - round_start) > seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()

    tag = f"{name}-seed{seed}" + ("-trace" if trace else "")
    with open(os.path.join(OUT_DIR, tag + ".ops.jsonl"), "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    per_op = [statistics.fmean(col) for col in zip(*rounds)]
    raw_per_op = [statistics.fmean(col) for col in zip(*raw_rounds)]
    result = {
        "workload": name,
        "correct": incorrect == 0,
        "attempted": len(records),
        "failed": failed,
        "operations": len(per_op),
        "rounds": len(rounds),
        "run_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _calibrated(import_s, import_slowness) + statistics.median(setups),
        "raw": {"run_s": sum(raw_per_op),
                "op_p50_ms": 1000 * statistics.median(raw_per_op),
                "setup_s": import_s + statistics.median(raw_setups)},
    }
    if tracer:
        tracer.write(os.path.join(OUT_DIR, tag + ".spans.jsonl"))
        result["layers"] = tracing.layer_metrics(layer_rounds, peel)
        calls = [{k: v["calls"] for k, v in r.items()} for r in layer_rounds]
        result["counts_repeat"] = (all(c == calls[0] for c in calls)
                                   and len(set(peel)) == 1)
    return result


END_TO_END = (("run_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def _report(res: dict, trace: bool) -> dict:
    print(f"workload {res['workload']}: {res['attempted']} operations in "
          f"{res['rounds']} rounds, {res['failed']} failed, correct={res['correct']}")
    notes = {"run_s": f"summed time of {res['operations']} operations, "
                      f"mean of {res['rounds']} rounds",
             "op_p50_ms": f"median over the {res['operations']} operations",
             "peak_rss_mb": "process peak resident set",
             "setup_s": f"import + median of {SETUP_REPEATS} set-ups"}
    print(f"  times are calibrated for the machine's speed around each operation "
          f"(see REF_UNIT_S); raw over calibrated run_s: "
          f"{res['raw']['run_s'] / res['run_s']:.4f}")
    for key, unit in END_TO_END:
        raw = (f", raw {res['raw'][key]:.4f} {unit}" if key in res["raw"] else "")
        print(f"  {key:<12} {res[key]:12.4f} {unit:<3} ({notes[key]}{raw})")
    if not trace:
        return {key: {"value": res[key], "unit": unit} for key, unit in END_TO_END}
    print(f"  per-layer counts repeat in every round: {res['counts_repeat']}")
    for key, metric in res["layers"].items():
        print(f"  {key:<40} {metric['value']:14.6g} {metric['unit']}")
    return res["layers"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    import_s = time.perf_counter() - _STARTED
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    results, metrics = [], {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           import_s)
        import_s = 0.0
        results.append(res)
        for key, value in _report(res, bool(args.trace)).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
