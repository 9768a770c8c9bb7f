"""afcec benchmark: runs one workload as in-process `afcec.cli.main([...])`
calls on a generated input, checks every output, and prints the metrics.

    python3 bench/run.py --workload strokes2d-quad --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 [--record FILE]

--trace 0 measures with tracing off and prints BENCHMARK.json's end-to-end
metrics; --trace 1 alternates untraced and traced commands and prints its
per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every workload
in its own process, both ways, and prints all end-to-end metrics per
workload. bench/README.md describes the workloads and metrics.
"""

import os

# BLAS threads are pinned before numpy loads: on a small shared machine
# OpenBLAS's threaded triangular solves made the same fit's run time vary by
# up to 2.5x with the seed. Restart-level parallelism is measured through the
# restart pool on ring-sweep instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 3  # fresh-process set-ups per run; setup_s is their median
MIN_COMMANDS = 3  # per timing mode, even when --seconds is already spent
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "point_iters_per_s": "1/s",
    "final_cost": "nats",
    "bic": "1",
    "aca_mass_gap": "1",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}

# Runs in a fresh interpreter so that setup_s includes the import of afcec.
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from afcec import cli
rc = cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(repr(time.perf_counter() - t0))
sys.exit(rc)
"""


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_reported": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def setup_once(w, seed, input_path):
    argv = w.generate_argv(seed, input_path) if w.generate else []
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_command(cli, argv, tracer):
    """One afcec command in this process: (wall seconds, exit code, stdout)."""

    def invoke():
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            return -1

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = tracer.call("cli", invoke, (), {}) if tracer is not None else invoke()
    return time.perf_counter() - start, rc, buf.getvalue()


def check_output(w, stdout, model_path, input_path):
    """(failures, summary) for one command's output."""
    import numpy as np

    import checks
    from afcec import data

    try:
        if w.command == "fit":
            out = checks.parse_fit(stdout)
            x = np.loadtxt(input_path, delimiter=",", skiprows=1, ndmin=2)
            return checks.check_fit(out, data.load_model(model_path), x), checks.fit_summary(out)
        header, rows = checks.parse_table(stdout)
        if w.command == "sweep":
            k_max = int(w.args[w.args.index("--k-max") + 1])
            return checks.check_sweep(header, rows, k_max, w.n), checks.sweep_summary(rows)
        from afcec import acagmm

        n_configs = len(acagmm.DEFAULT_A_GRID) * len(acagmm.DEFAULT_SIGMA_GRID) ** 2
        return checks.check_aca(header, rows, n_configs), checks.aca_summary(rows)
    except Exception as e:  # an unreadable output is a failed check
        return [f"unreadable output: {type(e).__name__}: {e}"], {}


def run_workload(args):
    w = WORKLOADS[args.workload]
    if not (SRC / "afcec" / "__init__.py").is_file():
        return fail(f"afcec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    import afcec
    from afcec import cli, engine

    if Path(afcec.__file__).resolve().parent != SRC / "afcec":
        return fail(f"imported afcec from {afcec.__file__}, not from {SRC}")
    import spans

    e2e_names, layer_names = declared_metrics()
    facts = machine_facts()
    print("machine " + json.dumps(facts))

    (BENCH / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=BENCH / "work"))
    try:
        input_path = work / "input.csv"
        setups = [setup_once(w, args.seed, input_path) for _ in range(SETUP_RUNS)]
        if w.restart_pool:
            os.environ["AFCEC_THREADS"] = str(facts["nproc"])
        else:
            os.environ.pop("AFCEC_THREADS", None)

        # runs[0] is a warm-up: checked and counted, but left out of the timings
        runs = []  # one dict per command
        deadline = time.perf_counter() + args.seconds
        modes = (False, True) if args.trace else (False,)
        while len(runs) <= MIN_COMMANDS * len(modes) or time.perf_counter() < deadline:
            traced = len(runs) > 0 and modes[(len(runs) - 1) % len(modes)]
            model_path = work / f"model-{len(runs)}.json"
            argv = w.command_argv(args.seed, input_path, model_path)
            tracer = spans.Tracer()
            if traced:
                spans.install(tracer)
            else:  # restarts, failed restarts and iterations only
                tracer.wrap(engine, "fit", "engine.fit", lambda a, r: r.iterations)
            try:
                wall, rc, stdout = run_command(cli, argv, tracer if traced else None)
            finally:
                tracer.uninstall()
            fits = [s for s in tracer.spans if s[2] == "engine.fit"]
            runs.append({
                "traced": traced, "wall": wall, "rc": rc, "stdout": stdout, "model": model_path,
                "restarts_failed": sum(s[6] in spans.RESTART_FAILURES for s in fits),
                "iterations": sum(s[7] or 0 for s in fits),
                "layers": spans.layer_metrics(tracer.spans) if traced else None,
            })
            if traced:
                last_tracer = tracer
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdicts = {}  # identical outputs are checked once
        for r in runs:
            model_bytes = r["model"].read_bytes() if r["model"].exists() else b""
            key = hashlib.sha256(r["stdout"].encode() + b"\0" + model_bytes).hexdigest()
            if key not in verdicts:
                verdicts[key] = check_output(w, r["stdout"], r["model"], input_path)
            r["failures"], r["summary"] = verdicts[key]
            if r["rc"] != 0:
                r["failures"] = r["failures"] + [f"exit code {r['rc']}"]
        if args.trace:
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            last_tracer.write(out_dir / f"spans-{w.name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in runs if r["failures"] or r["restarts_failed"]]
    for r in failed:
        print(f"failed: {r['failures']} restarts_failed={r['restarts_failed']}", file=sys.stderr)
    plain = [r for r in runs[1:] if not r["traced"]]
    wall_s = statistics.median(r["wall"] for r in plain)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failed) / len(runs),
    }
    if w.n:
        e2e["point_iters_per_s"] = w.n * statistics.median(r["iterations"] for r in plain) / wall_s
    e2e.update(runs[0]["summary"])

    layers = {}
    if args.trace:
        traced = [r["layers"] for r in runs if r["traced"]]
        for name in traced[0]:
            vals = [t[name] for t in traced]
            if spans.UNITS[name] != "count":
                layers[name] = statistics.median(vals)
            else:
                layers[name] = vals[0]
                if len(set(vals)) > 1:
                    print(f"warning: {name} differs between traced commands: {vals}",
                          file=sys.stderr)
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall"] for r in runs if r["traced"]) / wall_s - 1.0)

    for name in E2E_UNITS:
        if name in e2e:
            print(f"{name:<20} {e2e[name]!r:<24} {E2E_UNITS[name]}")
    for name, value in layers.items():
        print(f"{name:<34} {value!r:<24} {spans.UNITS[name]}")
    print("detail " + json.dumps({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "commands": len(runs), "distinct_outputs": len(verdicts),
        "setup_runs_s": setups, "walls_s": [r["wall"] for r in runs],
        "end_to_end": e2e, "per_layer": layers,
    }))

    chosen = layer_names if args.trace else e2e_names
    values = layers if args.trace else e2e
    units = spans.UNITS if args.trace else E2E_UNITS
    missing = [m for m in chosen if m not in values]
    if missing:
        return fail(f"declared metrics not measured: {missing}")
    print(json.dumps({
        "correct": not any(r["failures"] for r in runs),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in chosen},
    }))
    return 0


def _child(name, args, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}")
    info = {ln.split(" ", 1)[0]: json.loads(ln.split(" ", 1)[1])
            for ln in lines if ln.startswith(("machine ", "detail "))}
    return info, json.loads(lines[-1])


def run_all(args):
    results, machine = {}, None
    for name in WORKLOADS:
        info, plain = _child(name, args, 0)
        traced_info, traced = _child(name, args, 1)
        machine = info["machine"]
        results[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": {m: {"value": v, "unit": E2E_UNITS[m]}
                           for m, v in info["detail"]["end_to_end"].items()},
            "per_layer": traced_info["detail"]["per_layer"],
            "commands": info["detail"]["commands"],
        }
    names = list(WORKLOADS)
    print(f"{'metric':<20} {'unit':<6} " + " ".join(f"{n:>16}" for n in names))
    for m, unit in E2E_UNITS.items():
        cells = [results[n]["end_to_end"].get(m) for n in names]
        print(f"{m:<20} {unit:<6} " + " ".join(
            f"{c['value']:>16.6g}" if c else f"{'-':>16}" for c in cells))
    if args.record:
        record = {"machine": machine, "seed": args.seed, "seconds": args.seconds,
                  "workloads": results}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {n: {m: c["value"] for m, c in r["end_to_end"].items()}
                      for n, r in results.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write the results here as JSON")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
