"""dwelldos benchmark: seeded `scan` workloads, verified-point throughput,
and a per-module traced run.

    python3 perfbench/run.py --workload stack-scan --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the repository root is the parent of this directory
and the program is imported from its `src/`.  Scratch files go to
`.perfbench/` under the root.

--trace 0 measures the end-to-end metrics: it runs the generated config
as fresh `python -m dwelldos.cli scan` processes back to back (one
closed-loop client), each after a fresh import-plus-load_config process,
for as many rounds as fit in --seconds (at least one), and reports
medians over those rounds.  --trace 1 measures the per-layer metrics in
one process: it calls `cli.compute_reports` with workers 1 untraced and
then traced (the difference is the tracing overhead), writes the CSV, and
checks the classification of every point against
`DwellReport.skip_reason`.  Every scan.csv is validated; the last stdout
line is the JSON result.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from scancheck import ScanError, classify_scan, coarse, tally  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROCESS_TIMEOUT_S = 100.0
IMPORTTIME_REPEATS = 3
SETUP_CODE = "import sys, dwelldos.cli as c; c.load_config(sys.argv[1])"

END_TO_END_UNITS = {
    "setup_s": "s",
    "verified_pts_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

SKIP_CLASSES = {
    "threshold proximity": "threshold",
    "ThresholdProximityError": "threshold",
    "NoOpenChannelError": "no_channel",
    "BoundStatePoleError": "pole",
    "NumericalFailureError": "numerical",
    "StepTooLargeError": "step",
    "ThresholdCrossingError": "crossing",
}
EXPECTED_SKIPS = ("threshold", "no_channel")


class RunFailed(Exception):
    """One CLI run crashed or wrote output that breaks its contract."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DWELLDOS_WORKERS", None)  # the workload config sets the workers
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from wait4, so they cover the child and
    every descendant it reaped (the process pool's workers).
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > PROCESS_TIMEOUT_S:
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def setup_probe(cfg: Path, log: Path) -> float:
    code, wall, _, _ = run_process([sys.executable, "-c", SETUP_CODE, str(cfg)], log)
    if code != 0:
        raise RunFailed(f"import + load_config exited {code}: {log.read_text()[-2000:]}")
    return wall


def cli_run(cfg: Path, out: Path, doc: dict) -> dict:
    """One untraced `dwelldos scan` process, validated and classified."""
    shutil.rmtree(out, ignore_errors=True)
    log = out.with_suffix(".log")
    code, wall, cpu, rss = run_process(
        [sys.executable, "-m", "dwelldos.cli", "scan", "--config", str(cfg),
         "--out", str(out)], log)
    if code != 0:
        raise RunFailed(f"scan exited {code}: {log.read_text()[-2000:]}")
    try:
        summary = json.loads((out / "summary.json").read_text())
        data = (out / "scan.csv").read_bytes()
        classes = classify_scan(data.decode("utf-8"), doc)
    except (OSError, ValueError, ScanError) as exc:
        raise RunFailed(f"bad scan output: {exc}") from exc
    if summary.get("points") != doc["grid"]["count"]:
        raise RunFailed(f"summary.json reports {summary.get('points')} points")
    counts = tally(classes)
    return {"wall": wall, "cpu": cpu, "rss": rss, "counts": counts,
            "classes": classes, "digest": hashlib.sha256(data).hexdigest()}


# ----------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------------


def end_to_end(doc: dict, cfg: Path, tag: str, seconds: float) -> dict:
    setup_probe(cfg, WORK / f"{tag}-warm.log")  # bytecode and file caches
    setups, runs, failures = [], [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_probe(cfg, WORK / f"{tag}-setup.log"))
        try:
            runs.append(cli_run(cfg, WORK / f"{tag}-out", doc))
        except RunFailed as exc:
            failures.append(str(exc))
        elapsed = time.perf_counter() - start
        if elapsed * (len(setups) + 1) / len(setups) > seconds:
            break  # another round would overrun the budget
    for i, r in enumerate(runs):
        c = r["counts"]
        print(f"run {i}: wall {r['wall']:.3f} s, cpu {r['cpu']:.3f} s, rss {r['rss']:.1f} MB, "
              f"verified {c['verified']}, expected skip {c['expected']}, failed {c['failed']}")
    print(f"setup probes (s): {[round(s, 4) for s in setups]}")
    for f in failures:
        print(f"FAILED RUN: {f}")
    if not runs:
        raise RunFailed("no scan run succeeded")
    same = len({r["digest"] for r in runs}) == 1
    if not same:
        print("FAILED: scan.csv differs between runs of the same config")
    points = doc["grid"]["count"]
    metrics = {
        "setup_s": statistics.median(setups),
        "verified_pts_per_s": statistics.median(r["counts"]["verified"] / r["wall"] for r in runs),
        "ok_frac": statistics.median(1.0 - r["counts"]["failed"] / points for r in runs),
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
    }
    return {"correct": same and not failures, "attempted": len(runs) + len(failures),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


# ----------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------------


def import_times(tag: str) -> tuple[float, float]:
    """Median cumulative import time of the dwelldos package and of
    scipy.signal, from `python -X importtime -c "import dwelldos.cli"`."""
    ours, sig_times = [], []
    for _ in range(IMPORTTIME_REPEATS):
        log = WORK / f"{tag}-importtime.log"
        code, *_ = run_process(
            [sys.executable, "-X", "importtime", "-c", "import dwelldos.cli"], log)
        if code != 0:
            raise RunFailed(f"import dwelldos.cli exited {code}: {log.read_text()[-2000:]}")
        entries = []  # (depth, module, cumulative us), children before parents
        for line in log.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2][1:]  # two leading spaces per nesting level
                entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(),
                                int(parts[1])))
        pkg = sig = 0
        last_at_depth: dict[int, str] = {}
        for depth, mod, cumulative in reversed(entries):
            parent = last_at_depth.get(depth - 1, "")
            last_at_depth[depth] = mod
            if depth == 0 and is_pkg(mod, "dwelldos"):
                pkg += cumulative
            if is_pkg(mod, "scipy.signal") and not is_pkg(parent, "scipy.signal"):
                sig += cumulative
        ours.append(pkg / 1e6)
        sig_times.append(sig / 1e6)
    return statistics.median(ours), statistics.median(sig_times)


def is_pkg(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def report_class(rep, tol: float) -> str:
    if rep.skipped:
        return SKIP_CLASSES.get((rep.skip_reason or "").split(":")[0], "other")
    if not rep.channels:
        return "unskipped_no_channel"
    if rep.residual_rel is not None and rep.residual_rel < tol:
        return "verified"
    return "residual_over_tol"


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    xs = sorted(durations)
    n = len(xs)
    k = max(n - 11, (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n


def per_layer(doc: dict, cfg: Path, tag: str, spans_path: Path) -> dict:
    dwell_import, signal_import = import_times(tag)
    cli_result = cli_run(cfg, WORK / f"{tag}-out", doc)

    sys.path.insert(0, str(SRC))
    os.environ.pop("DWELLDOS_WORKERS", None)
    from dwelldos import analysis, cli, lattice, model, solver1d

    t0 = time.perf_counter()
    config = cli.load_config(cfg)
    load_s = time.perf_counter() - t0
    serial = dataclasses.replace(config, workers=1)
    t0 = time.perf_counter()
    cli.compute_reports(serial)
    untraced_s = time.perf_counter() - t0
    pool_s = untraced_s
    if config.workers != 1:
        t0 = time.perf_counter()
        cli.compute_reports(config)
        pool_s = time.perf_counter() - t0

    tracer = Tracer({"cli": cli, "analysis": analysis, "solver1d": solver1d,
                     "lattice": lattice, "model": model})
    tracer.install()
    try:
        reports = cli.compute_reports(serial)
        csv_path = WORK / f"{tag}-traced.csv"
        rows = cli.write_scan_csv(reports, csv_path)
        analysis.summarize_reports(reports, config.system)
    finally:
        tracer.uninstall()

    data = csv_path.read_bytes()
    try:
        bench_classes = classify_scan(data.decode("utf-8"), doc)
    except ScanError as exc:
        raise RunFailed(f"bad traced scan.csv: {exc}") from exc
    same_bytes = hashlib.sha256(data).hexdigest() == cli_result["digest"]
    if not same_bytes:
        print("FAILED: traced workers=1 scan.csv differs from the CLI's scan.csv")

    tol = config.identity_tol
    rep_classes = [report_class(r, tol) for r in reports]
    disagree = []
    for rep, mine, theirs in zip(reports, bench_classes, rep_classes):
        if ("expected" if theirs in EXPECTED_SKIPS else coarse(theirs)) != coarse(mine):
            disagree.append((rep.energy, mine, theirs, rep.skip_reason))
    for energy, mine, theirs, reason in disagree[:10]:
        print(f"classification disagreement at E = {energy!r}: benchmark {mine}, "
              f"report {theirs} ({reason})")

    stats = tracer.summary()
    selfs = tracer.self_times()
    roots = tracer.roots()

    def st(name: str, key: str) -> float:
        return stats[name][key]

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    module_self = {m: 0.0 for m in ("cli", "analysis", "solver1d", "lattice", "model")}
    for span, own, root in zip(tracer.spans, selfs, roots):
        if root == "cli.compute_reports":
            module_self[span[0].split(".")[0]] += own
    traced_s = st("cli.compute_reports", "total_s")
    overhead_s = traced_s - untraced_s
    self_sum = sum(module_self.values())
    consistent = abs(self_sum - traced_s) <= max(abs(overhead_s), 1e-6)
    if not consistent:
        print(f"FAILED: layer self times sum to {self_sum:.6f} s, "
              f"compute_reports took {traced_s:.6f} s")

    points = len(reports)
    counts = tally(bench_classes)
    report_counts = Counter(rep_classes)
    durations = stats["analysis.compute_report"]["durations"] or [0.0]
    tail_s, tail_pct = tail(durations)
    n_sites = (doc["system"]["width"] * doc["system"]["length"]
               if doc["backend"] == "lattice" else 0)
    calls_report = st("analysis.compute_report", "calls")
    amp_calls = st("solver1d.scattering_amplitudes", "calls")

    metrics = {
        "import.dwelldos_s": (dwell_import, "s"),
        "import.scipy_signal_s": (signal_import, "s"),
        "cli.load_config_s": (load_s, "s"),
        "cli.compute_reports_s": (traced_s, "s"),
        "cli.compute_reports_pool_s": (pool_s, "s"),
        "cli.write_scan_csv_s": (st("cli.write_scan_csv", "total_s"), "s"),
        "cli.rows": (rows, "count"),
        "cli.wall_s": (cli_result["wall"], "s"),
        "cli.cpu_s": (cli_result["cpu"], "s"),
        "cli.self_s": (module_self["cli"], "s"),
        "analysis.compute_report.calls": (calls_report, "count"),
        "analysis.compute_report.total_s": (st("analysis.compute_report", "total_s"), "s"),
        "analysis.compute_report.self_s": (st("analysis.compute_report", "self_s"), "s"),
        "analysis.compute_report.p50_ms": (1e3 * statistics.median(durations), "ms"),
        "analysis.compute_report.tail_ms": (1e3 * tail_s, "ms"),
        "analysis.compute_report.tail_pct": (tail_pct, "%"),
        "analysis.dwell_times_vderiv_all.self_s": (st("analysis.dwell_times_vderiv_all", "self_s"), "s"),
        "analysis.shifted_smatrix.calls": (st("analysis.shifted_smatrix", "calls"), "count"),
        "analysis.vderiv.halvings": (tracer.vderiv_halvings(), "count"),
        "analysis.vderiv.smatrix_per_point": (
            per(st("analysis.shifted_smatrix", "calls"),
                st("analysis.dwell_times_vderiv_all", "calls")), "ratio"),
        "analysis.summarize_reports_s": (st("analysis.summarize_reports", "total_s"), "s"),
        **{f"analysis.skips.{c}": (report_counts.get(c, 0), "count")
           for c in ("threshold", "no_channel", "pole", "numerical", "step", "crossing", "other")},
        "analysis.residual_over_tol": (report_counts.get("residual_over_tol", 0), "count"),
        "analysis.unskipped_no_channel": (report_counts.get("unskipped_no_channel", 0), "count"),
        "analysis.self_s": (module_self["analysis"], "s"),
        "solver1d.scattering_amplitudes.calls": (amp_calls, "count"),
        "solver1d.scattering_amplitudes.self_s": (st("solver1d.scattering_amplitudes", "self_s"), "s"),
        "solver1d.scattering_amplitudes.us_per_call": (
            1e6 * per(st("solver1d.scattering_amplitudes", "total_s"), amp_calls), "us"),
        "solver1d.amplitudes_per_point": (per(amp_calls, calls_report), "ratio"),
        "solver1d.dos_region_1d.calls": (st("solver1d.dos_region_1d", "calls"), "count"),
        "solver1d.dos_region_1d.self_s": (st("solver1d.dos_region_1d", "self_s"), "s"),
        "solver1d.dwell_time_direct_1d.self_s": (st("solver1d.dwell_time_direct_1d", "self_s"), "s"),
        "solver1d.self_s": (module_self["solver1d"], "s"),
        "lattice.factorize.calls": (st("lattice.factorize", "calls"), "count"),
        "lattice.factorize.self_s": (st("lattice.factorize", "self_s"), "s"),
        "lattice.factorize_per_point": (per(st("lattice.factorize", "calls"), calls_report), "ratio"),
        "lattice.dos_region_lattice.self_s": (st("lattice.dos_region_lattice", "self_s"), "s"),
        "lattice.dwell_time_lattice.self_s": (st("lattice.dwell_time_lattice", "self_s"), "s"),
        "lattice.dense_bytes": (n_sites * n_sites * 16, "bytes-computed"),
        "lattice.lead_modes.calls": (st("lattice.lead_modes", "calls"), "count"),
        "lattice.lead_modes.self_s": (st("lattice.lead_modes", "self_s"), "s"),
        "lattice.build_hamiltonian.self_s": (st("lattice.build_hamiltonian", "self_s"), "s"),
        "lattice.scattering_matrix.calls": (st("lattice.scattering_matrix", "calls"), "count"),
        "lattice.scattering_matrix.self_s": (st("lattice.scattering_matrix", "self_s"), "s"),
        "lattice.self_s": (module_self["lattice"], "s"),
        "model.self_s": (module_self["model"], "s"),
        "trace.untraced_compute_s": (untraced_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (per(overhead_s, untraced_s), "ratio"),
        "trace.self_sum_s": (self_sum, "s"),
        "failed_frac": (counts["failed"] / points, "ratio"),
        "points.verified": (counts["verified"], "count"),
        "points.expected_skip": (counts["expected"], "count"),
        "points.failed": (counts["failed"], "count"),
        "points.class_disagreements": (len(disagree), "count"),
    }
    write_spans(tracer, spans_path)
    ok = same_bytes and consistent
    return {"correct": ok, "attempted": 2, "failed": 0 if ok else 1,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans as parallel arrays: name index, start, end, parent, exception."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {"names": names,
           "name": [index[s[0]] for s in tracer.spans],
           "start": [s[1] for s in tracer.spans],
           "end": [s[2] for s in tracer.spans],
           "parent": [s[3] for s in tracer.spans],
           "exception": [s[4] for s in tracer.spans]}
    path.write_text(json.dumps(doc))


# ----------------------------------------------------------------------------
# Machine facts, smoke mode, entry point
# ----------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": [],
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({path for path in (line.split()[-1] for line in maps)
                   if "blas" in Path(path).name.lower() and ".cpython-" not in path})
    for lib in libs:
        entry = {"library": Path(lib).name}
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for suffix in ("64_", "", "_"):
            config = getattr(handle, f"scipy_openblas_get_config{suffix}", None) or \
                getattr(handle, f"openblas_get_config{suffix}", None)
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None) or \
                getattr(handle, f"openblas_get_num_threads{suffix}", None)
            if config and threads:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        facts["blas"].append(entry)
    return facts


def smoke() -> int:
    """Every workload at a tiny size, both modes: every declared metric is
    emitted with its declared unit and the outputs check out."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
            else:
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared[trace]:
                    problems.append(f"metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
                if not result["correct"] or result["failed"]:
                    problems.append("output checks failed")
            bad += bool(problems)
            print(f"{name} --trace {trace}: {'ok' if not problems else '; '.join(problems)}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metric names")
    args = parser.parse_args()
    if not (SRC / "dwelldos" / "cli.py").is_file():
        print(f"no dwelldos sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    doc = WORKLOADS[args.workload].config(args.seed, tiny=args.size == "tiny")
    cfg = WORK / f"{tag}.json"
    cfg.write_text(json.dumps(doc, indent=1))
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    print("config " + json.dumps(doc, sort_keys=True))
    try:
        if args.trace:
            result = per_layer(doc, cfg, tag, WORK / f"{args.workload}-spans.json")
        else:
            result = end_to_end(doc, cfg, tag, args.seconds)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in WORK.glob(f"{tag}*"):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
