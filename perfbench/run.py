"""tropdiff CLI benchmark: seeded request streams, checked answers, timings.

Run from the root of a source checkout (the directory holding src/tropdiff):

    python3 perfbench/run.py --workload check-sample --seed 1 --seconds 30 --trace 0

Each request is a fresh `python -m tropdiff` process, because a CLI user
pays interpreter start-up and cold caches on every call.  The load is a
closed loop: one client, one child process at a time.  Requests come in
rounds (one per template of the workload, see workloads.py); new rounds
start until --seconds have passed, so a run measures whole rounds.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request as a
subprocess and then replays it in-process under the layer tracer
(layers.py), and reports per-layer metrics: per-request means of calls and
self times, cache hit ratios, and trace.overhead_ratio, the traced
in-process command time plus setup_s over the untraced latency of the same
requests.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give every metric with its unit and
sample count.  A run record with the per-request output digests goes to
perfbench/out/.  Exit code 0 when the run completed, even if some answers
were wrong; 2 when there is no tropdiff source tree to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, judge, round_requests  # noqa: E402

SETUP_RUNS = 9            # fresh processes timed for setup_s, after one warm-up
REQUEST_TIMEOUT_S = 60.0  # a request running longer is killed and fails
OVERRUN_S = 60.0          # no new request starts this long after --seconds
SETUP_CODE = "import tropdiff.cli as c; c.build_parser()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TROPDIFF_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
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
    return None


class Child:
    """Runs timed child processes through the small launcher in spawn.py.

    Wall time runs from spawn to exit; max RSS is the child's own (see
    spawn.py for why the benchmark does not spawn children itself).
    """

    def __init__(self, root: Path, env: dict, tmp: Path):
        self.stdout = tmp / f"child-{os.getpid()}.stdout"
        self.stderr = tmp / f"child-{os.getpid()}.stderr"
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=env, cwd=root, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=REQUEST_TIMEOUT_S)
        self.launcher.stdout.close()
        for path in (self.stdout, self.stderr):
            path.unlink(missing_ok=True)

    def run(self, argv: list[str], timeout: float) -> dict:
        self.launcher.stdin.write(json.dumps({
            "argv": argv, "timeout": timeout,
            "stdout": str(self.stdout), "stderr": str(self.stderr)}) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the child-process launcher exited")
        res = json.loads(line)
        res["code"] = res.pop("status")
        res["stdout"] = self.stdout.read_text(encoding="utf-8", errors="replace")
        res["stderr"] = self.stderr.read_text(encoding="utf-8", errors="replace")
        return res


def measure_setup(child: Child) -> list[float]:
    """Wall times of fresh processes that import tropdiff and build the parser."""
    times = []
    for i in range(SETUP_RUNS + 1):
        res = child.run(["-c", SETUP_CODE], REQUEST_TIMEOUT_S)
        if res["code"] != 0:
            raise RuntimeError("set-up process failed:\n" + res["stderr"])
        if i:  # the first run compiles bytecode and warms the file cache
            times.append(res["seconds"])
    return times


def digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def run_request(child: Child, req, index: int) -> dict:
    res = child.run(["-m", "tropdiff", *req.argv], REQUEST_TIMEOUT_S)
    error = "timed out" if res["timed_out"] else judge(req, res["code"], res["stdout"], res["stderr"])
    return {
        "index": index,
        "template": req.template,
        "code": res["code"],
        "digest": digest(res["code"], res["stdout"]),
        "seconds": res["seconds"],
        "cpu_s": res["cpu_s"],
        "rss_kb": res["rss_kb"],
        "candidates": req.candidates,
        "error": error,
        "stdout": res["stdout"],
    }


def request_stream(workload, seed: int, seconds: float, whole_rounds: bool):
    """Requests in round order until time is up; with whole_rounds, finish the round."""
    start = time.perf_counter()
    index = 0
    rnd = 0
    while True:
        for req in round_requests(workload, seed, rnd):
            elapsed = time.perf_counter() - start
            if elapsed > seconds + OVERRUN_S:
                return
            if index and elapsed >= seconds and not whole_rounds:
                return
            yield index, req
            index += 1
        rnd += 1
        if time.perf_counter() - start >= seconds:
            return


def percentile_beyond(values: list[float], q: float):
    """The q-quantile of values and how many samples lie strictly beyond it."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1] \
        if len(values) > 1 else values[0]
    return cut, sum(v > cut for v in values)


def end_to_end(results: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    lat = [r["seconds"] for r in results]
    n = len(results)
    failed = sum(r["error"] is not None for r in results)
    metrics = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes"),
        "latency_p50_s": (statistics.median(lat), f"{n} requests"),
        "candidates_per_s": (sum(r["candidates"] for r in results) / sum(lat),
                             f"{sum(r['candidates'] for r in results)} candidates over "
                             f"{sum(lat):.3f} s of request wall time"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024, f"max over {n} child processes"),
    }
    lines = [f"  {name:<18} {value:12.6f} {END_TO_END_UNITS[name]:<4} ({note})"
             for name, (value, note) in metrics.items()]
    p90, beyond = percentile_beyond(lat, 0.90)
    if beyond >= 10:
        lines.append(f"  {'latency_p90_s':<18} {p90:12.6f} s    ({n} requests, {beyond} beyond it)")
    else:
        lines.append(f"  latency_p90_s      not reported: {beyond} of {n} requests lie beyond it, "
                     "fewer than 10")
    lines.append(f"  {'failed_share':<18} {failed / n:12.6f}      ({failed} of {n} requests)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in metrics.items()}, lines


def traced_replay(tracer, req, index: int):
    """Run one request in-process under the tracer; return (code, stdout, error)."""
    from tropdiff import cli

    out, err = io.StringIO(), io.StringIO()
    tracer.begin(index)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
    except Exception:  # a crash in the replay is a failed request, not a crashed run
        return None, out.getvalue(), traceback.format_exc()
    finally:
        tracer.end()
    return code, out.getvalue(), err.getvalue()


def traced_run(child: Child, root: Path, workload, args, setup_s: float, out_dir: Path):
    sys.path.insert(0, str(root / "src"))
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    results = []
    main_before = 0.0
    for index, req in request_stream(workload, args.seed, args.seconds, whole_rounds=False):
        res = run_request(child, req, index)
        code, stdout, stderr = traced_replay(tracer, req, index)
        main_s = tracer.incl_s.get("cli.main", 0.0) - main_before
        main_before += main_s
        if res["error"] is None and code is None:
            res["error"] = "in-process replay raised:\n" + stderr
        elif res["error"] is None and digest(code, stdout) != res["digest"]:
            res["error"] = "in-process replay output differs from the CLI output"
        res["traced_main_s"] = main_s
        results.append(res)
    tracer.uninstall()
    n = len(results)
    metrics = tracer.metrics(n)
    traced = sum(r["traced_main_s"] for r in results) + n * setup_s
    metrics["trace.overhead_ratio"] = {
        "value": traced / sum(r["seconds"] for r in results), "unit": "ratio"}
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    lines = [f"  {name:<34} {m['value']:14.6f} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  (per-request means over {n} traced requests; times are self times "
                 "except cli.main_s, the inclusive in-process command time; hit ratios are "
                 "hits over the *_lookups count, caches emptied before each request; "
                 "trace.overhead_ratio = (sum of traced cli.main_s + n * setup_s) / "
                 "sum of untraced CLI latency)")
    lines.append(f"  spans: {len(tracer.spans)} kept, {tracer.dropped} over the cap, "
                 f"written to {os.path.relpath(spans_path, root)}")
    if tracer.missing:
        lines.append("  not traced (absent in this version): " + ", ".join(tracer.missing))
    return results, metrics, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tropdiff" / "cli.py").is_file():
        print(f"error: no tropdiff source tree at {root / 'src' / 'tropdiff'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    started = time.perf_counter()
    with Child(root, child_env(root), out_dir) as child:
        setup = measure_setup(child)
        setup_s = statistics.median(setup)
        if args.trace:
            results, metrics, lines = traced_run(child, root, workload, args, setup_s, out_dir)
        else:
            results = [run_request(child, req, index) for index, req in
                       request_stream(workload, args.seed, args.seconds, whole_rounds=True)]
            metrics, lines = end_to_end(results, setup)
    wall = time.perf_counter() - started

    failures = [r for r in results if r["error"] is not None]
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "templates": [{"generator": g.__name__, **kw} for g, kw in workload.templates]},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, 1 child process at a time",
        "requests": len(results),
        "failed": len(failures),
        "setup_samples_s": setup,
        "metrics": metrics,
        "per_request": [{k: r[k] for k in ("index", "template", "code", "digest", "seconds",
                                           "cpu_s", "rss_kb", "candidates", "error")} for r in results],
    }
    record_path = out_dir / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} requests, {len(failures)} failed, {wall:.1f} s wall")
    print(f"  why: {workload.why}")
    print(f"  python {record['python']}, git {record['git_sha']}, nproc {record['nproc']}, "
          f"{record['load']}")
    for line in lines:
        print(line)
    for r in failures[:5]:
        print(f"  FAILED request {r['index']} ({r['template']}): {r['error']}")
    print(f"  record: {os.path.relpath(record_path, root)}")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
