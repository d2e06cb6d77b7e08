"""rapidhare benchmark: whole commands as child processes, plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {stream,replay,cv,all} --seed N --seconds S --trace {0,1}

Workloads (see perfbench/README.md for why each exists):
  stream  `predict -` fed one frame at a time by an open-loop generator at 1000 frames/s
  replay  `predict FILE` on the same recording, repeated for S seconds
  cv      `evaluate` (leave-one-subject-out) on the default synthetic dataset

With --trace 0 the run measures the end-to-end metrics with no tracing. With
--trace 1 it runs the workload's command once untraced (for /proc counters and
as the base of the tracing overhead) and once under tracer.py, and reports
per-layer metrics. Every label a command prints is checked against the
program's own oracle; the last line of standard output is one JSON object.

Exit codes: 0 success, 1 some operation failed (the result is still printed),
2 usage error or no rapidhare sources in this checkout, 3 the harness could
not finish (no result is printed).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout or in site-packages

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
from pathlib import Path
from statistics import median

import numpy

import procs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

WORKLOADS = ("stream", "replay", "cv")
STREAM_RATE_HZ = 1000.0  # about 18x the 56.35 Hz sensor rate
SENSOR_PERIOD_MS = 1000.0 / 56.35
# A stream session whose generator ran a whole sensor period late at p99 no
# longer emulates the sensor; it is invalid and is run again.
GEN_LATE_BOUND_MS = SENSOR_PERIOD_MS
WARMUP_CAP = 2048  # most frames written before the first label line must have arrived
DRAIN_FRAMES = 200  # paced after the measured frames so their labels are flushed in-stream
SETUP_SPAWNS = 5
MIN_REPEATS = 3
PACED_ATTEMPTS = 2
CHILD_TIMEOUT_S = 100.0  # a hung child ends the run well inside its 180 s limit
WINDOW = "26"
CV_SYNTH_SEED = "7"
CV_EVAL_SEED = "5"
CV_TOLERANCE = "25"
CV_FRAMES = 60000  # 3 subjects x 20000 frames, each labelled once as a test subject
CV_MIN_MACRO_F1 = 95.0  # well-separated synthetic data; a working trainer is far above this

END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "frames_per_cpu_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "data.parse_recording.s": "s",
    "data.rows": "count",
    "data.load_dataset.s": "s",
    "features.apply.s": "s",
    "features.stream_push.s": "s",
    "features.stream_push.calls": "count",
    "gmm.load_model_set.s": "s",
    "gmm.fit_activity_models.s": "s",
    "gmm.kmeans_init.s": "s",
    "gmm.fit_em.self_s": "s",
    "gmm.em_iters": "count",
    "predictor.session_init.s": "s",
    "predictor.push_frame.s": "s",
    "predictor.push_frame.calls": "count",
    "predictor.push_frame.p50_us": "us",
    "predictor.push_frame.p99_us": "us",
    "predictor.posterior.s": "s",
    "predictor.gmm_evaluations_per_frame": "1/frame",
    "evaluation.apply_border_tolerance.s": "s",
    "evaluation.tolerance_fixed_pct": "%",
    "cli.self_s": "s",
    "cli.write_calls_per_frame": "1/frame",
    "cli.stdout_bytes_per_frame": "B/frame",
    "synth.generate.s": "s",
    "harness.gen_late_p99_ms": "ms",
    "harness.trace_overhead_pct": "%",
}
# Span name behind each per-layer busy-time metric.
SPAN_METRICS = {
    "data.parse_recording.s": "data.parse_recording",
    "data.load_dataset.s": "data.load_dataset",
    "features.apply.s": "features.apply",
    "features.stream_push.s": "features.stream_push",
    "gmm.load_model_set.s": "gmm.load_model_set",
    "gmm.fit_activity_models.s": "gmm.fit_activity_models",
    "gmm.kmeans_init.s": "gmm.kmeans_init",
    "predictor.session_init.s": "predictor.session_init",
    "predictor.push_frame.s": "predictor.push_frame",
    "predictor.posterior.s": "predictor.posterior",
    "evaluation.apply_border_tolerance.s": "evaluation.apply_border_tolerance",
    "synth.generate.s": "synth.generate",
}


def say(name: str, value, unit: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<38} {text} {unit}".rstrip())


class Run:
    """One workload run: its scratch directory, child environment and failure tally."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = WORK_ROOT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inputs: dict[str, str] = {}
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.extra: dict[str, tuple[float, str]] = {}  # figures beyond the contract's metrics

    def rapidhare(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "rapidhare.cli", *args]

    def traced(self, spans: Path, args: list[str]) -> list[str]:
        return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *args]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The result line's metrics: per-layer when traced, end-to-end otherwise."""
        units = PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        values = self.per_layer if self.trace else self.end_to_end
        return {name: (values[name], unit) for name, unit in units.items() if name in values}

    def note(self, name: str, value: float, unit: str) -> None:
        self.extra[name] = (value, unit)

    def problem(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def check_exit(self, ex, what: str) -> bool:
        self.attempted += 1
        if ex.returncode != 0:
            tail = ex.stderr.strip().splitlines()[-3:]
            self.problem(1, f"{what}: exit code {ex.returncode}: {' | '.join(tail)}")
            return False
        return True

    def check_labels(self, child, oracle: list[bytes], n_frames: int, what: str) -> list:
        """Arrival time of each frame's label; None where it is missing or differs from the oracle."""
        arrival = [None] * n_frames
        for i, (line, t) in enumerate(zip(child.lines[:n_frames], child.arrivals)):
            fields = line.split(b"\t", 2)
            if len(fields) == 3 and fields[0] == str(i).encode() and fields[1] == oracle[i]:
                arrival[i] = t
        self.attempted += n_frames
        bad = arrival.count(None) + max(0, len(child.lines) - n_frames)
        if bad:
            self.problem(bad, f"{what}: {bad} of {n_frames} frames without the oracle's label")
        return arrival


def child_env() -> dict[str, str]:
    """The parent's environment with every PYTHON* variable replaced by pinned values.

    PYTHONUNBUFFERED in particular must not leak in: it changes how `predict -`
    flushes its output, and with it the median stream latency from about 40 ms
    to under 1 ms. OpenBLAS is held to one thread: by default its idle worker
    spins after BLAS calls, adding about a third to the CPU time of
    `predict FILE` with no wall-time gain, and by an amount that varies from
    run to run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")  # bytecode stays in the checkout
    return env


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- helpers


def warm_up(run: Run) -> None:
    """One untimed start of the program, so every timed start finds bytecode and pages cached."""
    _, ex = procs.run(run.rapidhare(["--help"]), run.env, run.work, CHILD_TIMEOUT_S)
    if ex.returncode != 0:
        raise procs.BenchError(f"`rapidhare --help` failed: {ex.stderr.strip()[-500:]}")


def stream_args(inp) -> list[str]:
    sources = ",".join(str(i) for i in inputs.DIRECTIONAL_SOURCES)
    return ["predict", "-", "--model", str(inp.model), "--window", WINDOW,
            "--df", f"lag=15,channels={sources}"]


def replay_args(inp) -> list[str]:
    return ["predict", str(inp.recording), "--model", str(inp.model), "--window", WINDOW,
            "--df", "lag=15"]


def prepare_stream_inputs(run: Run):
    """The seed's model, recording and stdin frames, and the oracle's label for every frame."""
    n_frames = WARMUP_CAP + int(STREAM_RATE_HZ * run.seconds) + DRAIN_FRAMES
    inp = inputs.make_stream_inputs(run.work, run.seed, n_frames)
    run.inputs.update(inp.sha256)
    child, ex = procs.run(run.rapidhare(replay_args(inp) + ["--oracle"]), run.env, run.work,
                          CHILD_TIMEOUT_S)
    if ex.returncode != 0 or len(child.lines) != n_frames:
        raise procs.BenchError(f"`predict --oracle` failed: {ex.stderr.strip()[-500:]}")
    return inp, [line.split(b"\t", 2)[1] for line in child.lines]


def stream_session(run: Run, cmd: list[str], inp, oracle, measure: int) -> dict:
    """Start `predict -`, feed frames until the first label arrives, then pace ``measure`` frames.

    Set-up is spawn to first label line. After the warm-up frames are consumed
    the generator sends one frame every 1/STREAM_RATE_HZ seconds on a fixed
    schedule; each frame's latency runs from when it was due to when its label
    line was read, and the child's CPU time over the paced frames, idle to idle,
    gives the frames per CPU-second one process sustains on one core at this
    rate. With ``measure`` 0 the session ends after set-up.
    """
    lines = inp.frame_lines
    child = procs.Child(cmd, run.env, run.work, stdin=True)
    try:
        deadline = child.t_spawn + CHILD_TIMEOUT_S
        sent = 0
        while not child.lines:
            if child.eof:
                ex = child.finish(deadline)
                raise procs.BenchError(
                    f"`predict -` exited with code {ex.returncode} before its first label: "
                    f"{ex.stderr.strip()[-500:]}"
                )
            if procs.clock() > deadline:
                raise procs.BenchError(f"no label line from `predict -` after {sent} frames")
            if sent < WARMUP_CAP and not child.pending:
                child.send(lines[sent])
                sent += 1
                child.pump(0)
            else:
                child.pump(0.05)
        out = {"setup_s": child.arrivals[0] - child.t_spawn}
        if measure:
            cpu0 = child.wait_idle(deadline)
            first, end = sent, sent + measure + DRAIN_FRAMES
            period = 1.0 / STREAM_RATE_HZ
            t0 = procs.clock() + 0.002
            late = []
            while sent < end:
                due = t0 + (sent - first) * period
                now = procs.clock()
                if now >= due:
                    child.send(lines[sent])
                    late.append(now - due)
                    sent += 1
                elif now > deadline:
                    raise procs.BenchError("stream session ran past its deadline")
                else:
                    child.pump(due - now)
            cpu1 = child.wait_idle(deadline)
        ex = child.finish(deadline)
    except BaseException:
        child.kill()
        raise
    out.update(exit=ex, frames=sent)
    if not run.check_exit(ex, "predict -"):
        return out
    arrival = run.check_labels(child, oracle, sent, "predict -")
    if measure:
        lat = [(arrival[j] - (t0 + (j - first) * period)) * 1e3
               for j in range(first, first + measure) if arrival[j] is not None]
        in_period = sum(1 for v in lat if v <= SENSOR_PERIOD_MS)
        out.update(
            p50_ms=percentile(lat, 50),
            p99_ms=percentile(lat, 99),
            in_period_pct=100.0 * in_period / measure,
            capacity_fps=(end - first) / ((cpu1 - cpu0) / 1e9),
            gen_late_p99_ms=percentile(late, 99) * 1e3,
            measured=measure,
        )
    return out


def paced_session(run: Run, cmd: list[str], inp, oracle) -> dict:
    """A measured stream session; a run whose generator fell behind is repeated once."""
    for attempt in range(PACED_ATTEMPTS):
        out = stream_session(run, cmd, inp, oracle, int(STREAM_RATE_HZ * run.seconds))
        if "gen_late_p99_ms" not in out or out["gen_late_p99_ms"] <= GEN_LATE_BOUND_MS:
            return out
        print(f"  invalid stream session: generator p99 lateness {out['gen_late_p99_ms']:.3f} ms "
              f"> {GEN_LATE_BOUND_MS} ms", file=sys.stderr)
        run.note(f"invalid_session_{attempt}.gen_late_p99_ms", out["gen_late_p99_ms"], "ms")
    raise procs.BenchError("the load generator ran late in every attempt; stream run invalid")


def percentile(values, q: float) -> float:
    if len(values) == 0:
        return float("nan")
    return float(numpy.percentile(values, q))


def replay_once(run: Run, cmd: list[str], inp, oracle) -> dict:
    child, ex = procs.run(cmd, run.env, run.work, CHILD_TIMEOUT_S)
    out = {"exit": ex, "setup_s": child.arrivals[0] - child.t_spawn if child.lines else None}
    if run.check_exit(ex, "predict FILE"):
        run.check_labels(child, oracle, len(oracle), "predict FILE")
    return out


def synth_once(run: Run, cmd: list[str], data_dir: Path) -> dict | None:
    _, ex = procs.run(cmd, run.env, run.work, CHILD_TIMEOUT_S)
    if not run.check_exit(ex, "synth"):
        return None
    digests = {f"cv/{p.name}": inputs.sha256_file(p) for p in sorted(data_dir.iterdir())}
    if run.inputs.setdefault("cv", digests) != digests:
        run.problem(1, "synth wrote a different dataset for the same seed")
    return {"exit": ex}


def parse_evaluate(lines: list[bytes]) -> dict | None:
    """Macro F1 and confusion total of both reports in `evaluate --format tsv` output."""
    text = [line.decode(errors="replace") for line in lines]
    reports = []
    for i, line in enumerate(text):
        if not line.startswith("== "):
            continue
        try:
            f1 = next(float(r.split("\t")[-1]) for r in text[i:i + 6] if r.startswith("f1\t"))
            at = text.index("confusion (rows true, columns predicted):", i)
            total = sum(int(v) for row in text[at + 1:at + 9] for v in row.split("\t"))
        except (StopIteration, ValueError):
            return None
        reports.append({"macro_f1": f1, "frames": total})
    return {"raw": reports[0], "tolerant": reports[1]} if len(reports) == 2 else None


def evaluate_once(run: Run, cmd: list[str]) -> dict:
    child, ex = procs.run(cmd, run.env, run.work, CHILD_TIMEOUT_S)
    out = {"exit": ex, "macro_f1": None}
    if not run.check_exit(ex, "evaluate"):
        return out
    report = parse_evaluate(child.lines)
    if report is None:
        run.problem(1, "evaluate printed no parseable report")
    elif any(r["frames"] != CV_FRAMES for r in report.values()):
        run.problem(1, f"evaluate labelled {report['tolerant']['frames']} frames, not {CV_FRAMES}")
    elif report["tolerant"]["macro_f1"] < CV_MIN_MACRO_F1:
        run.problem(1, f"evaluate macro F1 {report['tolerant']['macro_f1']} < {CV_MIN_MACRO_F1}")
    else:
        out["macro_f1"] = report["tolerant"]["macro_f1"]
    return out


def cv_args(data_dir: Path) -> tuple[list[str], list[str]]:
    synth = ["synth", "--out", str(data_dir), "--seed", CV_SYNTH_SEED]
    evaluate = ["evaluate", str(data_dir), "--tolerance", CV_TOLERANCE, "--window", WINDOW,
                "--seed", CV_EVAL_SEED, "--format", "tsv"]
    return synth, evaluate


# ---------------------------------------------------------------- untraced runs


def measure_stream(run: Run) -> None:
    inp, oracle = prepare_stream_inputs(run)
    warm_up(run)
    cmd = run.rapidhare(stream_args(inp))
    setups = [stream_session(run, cmd, inp, oracle, 0)["setup_s"] for _ in range(SETUP_SPAWNS - 1)]
    out = paced_session(run, cmd, inp, oracle)
    setups.append(out["setup_s"])
    if "p50_ms" not in out:
        return
    run.end_to_end.update(
        setup_s=median(setups), latency_p50_ms=out["p50_ms"],
        frames_per_cpu_s=out["capacity_fps"], peak_rss_mb=out["exit"].peak_rss_kb / 1024,
    )
    run.note("stream_p50_ms", out["p50_ms"], "ms")
    run.note("stream_p99_ms", out["p99_ms"], "ms")
    run.note("stream_in_period_pct", out["in_period_pct"], "%")
    run.note("stream_capacity_fps", out["capacity_fps"], "1/s")
    run.note("stream_frames_measured", out["measured"], "count")
    run.note("harness.gen_late_p99_ms", out["gen_late_p99_ms"], "ms")


def measure_replay(run: Run) -> None:
    inp, oracle = prepare_stream_inputs(run)
    warm_up(run)
    cmd = run.rapidhare(replay_args(inp))
    runs = []
    start = procs.clock()
    while len(runs) < MIN_REPEATS or procs.clock() - start < run.seconds:
        runs.append(replay_once(run, cmd, inp, oracle))
    ok = [r for r in runs if r["exit"].returncode == 0 and r["setup_s"] is not None]
    if not ok:
        return
    wall = median([r["exit"].wall_s for r in ok])
    cpu = median([r["exit"].cpu_s for r in ok])
    run.end_to_end.update(
        setup_s=median([r["setup_s"] for r in ok]), latency_p50_ms=wall * 1e3,
        frames_per_cpu_s=len(oracle) / cpu,
        peak_rss_mb=max(r["exit"].peak_rss_kb for r in ok) / 1024,
    )
    run.note("replay_fps", len(oracle) / wall, "1/s")
    run.note("replay_frames", len(oracle), "count")
    run.note("replay_runs", len(ok), "count")


def measure_cv(run: Run) -> None:
    warm_up(run)
    data_dir = run.work / "cv"
    synth, evaluate = cv_args(data_dir)
    setups = [s["exit"].wall_s for s in (synth_once(run, run.rapidhare(synth), data_dir)
                                         for _ in range(SETUP_SPAWNS)) if s]
    if not setups:
        return
    runs = []
    start = procs.clock()
    while not runs or procs.clock() - start < run.seconds:
        runs.append(evaluate_once(run, run.rapidhare(evaluate)))
    ok = [r for r in runs if r["macro_f1"] is not None]
    if not ok:
        return
    wall = median([r["exit"].wall_s for r in ok])
    run.end_to_end.update(
        setup_s=median(setups), latency_p50_ms=wall * 1e3,
        frames_per_cpu_s=CV_FRAMES / median([r["exit"].cpu_s for r in ok]),
        peak_rss_mb=max(r["exit"].peak_rss_kb for r in ok) / 1024,
    )
    run.note("cv_s", wall, "s")
    run.note("cv_macro_f1", ok[0]["macro_f1"], "%")
    run.note("cv_runs", len(ok), "count")


# ---------------------------------------------------------------- traced runs


def span_metrics(path: Path) -> dict[str, float]:
    """Per-layer busy time, self time and counts from one tracer.py span file."""
    with numpy.load(path) as saved:
        spans = saved["spans"]
        rec = json.loads(str(saved["meta"]))
    names = rec["names"]
    nid, start, end, parent = spans.T
    dur = (end - start).astype(numpy.float64)
    covered = numpy.zeros(len(spans))
    has_parent = parent >= 0
    numpy.add.at(covered, parent[has_parent], dur[has_parent])
    ids = {name: i for i, name in enumerate(names)}

    def mask(name):
        return nid == ids.get(name, -1)

    out = {metric: float(dur[mask(span)].sum()) / 1e9 for metric, span in SPAN_METRICS.items()}
    push = dur[mask("predictor.push_frame")]
    root = numpy.flatnonzero(mask("cli.main"))
    c = rec["counters"]
    out.update({
        "data.rows": c.get("data.rows", 0),
        "features.stream_push.calls": int(mask("features.stream_push").sum()),
        "gmm.fit_em.self_s": float((dur - covered)[mask("gmm.fit_em")].sum()) / 1e9,
        "gmm.em_iters": c.get("gmm.em_iters", 0),
        "predictor.push_frame.calls": len(push),
        "predictor.push_frame.p50_us": percentile(push, 50) / 1e3 if len(push) else 0.0,
        "predictor.push_frame.p99_us": percentile(push, 99) / 1e3 if len(push) else 0.0,
        "predictor.gmm_evaluations_per_frame":
            rec["gmm_evaluations"] / rec["frames_seen"] if rec["frames_seen"] else 0.0,
        "evaluation.tolerance_fixed_pct":
            100.0 * c.get("tolerance.fixed", 0) / c["tolerance.frames"]
            if c.get("tolerance.frames") else 0.0,
        # Waiting for a stdin line is a child span, so it is not counted here.
        "cli.self_s": float((dur - covered)[root].sum()) / 1e9,
    })
    return out


def io_metrics(ex, frames: int) -> dict[str, float]:
    return {
        "cli.write_calls_per_frame": ex.io["syscw"] / frames,
        "cli.stdout_bytes_per_frame": ex.io["wchar"] / frames,
    }


def trace_stream(run: Run) -> None:
    inp, oracle = prepare_stream_inputs(run)
    warm_up(run)
    base = paced_session(run, run.rapidhare(stream_args(inp)), inp, oracle)
    spans = run.work / "spans.npz"
    traced = paced_session(run, run.traced(spans, stream_args(inp)), inp, oracle)
    if "capacity_fps" not in base or "capacity_fps" not in traced:
        return
    run.per_layer.update(span_metrics(spans))
    run.per_layer.update(io_metrics(base["exit"], base["frames"]))
    run.per_layer["harness.gen_late_p99_ms"] = base["gen_late_p99_ms"]
    # CPU per frame, traced over untraced: the paced wall time does not depend on tracing.
    run.per_layer["harness.trace_overhead_pct"] = 100.0 * (base["capacity_fps"] / traced["capacity_fps"] - 1)


def trace_replay(run: Run) -> None:
    inp, oracle = prepare_stream_inputs(run)
    warm_up(run)
    spans = run.work / "spans.npz"
    base, traced = [], []
    start = procs.clock()
    while len(base) < MIN_REPEATS or procs.clock() - start < run.seconds:
        base.append(replay_once(run, run.rapidhare(replay_args(inp)), inp, oracle)["exit"])
        traced.append(replay_once(run, run.traced(spans, replay_args(inp)), inp, oracle)["exit"])
    if any(ex.returncode != 0 for ex in base + traced):
        return
    run.per_layer.update(span_metrics(spans))
    run.per_layer.update(io_metrics(base[-1], len(oracle)))
    run.per_layer["harness.gen_late_p99_ms"] = 0.0  # no open-loop generator on this workload
    run.per_layer["harness.trace_overhead_pct"] = 100.0 * (
        median([ex.wall_s for ex in traced]) / median([ex.wall_s for ex in base]) - 1
    )


def trace_cv(run: Run) -> None:
    warm_up(run)
    data_dir = run.work / "cv"
    synth, evaluate = cv_args(data_dir)
    synth_spans, spans = run.work / "synth-spans.npz", run.work / "spans.npz"
    if not synth_once(run, run.rapidhare(synth), data_dir):
        return
    if not synth_once(run, run.traced(synth_spans, synth), data_dir):
        return
    base = evaluate_once(run, run.rapidhare(evaluate))
    traced = evaluate_once(run, run.traced(spans, evaluate))
    if base["macro_f1"] is None or traced["macro_f1"] is None:
        return
    run.per_layer.update(span_metrics(spans))
    run.per_layer["synth.generate.s"] = span_metrics(synth_spans)["synth.generate.s"]
    run.per_layer.update(io_metrics(base["exit"], CV_FRAMES))
    run.per_layer["harness.gen_late_p99_ms"] = 0.0
    run.per_layer["harness.trace_overhead_pct"] = 100.0 * (
        traced["exit"].wall_s / base["exit"].wall_s - 1
    )


MEASURE = {"stream": measure_stream, "replay": measure_replay, "cv": measure_cv}
TRACE = {"stream": trace_stream, "replay": trace_replay, "cv": trace_cv}


# ---------------------------------------------------------------- entry point


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> Run:
    run = Run(workload, seed, seconds, trace)
    try:
        (TRACE if trace else MEASURE)[workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    missing = set(PER_LAYER_UNITS if trace else END_TO_END_UNITS) - set(run.metrics())
    if run.failed == 0 and missing:
        raise procs.BenchError(f"{workload}: metrics missing: {sorted(missing)}")
    return run


def report(run: Run) -> None:
    print(f"[{run.workload}] seed {run.seed}, {run.seconds} s, trace {int(run.trace)}")
    for name, (value, unit) in [*run.metrics().items(), *run.extra.items()]:
        say(name, value, unit)
    say("failed_pct", 100.0 * run.failed / max(run.attempted, 1), "%")
    for line in run.problems:
        print(f"  FAILED: {line}")


def write_record(run: Run, env_record: dict) -> Path:
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "child_env": env_record,
        "inputs_sha256": run.inputs,
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "end_to_end": run.end_to_end, "per_layer": run.per_layer, "extra": run.extra,
    }
    out = WORK_ROOT / "records" / f"BENCH_{run.workload}_seed{run.seed}_trace{int(run.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description="rapidhare benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        p.error("--seconds must be 1..60 and --seed non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rapidhare" / "cli.py").is_file():
        print(f"error: no rapidhare sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global inputs
    import inputs  # imports rapidhare, so only once the sources are known to be here
    import rapidhare

    if Path(rapidhare.__file__).resolve().parent != (SRC / "rapidhare").resolve():
        print(f"error: imported rapidhare from {rapidhare.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    env_record = {k: env.get(k) for k in sorted(env) if k.startswith("PYTHON")}
    env_record["OPENBLAS_NUM_THREADS"] = env.get("OPENBLAS_NUM_THREADS")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(run)
            print(f"  record: {write_record(run, env_record).relative_to(ROOT)}")
            runs.append(run)
    except procs.BenchError as exc:
        print(f"benchmark could not finish: {exc}", file=sys.stderr)
        return 3

    metrics = {}
    for run in runs:
        prefix = f"{run.workload}." if len(runs) > 1 else ""
        for name, (value, unit) in run.metrics().items():
            if math.isfinite(value):
                metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
