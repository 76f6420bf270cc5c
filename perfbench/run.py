"""Benchmark runner for the twistaff batch CLI.

    python3 perfbench/run.py --workload twist-pipeline --seed 3 --seconds 30 --trace 0

Builds the workload's request stream from the seed (see workloads.py), then
sends it through `twistaff.cli.main` as a closed loop with one client: the
next request starts when the previous one has returned, `--jobs` stays 1,
and there is no warm-up, because one-shot CLI users pay first-use costs on
every call.  Every report is checked (exit code, pass flags, energy sign,
and on the default seed its SHA-256 against golden.json).  Request and
set-up times are normalized by the host's momentary speed (hostspeed.py).

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer ones: the timed run is followed by a traced run of
the stream's first cycle, a closed-form replay of its energy calls, a
`--jobs 2` audit and cyclotomic micro timings.  Other modes:
`--self-check` (a few requests per workload, asserts coverage and metric
names), `--write-golden` (re-records golden.json for the default seed) and
`--check-pool` (sends every input the pooled streams can hold).
"""

import time

from hostspeed import Speedometer

#: host speed sampled just before the set-up clock starts
SPEED_BEFORE = Speedometer().speed(3)
T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden.json")

SUBCOMMANDS = ("normalize", "roots", "map-roots", "check-isom", "bracket-check", "min-energy", "theorem-b")
#: set-ups repeated in fresh interpreters; setup_s is the median with the run's own
SETUP_PROBES = 4
#: tail percentile per workload, fixed so that a 30 s run has about 10 requests
#: or more beyond it (117-204, 103-187 and 21-40 requests per run on a shared
#: 2-core host); a percentile chosen per run from its request count would rise,
#: and read as a worse tail, whenever the program got faster
TAIL_PERCENTILE = {"twist-pipeline": 90, "lie-brackets": 90, "energy-grid": 60}
#: rank-4 energy requests timed at --jobs 1 and --jobs 2
AUDIT_REQUESTS = 2
#: a request still running after this long is abandoned and counts as failed;
#: the slowest requests take about 3 s, but standardize on some operators
#: spends minutes in sympy's factoring inside cyclo.cyc_sqrt
REQUEST_DEADLINE_S = 10
#: requests per workload in --self-check: enough to reach every subcommand
SELF_CHECK_LIMIT = {"twist-pipeline": 3, "lie-brackets": 2, "energy-grid": 7}


def load_program():
    """Import twistaff from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "twistaff", "cli.py")):
        raise SystemExit(f"error: no twistaff sources under {SRC}")
    sys.path.insert(0, SRC)
    import twistaff

    if os.path.dirname(os.path.abspath(twistaff.__file__)) != os.path.join(SRC, "twistaff"):
        raise SystemExit(f"error: twistaff was imported from {twistaff.__file__}, not {SRC}")


# -- set-up ----------------------------------------------------------------


class Setup:
    """Imports, fixture files in a private work directory, golden digests.

    `stream` replaces the seeded stream by given (files, requests).  `seconds`
    and `normalized_s` are the set-up time since this process started, so they
    mean set-up time only for the first Setup of a process."""

    def __init__(self, workload, seed, golden=True, stream=None):
        self.workload, self.seed, self.golden = workload, seed, None
        before = time.perf_counter() - T0  # stdlib imports and argument parsing
        meter = Speedometer()
        meter.last = SPEED_BEFORE
        _, body, normalized = meter.measure(self._prepare, golden, stream)
        self.seconds = before + body
        self.normalized_s = before * SPEED_BEFORE + normalized

    def _prepare(self, golden, stream):
        load_program()
        import workloads

        workload, seed = self.workload, self.seed
        if stream is None:
            files, self.requests, self.cycle = workloads.build(workload, seed)
        else:
            files, self.requests = stream
            self.cycle = len(self.requests)
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        for name, obj in files.items():
            with open(os.path.join(self.dir, name), "w") as fh:
                json.dump(obj, fh)
        if golden:
            with open(GOLDEN) as fh:
                recorded = json.load(fh)
            if seed == recorded["seed"]:
                self.golden = recorded["digests"][workload]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def probe_setup(workload, seed):
    """Set-up time of one fresh interpreter running only the set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["normalized_s"]


# -- requests ----------------------------------------------------------------


class Deadline(BaseException):
    """Raised in a request that passed REQUEST_DEADLINE_S; not an Exception, so
    no handler in the program can swallow it."""


def _deadline(signum, frame):
    raise Deadline


def call_cli(argv):
    """Exit code of one CLI call; an escaping exception or the deadline is reported by name."""
    from twistaff import cli

    previous = signal.signal(signal.SIGALRM, _deadline)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_DEADLINE_S)
    try:
        return cli.main(argv)
    except Deadline:
        return f"abandoned after {REQUEST_DEADLINE_S} s"
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a program fault is a failed request, not a crashed benchmark
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def closed_loop(setup, tag, count=None, seconds=None, send=lambda command, argv: call_cli(argv), meter=None):
    """Send requests in stream order, each after the previous one returned.

    Stops after `count` requests, or at the first request boundary after
    `seconds`.  Returns the exit codes, the per-request times, the normalized
    per-request times (with a Speedometer `meter`, else empty) and the wall time.
    """
    codes, times, normalized = [], [], []
    requests = setup.requests
    old_cwd = os.getcwd()
    os.chdir(setup.dir)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            i = 0
            while (count is None or i < count) and (seconds is None or time.perf_counter() - start < seconds):
                req = requests[i % len(requests)]
                argv = req.argv(f"{tag}-{i:05d}.json")
                if meter is None:
                    t = time.perf_counter()
                    codes.append(send(req.command, argv))
                    times.append(time.perf_counter() - t)
                else:
                    code, t, n = meter.measure(send, req.command, argv)
                    codes.append(code)
                    times.append(t)
                    normalized.append(n)
                i += 1
            wall = time.perf_counter() - start
    finally:
        os.chdir(old_cwd)
    setup.stderr = err.getvalue()
    return codes, times, normalized, wall


def report_bytes(setup, tag, i):
    path = os.path.join(setup.dir, f"{tag}-{i:05d}.json")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def check_report(setup, i, code, data):
    """None if request i's report is correct, else the reason it is not."""
    req = setup.requests[i % len(setup.requests)]
    if code != 0:
        return f"exit {code}"
    if data is None:
        return "no report written"
    if setup.golden is not None:
        if hashlib.sha256(data).hexdigest() != setup.golden[i % len(setup.requests)]:
            return "report differs from its golden digest"
    doc = json.loads(data)
    cmd = req.command
    if cmd == "normalize" and doc["verification"]["passed"] is not True:
        return "verification failed"
    if cmd == "map-roots" and doc["all_integral_and_contained"] is not True:
        return "root map not integral and contained"
    if cmd in ("check-isom", "bracket-check") and doc["passed"] is not True:
        return "checks failed"
    if cmd == "roots" and (doc["count"] != len(doc["roots"]) or doc["count"] == 0):
        return "root count wrong"
    if cmd in ("min-energy", "theorem-b"):
        rep = doc["report"]
        if rep["method_agreement"] is not True:
            return "closed form and oracle disagree"
        if rep["positive_energy"] != (req.lc > 0):
            return "positive_energy does not follow the sign of lc"
    return None


def check_all(setup, tag, codes):
    """(tag, index, reason) for every failed request of one pass."""
    reasons = [check_report(setup, i, c, report_bytes(setup, tag, i)) for i, c in enumerate(codes)]
    return [(tag, i, r) for i, r in enumerate(reasons) if r is not None]


# -- metrics -------------------------------------------------------------------


def tail(setup, times):
    """(value, percentile, requests beyond it) of the workload's tail percentile."""
    pct = TAIL_PERCENTILE[setup.workload]
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if len(times) > 1 else times[0]
    return value, pct, sum(t > value for t in times)


def cycle_median(setup, times):
    """Median over the positions of the stream's cycle that the run reached,
    each at its mean time over the run's repeats of it, so that where the run
    stopped in a cycle does not change the mix."""
    by_position = {}
    for i, t in enumerate(times):
        by_position.setdefault(i % setup.cycle, []).append(t)
    return statistics.median([statistics.fmean(ts) for ts in by_position.values()])


def end_to_end(setup, setup_s, normalized):
    return {
        "norm_throughput_rps": (len(normalized) / sum(normalized), "1/s"),
        "norm_latency_p50_s": (cycle_median(setup, normalized), "s"),
        "norm_latency_tail_s": (tail(setup, normalized)[0], "s"),
        "setup_s": (setup_s, "s"),
    }


class EnergyAccount:
    """Oracle points and min_energy calls seen while tracing."""

    def __init__(self):
        from twistaff.weyl import finite_weyl_group, translation_lattice

        self._group, self._lattice = finite_weyl_group, translation_lattice
        self._sizes = {}
        self.points = 0
        self.calls = []

    def on_oracle(self, args, kwargs):
        # _oracle_minimum(spec, lam, chi, bound, ...) evaluates |W| * (2b+1)^dim points
        spec, bound = args[0], args[3]
        key = (spec.lars, spec.base.rank)
        if key not in self._sizes:
            self._sizes[key] = (len(self._group(*key)), len(self._lattice(spec)))
        group, dim = self._sizes[key]
        self.points += group * (2 * bound + 1) ** dim

    def on_min_energy(self, args, kwargs, result):
        self.calls.append((args, kwargs))

    def closed_form_s(self):
        """Time of the traced min_energy calls replayed without the oracle."""
        from twistaff.energy import min_energy

        start = time.perf_counter()
        for args, kwargs in self.calls:
            min_energy(*args, **dict(kwargs, with_oracle=False))
        return time.perf_counter() - start


def traced_run(setup, count, failures):
    """Run the first `count` requests under the tracer; per-layer numbers."""
    from tracer import Tracer

    energy = EnergyAccount()
    certs = {"all": 0, "enlarged": 0}

    def on_standardize(args, kwargs, cert):
        certs["all"] += 1
        certs["enlarged"] += cert.conductor > args[0].conductor

    tracer = Tracer(
        on_return={"autnorm.standardize": on_standardize, "energy.min_energy": energy.on_min_energy},
        on_count={"energy._oracle_minimum": energy.on_oracle},
    )
    tracer.install()
    try:
        codes, times, _, wall = closed_loop(
            setup, "traced", count=count,
            send=lambda cmd, argv: tracer.span(f"cli.{cmd}", call_cli, argv),
        )
    finally:
        tracer.uninstall()
    failures += check_all(setup, "traced", codes)
    closed_form_s = energy.closed_form_s()
    operators = {setup.requests[i % len(setup.requests)].operator for i in range(count)} - {None}
    os.makedirs(TRACE_OUT, exist_ok=True)
    tracer.write(
        os.path.join(TRACE_OUT, f"trace-{setup.workload}-seed{setup.seed}.json.gz"),
        {"workload": setup.workload, "seed": setup.seed, "requests": count, "wall_s": wall},
    )
    calls, self_s = tracer.calls, tracer.self_s
    oracle_s = tracer.total_s.get("energy.min_energy", 0.0) - closed_form_s
    return {
        "times": times,
        "wall": wall,
        "spans": {name: (self_s.get(name, 0.0), calls.get(name, 0)) for name in tracer.names},
        "standardize_per_operator": calls.get("autnorm.standardize", 0) / len(operators) if operators else 0.0,
        "mode_class_vectors_per_cert": (
            calls.get("autnorm.mode_class_vectors", 0) / certs["all"] if certs["all"] else 0.0
        ),
        "enlarged_share": certs["enlarged"] / certs["all"] if certs["all"] else 0.0,
        "sympy_calls": calls.get("cyclo._sympy_field", 0),
        "closed_form_s": closed_form_s if energy.calls else 0.0,
        "oracle_s": oracle_s if energy.calls else 0.0,
        "oracle_points": energy.points,
        "covered_s": tracer.covered_s,
    }


def jobs_audit(setup, failures):
    """Speed-up of --jobs 2 over --jobs 1 on rank-4 energy requests (0 if none)."""
    picks = [
        i for i, r in enumerate(setup.requests[: setup.cycle])
        if r.shape is not None and r.shape[1] == 4 and r.shape[0] != "A1"
    ][:AUDIT_REQUESTS]
    if not picks:
        return 0.0, 0
    spent = {1: 0.0, 2: 0.0}
    old_cwd = os.getcwd()
    os.chdir(setup.dir)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for i in picks:
                req = setup.requests[i]
                for jobs in (1, 2):
                    out = f"jobs{jobs}-{i:05d}.json"
                    t = time.perf_counter()
                    code = call_cli(req.argv(out, ["--jobs", str(jobs)]))
                    spent[jobs] += time.perf_counter() - t
                    if code != 0:
                        failures.append((f"jobs{jobs}", i, f"exit {code}"))
    finally:
        os.chdir(old_cwd)
    for i in picks:
        if report_bytes(setup, "jobs1", i) != report_bytes(setup, "jobs2", i):
            failures.append(("jobs2", i, "report differs from the --jobs 1 one"))
    return spent[1] / spent[2], 2 * len(picks)


def per_layer(setup, times, normalized, peak_rss_mb, traced, speedup, micro, failed, attempted):
    k = len(traced["times"])
    spans = traced["spans"]

    def self_s(name):
        return spans.get(name, (0.0, 0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0))[1]

    out = {}
    for sub in SUBCOMMANDS:
        mine = [t for i, t in enumerate(normalized) if setup.requests[i % len(setup.requests)].command == sub]
        out[f"cli.{sub}.p50_s"] = (statistics.median(mine) if mine else 0.0, "s")
    for name in (
        "sampling.random_twisted_element", "sampling.random_loop_element",
        "autnorm.mode_class_vectors", "autnorm.standardize", "autnorm.verify_certificate",
        "cyclo.mat_mul", "cyclo.mat_inverse",
        "loopalg.bracket", "loopalg.phi_hat", "loopalg.kappa_form", "loopalg.apply_derivation",
        "loopalg.validate_element",
        "models.StandardModel.mode_project", "models.StandardModel.algebra_project",
        "weyl.reflect_affine", "weyl.finite_weyl_group", "affine.enumerate_affine_roots",
        "energy.min_energy", "energy.theorem_b_pipeline", "energy.is_integral",
        "jsonio.dump_report",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in (
        "autnorm.cartan_mode_vectors", "autnorm.mode_class", "cyclo.mat_mul", "cyclo.mat_inverse",
        "cyclo.cyc_sqrt", "loopalg.bracket", "weyl.reflect_affine", "affine.lars_contains",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
    out["autnorm.mode_class_vectors.calls_per_cert"] = (traced["mode_class_vectors_per_cert"], "calls/cert")
    out["autnorm.standardize.calls_per_operator"] = (traced["standardize_per_operator"], "calls/operator")
    out["autnorm.enlarged_share"] = (traced["enlarged_share"], "share")
    out["cyclo.cyc_sqrt.sympy_calls"] = (traced["sympy_calls"], "count")
    for name, value in micro.items():
        out[name] = (value, "ns" if "_ns." in name else "us")
    oracle_s = traced["oracle_s"]
    out["energy.closed_form_s"] = (traced["closed_form_s"], "s")
    out["energy.oracle_s"] = (oracle_s, "s")
    out["energy.oracle_points"] = (traced["oracle_points"], "computed_points")
    out["energy.oracle_points_per_s"] = (traced["oracle_points"] / oracle_s if oracle_s > 0 else 0.0, "points/s")
    out["energy.oracle_jobs2_speedup"] = (speedup, "ratio")
    common = min(k, len(times))
    untraced_s = sum(times[:common])
    out["trace.overhead_share"] = (sum(traced["times"][:common]) / untraced_s - 1 if untraced_s else 0.0, "share")
    out["trace.span_coverage"] = (traced["covered_s"] / traced["wall"] if traced["wall"] else 0.0, "share")
    out["failed_share"] = (failed / attempted, "share")
    out["wall.throughput_rps"] = (len(times) / sum(times), "1/s")
    out["wall.latency_p50_s"] = (statistics.median(times), "s")
    out["wall.latency_tail_s"] = (tail(setup, times)[0], "s")
    out["hostspeed.mean"] = (sum(normalized) / sum(times), "ratio")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    out["latency_tail.percentile"] = (tail(setup, normalized)[1], "%")
    out["requests"] = (len(times), "count")
    return out


# -- modes -----------------------------------------------------------------------


def run(workload, seed, seconds, trace, limit=None, probes=SETUP_PROBES):
    """One benchmark run; returns (result dict, summary lines)."""
    setup = Setup(workload, seed)
    try:
        if not trace:
            setup_s = statistics.median([setup.normalized_s] + [probe_setup(workload, seed) for _ in range(probes)])
        codes, times, normalized, wall = closed_loop(
            setup, "timed", count=limit, seconds=None if limit else seconds, meter=Speedometer(),
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check_all(setup, "timed", codes)
        attempted = len(codes)
        if not trace:
            metrics = end_to_end(setup, setup_s, normalized)
        else:
            from micro import cyclo_micro

            traced = traced_run(setup, limit or setup.cycle, failures)
            attempted += len(traced["times"])
            for i in range(min(len(codes), len(traced["times"]))):
                if report_bytes(setup, "timed", i) != report_bytes(setup, "traced", i):
                    failures.append(("traced", i, "report differs from the untraced one"))
            speedup, audited = jobs_audit(setup, failures) if workload == "energy-grid" else (0.0, 0)
            attempted += audited
            metrics = per_layer(
                setup, times, normalized, peak_rss_mb, traced, speedup, cyclo_micro(seed),
                len({f[:2] for f in failures}), attempted,
            )
        failed = len({f[:2] for f in failures})
    finally:
        setup.close()
    lines = [f"# {workload} seed={seed} requests={len(times)} wall={wall:.3f}s failed={failed}"]
    _, pct, beyond = tail(setup, normalized)
    lines.append(f"# norm_latency_tail_s is p{pct} of {len(times)} requests ({beyond} beyond it)")
    lines += [f"# failed {tag} request {i}: {reason}" for tag, i, reason in failures[:20]]
    if failures:
        lines += [f"# stderr: {line}" for line in setup.stderr.splitlines()[:20]]
    lines += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def self_check():
    """Tiny default-seed runs: every subcommand, every named metric, identical traced reports."""
    load_program()
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems, commands = [], set()
    for workload in workloads.WORKLOADS:
        limit = SELF_CHECK_LIMIT[workload]
        _, requests, _ = workloads.build(workload, workloads.DEFAULT_SEED)
        commands |= {r.command for r in requests[:limit]}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run(workload, workloads.DEFAULT_SEED, 0, trace, limit=limit, probes=1)
            print("\n".join(lines))
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed requests")
            want = {m["name"] for m in bench[section]}
            got = set(result["metrics"])
            if want != got:
                problems.append(f"{workload} trace={trace}: missing {sorted(want - got)}, extra {sorted(got - want)}")
    if commands != set(SUBCOMMANDS):
        problems.append(f"subcommands not exercised: {sorted(set(SUBCOMMANDS) - commands)}")
    for p in problems:
        print(f"self-check FAILED: {p}")
    if not problems:
        print("self-check passed: 7 subcommands, every named metric, traced reports identical")
    return 1 if problems else 0


def write_golden(only=None):
    """Record the SHA-256 of every report of the default-seed streams (of one workload if given)."""
    load_program()
    import workloads

    with open(GOLDEN) as fh:
        digests = json.load(fh)["digests"]
    for workload in [only] if only else workloads.WORKLOADS:
        setup = Setup(workload, workloads.DEFAULT_SEED, golden=False)
        try:
            codes, _, _, wall = closed_loop(setup, "golden", count=len(setup.requests))
            failures = check_all(setup, "golden", codes)
            if failures:
                raise SystemExit(f"error: {workload} has failing requests: {failures[:5]}")
            digests[workload] = [
                hashlib.sha256(report_bytes(setup, "golden", i)).hexdigest() for i in range(len(codes))
            ]
        finally:
            setup.close()
        print(f"{workload}: {len(codes)} reports in {wall:.1f}s")
    with open(GOLDEN, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


def check_pool(only=None):
    """Send every request the pooled streams can hold and check every report;
    exit 1 if one fails."""
    load_program()
    import workloads

    failed = 0
    for workload in [only] if only else workloads.POOLED:
        if workload not in workloads.POOLED:
            raise SystemExit(f"error: {workload} has no pool")
        setup = Setup(workload, None, golden=False, stream=workloads.pool(workload))
        try:
            codes, _, _, wall = closed_loop(setup, "pool", count=len(setup.requests))
            failures = check_all(setup, "pool", codes)
        finally:
            setup.close()
        for _, i, reason in failures:
            req = setup.requests[i]
            print(f"FAILED {workload} {req.command} {req.member or req.shape} {req.args}: {reason}")
        failed += len(failures)
        print(f"{workload}: {len(codes)} pool requests in {wall:.1f}s, {len(failures)} failed")
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("twist-pipeline", "lie-brackets", "energy-grid"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--write-golden", action="store_true")
    mode.add_argument("--check-pool", action="store_true")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.self_check:
        return self_check()
    if args.write_golden:
        return write_golden(args.workload)
    if args.check_pool:
        return check_pool(args.workload)
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        setup = Setup(args.workload, args.seed)
        setup.close()
        print(json.dumps({"setup_s": setup.seconds, "normalized_s": setup.normalized_s}))
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
