"""Closed-loop query benchmark for diagalg.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload finite_q --seed 1 --seconds 20 --trace 0

One client in one process asks queries one after another, each through
``diagalg.cli.main(argv)`` with stdout captured (or, for the tree and
family certificates without a CLI command, by a direct call).  Queries come
in pools: every stratum of the workload once, with values drawn from the
seed and the pool's index by the benchmark's own arithmetic.  Pools are
asked until their wall-clock query time reaches ``--seconds`` (at least
one pool); each is built before and checked against the truth its
construction fixes after its timed region.

Query times are calibrated to a reference machine speed (see
``calibrate.py``): on a shared machine the raw times drift by up to a third
within a minute, which would bury the differences the benchmark exists to
show.  The raw wall-clock throughput and the machine speed are printed next
to the calibrated figures.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``throughput_qps`` (median over pools), the 50th and
90th percentile of all query latencies, ``setup_s`` (raw median wall time
of fresh interpreters importing diagalg and answering one trivial query,
sampled between pools) and ``peak_rss_mb``.  With ``--trace 1`` the same pools are asked again
with every layer in ``layers.py`` wrapped; it reports per-layer metrics per
pool plus ``trace.overhead`` (untraced over traced time on those pools) and
writes the spans to ``.bench_out/`` in the checkout.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Clock
from layers import metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 11
SETUP_QUERY = ["diag-finite", "--field", "Q", "--text", "[[0,1],[1,0]]"]


class Program:
    """The diagalg modules the queries call, imported from the checkout."""

    def __init__(self):
        if not (SRC / "diagalg" / "__init__.py").is_file():
            raise ImportError(f"no diagalg sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import diagalg
        from diagalg import cli, idempotents, textio, treegen

        if Path(diagalg.__file__).resolve().parent != (SRC / "diagalg").resolve():
            raise ImportError(f"diagalg imported from {diagalg.__file__}, not the checkout")
        self.cli = cli
        self.textio = textio
        self.treegen = treegen
        self.idempotents = idempotents

    def ask(self, q):
        """Answer one query: (exit code, captured report or returned object)."""
        if q.argv is not None:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(q.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed query, not a verdict
                return -1, f"{type(exc).__name__}: {exc}"
            return code, buf.getvalue()
        kind, a, b = q.direct
        try:
            if kind == "nce":
                return 0, self.treegen.no_common_eigenvector(
                    self.textio.parse_tree(a, verify_on_load=False), b)
            if kind == "discreteness":
                return 0, self.treegen.discreteness_witness(
                    self.textio.parse_tree(a, verify_on_load=False))
            if kind == "families":
                return 0, self.idempotents.simultaneous_diagonalize_families(
                    self.textio.parse_family(a), self.textio.parse_family(b))
            ops = [self.textio.parse_operator(t) for t in a]
            return 0, self.idempotents.common_eigenvector_search(ops, b)
        except Exception as exc:
            return -1, f"{type(exc).__name__}: {exc}"


def make_pool(workload, seed, index):
    """The ``index``-th pool of a workload: every stratum once, values drawn
    from (workload, seed, index), in a shuffled order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    queries = WORKLOADS[workload](rng)
    rng.shuffle(queries)
    return queries


class Tally:
    """Checked answers: attempted, failed, and (stratum, reason) per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, queries, answers):
        for q, (code, out) in zip(queries, answers):
            self.attempted += 1
            try:
                reason = q.check(code, out)
            except Exception as exc:  # a malformed report fails its query
                reason = f"unreadable answer: {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append((q.stratum, reason))


def ask_pool(prog, queries, clock, tracer=None, roots=None):
    """Ask every query once, in order, sampling the calibration clock
    between queries.  Returns the calibrated latencies, the raw wall time
    of the queries and the answers."""
    started = []
    raw = []
    answers = []
    for q in queries:
        clock.tick()
        if tracer is not None:
            with tracer.span("query:" + q.command) as idx:
                t0 = time.perf_counter()
                answers.append(prog.ask(q))
                raw.append(time.perf_counter() - t0)
            roots[idx] = q
        else:
            t0 = time.perf_counter()
            answers.append(prog.ask(q))
            raw.append(time.perf_counter() - t0)
        started.append(t0)
    clock.sample()
    latencies = [dt * clock.factor(t0) for t0, dt in zip(started, raw)]
    return latencies, sum(raw), answers


def run_pools(prog, workload, seed, tally, clock, seconds=None, count=None, tracer=None,
              roots=None, between=None):
    """Ask pools 0, 1, ... until their raw query time reaches ``seconds``
    (at least one pool), or exactly ``count`` pools.  Each pool is built
    before and checked after its timed region, then ``between`` is called.
    Returns per pool (query count, calibrated time, raw time) and all
    calibrated latencies."""
    pools = []
    latencies = []
    while True:
        queries = make_pool(workload, seed, len(pools))
        lat, raw, answers = ask_pool(prog, queries, clock, tracer, roots)
        tally.check(queries, answers)
        if between is not None:
            between()
        pools.append((len(queries), sum(lat), raw))
        latencies += lat
        if count is not None:
            if len(pools) == count:
                return pools, latencies
        elif sum(p[2] for p in pools) >= seconds:
            return pools, latencies


class SetupTimer:
    """Wall times of fresh interpreters importing diagalg and answering one
    trivial query.  Samples are taken between pools, so the median spans the
    run's drift in machine speed.  Not calibrated: the calibration loop, run
    in this process, does not track another process's start-up."""

    CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from diagalg.cli import main; "
            "sys.exit(main(sys.argv[2:]))")

    def __init__(self):
        self.times = []
        self.run()  # the first start writes the bytecode caches

    def run(self):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", self.CODE, str(SRC), *SETUP_QUERY],
                             cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             timeout=60, check=False)
        dt = time.perf_counter() - t0
        if res.returncode != 0 or json.loads(res.stdout)["verdict"] != "diagonalizable":
            raise RuntimeError(f"set-up query failed: {res.stderr.decode()[-300:]}")
        return dt

    def sample(self):
        self.times.append(self.run())

    def median(self):
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(pools, latencies):
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "throughput_qps": statistics.median(n / t for n, t, _ in pools),
        "raw_qps": statistics.median(n / raw for n, _, raw in pools),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90 * 1000,
        "samples": len(latencies),
        "beyond_p90": sum(1 for t in latencies if t > p90),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prog = Program()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    for q in {q.command: q for q in make_pool(args.workload, args.seed, 0)}.values():
        prog.ask(q)  # first use of each command pays its lazy imports
    tally = Tally()
    clock = Clock()
    setup = None if args.trace else SetupTimer()
    pools, lat = run_pools(prog, args.workload, args.seed, tally, clock, seconds=args.seconds,
                           between=setup.sample if setup else None)
    e2e = end_to_end(pools, lat)
    lines = [f"workload {args.workload} seed {args.seed}: {len(pools)} pools of "
             f"{pools[0][0]} queries"]
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        sites = tracer.install()
        missing = [name for name, s in sites.items() if not s]
        if missing:
            print(f"no binding site found for {missing}", file=sys.stderr)
            return 2
        roots = {}
        try:
            traced_clock = Clock()
            traced, _ = run_pools(prog, args.workload, args.seed, tally, traced_clock,
                                  count=len(pools), tracer=tracer, roots=roots)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics(len(pools), traced_clock.overall())
        # the same pools both ways: total untraced over total traced time
        values["trace.overhead"] = sum(p[1] for p in pools) / sum(p[1] for p in traced)
        units = metric_units()
        metrics = {name: metric(values[name], units[name][0]) for name in units}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.tsv")
        lines.append(f"traced: {len(traced)} pools, {len(tracer.span_name)} spans, "
                     f"overhead {values['trace.overhead']:.3f}")
        by_command = {}
        for q, row in tracer.breakdown(roots).items():
            cmd = by_command.setdefault(q.command, {})
            for name, t in row.items():
                cmd[name] = cmd.get(name, 0.0) + t
        for cmd, row in sorted(by_command.items()):
            total = sum(row.values())
            top = sorted(row.items(), key=lambda kv: -kv[1])[:6]
            lines.append(f"  {cmd:<24} {total / len(pools):8.3f} s/pool: " + ", ".join(
                f"{name} {t / total:.0%}" for name, t in top))
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "throughput_qps": metric(e2e["throughput_qps"], "1/s"),
            "latency_p50_ms": metric(e2e["latency_p50_ms"], "ms"),
            "latency_p90_ms": metric(e2e["latency_p90_ms"], "ms"),
            "setup_s": metric(setup.median(), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }

    attempted, failed = tally.attempted, len(tally.failures)
    for stratum, reason in tally.failures:
        print(f"FAILED: {stratum}: {reason}", file=sys.stderr)
    if not args.trace:
        lines.append(f"  {'throughput_qps':<16}{e2e['throughput_qps']:12.4f} 1/s "
                     f"(raw wall clock {e2e['raw_qps']:.4f}; machine speed "
                     f"{clock.overall():.3f} of the reference)")
        lines.append(f"  {'latency_p50_ms':<16}{e2e['latency_p50_ms']:12.4f} ms")
        lines.append(f"  {'latency_p90_ms':<16}{e2e['latency_p90_ms']:12.4f} ms "
                     f"({e2e['samples']} samples, {e2e['beyond_p90']} beyond p90)")
        lines.append(f"  {'error_rate':<16}{failed / attempted:12.4f} ratio "
                     f"({failed} of {attempted})")
        lines.append(f"  {'setup_s':<16}{metrics['setup_s']['value']:12.4f} s")
        lines.append(f"  {'peak_rss_mb':<16}{metrics['peak_rss_mb']['value']:12.4f} MB")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
