"""End-to-end and per-layer benchmark of the gcproi CLI.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload season --seed 7 --seconds 45 --trace 0
    python3 benchmarks/run.py            # every workload, untraced then traced

Set-up generates the workload's games/salaries pair with ``gcproi synth``
(three times; ``setup_s`` is the median, and times the CLI's write path)
and prepares the expected values for the output checks. Nothing large is
committed.

``--trace 0`` runs the TIMED subcommands, each in its own child process and
one at a time (a closed loop with one client), cycling through them until
``--seconds`` have passed. Each ``<subcommand>_s`` metric is the median
time of that subcommand's invocations; ``peak_rss_mb`` is the highest
``ru_maxrss`` of any child, read with ``os.wait4``. Each set-up and
invocation time is its wall time scaled to the host's speed at the time
(see HostClock); the wall times are printed above the result.

``--trace 1`` calls ``gcproi.cli.main`` in this process for every
subcommand in SUBCOMMANDS, once untraced and once with spans around every
public function of every layer module (see spans.py), and reports self
times and counts per layer, prefixed by the subcommand. It also writes the
workload's data in the raw-stats schema and parses it back, under the
prefix ``raw``. One pass always runs; another only if it fits in
``--seconds``.

Every invocation's output is checked (checks.py); one that exits non-zero or
fails its check counts as failed. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

#: Interpreter hash seed for this process and every child. ``gcproi synth``
#: draws the fractional fields in frozenset order, which follows the string
#: hash seed, so without a fixed one the same --seed writes a different
#: games.csv in every process.
HASH_SEED = "0"

#: Rows of reference_work, and its median time over 538 samples on the host
#: the scale was taken on (2 vCPUs of a shared Intel Xeon, CPython 3.11).
#: Scaled times read as seconds on that host at its median speed.
REF_ROWS = 120_000
REF_S = 0.24


def reference_work() -> float:
    """Fixed pure-Python work that uses no gcproi code: format a table of
    floats as CSV text, parse it back and sum it by key, as the CLI does
    with its inputs."""
    lines = [f"K{i % 97},{i * 0.37:.6f},{i % 13}" for i in range(REF_ROWS)]
    totals: dict[str, float] = {}
    for key, value, count in csv.reader(lines):
        totals[key] = totals.get(key, 0.0) + float(value) * int(count)
    return sum(totals.values())


class HostClock:
    """Scales wall times to the speed of the host at the time.

    The host is shared, and its speed changes from second to second: the
    time of reference_work switches between about 0.15 s and 0.28 s in
    spells of several seconds, and a run's median CLI times differ by up to
    30% from run to run. An interval's wall time is divided by the mean of
    reference samples taken just before and just after it, and multiplied by
    REF_S. Over ten seeds per workload this cut the spread (IQR over median)
    of the per-run medians from 0.09-0.29 to 0.04-0.11.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        # reference_work makes no cycles; with the collector on, its
        # allocations would trigger full collections over this process's
        # copy of the dataset, which the CLI children do not pay for.
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def scale(self, wall: float) -> float:
        """Sample the reference, then scale the wall time of an interval
        that ran since the previous sample."""
        self.sample()
        return wall * REF_S / statistics.fmean(self.samples[-2:])


@dataclass(frozen=True)
class Workload:
    seed: int
    teams: int
    games_per_team: int
    io_flags: tuple[str, ...]

    def synth_config(self, seed: int) -> dict:
        return dict(seed=seed, teams=self.teams, games_per_team=self.games_per_team,
                    roster_min=13, roster_max=17, miss_prob=0.15)


# season: one NBA-scale season (1,230 games, ~445 players); the per-player
# paths (player_schedule, cash flows) carry the load.
# contracts: five seasons of contract length for ~99 players (1,230 games,
# 410-slot series); parse and GCP carry the load, the solver sees the
# longest series, and output goes through the JSON/repr path.
WORKLOADS = {
    "season": Workload(seed=7, teams=30, games_per_team=82, io_flags=()),
    "contracts": Workload(seed=11, teams=6, games_per_team=410,
                          io_flags=("--format", "json", "--full-precision")),
}

#: Subcommands run by the traced run, in order.
SUBCOMMANDS = ("roi", "pvgcp-board", "histogram", "gcp", "compare", "validate", "synth")

#: Subcommands timed as CLI children, in round order, with their metric
#: names. roi runs every layer the CLI reads with: parse, GCP, finance,
#: reporting and output; gcp is almost pure parse. The write path is timed
#: by set-up, which is three ``gcproi synth`` invocations (setup_s). The
#: other subcommands run subsets of roi's path, or add one function
#: (validate_dataset), and are left to the traced run: on a 2-CPU host one
#: invocation varies by about 20%, and a run of 45 s holds six or seven
#: invocations of each of two subcommands, but only two or three of each of
#: four, too few for a steady median.
TIMED = {"roi": "roi_s", "gcp": "gcp_s"}


def synth_argv(cfg: dict, out_dir: Path) -> list[str]:
    return ["synth", "--seed", str(cfg["seed"]), "--teams", str(cfg["teams"]),
            "--games", str(cfg["games_per_team"]),
            "--roster-min", str(cfg["roster_min"]), "--roster-max", str(cfg["roster_max"]),
            "--miss-prob", str(cfg["miss_prob"]), "--out-dir", str(out_dir)]


def sub_argv(sub: str, wl: Workload, cfg: dict, inputs: Path, out: Path, exp) -> list[str]:
    if sub == "synth":
        return synth_argv(cfg, out)
    argv = [sub, "--games", str(inputs / "games.csv")]
    if sub in ("roi", "pvgcp-board"):
        argv += ["--salaries", str(inputs / "salaries.csv")]
    elif sub == "gcp":
        argv += ["--game-id", exp.game_id]
    elif sub == "compare":
        argv += ["--player-a", exp.pair[0], "--player-b", exp.pair[1]]
    return argv + ["--out", str(out), *wl.io_flags]


def invoke(argv: list[str], stderr_path: Path) -> tuple[float, int, float]:
    """Run ``gcproi <argv>`` in a child process and wait for it.
    Returns (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gcproi.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: stop the child too
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def count_rows(csv_path: Path) -> int:
    """Data rows of a CSV written by gcproi: lines after the header."""
    with open(csv_path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def output_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir())
    return path.stat().st_size


def git_sha() -> str | None:
    """HEAD of the repository this file is in, read without running git;
    None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One benchmark run: set-up, then the untraced or traced measurement."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path, checks) -> None:
        self.name, self.seed, self.seconds, self.work = name, seed, seconds, work
        self.checks = checks
        self.wl = WORKLOADS[name]
        self.cfg = self.wl.synth_config(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, str] = {}
        self.clock = HostClock()

    def record(self, sub: str, out: Path, returncode: int, stderr: Path | None) -> None:
        """Count one invocation and check its output."""
        self.attempted += 1
        if returncode != 0:
            detail = stderr.read_text(errors="replace").strip()[-300:] if stderr else ""
            self.failures.append(f"{sub} exited {returncode}: {detail}")
            return
        if out.is_file():
            self.outputs[sub] = self.checks.sha256(out)
        reason = self.checks.check(sub, out, self.exp)
        if reason is not None:
            self.failures.append(reason)

    # -- set-up --------------------------------------------------------
    def setup(self) -> None:
        """Generate the inputs SETUP_REPEATS times, timing and checking
        each copy, and prepare the expected outputs. The last copy is used."""
        recorded = self._recorded()
        times, walls = [], []
        self.clock.sample()
        for i in range(SETUP_REPEATS):
            inputs = self.work / f"inputs{i}"
            start = time.perf_counter()
            _, rc, _ = invoke(synth_argv(self.cfg, inputs), self.work / "setup.err")
            if rc != 0:
                raise SystemExit(f"error: gcproi synth exited {rc} during set-up: "
                                 + (self.work / "setup.err").read_text(errors="replace"))
            digests = {n: self.checks.sha256(inputs / n) for n in ("games.csv", "salaries.csv")}
            self.attempted += 1
            if recorded and digests != recorded["inputs"]:
                self.failures.append(f"set-up: gcproi synth wrote {self.name} inputs for seed "
                                     f"{self.seed} that differ from the recorded digests")
            walls.append(time.perf_counter() - start)
            times.append(self.clock.scale(walls[-1]))
        self.setup_times = {"scaled": times, "wall": walls}
        self.inputs = inputs
        self.input_digests = digests
        # Data rows per games file, for the ingest.rows counter.
        self.rows = {str(inputs / "games.csv"): count_rows(inputs / "games.csv")}
        self.exp, self.ds = self.checks.expected(
            self.cfg, as_json="json" in self.wl.io_flags,
            full_precision="--full-precision" in self.wl.io_flags,
            inputs=digests, digests=recorded["outputs"] if recorded else None)
        return statistics.median(times)

    def _recorded(self) -> dict | None:
        table = json.loads((HERE / "digests.json").read_text())
        entry = table.get(self.name)
        return entry if entry and entry["seed"] == self.seed else None

    def argv(self, sub: str, out: Path) -> list[str]:
        return sub_argv(sub, self.wl, self.cfg, self.inputs, out, self.exp)

    def out_path(self, sub: str) -> Path:
        return self.work / ("synth_out" if sub == "synth" else f"{sub}.out")

    # -- untraced: CLI in child processes --------------------------------
    def measure_cli(self) -> dict[str, float]:
        times: dict[str, list[float]] = {sub: [] for sub in TIMED}
        walls: dict[str, list[float]] = {sub: [] for sub in TIMED}
        peak = 0.0
        self.clock.sample()
        deadline = time.perf_counter() + self.seconds
        n = 0
        # Cycle the subcommands one invocation at a time until the deadline,
        # always completing at least one round.
        while n < len(TIMED) or time.perf_counter() < deadline:
            sub = list(TIMED)[n % len(TIMED)]
            out = self.out_path(sub)
            remove(out)
            err = self.work / f"{sub}.err"
            elapsed, rc, rss = invoke(self.argv(sub, out), err)
            walls[sub].append(elapsed)
            times[sub].append(self.clock.scale(elapsed))
            peak = max(peak, rss)
            self.record(sub, out, rc, err)
            n += 1
        metrics = {TIMED[s]: statistics.median(v) for s, v in times.items()}
        metrics["setup_s"] = statistics.median(self.setup_times["scaled"])
        metrics["peak_rss_mb"] = peak
        self.times = {kind: {"set-up": self.setup_times[kind], **by_sub}
                      for kind, by_sub in (("scaled", times), ("wall", walls))}
        return metrics

    # -- traced: cli.main in process -------------------------------------
    def measure_layers(self, import_s: float) -> dict[str, float]:
        from gcproi import cli, ingest

        passes: list[dict[str, float]] = []
        start = time.perf_counter()
        while True:
            metrics: dict[str, float] = {"cli.import_s": import_s}
            for sub in SUBCOMMANDS:
                prefix = sub.replace("-", "_")
                out = self.out_path(sub)
                argv = self.argv(sub, out)
                untraced = self._in_process(sub, out, lambda: cli.main(argv))
                tracer = spans.Tracer(self.rows)
                with tracer:
                    self._in_process(sub, out, lambda: cli.main(argv))
                metrics.update(self._layer(tracer, prefix))
                metrics[f"{prefix}.cli.output_bytes"] = output_bytes(out)
                metrics[f"{prefix}.untraced_s"] = untraced
                metrics[f"{prefix}.trace_overhead_s"] = metrics[f"{prefix}.traced_s"] - untraced

            raw = self.work / "raw_games.csv"
            ingest.write_raw_games_csv(self.ds, raw)
            self.rows[str(raw)] = count_rows(raw)
            tracer = spans.Tracer(self.rows)
            gc.collect()
            with tracer:
                parsed = tracer.span("ingest.parse_games_raw",
                                     tracer.original("ingest.parse_games"), raw, fmt="raw")
            self.attempted += 1
            if parsed != self.ds:
                self.failures.append("the raw-schema round trip changed the dataset")
            del parsed
            metrics.update(self._layer(tracer, "raw"))
            passes.append(metrics)
            # Another pass only if one of average length ends within --seconds.
            elapsed = time.perf_counter() - start
            if elapsed / len(passes) * (len(passes) + 1) > self.seconds:
                break
        # Counts repeat exactly between passes; times take the median.
        return {k: statistics.median(p[k] for p in passes) for k in passes[0]}

    def _in_process(self, sub: str, out: Path, call) -> float:
        remove(out)
        gc.collect()
        start = time.perf_counter()
        rc = call()
        elapsed = time.perf_counter() - start
        self.record(sub, out, rc, None)
        return elapsed

    def _layer(self, tracer, prefix: str) -> dict[str, float]:
        metrics = spans.layer_metrics(tracer.spans, prefix)
        total = spans.root_time(tracer.spans)
        self_sum = sum(spans.self_times(tracer.spans).values())
        if not abs(self_sum - total) <= 1e-9 + 1e-9 * total:
            self.failures.append(f"{prefix}: self times sum to {self_sum}, traced total {total}")
        metrics[f"{prefix}.traced_s"] = total
        return metrics

    def run_record(self) -> dict:
        games = self.inputs / "games.csv"
        return {
            "interpreter": f"{sys.implementation.name} {sys.version.split()[0]}",
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "workload": self.name,
            "seed": self.seed,
            "recorded_seed": self.wl.seed,
            "synth": self.cfg,
            "games": len(self.ds.games),
            "lines": self.rows[str(games)],
            "players": len(self.exp.salaried),
            "inputs": {n: {"bytes": (self.inputs / n).stat().st_size, "sha256": d}
                       for n, d in self.input_digests.items()},
            "outputs_sha256": self.outputs,
            "oracle_fallback": self.exp.oracle_fallback,
        }


def import_gcproi() -> float:
    """Import the CLI for the first time in this process; returns seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gcproi.cli  # noqa: F401
    return time.perf_counter() - start


def result_line(spec: dict, key: str, values: dict[str, float], run: Run) -> str:
    metrics = {}
    for m in spec[key]:
        spans.check_metric_name(m["name"])
        if m["name"] not in values:
            run.failures.append(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return json.dumps({"correct": not run.failures, "attempted": run.attempted,
                       "failed": len(run.failures), "metrics": metrics})


def run_one(spec: dict, args) -> int:
    import_s = import_gcproi()
    import checks  # imports gcproi, so only after the timed first import

    seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        run = Run(args.workload, seed, args.seconds, Path(tmp), checks)
        run.setup()
        if args.trace:
            key, values = "per_layer", run.measure_layers(import_s)
        else:
            key, values = "end_to_end", run.measure_cli()
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        print(f"# {args.workload} seed={seed} trace={args.trace}")
        if not args.trace:
            run.times["wall"]["reference_work"] = run.clock.samples
            for kind, by_sub in run.times.items():
                for sub, samples in by_sub.items():
                    print(f"{sub} {kind} s, {len(samples)} samples: "
                          + " ".join(f"{t:.3f}" for t in samples))
        for name in sorted(values):
            print(f"{name:<48} {values[name]:>14.6g} {units.get(name, '')}")
        result = result_line(spec, key, values, run)
        for reason in run.failures:
            print(f"FAILED: {reason}")
        print("run record: " + json.dumps(run.run_record(), sort_keys=True))
        print(result)
    return 0


def run_all(spec: dict, args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            ok = ok and proc.returncode == 0 and json.loads(last[0]).get("correct", False)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=None,
                        help="synth seed (default: the workload's recorded seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so children are stopped and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gcproi" / "cli.py").is_file():
        print(f"error: no gcproi sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(spec, args)
    return run_one(spec, args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
