"""reqlattice benchmark: one closed-loop caller issuing CLI commands in-process.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each command goes through
``reqlattice.cli.run(argv)`` with ``--format json`` and starts only after the
previous one returned. A pass is one round of the workload's commands; passes
repeat for ``--seconds``. Every command is timed against the reference task
of ``reference.py`` run next to it; a command's time is the median of those
ratios over the passes, in reference seconds, and ``session_s`` is the sum
of those. ``--trace 1`` adds traced passes and reports per-layer metrics
(medians over traced passes) instead of end-to-end ones.
The last stdout line is the JSON result; details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_FIRST = 5  # set-up repeats before the first pass
SETUP_BETWEEN_PASSES = 2  # and after every untraced timed pass
MIN_PASSES = 3
PASS_CAP_S = 100  # stop adding passes past this, so a slow program still ends in time
DEFAULT_SEED = 0  # the seed whose output digests are stored in expected.json
REF_WARM_UP = 5  # reference tasks run untimed first: the earliest ones run slow

sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _program_modules():
    return {n: m for n, m in sys.modules.items() if n == "reqlattice" or n.startswith("reqlattice.")}


def _import_program():
    """Fresh import of the CLI; returns it and the seconds the import took.
    Modules imported before are put back afterwards, so the running session
    and the tracer keep using theirs."""
    kept = _program_modules()
    for name in kept:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("reqlattice.cli")
    took = time.perf_counter() - start
    if kept:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(kept)
    return cli, took


def _in_reference_s(wall, ref_before, ref_after):
    """A wall time as reference seconds: its ratio to the mean of the
    reference tasks run just before and just after it, times ``REF_S``."""
    return wall / ((ref_before + ref_after) / 2) * reference.REF_S


class SetUp:
    """Set-up repeats: a fresh import of the program plus generating and
    writing the workload's files, each between two reference tasks. Some run
    before the first pass and more between timed passes. Every repeat must
    give byte-identical files."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.spare = workdir / "again"  # later repeats write here
        self.times: list[tuple[float, float]] = []  # (import, generation) reference seconds
        self.digests = set()

    def _once(self, workdir):
        gc.collect()
        ref_before = reference.measure()
        cli, imported = _import_program()
        start = time.perf_counter()
        wl = workloads.build(self.name, self.seed, workdir)
        generated = time.perf_counter() - start
        ref_after = reference.measure()
        self.times.append((_in_reference_s(imported, ref_before, ref_after),
                           _in_reference_s(generated, ref_before, ref_after)))
        self.digests.add(tuple(sorted((f, corpora.sha256(t.encode())) for f, t in wl.files.items())))
        return cli, wl

    def first(self):
        """The set-up the session runs on, then the self-check: every corpus
        holds its stated sizes and the program loads every file but the probe."""
        cli, wl = self._once(self.workdir)
        self.input_digests = dict(next(iter(self.digests)))
        for _ in range(SETUP_FIRST - 1):
            self._once(self.spare)
        self.problems = [f"{fname} holds {got}, expected {want}"
                         for fname, (got, want) in wl.counts.items() if got != want]
        self.problems += _load_problems(wl, self.workdir)
        return cli, wl

    def again(self):
        for _ in range(SETUP_BETWEEN_PASSES):
            self._once(self.spare)

    def results(self):
        imports, generations = zip(*self.times)
        if len(self.digests) != 1:
            self.problems.append("generator output differs between set-up repeats")
        return ({"setup_s": statistics.median(i + g for i, g in self.times)},
                {"setup.import_s": statistics.median(imports),
                 "setup.generate_s": statistics.median(generations)})


def _load_problems(wl, workdir):
    corpus_io = importlib.import_module("reqlattice.corpus_io")
    problems = []
    for fname in sorted(wl.files):
        path = workdir / fname
        if wl.probe is not None and str(path) in wl.probe.argv:
            continue  # loading it is the defect the probe measures
        try:
            if fname.endswith(".reqalts.json"):
                corpus_io.load_alternatives(path)
            elif fname.endswith(".reqchange.json"):
                corpus = corpus_io.load_corpus(path.with_name(fname.replace(".reqchange", ".reqcorpus")))
                corpus_io.load_change_set(path, corpus)
            else:
                corpus_io.load_corpus(path)
        except Exception as exc:  # reported as a generator problem, never raised
            problems.append(f"{fname} does not load: {type(exc).__name__}: {exc}"[:300])
    return problems


def _run_op(cli, op):
    """Run one command; return (wall seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(op.argv)
        error = None if rc == 0 else f"exit {rc}: {err.getvalue().strip()[:300]}"
    except Exception as exc:  # the run never aborts: an uncaught error is a failed op
        error = type(exc).__name__
    return time.perf_counter() - start, out.getvalue(), error


def _digest(op, stdout):
    digest = corpora.sha256(stdout.encode("utf-8"))
    if op.out_file is not None:
        digest += ":" + corpora.sha256(op.out_file.read_bytes())
    return digest


def _check(op, stdout, error):
    if error:
        return error
    try:
        return op.check(json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, OSError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}"


class Session:
    """Runs passes, checks outputs and counts attempted and failed commands."""

    def __init__(self, cli, wl, expected):
        self.cli, self.wl, self.expected = cli, wl, expected
        self.digests: dict[str, str] = {}
        self.failures: list[dict] = []
        self.attempted = 0

    def run_pass(self, tracer=None):
        """One round of the workload's commands; returns, per command, its wall
        seconds and its time in reference seconds."""
        gc.collect()
        times = {}
        ref_before = reference.measure()
        for op in self.wl.ops:
            if tracer:
                tracer.begin_op(op.label)
            wall, stdout, error = _run_op(self.cli, op)
            if tracer:
                tracer.end_op(wall)
            ref_after = reference.measure()
            times[op.label] = (wall, _in_reference_s(wall, ref_before, ref_after))
            ref_before = ref_after
            self.attempted += 1
            problem = error
            if not error:
                digest = _digest(op, stdout)
                if op.label not in self.digests:  # first pass: full check
                    problem = _check(op, stdout, None)
                    if not problem and self.expected is not None:
                        want = self.expected.get(op.label)
                        if want is None:
                            problem = "no digest for this command in expected.json"
                        elif digest != want:
                            problem = "output digest differs from expected.json"
                    self.digests[op.label] = digest
                elif digest != self.digests[op.label]:
                    problem = "output differs from the first pass"
            if problem:
                self.failures.append({"op": op.label, "error": problem})
        return times

    def timed_passes(self, seconds, started, between, tracer=None):
        """Passes for ``seconds``, calling ``between`` after each untraced
        one. With a tracer each round is an untraced pass followed by a
        traced one, so drift hits both sides alike."""
        plain, traced, layers = [], [], []
        begin = time.perf_counter()
        while True:
            plain.append(self.run_pass())
            between()
            if tracer:
                tracer.install()
                try:
                    traced.append(self.run_pass(tracer))
                finally:
                    tracer.uninstall()
                layers.append(tracer.take())
            now = time.perf_counter()
            if now - begin >= seconds and len(plain) >= (2 if tracer else MIN_PASSES):
                break
            if now - started > PASS_CAP_S:
                break
        return plain, traced, layers


def _command_times(wl, passes):
    """Each command's median time over the passes, in reference seconds."""
    return {op.label: statistics.median(p[op.label][1] for p in passes) for op in wl.ops}


def _command_metrics(wl, times):
    out = {}
    for op in wl.ops:
        if op.units > 1:
            out[f"{op.argv[0]}_op_ms"] = times[op.label] / op.units * 1000
        else:
            out[f"{op.argv[0]}_s"] = times[op.label]
    return out


def _warm_up(session, measure_rss):
    """The untimed first pass; meanwhile a fresh child process runs one pass
    of the same commands and reports its peak memory in MB."""
    if not measure_rss:
        session.run_pass()
        return None
    # the child writes its --out corpus beside the parent's, not over it
    argvs = json.dumps([[f"{a}.rss" if op.out_file and a == str(op.out_file) else a for a in op.argv]
                        for op in session.wl.ops])
    child = subprocess.Popen([sys.executable, str(HERE / "rss_pass.py"), argvs], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        session.run_pass()
        out, err = child.communicate(timeout=150)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode:
        raise RuntimeError(f"rss_pass.py failed: {err.strip()[-300:]}")
    return int(out.split()[-1]) / 1024


def _measure(args, started, workdir, tag):
    for _ in range(REF_WARM_UP):
        reference.measure()
    setup = SetUp(args.workload, args.seed, workdir)
    cli, wl = setup.first()
    expected = None
    if args.seed == DEFAULT_SEED:
        stored = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        expected = stored["digests"].get(args.workload, {})

    session = Session(cli, wl, expected)
    metrics = {}
    peak = _warm_up(session, measure_rss=not args.trace)
    if peak is not None:
        metrics["peak_rss_mb"] = peak
    tracer = Tracer() if args.trace else None
    passes, traced, layer_passes = session.timed_passes(args.seconds, started, setup.again, tracer)
    setup_metrics, setup_layers = setup.results()
    metrics.update(setup_metrics)
    times = _command_times(wl, passes)
    commands = _command_metrics(wl, times)
    metrics["session_s"] = sum(times.values())

    layers, calls_per_command = {**commands, **setup_layers}, {}
    # the host-speed figures behind the reference seconds, for reading a run
    layers["session_wall_s"] = sum(min(p[op.label][0] for p in passes) for op in wl.ops)
    layers["reference.task_s"] = statistics.median(
        p[op.label][0] / p[op.label][1] * reference.REF_S for p in passes for op in wl.ops)
    if tracer:
        tracer.write(OUT / f"spans-{tag}.jsonl")
        for name in {k for p, _ in layer_passes for k in p}:
            layers[name] = statistics.median(p.get(name, 0.0) for p, _ in layer_passes)
        calls_per_command = layer_passes[-1][1]
        layers["trace.overhead_ratio"] = sum(_command_times(wl, traced).values()) / metrics["session_s"] - 1

    probe = None
    if wl.probe is not None:  # reported on its own: it never enters the timings
        _wall, stdout, error = _run_op(cli, wl.probe)
        probe = {"op": wl.probe.label, "error": _check(wl.probe, stdout, error)}
    failed = len(session.failures)
    probe_failed = int(bool(probe and probe["error"]))
    layers["fail_ratio"] = (failed + probe_failed) / (session.attempted + (probe is not None))
    layers["probe.chain_3000.failed"] = probe_failed

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "timed_passes": len(passes), "commands_per_pass": len(wl.ops),
        "pass_times": passes,  # per pass and command: [wall s, reference s]
        "attempted": session.attempted, "failures": session.failures,
        "generator_problems": setup.problems, "probe": probe,
        "input_digests": setup.input_digests, "output_digests": session.digests,
        "end_to_end": metrics, "commands": commands, "per_layer": layers,
        "calls_per_command": calls_per_command,
    }


def _summary(res) -> None:
    print(f"workload {res['workload']}, seed {res['seed']}: {res['commands_per_pass']} commands "
          f"per pass, {res['timed_passes']} timed passes, {res['attempted']} commands, "
          f"{len(res['failures'])} failed")
    for name, value in sorted({**res["end_to_end"], **res["commands"]}.items()):
        print(f"  {name:<20} {value:12.4f}")
    for failure in res["failures"][:10]:
        print(f"  FAILED {failure['op']}: {failure['error']}")
    for problem in res["generator_problems"]:
        print(f"  GENERATOR {problem}")
    if res["probe"]:
        error = res["probe"]["error"]
        print(f"  probe {res['probe']['op']}: {f'failed ({error})' if error else 'passed'}; "
              f"fail_ratio {res['per_layer']['fail_ratio']:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "reqlattice" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout holding src/reqlattice and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    try:
        res = _measure(args, started, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"results-{tag}.json").write_text(json.dumps(res, indent=2, sort_keys=True) + "\n")
    _summary(res)

    if args.trace:
        values = {m["name"]: res["per_layer"].get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        values = {m["name"]: res["end_to_end"][m["name"]] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    print(json.dumps({
        "correct": not res["failures"] and not res["generator_problems"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
