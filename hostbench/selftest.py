"""Self-test of the benchmark itself (about a minute).

Usage (from the repository root)::

    python3 hostbench/selftest.py

Checks, with one short pass per run:

* every workload prints every end-to-end metric by name with its unit,
  and its JSON line reports exactly the metrics ``BENCHMARK.json`` names;
  ``--workload all`` runs the four in turn;
* the traced run prints every per-layer metric and passes its checks;
* on a seed no tuning used, the trace confirms the workload design: the
  ``core.iq`` share of traced time is higher on cell-seg than on
  cell-ideal, the cache + fabric + service share higher on service-mix
  than on sweep;
* no run leaves a process running once it has exited;
* the correctness gate trips (nonzero exit, ``correct: false``) on a
  deliberately corrupted expected digest;
* outside a full checkout the benchmark exits nonzero without a result;
* the generated inputs keep their stated properties on that seed: about
  half of the sweep lookups hit, about 40% of the service submissions
  repeat a key.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pools
import run

#: A seed not used while the benchmark was tuned.
HELD_OUT_SEED = 7919
TIMEOUT = 300


def session_members(session: int) -> list:
    """Pids of the live processes in ``session``."""
    members = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry.name))
    return members


def bench(*args: str, cwd: Path = run.ROOT,
          script: Path = run.HERE / "run.py"):
    """Run the benchmark in a session of its own; ``done.strays`` lists
    the processes of that session still alive the moment it has exited.
    Output goes to files, not pipes: a stray holding a pipe open would
    make the wait for end of output outlast it."""
    with tempfile.TemporaryFile("w+") as stdout, \
            tempfile.TemporaryFile("w+") as stderr:
        process = subprocess.Popen([sys.executable, str(script), *args],
                                   cwd=cwd, stdout=stdout, stderr=stderr,
                                   text=True, start_new_session=True)
        try:
            process.wait(timeout=TIMEOUT)
        finally:
            strays = session_members(process.pid)
            for pid in strays:
                os.kill(pid, signal.SIGKILL)
        stdout.seek(0)
        stderr.seek(0)
        done = subprocess.CompletedProcess(process.args, process.returncode,
                                           stdout.read(), stderr.read())
    done.strays = strays
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done, result


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list = []

    for workload in pools.WORKLOAD_NAMES:
        done, result = bench("--workload", workload, "--seed", "0",
                             "--seconds", "0.1", "--trace", "0")
        check(done.returncode == 0 and result and result["correct"],
              f"{workload}: exit 0 and correct", failures)
        check(not done.strays, f"{workload}: no process left running "
              f"{done.strays}", failures)
        for name, unit in run.END_TO_END.items():
            printed = any(line.split()[:1] == [name]
                          and line.split()[-1] == unit
                          for line in done.stdout.splitlines())
            check(printed, f"{workload}: prints {name} [{unit}]", failures)
        reported = (result or {}).get("metrics", {})
        check({m["name"]: m["unit"] for m in spec["end_to_end"]}
              == {name: value["unit"] for name, value in reported.items()},
              f"{workload}: JSON metrics match BENCHMARK.json end_to_end",
              failures)

    done, result = bench("--workload", "all", "--seed", "0",
                         "--seconds", "0.1")
    check(done.returncode == 0 and result and result["correct"]
          and all(f"hostbench {workload}:" in done.stdout
                  for workload in pools.WORKLOAD_NAMES)
          and len(result["metrics"]) == 4 * len(spec["end_to_end"]),
          "--workload all: runs every workload, exit 0, all metrics",
          failures)

    shares = {}
    for workload in pools.WORKLOAD_NAMES:
        done, result = bench("--workload", workload,
                             "--seed", str(HELD_OUT_SEED),
                             "--seconds", "0.1", "--trace", "1")
        check(done.returncode == 0 and result and result["correct"],
              f"traced {workload}: exit 0, wrappers fired, traced == "
              f"untraced", failures)
        check(not done.strays, f"traced {workload}: no process left "
              f"running {done.strays}", failures)
        metrics = (result or {}).get("metrics", {})
        check({m["name"]: m["unit"] for m in spec["per_layer"]}
              == {name: value["unit"] for name, value in metrics.items()},
              f"traced {workload}: JSON metrics match BENCHMARK.json "
              f"per_layer", failures)
        shares[workload] = {name: metrics.get(name, {}).get("value", 0.0)
                            for name in ("trace.core_iq_share",
                                         "trace.host_layers_share")}
    iq = {w: shares[w]["trace.core_iq_share"] for w in ("cell-seg",
                                                        "cell-ideal")}
    check(iq["cell-seg"] > iq["cell-ideal"],
          f"core.iq share: cell-seg {iq['cell-seg']:.2f} > cell-ideal "
          f"{iq['cell-ideal']:.2f}", failures)
    host = {w: shares[w]["trace.host_layers_share"] for w in ("service-mix",
                                                              "sweep")}
    check(host["service-mix"] > host["sweep"],
          f"cache+fabric+service share: service-mix "
          f"{host['service-mix']:.3f} > sweep {host['sweep']:.3f}", failures)

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        scratch = Path(scratch)
        expected = json.loads((run.HERE / "expected.json").read_text())
        victim = "gcc/ideal-128/default"
        digest = expected["cells"][victim][2]
        expected["cells"][victim][2] = ("0" if digest[0] != "0" else "1") \
            + digest[1:]
        corrupted = scratch / "expected.json"
        corrupted.write_text(json.dumps(expected))
        done, result = bench("--workload", "cell-ideal", "--seed", "0",
                             "--seconds", "0.1", "--expected", str(corrupted))
        check(done.returncode != 0 and result is not None
              and not result["correct"] and result["failed"] >= 1,
              "gate trips on a corrupted expected digest", failures)

        bare = scratch / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done, result = bench("--workload", "cell-seg", "--seed", "0",
                             "--seconds", "1", cwd=bare,
                             script=bare / run.HERE.name / "run.py")
        check(done.returncode != 0 and result is None,
              "without the source tree: nonzero exit, no result", failures)

    rng = random.Random(HELD_OUT_SEED)
    hit_share = pools.sweep_hit_share(pools.sweep_pass(rng))
    check(0.4 <= hit_share <= 0.55,
          f"held-out seed: sweep hit share {hit_share:.2f} ~ 0.5", failures)
    repeat_share = pools.service_repeat_share(pools.service_pass(rng))
    check(0.35 <= repeat_share <= 0.45,
          f"held-out seed: service repeat share {repeat_share:.2f} ~ 0.4",
          failures)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
