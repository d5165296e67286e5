"""The bench tracer's wrap points all exist in the library, and some see calls.

``bench/traced.py`` replaces functions at the module bindings their callers
use, so a refactor that drops one of those bindings breaks the traced bench,
and one that stops calling through a binding leaves its span at 0.  The
install runs in a child process, so none of its patching leaks into the
other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import noisymis

ROOT = Path(__file__).resolve().parents[1]

# install() stops at the first binding it cannot find; the child stubs each
# missing one and retries, so every missing binding is named in one run
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import traced

missing = []
while True:
    try:
        traced.install(traced.Tracer())
        break
    except AttributeError as exc:
        owner = exc.obj
        if owner is None or exc.name is None:
            raise
        prefix = owner.__name__ if isinstance(owner, type(sys)) else f"{owner.__module__}.{owner.__qualname__}"
        missing.append(f"{prefix}.{exc.name}")
        setattr(owner, exc.name, lambda *args, **kwargs: None)
print(json.dumps(missing))
"""


def test_tracer_finds_every_binding_it_wraps():
    env = {**os.environ, "PYTHONPATH": str(Path(noisymis.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "bench")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout)
    assert not missing, f"bench/traced.py wraps bindings the library no longer has: {', '.join(missing)}"


# runs the bench's two tiny workloads under the tracer and prints, after
# each one, the call count of every span so far
_LIVE_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import run, traced
import noisymis.cli

tracer = traced.Tracer()
traced.install(tracer)
counts = []
for name in ("gen-filter", "amplify"):
    wl = run.WORKLOADS[name]
    args = ["run", *wl.run_args, "--n", str(wl.tiny_n), "--seed", "1", "--trials", str(wl.trials), "--workers", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = noisymis.cli.main(args)
    if code != 0:
        sys.exit(f"noisymis {' '.join(args)} exited {code}")
    counts.append({span: stat["calls"] for span, stat in tracer.stats.items()})
print(json.dumps(counts))
"""


def test_tracer_counts_the_greedy_and_cover_calls():
    """The library calls its solvers, ``greedy_mis`` and ``vertex_cover_2approx`` through the bindings the tracer wraps.

    A tiny persistent trial must count calls on ``harness.trial``,
    ``oracle.setup``, ``persistent.run``, ``graph.indep`` and
    ``graph.greedy``, and a tiny amplify trial on ``baselines.amplify``,
    ``bandit.run``, ``bandit.elim``, ``bandit.cover_complement`` and
    ``graph.cover``, at the bench's ``--tiny`` shapes; ``graph.indep`` also
    counts the generator's own check, so it must count one call per trial
    beyond those.
    ``graph.induce`` is not asserted: no library path induces a subgraph,
    as the filter takes its greedy set and elimination its cover on the
    graph itself, so it reads 0 on every run.  ``graph.build`` also reads 0
    on gen-filter and on amplify, as both generators hand their rows to the
    CSR builder without ``build_graph``; only ``read_instance`` calls it.
    An event stream from inside the library (ROADMAP.md) is the planned fix
    for both.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(noisymis.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _LIVE_CHILD, str(ROOT / "bench")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    persistent, after_amplify = json.loads(proc.stdout)
    for span in ("harness.trial", "oracle.setup", "persistent.run", "graph.indep", "graph.greedy"):
        assert persistent[span] >= 1, span
    # each generated instance checks its planted set, and each trial its output through the harness
    assert persistent["graph.indep"] >= persistent["instances.gen"] + persistent["harness.trial"]
    for span in ("baselines.amplify", "bandit.run", "bandit.elim", "bandit.cover_complement", "graph.cover"):
        assert after_amplify[span] - persistent[span] >= 1, span


# one single query of each answer kind under the tracer: what it adds to the
# span's calls and queries, and to its oracle's ledger total
_SINGLE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import traced
from noisymis.oracle import Oracle, OracleConfig

tracer = traced.Tracer()
traced.install(tracer)
stat = tracer.stats["oracle.query"]
added = []
for mode, ask in (("persistent-random", Oracle.query_bool), ("bandit-gaussian", Oracle.query_real)):
    o = Oracle(np.arange(6) % 2 == 0, OracleConfig(epsilon=0.25, mode=mode, seed=7))
    calls, queries = stat["calls"], stat.get("queries", 0)
    ask(o, 2)
    added.append([stat["calls"] - calls, stat["queries"] - queries, o.total_queries])
print(json.dumps(added))
"""


def test_single_query_counts_once_under_the_tracer():
    """A single query enters the ``oracle.query`` span once and counts one query there and in the ledger.

    A single query that answered through a public batch method would enter
    the span a second time and count its query twice.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(noisymis.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _SINGLE_CHILD, str(ROOT / "bench")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[1, 1, 1], [1, 1, 1]]
