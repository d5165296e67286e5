"""The bench tracer's wrap points all exist in the library.

``bench/traced.py`` replaces functions at the module bindings their callers
use, so a refactor that drops one of those bindings breaks the traced bench.
The install runs in a child process, so none of its patching leaks into the
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
