"""Long qparity ladder: file-to-verdict solve time and peak memory at large n.

    PYTHONPATH=src python3 tools/long_ladder.py

For every n in ``SIZES``, a fresh interpreter writes ``qparity(n)`` and
its width-2 decomposition with ``trunkqbf gen`` into a temporary
directory, then solves them ``REPEATS`` times through
``trunkqbf.cli.main(["solve", F.qdimacs, "--td", F.btd, "--trivial-poset"])``
in that process, with standard output captured, as ``bench/run.py``
does.  It prints one JSON line per n: the best and every solve time in
ms and the interpreter's ``ru_maxrss`` in MB.  One interpreter per n
keeps the memory peak of one size out of the next size's reading.

Every solve must return the known verdict, FALSE; otherwise the script
exits 1.  Times are raw wall times, not scaled to a reference speed, so
compare two trees only by runs that alternate between them.  The gated ladder
of ``bench/run.py`` stops at n = 128, where fixed per-solve costs hide
terms that grow faster than n; this one is reported, not gated.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SIZES = (256, 512, 1024, 2048)
REPEATS = 3


def measure(n: int) -> dict:
    """Solve qparity(n) ``REPEATS`` times in this process."""
    from trunkqbf import cli

    with tempfile.TemporaryDirectory() as work:
        stem = str(Path(work) / f"qparity-{n}")
        if cli.main(["gen", "qparity", str(n), stem]) != 0:
            raise SystemExit(f"could not write qparity({n})")
        argv = ["solve", f"{stem}.qdimacs", "--td", f"{stem}.btd", "--trivial-poset"]
        times = []
        for _ in range(REPEATS):
            started = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times.append((perf_counter() - started) * 1000)
            if code != cli.EXIT_FALSE:
                raise SystemExit(f"qparity({n}) exited {code}, expected {cli.EXIT_FALSE}")
    return {
        "n": n,
        "best_ms": round(min(times), 1),
        "solves_ms": [round(t, 1) for t in times],
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main() -> int:
    tools = str(Path(__file__).resolve().parent)
    for n in SIZES:
        code = (
            f"import json, sys; sys.path.insert(0, {tools!r}); "
            f"from long_ladder import measure; print(json.dumps(measure({n})))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
