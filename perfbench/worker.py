"""One benchmark pass: run a list of stratify CLI commands in this process.

Usage: python3 perfbench/worker.py COMMANDS_JSON RESULT_JSON TRACE

COMMANDS_JSON holds [[name, argv], ...]. The commands run one after another
through ``stratify.cli.main``; each is timed on its own. RESULT_JSON receives
the exit code and seconds of each command, the peak resident memory of this
process, and, with TRACE=1, the spans and counters of the tracer. Imports
happen before the first timer starts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stratify import cli  # noqa: E402
from tracer import Tracer, install  # noqa: E402


def main(commands_path: str, result_path: str, trace: bool) -> int:
    commands = json.loads(Path(commands_path).read_text())
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    results = []
    for name, argv in commands:
        if tracer is not None:
            tracer.command = name
        start = time.perf_counter()
        with tracer.span(f"cli.{name}") if tracer is not None else nullcontext():
            rc = cli.main(argv)
        results.append({"name": name, "rc": rc, "seconds": time.perf_counter() - start})
    doc = {"commands": results,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        doc.update(spans=tracer.spans, counts=dict(tracer.counts),
                   self_times=tracer.self_times(), root_seconds=tracer.root_seconds())
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
