"""``repro serve`` with every layer of :mod:`layers` wrapped.

The benchmark's traced launch of the service::

    python3 perfbench/traced_serve.py PREFIX -q serve --port 0 ...

Every SIGUSR1 writes the layer counters to ``PREFIX.<n>.json``
(``n`` = 0, 1, ...); at exit the counters and the recorded spans go to
``PREFIX.final.json``.
"""

import json
import os
import signal
import sys
from pathlib import Path

from layers import LayerTracer


def _write(path, data):
    tmp = Path(f"{path}.tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


def main(argv):
    prefix = argv[0]
    tracer = LayerTracer().install()
    marks = []

    def on_mark(signum, frame):
        _write(f"{prefix}.{len(marks)}.json", tracer.totals())
        marks.append(signum)

    signal.signal(signal.SIGUSR1, on_mark)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        _write(f"{prefix}.final.json",
               dict(tracer.totals(), spans=tracer.spans(), pid=os.getpid(),
                    missing=tracer.missing))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
