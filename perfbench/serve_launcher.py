"""Start ``repro serve`` for the benchmark, optionally traced.

    python3 perfbench/serve_launcher.py [--spans-out PATH] serve ARGS...

Run from the repository root.  Without ``--spans-out`` this is exactly
``repro.cli.main(["serve", ...])``.  With it, the per-layer wrappers of
:mod:`tracing` (plus the event-loop and admission-queue hooks) are
installed first, spans are kept in memory, and they are written to PATH
when the server exits after its SIGTERM drain.
"""

from __future__ import annotations

import sys

from common import require_program


def main(argv) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    require_program()
    rec = None
    if spans_out is not None:
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec, with_server=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if rec is not None:
            rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
