"""One child process of the benchmark: time `import hardykit.cli`, then run one CLI task.

    python3 bench/child.py RESULT_JSON SRC_DIR MODE [CLI_ARG ...]

MODE is `import` (time the import only), `run` (then call
`hardykit.cli.main(CLI_ARG ...)`) or `trace` (the same, with the layers
wrapped by tracer.Tracer).  The result JSON carries the import and `main`
times, the CSV schemas and, when traced, the spans and counts.  The exit
code is the CLI's, or 4 when hardykit does not come from SRC_DIR.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, src_dir, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    t0 = time.perf_counter()
    import hardykit.cli
    setup_s = time.perf_counter() - t0
    origin = os.path.realpath(hardykit.cli.__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        print(f"hardykit was imported from {origin}, not from {src_dir}", file=sys.stderr)
        return 4
    result = {"setup_s": setup_s, "rc": 0}
    if mode != "import":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        try:
            result["rc"] = hardykit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            result["rc"] = exc.code
        result["main_s"] = time.perf_counter() - t1
        if tracer is not None:
            result["trace"] = tracer.finish()
        result["schemas"] = {k: list(v) for k, v in hardykit.schemas.ALL.items()}
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
