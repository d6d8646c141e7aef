"""One renewalsim CLI run in a fresh process, as the benchmark times it.

Usage: python3 child.py CONFIG STAMP [TRACE_DIR]

Imports renewalsim, then loads and validates CONFIG (validation builds the
model): the set-up every CLI run pays.  Writes STAMP, a JSON object with
the monotonic clock and the process CPU time at the end of set-up, and
hands CONFIG to ``renewalsim.cli.main``, whose exit code it returns.  With
TRACE_DIR, spans are recorded (see spans.py) and written there.
"""

import json
import sys
import time


def main(argv) -> int:
    config, stamp = argv[1], argv[2]
    trace_dir = argv[3] if len(argv) > 3 else None
    from renewalsim import cli
    from renewalsim.config import ExperimentConfig, validate_for_kind
    validate_for_kind(ExperimentConfig.load(config))
    with open(stamp, "w", encoding="utf-8") as f:
        json.dump({"monotonic": time.monotonic(),
                   "cpu": time.process_time()}, f)
    recorder = None
    if trace_dir is not None:
        import spans
        recorder = spans.install(trace_dir)
    try:
        return cli.main(["--config", config])
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
