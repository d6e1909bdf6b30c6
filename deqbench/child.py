"""One ``deqlab`` experiment in a fresh interpreter, as the command runs it.

    python3 deqbench/child.py RECORD.json [--setup-only] [--trace SPANS.json] -- <deqlab args>

Calls ``deqlab.cli.main`` with the given arguments and writes RECORD.json:
the exit code, ``time.monotonic()`` when the config was validated and when
``cli.run`` began and ended, and the peak resident set size.  The monotonic
clock is shared by all processes on Linux, so the launching process can
subtract its own launch time.  ``--setup-only`` stops after validation;
``--trace`` wraps deqlab's public functions (see spans.py) once the config
is validated, so set-up and tracing set-up stay outside the measured window.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, deqlab_args = argv[:split], argv[split + 1 :]
    record_path = own[0]
    setup_only = "--setup-only" in own
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    from deqlab import cli

    marks: dict[str, float] = {}
    validate, run = cli.validate_config, cli.run

    def timed_validate(*args, **kwargs):
        config = validate(*args, **kwargs)
        marks["validated"] = time.monotonic()
        return config

    def timed_run(config):
        if setup_only:
            return 0
        tracer = None
        if trace_path is not None:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        marks["start"] = time.monotonic()
        code = run(config)
        marks["end"] = time.monotonic()
        if tracer is not None:
            tracer.dump(trace_path, (marks["start"], marks["end"]))
        return code

    cli.validate_config, cli.run = timed_validate, timed_run
    code = cli.main(deqlab_args)
    record = {
        "exit_code": code,
        "marks": marks,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
