"""One benchmark repetition in a fresh interpreter.

Usage: python3 worker.py '<job json>'

Prints "ready" once `designforge.cli` is imported (the parent times
interpreter start to that line as set-up), then runs each argv of the job
through `designforge.cli.main` back to back, printing one JSON line per
invocation with its exit code, stdout, wall and CPU seconds, and a final
JSON line with the peak RSS and, when traced, the spans and counters.
A job with no invocations only measures set-up.
"""

import json
import sys


def _run(job: dict, main) -> None:
    # Imported after the ready line, so set-up covers designforge.cli alone.
    import contextlib
    import io
    import resource
    from time import perf_counter

    out = sys.stdout
    tracer = None
    if job["trace"]:
        from tracer import Tracer  # sys.path[0] is this script's directory

        tracer = Tracer()
        tracer.install()

    for i, argv in enumerate(job["invocations"]):
        buf = io.StringIO()
        rc, error = None, None
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = main(argv)
                else:
                    tracer.invocation = i
                    rc = tracer.call("cli.self_s", main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # reported as a failed invocation, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        out.write(json.dumps({"i": i, "rc": rc, "stdout": buf.getvalue(), "error": error,
                              "wall": t1 - t0, "cpu": cpu}) + "\n")
        out.flush()

    end = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        end["spans"] = tracer.spans
        end["counters"] = dict(tracer.counters)
        if job.get("calibrate_threads"):
            end["calibration"] = _calibrate(tracer, job["calibrate_threads"], perf_counter)
    out.write(json.dumps(end) + "\n")


def _calibrate(tracer, threads: int, perf_counter) -> dict:
    """Sweep every basis the repetition swept, at 1 thread and at `threads`."""
    sweep = tracer.untraced_sweep
    t_one = t_many = 0.0
    for basis, length in tracer.swept:
        t0 = perf_counter()
        one = sweep(list(basis), length, 1)
        t1 = perf_counter()
        many = sweep(list(basis), length, threads)
        t2 = perf_counter()
        if one != many:
            raise RuntimeError(f"sweep differs between 1 and {threads} threads")
        t_one += t1 - t0
        t_many += t2 - t1
    return {"bases": len(tracer.swept), "one_thread_s": t_one, "threads": threads,
            "many_threads_s": t_many}


if __name__ == "__main__":
    import designforge.cli

    print("ready", flush=True)
    _run(json.loads(sys.argv[1]), designforge.cli.main)
