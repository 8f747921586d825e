"""Fork-per-request execution with resource guards.

The parent imports factopo once and forks one child per request, so no
request sees another request's caches (as with the one-command-per-process
CLI) and interpreter start-up is paid once, outside the timed region.  One
child runs at a time and the parent waits for it: a closed loop with a single
client.

Each child caps its own address space and CPU time with ``setrlimit``; the
parent kills it when it outlives the wall cap.  Every outcome is classified
as ok, wrong, traceback, budget, memory or timeout, and nothing is dropped.

The speed of a core on a shared host drifts by tens of percent over
seconds, so each child times a fixed calibration loop just before and just
after its request, and a shorter one every ``TICK_S`` while it runs (from a
timer signal; the ticks' own time is taken out of the request's, and a
traced run has no ticks).
``Result.seconds`` is the in-child time scaled to the speed at which the loop
takes ``CALIB_REF_S``; ``Result.raw_seconds`` is unscaled.
"""

import gc
import io
import json
import os
import resource
import select
import signal
import sys
import time
import traceback

MEM_CAP_BYTES = 1 << 29
CPU_CAP_S = 90
WALL_CAP_S = 90

# median time of ``calibrate(CALIB_ROUNDS)`` on a 2-core x86-64 container
# under Python 3.11.7, where the baseline was recorded
CALIB_REF_S = 0.0014
CALIB_ROUNDS = 6000
TICK_S = 0.1

BUDGET_MARK = "enumeration budget of"


class Request:
    """One unit of work: a callable run in a fresh child, and its expectation.

    ``run()`` executes inside the child and returns ``(rc, value)``; CLI
    requests return the exit code of ``cli.main`` with ``value`` None, library
    requests return 0 and a JSON-able summary of the result.  ``expect`` is
    "decide" (exit 0 and ``check`` passes), "reject" (exit 1 with exactly
    one ``error:`` line on stderr) or "refuse-budget" (the same, for work
    larger than the request's ``--budget``).  ``check(report, value)``
    returns None when the answer agrees with the benchmark's own reference,
    else a reason.
    """

    __slots__ = ("label", "run", "expect", "check")

    def __init__(self, label, run, expect="decide", check=None):
        self.label = label
        self.run = run
        self.expect = expect
        self.check = check


def calibrate():
    """Time a fixed loop of the dict and tuple work factopo is made of."""
    acc = dict.fromkeys(range(97), 0)
    started = time.perf_counter()
    for i in range(CALIB_ROUNDS):
        key = (i % 97, i % 89)
        acc[key[0]] += key[1]
    return time.perf_counter() - started


class Result:
    """What the parent keeps of one request: outcome, timing, memory and,
    in a traced run, the child's spans, probe notes and budget steps."""

    __slots__ = ("label", "outcome", "reason", "seconds", "raw_seconds",
                 "rss_mb", "spans", "notes", "steps", "budget_exceeded")

    def __init__(self, label, outcome, reason, seconds, rss_mb, trace=None,
                 calib=None):
        trace = trace or {}
        self.label = label
        self.outcome = outcome
        self.reason = reason
        self.raw_seconds = seconds
        # calib is the mean time per calibration round during the request
        self.seconds = seconds * CALIB_REF_S / (calib * CALIB_ROUNDS) \
            if calib else seconds
        self.rss_mb = rss_mb
        self.spans = trace.get("spans", [])
        self.notes = trace.get("notes", [])
        self.steps = trace.get("steps", 0)
        self.budget_exceeded = trace.get("budget_exceeded", False)


def _child(req, wfd, tracer):
    """Body of the forked child: guard, run, report, exit without cleanup."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
        resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S + 5))
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        if tracer is not None:
            tracer.begin_request()
        rc, value, exc_type, exc_text = None, None, None, None
        per_round = [calibrate() / CALIB_ROUNDS]
        paused = [0.0]

        def tick(_signum, _frame):
            took = calibrate()
            per_round.append(took / CALIB_ROUNDS)
            paused[0] += took

        if tracer is None:  # a tick inside a span would count as its time
            signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S / 2, TICK_S)
        started = time.perf_counter()
        try:
            rc, value = req.run()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except MemoryError:
            exc_type = "MemoryError"
        except BaseException as exc:  # recorded as a traceback outcome
            exc_type = type(exc).__name__
            exc_text = traceback.format_exc(limit=-3)
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - started - paused[0]
        per_round.append(calibrate() / CALIB_ROUNDS)
        calib = sum(per_round) / len(per_round)
        payload = {"rc": rc, "value": value, "exc_type": exc_type,
                   "exc_text": exc_text, "elapsed": elapsed, "calib": calib,
                   "stdout": out.getvalue(), "stderr": err.getvalue()}
        if tracer is not None:
            payload.update(tracer.end_request())
        data = json.dumps(payload).encode()
        view = memoryview(data)
        while view:
            view = view[os.write(wfd, view):]
        code = 0
    except BaseException:
        code = 3
    os._exit(code)


def execute(req, tracer=None):
    """Run ``req`` in a forked child and classify what came back."""
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    # the child's collector then skips the parent's objects instead of
    # copying every page it touches, a cost a fresh CLI process never pays
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(req, wfd, tracer)
    os.close(wfd)
    chunks = []
    killed = False
    deadline = time.monotonic() + WALL_CAP_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if killed:
        return Result(req.label, "timeout", "wall cap %ds" % WALL_CAP_S,
                      WALL_CAP_S, rss_mb)
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        outcome = "timeout" if sig == signal.SIGXCPU else "traceback"
        return Result(req.label, outcome, "killed by signal %d" % sig,
                      usage.ru_utime + usage.ru_stime, rss_mb)
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        return Result(req.label, "traceback",
                      "child exited %d without a report"
                      % os.WEXITSTATUS(status),
                      usage.ru_utime + usage.ru_stime, rss_mb)
    outcome, reason = classify(req, payload)
    return Result(req.label, outcome, reason, payload["elapsed"], rss_mb,
                  payload, payload["calib"])


def classify(req, payload):
    """Map a child's report to (outcome, reason); reason is None when ok."""
    exc_type = payload["exc_type"]
    if exc_type == "MemoryError":
        return "memory", "MemoryError under a %d MiB address-space cap" \
            % (MEM_CAP_BYTES >> 20)
    if exc_type is not None:
        last = (payload["exc_text"] or exc_type).strip().splitlines()[-1]
        return "traceback", last
    rc, stderr = payload["rc"], payload["stderr"]
    lines = stderr.splitlines()
    if req.expect in ("reject", "refuse-budget"):
        if rc == 1 and len(lines) == 1 and lines[0].startswith("error:"):
            return "ok", None
        if rc == 0 and req.expect == "refuse-budget":
            return "budget", "ran past its budget and answered"
        if rc == 0:
            return "wrong", "accepted an input that must be refused"
        return "wrong", "exit %s with stderr %r" % (rc, stderr[:160])
    if rc == 0:
        try:
            report = json.loads(payload["stdout"]) if payload["stdout"] \
                else None
            reason = req.check(report, payload["value"])
        except (ValueError, KeyError, TypeError) as err:
            reason = "unreadable report: %r" % (err,)
        return ("ok", None) if reason is None else ("wrong", reason)
    if rc == 1 and BUDGET_MARK in stderr:
        return "budget", lines[-1] if lines else "budget exceeded"
    return "wrong", "exit %s with stderr %r" % (rc, stderr[:160])
