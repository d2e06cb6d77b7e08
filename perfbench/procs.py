"""Child processes for the benchmark: spawn, time each output line, read /proc, reap.

Everything here is Linux-specific: CPU time comes from
``/proc/<pid>/task/*/schedstat`` (nanoseconds), I/O counters from
``/proc/<pid>/io`` read while the exited child is still a zombie, and peak
memory from ``VmHWM`` in ``/proc/<pid>/status``, sampled while the child
runs. ``wait4``'s ``ru_maxrss`` is no use for that: a child started by fork
and exec inherits the parent's high-water mark, and this parent holds every
generated frame.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import tempfile
import time
from dataclasses import dataclass

clock = time.perf_counter


class BenchError(Exception):
    """The harness cannot finish the run; no result is printed."""


@dataclass
class Exit:
    returncode: int
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system time of the whole child, from wait4
    peak_rss_kb: int  # last VmHWM read before the child exited
    io: dict[str, int]  # /proc/<pid>/io read before reaping
    stderr: str


class Child:
    """One child process whose stdout lines are stamped with their arrival time.

    Standard input, when piped, is written without blocking from ``send``;
    ``pump`` moves bytes both ways for at most the given timeout.
    """

    def __init__(self, cmd: list[str], env: dict[str, str], cwd, stdin: bool):
        self._err = tempfile.TemporaryFile(dir=cwd)
        self.t_spawn = clock()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=self._err,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
        )
        self.pid = self.proc.pid
        self.lines: list[bytes] = []
        self.arrivals: list[float] = []
        self._partial = b""
        self._pending = bytearray()
        self.eof = False
        self._out = self.proc.stdout.fileno()
        os.set_blocking(self._out, False)
        self._in = None
        if stdin:
            self._in = self.proc.stdin.fileno()
            os.set_blocking(self._in, False)
        self._sel = selectors.SelectSelector()  # microsecond timeouts, unlike epoll
        self._sel.register(self._out, selectors.EVENT_READ)
        self._writing = False
        self.peak_rss_kb = 0
        self._sampled_at = 0.0

    @property
    def pending(self) -> bool:
        return bool(self._pending)

    def send(self, data: bytes) -> None:
        self._pending += data
        self._flush_stdin()

    def _flush_stdin(self) -> None:
        if self._pending:
            try:
                n = os.write(self._in, self._pending)
            except BlockingIOError:
                n = 0
            except BrokenPipeError:
                raise BenchError(f"child {self.pid} closed its standard input") from None
            del self._pending[:n]
        want = bool(self._pending)
        if want != self._writing:
            if want:
                self._sel.register(self._in, selectors.EVENT_WRITE)
            else:
                self._sel.unregister(self._in)
            self._writing = want

    def _read(self) -> None:
        try:
            data = os.read(self._out, 1 << 16)
        except BlockingIOError:
            return
        if not data:
            self.eof = True
            self._sel.unregister(self._out)
            return
        t = clock()
        chunks = (self._partial + data).split(b"\n")
        self._partial = chunks.pop()
        self.lines.extend(chunks)
        self.arrivals.extend([t] * len(chunks))

    def pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for output or pipe space, then move bytes."""
        if self.eof and not self._writing:
            time.sleep(max(timeout, 0.0))
            return
        for key, events in self._sel.select(max(timeout, 0.0)):
            if key.fd == self._out:
                self._read()
            else:
                self._flush_stdin()
        self._sample_memory()

    def _sample_memory(self) -> None:
        now = clock()
        if now - self._sampled_at < 0.01:
            return
        self._sampled_at = now
        try:
            with open(f"/proc/{self.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_kb = max(self.peak_rss_kb, int(line.split()[1]))
                        break
        except FileNotFoundError:
            pass

    def cpu_ns(self) -> int:
        """CPU time used so far by every thread of the child, in nanoseconds."""
        total = 0
        task_dir = f"/proc/{self.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:  # the thread ended between listing and reading
                pass
        return total

    def wait_idle(self, deadline: float, settle_s: float = 0.01) -> int:
        """Return the child's CPU time once it stops running, i.e. blocks on input."""
        last = self.cpu_ns()
        changed = clock()
        while True:
            self.pump(0.002)
            now_cpu = self.cpu_ns()
            now = clock()
            if now_cpu != last:
                last, changed = now_cpu, now
            elif now - changed >= settle_s and not self._pending:
                return now_cpu
            if now > deadline:
                raise BenchError(f"child {self.pid} never went idle")

    def finish(self, deadline: float) -> Exit:
        """Close stdin, read stdout to the end, and reap the child."""
        if self._in is not None:
            while self._pending and clock() < deadline:
                self.pump(0.01)
            if self._writing:
                self._sel.unregister(self._in)
                self._writing = False
            self.proc.stdin.close()
            self._in = None
        while not self.eof:
            if clock() > deadline:
                self.kill()
                raise BenchError(f"child {self.pid} did not finish in time")
            self.pump(min(0.05, max(deadline - clock(), 0.0)))
        if self._partial:
            self.lines.append(self._partial)
            self.arrivals.append(clock())
            self._partial = b""
        while os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            if clock() > deadline:
                self.kill()
                raise BenchError(f"child {self.pid} did not exit in time")
            time.sleep(0.0005)
        t_exit = clock()
        io = read_proc_io(self.pid)
        _, status, usage = os.wait4(self.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._sel.close()
        self._err.seek(0)
        stderr = self._err.read().decode(errors="replace")
        self._err.close()
        return Exit(
            self.proc.returncode, t_exit - self.t_spawn, usage.ru_utime + usage.ru_stime,
            self.peak_rss_kb, io, stderr,
        )

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except BrokenPipeError:
                    pass
        self._err.close()


def read_proc_io(pid: int) -> dict[str, int]:
    with open(f"/proc/{pid}/io") as fh:
        return {k: int(v) for k, v in (line.split(":") for line in fh if ":" in line)}


def run(cmd, env, cwd, timeout_s: float) -> tuple[Child, Exit]:
    """Run a command with no standard input to its end."""
    child = Child(cmd, env, cwd, stdin=False)
    try:
        return child, child.finish(child.t_spawn + timeout_s)
    except BaseException:
        child.kill()
        raise
