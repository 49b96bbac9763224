"""Ray session lifecycle for one benchmark invocation: start a local
session sized to ``nproc``, measure the peak resident memory of every
process in it, and make sure each of those processes has ended before
the next session starts or the benchmark exits."""

from __future__ import annotations

import logging
import os
import shutil
import signal
import subprocess
import time

#: AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
#: <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/<name>
_RAY_SOCKET_SUFFIX = 64


def nproc() -> int:
    """CPUs this process may use, as ``nproc`` reports them (it honours
    OMP_NUM_THREADS, unlike ``os.cpu_count``)."""
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(name))
    return tree


def descendants(pid: int) -> list[int]:
    tree = _children()
    out, todo = [], [pid]
    while todo:
        for child in tree.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _wait_gone(pids: list[int], timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


class RaySession:
    """Context manager around ``ray.init``/``ray.shutdown``.

    Workers import the package and the benchmark through PYTHONPATH, so
    the session works from any working directory. Ray's session files go
    under ``ray_root`` when its Unix socket paths fit there. ``setup_hook``
    names a ``worker_process_setup_hook`` (traced runs only)."""

    def __init__(
        self,
        num_cpus: int,
        code_root: str,
        ray_root: str,
        setup_hook: str | None = None,
        env: dict[str, str] | None = None,
    ):
        self.num_cpus = num_cpus
        self.code_root = code_root
        self.ray_root = ray_root
        self.setup_hook = setup_hook
        self.env = env or {}
        self.session_dir: str | None = None
        self._pythonpath: str | None = None

    def __enter__(self) -> "RaySession":
        import ray

        # workers inherit the driver's environment through the raylet
        self._pythonpath = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.code_root, self._pythonpath) if p
        )
        kwargs = {}
        if len(self.ray_root) + _RAY_SOCKET_SUFFIX <= 107:
            kwargs["_temp_dir"] = self.ray_root
        # else Ray's default temp dir; the session dir is removed on exit
        runtime_env = {}
        if self.setup_hook:
            runtime_env["worker_process_setup_hook"] = self.setup_hook
        if self.env:
            runtime_env["env_vars"] = dict(self.env)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=512 * 2**20,
            runtime_env=runtime_env or None,
            **kwargs,
        )
        import ray.data

        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        return self

    def pids(self) -> list[int]:
        """The driver and every process of the session."""
        return [os.getpid()] + descendants(os.getpid())

    def reset_peak_rss(self) -> None:
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass  # the process ended meanwhile

    def peak_rss_mib(self) -> float:
        total_kib = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
                            break
            except OSError:
                pass
        return total_kib / 1024.0

    def __exit__(self, *exc) -> None:
        import ray

        pids = descendants(os.getpid())
        ray.shutdown()
        if self._pythonpath is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = self._pythonpath
        _wait_gone(pids, 30.0)
        if any(_alive(p) for p in pids):
            for p in pids:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _wait_gone(pids, 10.0)
            left = [p for p in pids if _alive(p)]
            if left:
                raise RuntimeError(f"Ray processes still running: {left}")
        if self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)
