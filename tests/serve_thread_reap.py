#!/usr/bin/env python3
"""sc_serve must not keep a thread per finished connection.

Forty sequential `--stats` clients connect, read one answer and leave. The
server reaps each finished connection's thread when it accepts the next one,
so afterwards its thread count (`Threads:` in /proc/<pid>/status) stays at
the worker count plus a small constant, and its address space (`VmSize:`)
does not grow by a thread stack per client. A `--shutdown` must still drain
the server cleanly.

    serve_thread_reap.py <build-dir>
"""

import os
import subprocess
import sys
import tempfile
import time

CLIENTS = 40
WORKERS = 2
# main thread, the batching/dispatch helpers, the connection being served,
# and one finished connection not yet reaped
THREAD_SLACK = 6
# Each leaked connection kept an ~8 MiB stack mapped; 40 of them are >300 MiB.
VMSIZE_GROWTH_MB = 64


def run(cmd, **kw):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, **kw)


def status_field(pid, name):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(name + ":"):
                return int(line.split()[1])
    raise AssertionError(f"{name} missing from /proc/{pid}/status")


def main():
    if not os.path.exists("/proc/self/status"):
        print("no /proc: thread reaping test skipped")
        return
    tools = os.path.join(sys.argv[1], "tools")
    with tempfile.TemporaryDirectory() as work:
        data = os.path.join(work, "graphs.txt")
        model = os.path.join(work, "model.ckpt")
        sock_path = os.path.join(work, "serve.sock")
        run([f"{tools}/sc_gen", "--out", data, "--count", "2", "--setting", "small",
             "--seed", "5"])
        run([f"{tools}/sc_train", "--data", data, "--out", model, "--setting", "small",
             "--epochs", "1"])
        server = subprocess.Popen(
            [f"{tools}/sc_serve", "--model", model, "--setting", "small",
             "--socket", sock_path, "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, text=True)
        try:
            for _ in range(100):
                if os.path.exists(sock_path):
                    break
                time.sleep(0.1)
            assert os.path.exists(sock_path), "sc_serve never opened its socket"

            stats = [f"{tools}/sc_serve", "--connect", sock_path, "--stats"]
            run(stats)
            vm_first = status_field(server.pid, "VmSize")
            for _ in range(CLIENTS - 1):
                run(stats)
            threads = status_field(server.pid, "Threads")
            vm_last = status_field(server.pid, "VmSize")
            print(f"after {CLIENTS} clients: Threads {threads}, "
                  f"VmSize {vm_first // 1024} -> {vm_last // 1024} MiB")
            assert threads <= WORKERS + THREAD_SLACK, \
                f"{threads} threads after {CLIENTS} clients (workers={WORKERS})"
            assert vm_last - vm_first <= VMSIZE_GROWTH_MB * 1024, \
                f"VmSize grew {(vm_last - vm_first) // 1024} MiB over {CLIENTS} clients"

            run([f"{tools}/sc_serve", "--connect", sock_path, "--shutdown"])
            out, _ = server.communicate(timeout=60)
            assert server.returncode == 0, "server did not drain cleanly"
            assert "drained" in out, out
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    print("serve thread reap test passed")


if __name__ == "__main__":
    main()
