#!/usr/bin/env python3
"""sc_serve must bound what one connection can make it buffer.

A client sends a request line longer than the server's line cap without ever
sending a newline. The server must answer one NDJSON error and close that
connection, and a fresh client must still be served afterwards.

    serve_line_cap.py <build-dir>
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time

LINE_CAP = 16 << 20  # kMaxLineBytes in tools/sc_serve.cpp


def run(cmd, **kw):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, **kw)


def read_line(sock):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf


def main():
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
             "--socket", sock_path, "--workers", "1"],
            stdout=subprocess.DEVNULL)
        try:
            for _ in range(100):
                if os.path.exists(sock_path):
                    break
                time.sleep(0.1)
            assert os.path.exists(sock_path), "sc_serve never opened its socket"

            hostile = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            hostile.settimeout(60)
            hostile.connect(sock_path)
            try:
                hostile.sendall(b"x" * (LINE_CAP + 65536))
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server may close before the last bytes go out
            reply = read_line(hostile)
            doc = json.loads(reply)
            assert doc.get("ok") is False, reply
            assert "exceeds" in doc.get("error", ""), reply
            try:
                rest = hostile.recv(4096)
            except ConnectionResetError:
                rest = b""  # closed with our surplus bytes still unread
            assert rest == b"", "connection was not closed"
            hostile.close()

            client = subprocess.run(
                [f"{tools}/sc_serve", "--connect", sock_path, "--data", data],
                check=True, capture_output=True, text=True)
            assert "2/2 ok, 0 failed" in client.stdout, client.stdout

            run([f"{tools}/sc_serve", "--connect", sock_path, "--shutdown"])
            assert server.wait(timeout=60) == 0, "server did not drain cleanly"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    print("serve line cap test passed")


if __name__ == "__main__":
    main()
