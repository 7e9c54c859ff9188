"""Shared replay-fixture builders used by the CLI and acceptance tests, and a loopback HTTP server."""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from ta_lift.fixtures import emit_golden_program, kernel
from ta_lift.harness import Ablation
from ta_lift.loopir import locality_cost, parse_kernel
from ta_lift.prompts import build_translation_prompt
from ta_lift.schedule import (
    apply_schedule_command,
    build_schedule_prompt,
    extend_prompt,
    feedback_applied,
    parse_apply_command,
)

DOITGEN = """\
def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,
            sum: f32[64] @ DRAM):
    for r in seq(0, 64):
        for q in seq(0, 64):
            for p in seq(0, 64):
                sum[p] = 0.0
                for s in seq(0, 64):
                    sum[p] += A[r, q, s] * C4[s, p]
            for p in seq(0, 64):
                A[r, q, p] = sum[p]
"""

TILE_REPLY = (
    'Tiling the copy-back loop to match the 16-wide scratchpad rows.\n\n'
    'APPLY: {"optimization": "tile", "arguments": '
    '{"line": "for p in seq(0, 64): #1", "tile_size": 16, '
    '"outer_name": "p_outer", "inner_name": "p_inner"}}'
)

DONE_REPLY = "That looks good, no further changes."


def golden_program(name: str) -> str:
    """The golden program of a bundled kernel, as `emit_golden_program` writes it."""
    return emit_golden_program(kernel(name))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def naive_program(golden: str) -> str:
    """The golden program as the benchmark's optimize workload emits it naively (`perfbench/workloads.py`)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import naive_program as emit
    finally:
        sys.path.remove(str(PERFBENCH))
    return emit(golden)


def fenced(text: str) -> str:
    return "```\n" + text + "```"


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload))
    return path


def translation_prompt(name: str):
    """The prompt the harness builds for a kernel under the default ablation."""
    return build_translation_prompt(Ablation(label="default").prompt_spec(kernel(name)))


def eval_bundle(directory: Path, kernels: tuple[str, ...] = ("mm1",)) -> tuple[Path, Path]:
    """Config and fixture files giving each kernel one passing and one failing sample.

    With two samples and one verified candidate per kernel, pass@1 is exactly
    one half and pass@2 is exactly one.
    """
    fixtures = {}
    for name in kernels:
        fixtures[translation_prompt(name).fingerprint] = [
            fenced(golden_program(name)),
            fenced("not a program"),
        ]
    config = {
        "kernels": list(kernels),
        "ablations": [{"label": "base"}],
        "n_samples": 2,
        "k_values": [1, 2],
        "testcases": 3,
    }
    return (
        write_json(directory / "config.json", config),
        write_json(directory / "fixtures.json", fixtures),
    )


def schedule_bundle(directory: Path) -> tuple[Path, Path]:
    """Kernel file plus a two-turn replay script: tile the copy-back loop, then stop."""
    kernel_file = directory / "doitgen.k"
    kernel_file.write_text(DOITGEN)
    nest = parse_kernel(DOITGEN)
    first = build_schedule_prompt(nest)
    tiled = apply_schedule_command(nest, parse_apply_command(TILE_REPLY))
    second = extend_prompt(first, TILE_REPLY, feedback_applied(tiled, locality_cost(tiled)))
    fixtures = {first.fingerprint: [TILE_REPLY], second.fingerprint: [DONE_REPLY]}
    return kernel_file, write_json(directory / "schedule_fixtures.json", fixtures)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers a POST with the reply scripted for its path: (status, body bytes, seconds to wait first)."""

    def do_POST(self) -> None:
        request = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts.append((self.path, dict(self.headers), json.loads(request)))
        status, body, delay = self.server.replies[self.path]
        time.sleep(delay)
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the client stopped waiting

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def loopback_server():
    """An HTTP server on a free loopback port that answers from its `replies` and records its `posts`."""
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.posts = {}, []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
