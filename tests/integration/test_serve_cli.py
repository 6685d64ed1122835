"""End-to-end tests of the ``repro serve`` CLI as a real subprocess.

A scaled-down version of the CI soak (``scripts/serve_soak.py``): run a
seeded finite Poisson stream to completion, run it again with
checkpoints and ``SIGKILL`` it mid-stream, resume with ``--resume``, and
assert the resumed run's final metrics JSON equals the clean run's
bit-for-bit. Also covers tick emission, graceful SIGTERM drain, and the
exit-status contract.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

STREAM_ARGS = [
    "4",
    "--source",
    "poisson",
    "--rate",
    "0.6",
    "--dag-nodes",
    "10",
    "--seed",
    "123",
    "--jobs",
    "400",
    "--tick-every",
    "0",
    "--quiet",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_serve(*argv: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", *argv],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
        timeout=timeout,
    )


def test_sigkill_then_resume_is_bit_identical(tmp_path):
    clean_json = tmp_path / "clean.json"
    result = run_serve(*STREAM_ARGS, "--metrics-out", str(clean_json))
    assert result.returncode == 0, result.stderr

    ckpt = tmp_path / "serve.ckpt"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            *STREAM_ARGS,
            "--checkpoint",
            str(ckpt),
            "--checkpoint-every",
            "25",
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and proc.poll() is None:
        if ckpt.exists():
            break
        time.sleep(0.05)
    assert ckpt.exists(), "no checkpoint appeared before the deadline"
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL

    resumed_json = tmp_path / "resumed.json"
    result = run_serve(
        *STREAM_ARGS,
        "--checkpoint",
        str(ckpt),
        "--resume",
        "--metrics-out",
        str(resumed_json),
    )
    assert result.returncode == 0, result.stderr
    assert "resumed from" in result.stderr

    clean = json.loads(clean_json.read_text())
    resumed = json.loads(resumed_json.read_text())
    assert clean.pop("resumed") is False
    assert resumed.pop("resumed") is True
    assert clean == resumed


def test_arena_flag_paths_are_bit_identical(tmp_path):
    """`--arena on` and `--arena off` produce identical metrics JSON —
    the commit path is invisible to every observable surface."""
    args = [a if a != "400" else "150" for a in STREAM_ARGS]
    outputs = {}
    for mode in ("on", "off"):
        out = tmp_path / f"arena-{mode}.json"
        result = run_serve(*args, "--arena", mode, "--metrics-out", str(out))
        assert result.returncode == 0, result.stderr
        outputs[mode] = json.loads(out.read_text())
    assert outputs["on"] == outputs["off"]


def test_max_steps_interrupt_exit_status(tmp_path):
    ckpt = tmp_path / "int.ckpt"
    result = run_serve(
        *STREAM_ARGS, "--checkpoint", str(ckpt), "--max-steps", "10"
    )
    assert result.returncode == 130
    assert ckpt.exists()
    assert "checkpoint saved" in result.stderr


def test_ticks_are_json_lines(tmp_path):
    args = [a for a in STREAM_ARGS if a != "--quiet"]
    # Replace the tick-every value (args are ["--tick-every", "0", ...]).
    args[args.index("--tick-every") + 1] = "40"
    result = run_serve(*args)
    assert result.returncode == 0, result.stderr
    lines = [ln for ln in result.stdout.splitlines() if ln.strip()]
    assert len(lines) >= 2  # at least one tick plus the final summary
    ticks = [json.loads(ln) for ln in lines[:-1]]
    assert all("window_throughput" in tick for tick in ticks)
    assert [tick["t"] for tick in ticks] == sorted(tick["t"] for tick in ticks)
    summary = json.loads(lines[-1])
    assert summary["complete"] is True
    assert summary["status"] == 0


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigterm_drains_gracefully(tmp_path):
    # A stream far longer than the test waits, so SIGTERM always lands
    # mid-stream; the first checkpoint shows the run is past startup and
    # admitting jobs.
    n_jobs = 1_000_000
    out = tmp_path / "drained.json"
    ckpt = tmp_path / "drain.ckpt"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "4",
            "--source",
            "poisson",
            "--rate",
            "0.4",
            "--dag-nodes",
            "10",
            "--seed",
            "7",
            "--jobs",
            str(n_jobs),
            "--tick-every",
            "0",
            "--quiet",
            "--metrics-out",
            str(out),
            "--checkpoint",
            str(ckpt),
            "--checkpoint-every",
            "25",
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and proc.poll() is None:
        if ckpt.exists():
            break
        time.sleep(0.05)
    if proc.poll() is not None:
        _, stderr = proc.communicate()
        pytest.fail(
            f"serve exited (status {proc.returncode}) before SIGTERM was "
            f"sent:\n{stderr}"
        )
    assert ckpt.exists(), "no checkpoint appeared before the deadline"
    proc.send_signal(signal.SIGTERM)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    assert "drain requested" in stderr
    summary = json.loads(out.read_text())
    assert summary["drained"] is True
    # Drain stops admission: fewer jobs admitted than the stream holds.
    assert summary["jobs_admitted"] < n_jobs
    assert summary["jobs_completed"] == summary["jobs_admitted"]
