"""Self-test of the benchmark, at tiny sizes, in about ten seconds.

    python3 perfbench/selftest.py

It runs ``run.py`` on every workload with and without tracing and checks the
result lines against BENCHMARK.json, checks that a directory holding only
the benchmark fails without printing a result, and shows that every output
check rejects a deliberately corrupted output. Exits 0 when every case
passes; prints one line per case.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "work" / f"selftest-{os.getpid()}"
SEED = 5

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference as R  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wmhseg import model  # noqa: E402
from wmhseg import tensor as T  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int) -> None:
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(m["name"], m["unit"]) for m in declared] == \
        [(name, v["unit"]) for name, v in result["metrics"].items()], "metric list"
    for name, v in result["metrics"].items():
        works = workload in tracing.active_on(name) if trace else True
        assert (v["value"] > 0) == works, f"{name} = {v['value']} on {workload}"


def check_declared_layers() -> None:
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_benchmark(bare, "--workload", "augment", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode != 0, proc.stdout
    assert "{" not in proc.stdout, proc.stdout


# ---- corrupted outputs ---------------------------------------------------------


def edit_nifti(path: Path, edit) -> None:
    """Apply ``edit`` to the voxels of a float32 NIfTI file in place."""
    data = R.read_nifti(path)[0].copy()
    edit(data)
    raw = bytearray(path.read_bytes())
    raw[352:] = data.astype("<f4").tobytes(order="F")
    path.write_bytes(bytes(raw))


def expect_rejected(workload, what: str, corrupt) -> None:
    """The check passes, then fails once ``corrupt`` has run; files are restored."""
    saved = {p: p.read_bytes() for p in (WORK / workload.name).rglob("*") if p.is_file()}
    state = dict(vars(workload))
    try:
        corrupt()
        try:
            workload.check()
        except R.CheckFailed as exc:
            print(f"ok   {workload.name}: {what} -> {exc}")
            return
        raise AssertionError(f"{workload.name}: check accepted {what}")
    finally:
        for p, blob in saved.items():
            p.write_bytes(blob)
        vars(workload).update(state)


def corrupt_segment(wl) -> None:
    pick = wl.sampled_slices()
    mid = wl.shapes[0][0] // 2

    def flip():
        edit_nifti(wl.outputs[0], lambda d: d.__setitem__((mid, mid, pick[0]),
                                                          1.0 - d[mid, mid, pick[0]]))
    expect_rejected(wl, "one flipped mask pixel", flip)
    expect_rejected(wl, "a lesion pixel outside the model window", lambda: edit_nifti(
        wl.outputs[2], lambda d: d.__setitem__((0, 0, 0), 1.0)))
    expect_rejected(wl, "a non-binary mask pixel", lambda: edit_nifti(
        wl.outputs[1], lambda d: d.__setitem__((mid, mid, 0), 0.5)))
    dice, volume = wl.scores[0]
    expect_rejected(wl, "a wrong Dice score",
                    lambda: wl.__setattr__("scores", [(dice + 1e-3, volume)] + wl.scores[1:]))
    expect_rejected(wl, "a wrong lesion volume",
                    lambda: wl.__setattr__("scores",
                                           [(dice, volume + 1.0)] + wl.scores[1:]))


def corrupt_augment(wl) -> None:
    out = wl.dirs[0]
    rows = {r["role"]: out / r["path"] for r in R.read_manifest(out / "manifest.csv")}
    expect_rejected(wl, "a non-binary mask voxel",
                    lambda: edit_nifti(rows["mask"], lambda d: d.__setitem__((1, 1, 0), 0.5)))

    spec = R.read_sidecar(str(rows["ghosting"]) + ".spec")
    axis = 0 if spec["ghost_axis"] == "row" else 1
    count = int(spec["ghost_count"])
    n = wl.shapes[0][axis]
    lines = set(R.ghost_lines(n, count).tolist())
    extra = next(i for i in range(1, n) if i not in lines)

    def wrong_ghost_line(data):
        clean = R.read_nifti(rows["clean"])[0].astype(np.float64)
        spectrum = np.fft.fft2(clean, axes=(0, 1))
        index = [slice(None)] * 3
        index[axis] = sorted(lines | {extra})
        spectrum[tuple(index)] *= 1.0 - float(spec["ghost_intensity"])
        data[...] = np.abs(np.fft.ifft2(spectrum, axes=(0, 1)))
    expect_rejected(wl, f"ghosting with line {extra} also attenuated",
                    lambda: edit_nifti(rows["ghosting"], wrong_ghost_line))

    sidecar = Path(str(rows["bias"]) + ".spec")

    def shift_coefficient():
        text = sidecar.read_text()
        first = text.split("bias_coeffs=")[1].split(",")[0]
        sidecar.write_text(text.replace("bias_coeffs=" + first,
                                        f"bias_coeffs={float(first) + 0.01!r}"))
    expect_rejected(wl, "a bias coefficient off by 0.01", shift_coefficient)

    def louder_noise(data):
        clean = R.read_nifti(rows["clean"])[0]
        data[...] = np.clip(clean + 1.5 * (data - clean), 0.0, None)
    expect_rejected(wl, "noise 1.5x too strong", lambda: edit_nifti(rows["noise"],
                                                                     louder_noise))
    expect_rejected(wl, "a truncated volume", lambda: rows["clean"].write_bytes(
        rows["clean"].read_bytes()[:-4]))


def corrupt_train(wl) -> None:
    log = Path(wl.result.log_path)

    def nan_loss():
        lines = log.read_text().splitlines()
        fields = lines[1].split(",")
        fields[1] = "nan"
        log.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    expect_rejected(wl, "a NaN training loss in the log", nan_loss)
    expect_rejected(wl, "the initial parameters as the trained model", lambda: (
        model.save_checkpoint(wl.result.last_checkpoint,
                              model.init_parameters(wl.model_config,
                                                    wl.train_config.seed),
                              wl.model_config)))

    gelu = T.gelu

    def skewed_gelu(x):
        out = gelu(x)
        inner = out._backward
        if inner is not None:
            def backward():
                out.grad = out.grad * 1.05
                inner()
            out._backward = backward
        return out
    T.gelu = skewed_gelu
    try:
        expect_rejected(wl, "a GELU backward 5% too large", lambda: None)
    finally:
        T.gelu = gelu


def check_corruptions(cls, corrupt) -> None:
    wl = cls(SEED, tiny=True)
    wl.setup(WORK / cls.name)
    outcome = wl.run_round()
    assert outcome.failed == 0 and outcome.slices > 0, outcome
    wl.check()
    corrupt(wl)


def main() -> int:
    cases = [("declared per-layer metrics match the tracer", check_declared_layers)]
    for name in ("train", "segment", "augment"):
        for trace in (0, 1):
            cases.append((f"run.py --workload {name} --trace {trace} --tiny",
                          lambda name=name, trace=trace: check_run(name, trace)))
    cases += [
        ("a directory with only the benchmark fails", check_bare_directory),
        ("segment checks reject corrupted outputs",
         lambda: check_corruptions(workloads.SegmentWorkload, corrupt_segment)),
        ("augment checks reject corrupted outputs",
         lambda: check_corruptions(workloads.AugmentWorkload, corrupt_augment)),
        ("train checks reject corrupted outputs",
         lambda: check_corruptions(workloads.TrainWorkload, corrupt_train)),
    ]
    failures = 0
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        for name, fn in cases:
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(cases) - failures} of {len(cases)} self-test cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
