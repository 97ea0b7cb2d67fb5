"""Atomic replacement of every file the package writes."""

import errno
import io

import numpy as np
import pytest

from wmhseg import fileio
from wmhseg.artifacts import sample_spec, write_sidecar
from wmhseg.metrics import SegMetrics, write_metrics_csv
from wmhseg.model import ModelConfig, init_parameters, save_checkpoint
from wmhseg.nifti import Volume, write_nifti
from wmhseg.phantom import ManifestEntry, write_manifest
from wmhseg.training import TrainState, save_train_state


class DiskFull(io.RawIOBase):
    """Writable file that fails with ENOSPC once ``limit`` bytes are in."""

    def __init__(self, path, mode, limit):
        self._f = io.FileIO(path, mode.replace("b", ""))
        self._left = limit

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), self._left)
        self._f.write(bytes(memoryview(b).cast("B")[:n]))
        self._left -= n
        if n < len(b):
            raise OSError(errno.ENOSPC, "No space left on device")
        return n

    def close(self):
        self._f.close()
        super().close()


def _writers():
    cfg = ModelConfig.tiny()

    def nifti(path, version):
        data = np.full((6, 5, 4), float(version), np.float32)
        write_nifti(Volume(data=data, spacing=(1.0, 1.0, 2.0)), path)

    def checkpoint(path, version):
        save_checkpoint(path, init_parameters(cfg, version), cfg)

    def train_state(path, version):
        params = init_parameters(cfg, 0)
        m, v = ({k: np.full(p.shape, version, np.float32)
                 for k, p in params.items()} for _ in range(2))
        state = TrainState(epoch=version, step=10 * version, lr=1e-3, m=m, v=v,
                           rng=np.random.default_rng(version))
        save_train_state(path, state, params, cfg)

    def manifest(path, version):
        write_manifest(path, [ManifestEntry(f"p{i}.nii", "clean", version, f"p{i}")
                              for i in range(3)])

    def sidecar(path, version):
        write_sidecar(path, sample_spec("noise_bias", version))

    def metrics_csv(path, version):
        write_metrics_csv(path, [SegMetrics(f"p{i}", 0.1 * version, 5.0 * i, 4.0)
                                 for i in range(3)])

    return [pytest.param(name, fn, id=name) for name, fn in
            [("vol.nii", nifti), ("vol.nii.gz", nifti),
             ("last.ckpt", checkpoint), ("last.ckpt.state", train_state),
             ("manifest.csv", manifest), ("p0_noise_bias.nii.spec", sidecar),
             ("metrics.csv", metrics_csv)]]


@pytest.mark.parametrize("name,write", _writers())
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name, write):
    path = tmp_path / name
    write(path, 1)
    before = path.read_bytes()
    probe = tmp_path / ("probe_" + name)  # same suffix: .gz compresses
    write(probe, 2)
    size = probe.stat().st_size
    probe.unlink()

    # the disk fills halfway through the second version
    monkeypatch.setattr(fileio, "open",
                        lambda p, mode: DiskFull(p, mode, size // 2),
                        raising=False)
    with pytest.raises(OSError) as exc:
        write(path, 2)
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]

    # a first write that fails leaves no file at all
    with pytest.raises(OSError):
        write(tmp_path / ("new_" + name), 2)
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_error_inside_block_keeps_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    raised = ValueError("bad value")
    with pytest.raises(ValueError) as exc:
        with fileio.atomic_write(path) as fh:
            fh.write(b"new")
            raise raised
    assert exc.value is raised
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_remove_temporaries_matches_only_the_paths_own(tmp_path):
    stale = [".last.ckpt.0123456789ab.tmp", ".last.ckpt.ffffffffffff.tmp"]
    kept = ["last.ckpt", ".last.ckpt.state.0123456789ab.tmp",
            ".last.ckpt.0123456789a.tmp", ".last.ckpt.0123456789abc.tmp",
            ".last.ckpt.0123456789AB.tmp", "last.ckpt.0123456789ab.tmp"]
    for name in stale + kept:
        (tmp_path / name).write_bytes(b"x")
    fileio.remove_temporaries(tmp_path / "last.ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept)
