"""Atomic replacement of NIfTI, checkpoint and train-state files."""

import errno
import io

import numpy as np
import pytest

from wmhseg import fileio
from wmhseg.model import ModelConfig, init_parameters, save_checkpoint
from wmhseg.nifti import Volume, write_nifti
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
        state = TrainState(epoch=version, step=10 * version, lr=1e-3,
                           m={k: np.full(p.shape, version, np.float32)
                              for k, p in params.items()})
        save_train_state(path, state, params)

    return [pytest.param(name, fn, id=name) for name, fn in
            [("vol.nii", nifti), ("vol.nii.gz", nifti),
             ("last.ckpt", checkpoint), ("last.ckpt.state", train_state)]]


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
