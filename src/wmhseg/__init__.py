"""White matter hyperintensity segmentation: a self-contained pipeline.

Numeric core (autodiff tensors, FFT), the transformer-encoder/conv-decoder
segmentation network, BCE+Dice training, MRI artifact augmentation, NIfTI-1
I/O, and a synthetic phantom harness that makes the whole thing trainable
and verifiable on a CPU.
"""

from .artifacts import (ArtifactSpec, add_noise, apply_bias_field,
                        apply_ghosting, corrupt_scan, sample_spec)
from .errors import (ConfigError, DataFormatError, NumericsError, ShapeError,
                     UnsupportedDataTypeError, UsageError, ValidationError,
                     WmhsegError)
from .fourier import fft2, ifft2
from .losses import LossValue, bce_loss, combined_loss, dice_loss
from .metrics import (SegMetrics, dice_score, lesion_volume,
                      paired_volume_report)
from .model import (ModelConfig, decoder_forward, efficient_attention,
                    encoder_forward, init_parameters, load_checkpoint,
                    mix_ffn, model_forward, overlap_patch_embed,
                    parameter_count, save_checkpoint)
from .nifti import (Volume, make_slice_batch, read_nifti, unpreprocess_mask,
                    write_nifti)
from .phantom import (ManifestEntry, PhantomConfig, generate_dataset,
                      generate_phantom, read_manifest, write_manifest)
from .tensor import (Tensor, concat, conv2d, gelu, layer_norm, matmul,
                     no_grad, resize_bilinear, sigmoid, softmax)
from .training import (TrainConfig, TrainState, adam_step, evaluate,
                       infer_volume, plateau_scheduler, split_dataset, train)

__version__ = "0.1.0"
