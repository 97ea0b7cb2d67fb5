"""White matter hyperintensity segmentation: a self-contained pipeline.

Numeric core (autodiff tensors, FFT), the transformer-encoder/conv-decoder
segmentation network, BCE+Dice training, MRI artifact augmentation, NIfTI-1
I/O, and a synthetic phantom harness that makes the whole thing trainable
and verifiable on a CPU.
"""

__version__ = "0.1.0"
