"""Measurement noise.

The paper measures loops with inserted cycle-counter instrumentation on real
hardware, in a "generally noisy environment" (Section 6.1); its noise
mitigations — median of 30 runs, a 50,000-cycle floor, a 1.05x labelling
margin — only make sense if the raw measurements wobble.  This module is the
wobble: a multiplicative lognormal term (OS jitter, drift), a per-entry
counter overhead (their instrumentation cost), and rare alignment outliers
(a loop that lands on an unfortunate cache boundary for one binary layout).

Everything is driven by an explicit :class:`numpy.random.Generator`, so the
whole labelling pipeline is reproducible from one root seed.

**Stream contract.**  For a batch of ``m`` loops measured ``n`` times each,
exactly three fixed-size blocks are consumed from the generator, in order:

1. ``m * n`` lognormal jitter values (row-major: loop 0's runs first);
2. ``m * n`` uniforms deciding which measurements are outliers;
3. ``m * n`` uniforms sizing the outlier inflation.

Every block is always drawn in full — which measurements *are* outliers
masks the inflation values, it never changes how many are drawn — so the
stream position after a batch depends only on ``(m, n)``, never on the
sampled data.  The scalar :meth:`NoiseModel.samples` is the ``m = 1`` row of
this contract, bit-identical to :meth:`NoiseModel.batch_samples` on a
one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the measurement-noise distribution.

    Attributes:
        sigma: scale of the lognormal multiplicative jitter.
        outlier_rate: probability that a measurement is an alignment
            outlier.
        outlier_scale: maximum multiplicative inflation of an outlier.
        counter_overhead: cycles added per loop entry by the
            instrumentation counters (the paper's lightweight assembly
            timers still cost a few cycles each).
    """

    sigma: float = 0.025
    outlier_rate: float = 0.02
    outlier_scale: float = 0.35
    counter_overhead: int = 9

    def batch_samples(
        self,
        true_cycles: np.ndarray,
        entry_counts: np.ndarray,
        rng: np.random.Generator,
        n: int = 30,
    ) -> np.ndarray:
        """Simulated measurements for a batch of loops.

        Args:
            true_cycles: ``(m,)`` noise-free cumulative cycles per loop.
            entry_counts: ``(m,)`` loop entry counts (for counter overhead).
            rng: the generator; consumes the three blocks of the module's
                stream contract.
            n: measurements per loop.

        Returns:
            ``(m, n)`` array, row ``i`` holding loop ``i``'s measurements.
        """
        base = (
            np.asarray(true_cycles, dtype=float)
            + np.asarray(entry_counts, dtype=float) * self.counter_overhead
        )
        m = base.shape[0]
        jitter = rng.lognormal(mean=0.0, sigma=self.sigma, size=(m, n))
        values = base[:, None] * jitter
        outliers = rng.random((m, n)) < self.outlier_rate
        inflation = 1.0 + rng.random((m, n)) * self.outlier_scale
        return np.where(outliers, values * inflation, values)

    def batch_medians(
        self,
        true_cycles: np.ndarray,
        entry_counts: np.ndarray,
        rng: np.random.Generator,
        n: int = 30,
    ) -> np.ndarray:
        """Per-loop median of ``n`` measurements for a batch of loops."""
        return np.median(self.batch_samples(true_cycles, entry_counts, rng, n), axis=1)

    def samples(
        self,
        true_cycles: float,
        entry_count: int,
        rng: np.random.Generator,
        n: int = 30,
    ) -> np.ndarray:
        """Draw ``n`` simulated measurements of a loop's cumulative cycles.

        The ``m = 1`` case of :meth:`batch_samples`: the same three blocks
        are consumed (``n`` jitters, ``n`` outlier uniforms, ``n`` inflation
        uniforms), so the generator advances by a data-independent amount.
        """
        return self.batch_samples(
            np.array([float(true_cycles)]), np.array([entry_count]), rng, n
        )[0]


#: Noise-free measurements — used by tests that need exact arithmetic.
NOISELESS = NoiseModel(sigma=0.0, outlier_rate=0.0, counter_overhead=0)

#: The default model used by the full pipeline.
DEFAULT_NOISE = NoiseModel()
