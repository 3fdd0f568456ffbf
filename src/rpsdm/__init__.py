"""Ramanujan periodic subspace division multiplexing (RPSDM) next to baseline
OFDM: integer periodic transforms, cyclic-prefix channel simulation, ZF/MMSE
detection, and PAPR / BER / complexity experiments."""

from .number_theory import DivisorSet, divisor_count, divisor_set, gcd, mobius, totient
from .ramanujan import (NumericalError, PeriodicTransform, RamanujanSum, build_transform,
                        circulant_integer_matrix, dft_support, ramanujan_sum, subspace_basis)
from .transforms import (FlopCount, ModulatorPlan, Scheme, demodulate, direct_flops,
                         fast_flops, make_plan, modulate, sparse_irpt,
                         synthesize_by_subspaces)
from .channel import (ChannelRealization, EffectiveChannel, add_cp, awgn,
                      circulant_from_column, circulant_matrix, draw_channel, effective_channel,
                      is_skew_circulant, is_stair_block_diagonal, is_toeplitz,
                      remove_cp, structure_report, transmit)
from .detection import (Detector, DetectorSpec, QamConstellation, SingularChannelError,
                        equalize, qam_demap, qam_map)
from .metrics import (ComplexityRow, CurveResult, ber_curve, ber_curves, ccdf_crossing,
                      complexity_report, gamma_coefficient, papr, papr_ccdf, papr_db,
                      worst_case_papr)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization", "ComplexityRow", "CurveResult", "Detector", "DetectorSpec",
    "DivisorSet", "EffectiveChannel", "FlopCount", "ModulatorPlan", "NumericalError",
    "PeriodicTransform", "QamConstellation", "RamanujanSum", "Scheme",
    "SingularChannelError", "add_cp", "awgn", "ber_curve", "ber_curves",
    "build_transform", "ccdf_crossing", "circulant_from_column",
    "circulant_integer_matrix", "circulant_matrix", "complexity_report", "demodulate",
    "dft_support", "direct_flops", "divisor_count", "divisor_set", "draw_channel",
    "effective_channel", "equalize", "fast_flops", "gamma_coefficient", "gcd",
    "is_skew_circulant", "is_stair_block_diagonal", "is_toeplitz", "make_plan",
    "mobius", "modulate", "papr", "papr_ccdf", "papr_db", "qam_demap", "qam_map",
    "ramanujan_sum", "remove_cp", "sparse_irpt", "structure_report", "subspace_basis",
    "synthesize_by_subspaces", "totient", "transmit", "worst_case_papr",
]
