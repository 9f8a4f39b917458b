"""Computational thermodynamic formalism on one-sided shifts of finite type
and their one-block factors: relative-pressure sequences, pressures,
Gibbs/weak-Gibbs data, almost-additivity defect profiles and
compensation-function detection.
"""

from .detect import (C2Certificate, DefectReport, FitResult, c2_certificate,
                     chebyshev_defect, fit_h, image_periodic_points,
                     periodic_defect, table_verdict, uniform_defect)
from .factor import ImageLanguage, OneBlockFactor, fiber_words, pushforward_cylinder
from .gibbs import (GibbsData, pushforward_sandwich, transfer_pressure,
                    weak_gibbs_constants)
from .markov import MarkovMeasure
from .potential import (LocallyConstantPotential, birkhoff_extremes,
                        birkhoff_inf, birkhoff_sup, periodic_birkhoff,
                        variation_constant)
from .seqtable import (DefectProfile, PressureEstimate, SeqTable,
                       build_additive_table, build_g_table, check_D2,
                       defect_profile, partition_sum, partition_sum_exact,
                       partition_table, pressure_estimate)
from .shiftcore import (PeriodicPoint, Sft, Word, bridge, is_irreducible,
                        periodic_points, weak_spec_number)
from .verdicts import GibbsVerdict, Verdict

__version__ = "0.1.0"
