"""Wavefront applications.

* :class:`repro.apps.synthetic.SyntheticApp` — the parameterisable synthetic
  application used to train the autotuner (Section 3.1);
* :class:`repro.apps.nash.NashEquilibriumApp` — the coarse-grained
  game-theoretic evaluation application (Section 3.2.1);
* :class:`repro.apps.sequence.SequenceComparisonApp` — Smith-Waterman
  biological sequence comparison, the fine-grained evaluation application;
* :class:`repro.apps.knapsack.KnapsackApp` — the 0/1 knapsack dynamic
  program mentioned as future work (Section 6), included as an extension;
* :class:`repro.apps.editdistance.EditDistanceApp` — Needleman-Wunsch global
  alignment / edit distance, a second alignment-shaped recurrence;
* :class:`repro.apps.lcs.LCSApp` — longest common subsequence, the textbook
  zero-boundary wavefront DP;
* :class:`repro.apps.matrixchain.MatrixChainApp` — edge-split matrix-chain
  ordering, interval DP re-oriented onto the wavefront;
* :class:`repro.apps.viterbi.ViterbiApp` — banded-HMM Viterbi decoding,
  the max-product probabilistic recurrence with a state-path witness;
* :class:`repro.apps.stochastic_path.StochasticPathApp` — risk-sensitive
  expected cost of a random lattice walk, the log-space-sum recurrence;
* :class:`repro.apps.knapsack.ExpectedKnapsackApp` — expected-value
  knapsack over Bernoulli items tracking first and second moments.

All applications register themselves in :mod:`repro.apps.registry`; every
kernel is expressible both per-cell (:meth:`WavefrontKernel.cell`) and
diagonal-vectorized (:meth:`WavefrontKernel.diagonal`), and fused by rows
(:meth:`WavefrontKernel.make_row_evaluator`) or by diagonals
(:meth:`WavefrontKernel.make_diagonal_evaluator`) — docs/apps.md says which.
"""

from repro.apps.base import WavefrontApplication
from repro.apps.synthetic import SyntheticApp, SyntheticKernel
from repro.apps.nash import NashEquilibriumApp, NashKernel
from repro.apps.sequence import SequenceComparisonApp, SmithWatermanKernel, random_dna
from repro.apps.knapsack import (
    ExpectedKnapsackApp,
    ExpectedKnapsackKernel,
    KnapsackApp,
    KnapsackKernel,
)
from repro.apps.editdistance import EditDistanceApp, EditDistanceKernel
from repro.apps.lcs import LCSApp, LCSKernel
from repro.apps.matrixchain import MatrixChainApp, MatrixChainKernel
from repro.apps.stochastic_path import StochasticPathApp, StochasticPathKernel
from repro.apps.viterbi import ViterbiApp, ViterbiKernel
from repro.apps.registry import APPLICATIONS, get_application

__all__ = [
    "WavefrontApplication",
    "SyntheticApp",
    "SyntheticKernel",
    "NashEquilibriumApp",
    "NashKernel",
    "SequenceComparisonApp",
    "SmithWatermanKernel",
    "random_dna",
    "KnapsackApp",
    "KnapsackKernel",
    "EditDistanceApp",
    "EditDistanceKernel",
    "LCSApp",
    "LCSKernel",
    "MatrixChainApp",
    "MatrixChainKernel",
    "ViterbiApp",
    "ViterbiKernel",
    "StochasticPathApp",
    "StochasticPathKernel",
    "ExpectedKnapsackApp",
    "ExpectedKnapsackKernel",
    "APPLICATIONS",
    "get_application",
]
