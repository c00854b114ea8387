"""Hardware-aware Pareto search over sub-network configurations.

Search spaces are fixed-length integer genomes with block activity rules;
searches run NSGA-II against measurements or cheap surrogate predictors, and
search history can be distilled into a reduced space. The package root
exports no names: code imports from the submodules (`subnetsearch.cli`,
`subnetsearch.driver`, `subnetsearch.evalmgr`, ...).
"""

__version__ = "0.1.0"
