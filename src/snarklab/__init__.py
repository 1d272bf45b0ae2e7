"""Toolkit for 3-edge-coloring theory of cubic graphs on the plane and projective plane.

Submodules:
    graphs          embedded multigraphs, embedded surgery, coloring oracle
    cuts            cyclic edge cuts, low-cut reductions, Petersen-core detection
    rings           ring parity colorings and signed matching tables
    configurations  degree-specified near-triangulations and their completions
    reducibility    D- and C-reducibility checking against matching tables
    families        projective island family generators
    cutanalysis     4-cut and 5-cut coloring-class analysis
"""

__version__ = "0.1.0"
