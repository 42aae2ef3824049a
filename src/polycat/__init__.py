"""polycat: catalogs of small k-polymatroids up to isomorphism.

Polymatroids are stored as dense bitmask-indexed rank tables (core),
extended one element at a time through extensible partitions of their
flats (extend), canonically labeled by lex-minimal relabeling (canon),
generated isomorph-free by canonical deletion (gen), and cross-checked
by an independent brute-force search (oracle).
"""

from .core import (
    FlatLattice,
    RankTable,
    Violation,
    closure,
    contract,
    delete,
    flats,
    format_polymatroid,
    k_dual,
    min_element_rank,
    modular_defect,
    parse_polymatroid,
    validate,
)
from .extensions import (
    check_partition,
    enumerate_extensible_partitions,
    extend,
    extension_flats,
    mu_of_set,
)
from .canon import (
    CanonicalForm,
    FlatGraph,
    canonical_form,
    flat_graph,
    isomorphic,
    labeled_count,
)
from .gen import (
    Catalog,
    CatalogEntry,
    GenerationStats,
    base_catalog,
    count_table,
    duality_check,
    enumerate_all,
    filter_count,
    generate_next,
    read_catalog,
    write_catalog,
)
from .oracle import brute_extensions, brute_labeled_count, cross_check

__version__ = "0.1.0"
