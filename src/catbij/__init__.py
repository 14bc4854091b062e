"""Catalan object families, explicit bijections between them, and the Tamari
lattice, with exhaustive verification at desk scale."""

from .baseball import (
    BASEBALL,
    CROSSBALL,
    classify_balls,
    perm_to_tree,
    trace_wires,
    tree_to_perm,
)
from .bookshelf import (
    Shelf,
    bookshelf,
    bookshelf_gapped,
    column_profile,
    inverse_bookshelf,
    min_tree_size,
    push_gaps,
    shelves,
)
from .core import (
    LEAF,
    BinaryTree,
    DyckPath,
    GappedYoungDiagram,
    Interval,
    Leaf,
    Node,
    TorsionPair,
    TreeCoordinate,
    YoungDiagram,
    catalan,
    enumerate_dyck,
    enumerate_parens,
    enumerate_perms213,
    enumerate_trees,
    enumerate_young,
    from_paren,
    is_213_avoiding,
    is_leaf,
    left_comb,
    node_coordinates,
    right_comb,
    size,
    to_paren,
)
from .dyck import dyck_to_tree, dyck_to_young, tree_to_dyck, young_to_dyck
from .errors import (
    AmbientMismatchError,
    CatbijError,
    FrozenInstanceError,
    InvariantError,
    MalformedDocumentError,
    NotAPermutationError,
)
from .tamari import (
    TamariPoset,
    build_lattice,
    count_maximal_chains,
    covers_of,
    hasse,
    is_lattice,
    verify_order_reversing,
)
from .torsion import (
    RectangleSplit,
    all_balls,
    complete_torsion_hu,
    decompose_rectangle,
    enumerate_torsion,
    hom_nonzero,
    is_torsion_class,
    perp_left,
    perp_right,
    recompose_rectangle,
    torsion_generate,
    torsion_to_gapped_young,
    torsion_to_tree,
    tree_to_torsion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
