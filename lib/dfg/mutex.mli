(** Conditional-branch preprocessing (paper §5.1).

    Operations appearing identically in mutually-exclusive branches of a
    conditional are redundant: "we remove all of the operations which are
    shared between branches except one of them". *)

val shared_pairs : Graph.t -> (int * int) list
(** Pairs [(keep, drop)] of mutually-exclusive nodes computing the same
    value: same kind and same multiset of operands (order-insensitive for
    commutative kinds). The kept node is the one with the smaller id. *)

val merge_shared : Graph.t -> (Graph.t, Diag.t) result
(** Rebuild the graph with each [drop] node removed; consumers of the dropped
    value are rewired to the kept one, whose guards become the intersection
    of the two guard sets (the computation is common to both branches). *)
