(** Common-subexpression elimination.

    The classic benchmarks deliberately repeat work (HAL's diff-eq computes
    [u*dx] twice); real front ends also produce duplicates. CSE merges
    nodes computing the same value in compatible conditional contexts,
    complementing {!Mutex.merge_shared} (which merges across
    mutually-exclusive branches). *)

val run : Graph.t -> (Graph.t, Diag.t) result
(** Merge nodes with the same kind and operands (order-insensitive for
    commutative kinds) whose guard sets are equal, keeping the
    lowest-id node and rewiring consumers. Runs to a fixpoint, so chains
    of duplicates collapse. A rebuild the graph builder rejects is its
    [graph.invalid] diagnostic. *)

val eliminate : Graph.t -> (Graph.t, string) result
(** {!run} with the diagnostic's message, for callers that take a string
    error. *)

val savings : Graph.t -> int
(** Number of operations CSE would remove. *)
