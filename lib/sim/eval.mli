(** Reference evaluation of a DFG on concrete integer inputs — the golden
    model the RTL machine is checked against. *)

type env = (string * int) list
(** Values of the primary inputs. *)

val run : Dfg.Graph.t -> env -> ((string * int) list, Diag.t) result
(** Every node's value under pure dataflow semantics (guards ignored: a
    value is computed whether or not its branch is taken). An input
    missing from the environment is a [sim.golden] input error. *)

val value : (string * int) list -> string -> int option

val active : Dfg.Graph.t -> values:(string * int) list -> int -> bool
(** Whether the node's guards are all satisfied: condition value non-zero
    for a [true] arm, zero for a [false] arm. *)
