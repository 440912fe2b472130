(** Data-flow graphs (DFGs).

    A DFG is a DAG of operations. Each operation produces exactly one value,
    named after the node; operands refer to primary inputs or to other nodes
    by name. Nodes may carry {e guards} — (condition-signal, arm) pairs — so
    that operations on different branches of a conditional can be recognised
    as mutually exclusive (paper §5.1).

    Graphs are immutable once built; construction goes through {!Builder},
    which validates names, arities, guard references and acyclicity. *)

type node = {
  id : int;  (** Dense index in [0 .. num_nodes-1], topological-friendly. *)
  name : string;  (** Unique node name; also the name of the produced value. *)
  kind : Op.kind;
  args : string list;  (** Operand value names (primary inputs or node names). *)
  guards : (string * bool) list;
      (** Conditional context: [(c, arm)] means the op executes only when
          condition value [c] is non-zero iff [arm]. *)
}

type array_decl = {
  a_name : string;  (** Array name; shares the value namespace. *)
  a_size : int;  (** Number of words, indexed [0 .. a_size-1]. *)
  a_bank : string;  (** Memory bank holding the array (default: own name). *)
}

type bank_decl = {
  b_name : string;
  b_ports : int;  (** Simultaneous accesses the bank serves per step. *)
}

type t

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_input : t -> string -> unit
  (** Declare a primary input value. Duplicate declarations are idempotent. *)

  val add_op :
    ?guards:(string * bool) list -> t -> name:string -> Op.kind ->
    string list -> unit
  (** Add an operation producing value [name]. Operand references may be
      forward: resolution happens in {!build}. *)

  val declare_range : t -> string -> int * int -> unit
  (** Declare that value [name] always lies in [[lo, hi]]. On a primary
      input this is an assumption seeding the range analysis; on a node it
      is redundant documentation (inference is authoritative). Later
      declarations for the same name replace earlier ones. *)

  val declare_width : t -> string -> int -> unit
  (** Declare a signed two's-complement bit width for a value. On an input
      it seeds the range [[-2^(w-1), 2^(w-1)-1]]; on a node it is a
      narrowing contract checked for provable overflow by
      [Analysis.Ranges]. *)

  val declare_array : ?bank:string -> t -> name:string -> size:int -> unit
  (** Declare an array of [size] words living in [bank] (default: a
      private bank named after the array). Array names share the value
      namespace but may only appear as the first operand of a memory
      access. Accesses to one array gain address-dependence edges in
      program order: load-after-store, store-after-store and
      store-after-load; loads between two stores stay unordered. *)

  val declare_bank : t -> name:string -> ports:int -> unit
  (** Declare a memory bank with [ports] access ports. Banks referenced
      by an array but never declared default to one port. *)

  val import_memory : t -> from:graph -> unit
  (** Re-declare every array and bank of [from] into the builder. Graph
      rewriters (CSE, mutex encoding) use this so memory declarations
      survive a rebuild. *)

  val build : t -> (graph, Diag.t) result
  (** Validate and freeze: unique names, known operand/guard references,
      arity match, acyclicity, and guard scoping — a value is defined
      exactly when its guards hold, so a producer's guards must be a subset
      of every consumer's (no cross-branch reads). A rejection is a
      [graph.invalid] input error carrying a human-readable reason. *)
end

val of_ops :
  inputs:string list ->
  (string * Op.kind * string list * (string * bool) list) list ->
  (t, Diag.t) result
(** Convenience one-shot constructor: [(name, kind, args, guards)] rows. *)

val num_nodes : t -> int

val node : t -> int -> node
(** @raise Invalid_argument on an out-of-range id. *)

val nodes : t -> node list
(** All nodes in id order. *)

val find : t -> string -> node option
(** Look a node up by name. *)

val inputs : t -> string list
(** Declared primary inputs, in declaration order. *)

val ranges : t -> (string * (int * int)) list
(** Declared value ranges, in declaration order (see
    {!Builder.declare_range}). *)

val declared_widths : t -> (string * int) list
(** Declared bit widths, in declaration order (see
    {!Builder.declare_width}). *)

val range_of : t -> string -> (int * int) option
val declared_width : t -> string -> int option

val arrays : t -> array_decl list
(** Declared arrays, in declaration order. *)

val banks : t -> bank_decl list
(** Explicitly declared banks, in declaration order. *)

val array_of : t -> string -> array_decl option
(** Look an array up by name. *)

val bank_names : t -> string list
(** Every bank name in use — declared or implied by an array — sorted. *)

val bank_ports : t -> string -> int
(** Declared port count of a bank; 1 when the bank was never declared. *)

val mem_class : string -> string
(** Resource-class name of a bank's ports, ["mem:BANK"]. Memory accesses
    compete for these pseudo-FU classes instead of ALU classes. *)

val is_mem_class : string -> bool
(** Whether a resource-class name denotes bank ports ({!mem_class}). *)

val bank_of_class : string -> string
(** Inverse of {!mem_class}; identity on non-memory class names. *)

val node_bank : t -> node -> string option
(** The bank a memory access occupies, [None] for compute nodes. *)

val node_class : t -> node -> string
(** Resource class of a node: {!Op.fu_class} for compute nodes,
    {!mem_class} of the accessed array's bank for loads and stores. *)

val copy_annotations : from:t -> t -> t
(** Carry range/width declarations from [from] onto a rewritten graph,
    dropping entries whose value no longer exists and keeping any
    declarations already present on the target. Used by graph rewriters
    (CSE, loop expansion, mutex encoding) so annotations survive. *)

val preds : t -> int -> int list
(** Data predecessors: nodes whose value this node consumes as an operand
    {e or} as a guard condition (the controller must know the condition
    before it can enable the operation). *)

val succs : t -> int -> int list
(** Data successors. *)

val topological : t -> int list
(** A topological order of node ids (predecessors first). *)

val sinks : t -> int list
(** Nodes without successors — the DFG outputs. *)

val count_by_class : t -> (string * int) list
(** Number of operations per single-function FU class ({!Op.fu_class}),
    ordered by first appearance. *)

val classes : t -> string list
(** FU classes present, ordered by first appearance. *)

val mutually_exclusive : t -> int -> int -> bool
(** [mutually_exclusive g i j] holds when the guard sets of [i] and [j]
    disagree on some condition: the two operations can never execute in the
    same run, hence may share an FU instance and a control step. *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing, one node per line. *)
