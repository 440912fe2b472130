(** Deterministic random DFGs for property tests and scalability benches. *)

type spec = {
  ops : int;  (** Number of operations (>= 1). *)
  kinds : Dfg.Op.kind list;  (** Kind universe drawn from (non-empty). *)
  inputs : int;  (** Number of primary inputs (>= 1). *)
  locality : int;
      (** Operands are drawn from the previous [locality] nodes (or primary
          inputs), shaping depth: small = deep chains, large = wide DAGs. *)
  guard_prob : float;  (** Probability a node is guarded (needs [Lt] first). *)
}

val default : spec
(** 30 ops over [+ - *], 4 inputs, locality 8, no guards. *)

val generate : ?spec:spec -> seed:int -> unit -> (Dfg.Graph.t, Diag.t) result
(** A validated DAG; the same seed and spec always produce the same graph.
    A nonsensical spec ([ops < 1], [inputs < 1], empty kind universe) is an
    [Input] diagnostic; a generated-yet-invalid graph (a generator bug) is
    the builder's [graph.invalid]. *)

val generate_exn : ?spec:spec -> seed:int -> unit -> Dfg.Graph.t
(** {!generate}, raising [Invalid_argument] on a bad spec — for tests and
    benches with known-good specs. *)
