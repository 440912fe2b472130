(** Structural validation of elaborated datapaths, used by tests and by the
    CLI after every MFSA run. Violations are [Internal] diagnostics (codes
    [check.alu-capability], [check.alu-overlap], [check.reg-clash],
    [check.style2]): a datapath our own pipeline produced should never fail
    these. *)

val alu_span : Datapath.alu -> delay:(int -> int) -> int -> int
(** Steps an operation occupies its ALU: one on a pipelined unit (it frees
    its issue slot after one step), [delay] otherwise. *)

val unit_conflicts :
  ?share_mutex:bool -> ?steps_overlap:(int -> int -> int -> int -> bool) ->
  Datapath.t -> span:(int -> int) -> int list -> (int * int) list
(** The one-operation-per-unit-per-step audit over one unit's operations
    (an ALU's [a_ops] with {!alu_span}, or a bank port's [m_ops] with the
    delay): every pair [(i, j)], [i] before [j] in the list, that
    {!Lifetime.clash}es. [steps_overlap] decides when cells meet and
    defaults to [Lifetime.steps_overlap ~latency:None]; only with
    [share_mutex] (default true) do mutually exclusive operations count as
    exclusive. *)

val reg_clashes :
  Left_edge.t -> Lifetime.interval list -> (string * string * int) list
(** The register-sharing audit: every pair of stored values, in interval
    order, that share a register while their lifetimes overlap, with that
    register. Each value's register is looked up once. *)

val datapath :
  ?style2:bool -> ?share_mutex:bool ->
  ?steps_overlap:(int -> int -> int -> int -> bool) ->
  Datapath.t -> delay:(int -> int) -> (unit, Diag.t list) result
(** Checks:
    - every operation's kind is within its ALU's capability set;
    - every ALU instance executes at most one operation per step
      ({!unit_conflicts} with {!alu_span}). [steps_overlap start span
      start' span'] says when cells meet — pass
      [Lifetime.steps_overlap ~latency] to validate a functionally
      pipelined schedule with the scheduler's own modulo-folded rule;
    - register sharing is sound ({!reg_clashes});
    - with [style2], no ALU holds an operation together with a direct DFG
      predecessor or successor. *)
