(** Multi-iteration execution: run a synthesised loop body over a stream of
    samples, feeding designated outputs back into inputs between iterations
    — a filter processing a signal, which is what the paper's DSP behaviours
    (AR lattice, elliptic wave filter, biquads) are for.

    Iteration [k] reads fresh per-sample inputs from [stream k], constant
    inputs from [consts], and state inputs from the previous iteration's
    fed-back outputs. *)

type feedback = (string * string) list
(** [(output_value, input_name)]: after each iteration, the value computed
    for [output_value] becomes the next iteration's [input_name]. *)

val run :
  Rtl.Datapath.t -> Rtl.Controller.t -> feedback:feedback ->
  consts:Eval.env -> init:Eval.env -> stream:(int -> Eval.env) ->
  iterations:int -> ((string * int) list list, Diag.t) result
(** Values of every executed node, one list per iteration. [init] gives the
    state inputs' first-iteration values. Errors: machine failures (their
    message prefixed with the iteration), or a feedback entry naming an
    unknown value/input or lacking an initial value ([sim.feedback],
    input). *)

val reference :
  Dfg.Graph.t -> feedback:feedback -> consts:Eval.env -> init:Eval.env ->
  stream:(int -> Eval.env) -> iterations:int ->
  ((string * int) list list, Diag.t) result
(** The same iteration driven by the golden-model evaluator. *)

val check :
  Rtl.Datapath.t -> Rtl.Controller.t -> feedback:feedback ->
  consts:Eval.env -> init:Eval.env -> stream:(int -> Eval.env) ->
  iterations:int -> (unit, Diag.t) result
(** Machine vs golden model over the whole stream, comparing every active
    node of every iteration; a difference is a [sim.mismatch] internal
    error. The golden model's failures come first, then the machine's. *)
