(** The job vocabulary: every setting of a synthesis job, with its one
    text form, its one range rule and a printer whose output reads back
    exactly. The CLI, batch manifests ({!Driver.options_of_flags}),
    explore specs, serve requests and the cluster wire all parse through
    it, so a job is accepted or refused the same way wherever it enters,
    and arrives at a worker as it was sent. Each front end keeps only its
    error code, message layout and span.

    {v
    setting   text form                      rule
    engine    mfsa | mfs | list
    library   default | two-cycle | pipelined
    style     1 | 2
    weights   T/ALU/MUX/REG                  each >= 0
    budget    integer                        >= 0; 0 is the critical path
    cap       CLASS=COUNT                    class non-empty, count >= 1
    caps      CLASS=COUNT[,CLASS=COUNT...]   one or more caps, order kept
    latency   integer                        >= 1
    ports     integer                        >= 1
    clock     number (ns)                    finite, > 0
    v} *)

type 'a t

val of_string : 'a t -> string -> 'a option
(** The value a text names, when it is well-formed and in range. *)

val to_string : 'a t -> 'a -> string
(** [of_string t (to_string t v) = Some v] for every in-range [v]. *)

val expected : 'a t -> string -> string
(** What a rejected text should have been: the form (["an integer"])
    when it is malformed, the form and range (["an integer >= 1"]) when
    it is out of range. *)

val engine : Flow.engine t
val library : Problem.library_variant t
val style : Core.Mfsa.style t
val styles : Core.Mfsa.style list
val weights : Core.Mfsa.weights t
val budget : int t
val cap : (string * int) t
val caps : (string * int) list t
val latency : int t
val ports : int t
val clock : float t

val constraint_name : Flow.constr -> string
(** ["T=17"], or ["R{*=2,+=1}"] with the caps sorted: the constraint's
    part of a point's description and of its content-addressed key. *)

val float_repr : float -> string
(** [%.12g] when that reads back exactly, else [%.17g]: every value
    [%.12g] printed exactly keeps its bytes, so keys that digest a
    weight vector do not change. *)
